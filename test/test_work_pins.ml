(** Exact work counters and final state digests of fixed, seeded
    maintenance streams, at one domain.

    Each stream runs one algorithm over a small program and a seeded churn
    of base tuples.  The evaluator's work counters (derivations, probes,
    tuples scanned), DRed's overdelete/rederive counters and the final
    {!Database.canonical_digest} are asserted exactly.  A refactor of the
    evaluation or commit plumbing that keeps the round schedule and the
    task order leaves every figure unchanged; a changed figure means the
    algorithms now do different work.  The domain count is forced to 1
    here, so the figures hold whatever [IVM_DOMAINS] says. *)

open Util
module Stats = Ivm_eval.Stats
module Metrics = Ivm_obs.Metrics
module Prng = Ivm_workload.Prng
module Changes = Ivm.Changes

type figures = {
  derivations : int;
  probes : int;
  scanned : int;
  overdeleted : int;
  rederive_attempts : int;
  rederived : int;
  digest : string;
}

let figures =
  Alcotest.testable
    (fun ppf f ->
      Fmt.pf ppf
        "{ derivations = %d; probes = %d; scanned = %d; overdeleted = %d; \
         rederive_attempts = %d; rederived = %d; digest = %S }"
        f.derivations f.probes f.scanned f.overdeleted f.rederive_attempts
        f.rederived f.digest)
    ( = )

let counter name = Metrics.counter_value (Metrics.counter name)

(* Run [f] at one domain and return the work it did plus [db]'s digest. *)
let measure db f =
  let prev = Ivm_par.domains () in
  Ivm_par.set_domains 1;
  Fun.protect
    ~finally:(fun () -> Ivm_par.set_domains prev)
    (fun () ->
      let od = counter "ivm_dred_overdeleted_total"
      and ra = counter "ivm_dred_rederive_attempts_total"
      and rd = counter "ivm_dred_rederived_total" in
      let before = Stats.snapshot () in
      f ();
      let w = Stats.since before in
      {
        derivations = w.Stats.snap_derivations;
        probes = w.Stats.snap_probes;
        scanned = w.Stats.snap_tuples_scanned;
        overdeleted = counter "ivm_dred_overdeleted_total" - od;
        rederive_attempts = counter "ivm_dred_rederive_attempts_total" - ra;
        rederived = counter "ivm_dred_rederived_total" - rd;
        digest = Database.canonical_digest db;
      })

(* A seeded churn over [link]: the candidate edges of [nodes] nodes
   (filtered by [keep]), half of them loaded up front; each step deletes
   [k] live edges and inserts [k] dead ones. *)
let churn ~seed ~nodes ~keep ~steps ~k db =
  let rng = Prng.create seed in
  let edge i j = Tuple.of_strs [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" j ] in
  let cands =
    List.concat_map
      (fun i -> List.filter_map (fun j -> if keep i j then Some (edge i j) else None)
          (List.init nodes Fun.id))
      (List.init nodes Fun.id)
    |> Array.of_list
  in
  Prng.shuffle rng cands;
  let n = Array.length cands in
  let live = Array.init n (fun i -> i < n / 2) in
  Database.load db "link" (List.filteri (fun i _ -> live.(i)) (Array.to_list cands));
  let program = Database.program db in
  let pick want =
    let rec go acc left =
      if left = 0 then acc
      else
        let i = Prng.int rng n in
        if live.(i) = want && not (List.mem i acc) then go (i :: acc) (left - 1)
        else go acc left
    in
    go [] k
  in
  List.init steps (fun _ ->
      let dels = pick true and ins = pick false in
      List.iter (fun i -> live.(i) <- false) dels;
      List.iter (fun i -> live.(i) <- true) ins;
      Changes.deletions program "link" (List.map (fun i -> cands.(i)) dels)
      @ Changes.insertions program "link" (List.map (fun i -> cands.(i)) ins))

let counting_src =
  {|
    hop(X, Y) :- link(X, Z), link(Z, Y).
    tri(X) :- hop(X, Y), link(Y, X).
    only2(X, Y) :- hop(X, Y), not link(X, Y).
    deg(X, N) :- groupby(link(X, Y), [X], N = count()).
    hub(X) :- deg(X, N), N >= 2.
    lonely(X) :- deg(X, N), not tri(X).
  |}

let recursive_src =
  {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- link(X, Z), path(Z, Y).
    node(X) :- link(X, Y).
    node(Y) :- link(X, Y).
    cut(X, Y) :- node(X), node(Y), not path(X, Y).
    reach(X, N) :- groupby(path(X, Y), [X], N = count()).
  |}

(* The program's database with nothing loaded or materialized yet. *)
let empty_db semantics src =
  let rules, _ = Parser.split (Parser.parse_program src) in
  Database.create ~semantics (Program.make rules)

let any _ _ = true
let forward i j = i < j

(* a ring with short chords: sparse and cyclic, so deletions cut paths *)
let ring i j = i <> j && (j - i + 10) mod 10 <= 2

let counting_stream semantics () =
  let db = empty_db semantics counting_src in
  let batches = churn ~seed:11 ~nodes:9 ~keep:any ~steps:12 ~k:3 db in
  Ivm_eval.Seminaive.evaluate db;
  measure db (fun () ->
      List.iter (fun c -> ignore (Ivm.Counting.maintain db c)) batches)

let dred_stream () =
  let db = empty_db Database.Set_semantics recursive_src in
  let batches = churn ~seed:5 ~nodes:10 ~keep:ring ~steps:12 ~k:2 db in
  Ivm_eval.Seminaive.evaluate db;
  measure db (fun () ->
      List.iter (fun c -> ignore (Ivm.Dred.maintain db c)) batches)

let recursive_counting_stream () =
  let db = empty_db Database.Duplicate_semantics recursive_src in
  let batches = churn ~seed:7 ~nodes:8 ~keep:forward ~steps:12 ~k:2 db in
  Ivm.Recursive_counting.evaluate db;
  measure db (fun () ->
      List.iter (fun c -> ignore (Ivm.Recursive_counting.maintain db c)) batches)

let seminaive_stream () =
  let db = empty_db Database.Set_semantics recursive_src in
  ignore (churn ~seed:3 ~nodes:10 ~keep:any ~steps:0 ~k:0 db);
  measure db (fun () -> Ivm_eval.Seminaive.evaluate db)

let pinned name expected run =
  quick name (fun () -> Alcotest.check figures name expected (run ()))

(* The [ivm_fixpoint_rounds_total{engine}] increment over a whole stream,
   its initial materialization included. *)
let pinned_rounds name engine expected run =
  quick name (fun () ->
      let c = Metrics.counter ~labels:[ ("engine", engine) ] "ivm_fixpoint_rounds_total" in
      let before = Metrics.counter_value c in
      ignore (run ());
      Alcotest.(check int) name expected (Metrics.counter_value c - before))

let suite =
  [
    pinned "counting, set semantics"
      {
        derivations = 1072;
        probes = 656;
        scanned = 1549;
        overdeleted = 0;
        rederive_attempts = 0;
        rederived = 0;
        digest = "3c29ba15709ba870f9b451c0e770e562";
      }
      (counting_stream Database.Set_semantics);
    pinned "counting, duplicate semantics"
      {
        derivations = 1370;
        probes = 1344;
        scanned = 2401;
        overdeleted = 0;
        rederive_attempts = 0;
        rederived = 0;
        digest = "07fa6bddf61ac763511aa1144dfb7cb5";
      }
      (counting_stream Database.Duplicate_semantics);
    pinned "dred, cyclic closure with negation"
      {
        derivations = 1429;
        probes = 4049;
        scanned = 5078;
        overdeleted = 596;
        rederive_attempts = 164;
        rederived = 148;
        digest = "9abc64d2e8eea7c383bc7dd2fef49b71";
      }
      dred_stream;
    pinned "recursive counting, acyclic closure"
      {
        derivations = 1120;
        probes = 1542;
        scanned = 1833;
        overdeleted = 0;
        rederive_attempts = 0;
        rederived = 0;
        digest = "86185b33ccab04de74162d677d4335a5";
      }
      recursive_counting_stream;
    pinned "seminaive evaluate"
      {
        derivations = 660;
        probes = 218;
        scanned = 870;
        overdeleted = 0;
        rederive_attempts = 0;
        rederived = 0;
        digest = "0de7ae94cb8a26ee06b05660fd20ada9";
      }
      seminaive_stream;
    pinned_rounds "seminaive evaluate: fixpoint rounds" "seminaive" 3 seminaive_stream;
    pinned_rounds "recursive counting: fixpoint rounds" "recursive-counting" 37
      recursive_counting_stream;
    pinned_rounds "dred: fixpoint rounds" "dred" 186 dred_stream;
  ]
