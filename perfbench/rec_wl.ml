(* recursive_churn: the library in-process, no server and no store.

   Transitive closure over a sparse random graph with cycles: a forest
   of 20 independent random digraphs of 30 nodes, each with 60 live
   edges out of 90 candidates (1200 of 1800 in all; mean out-degree 2,
   so each component has a strongly connected core).  [Auto] resolves
   to DRed.  Each step applies one churn batch (2 deletions + 2
   insertions, both in one component, components taken in turn) through
   [View_manager.apply], then runs [queries_per_batch] point queries
   [path(n, X)] on the maintained view.  A deleted core edge makes DRed overdelete most of
   its component's closure and rederive nearly all of it, so overdelete,
   rederive and the semi-naive loop do the work; wire, store and serve
   never run, and their per-layer metrics read 0.

   Independent components keep a run's total work close to its mean:
   one connected graph near the giant-component threshold made a run's
   throughput swing twofold from seed to seed.  Twenty components rather
   than sixty do the same work per batch in a third of the memory, and
   their throughput moved less with the speed of a shared host. *)

module Vm = Ivm.View_manager
module Stats = Ivm_eval.Stats
module Query = Ivm_eval.Query
module Metrics = Ivm_obs.Metrics
open Common

let components = 20
let nodes = 30 (* per component *)
let candidates = 90
let live = 60
let k = 2
let queries_per_batch = 8

(* untimed warm-up steps; the state and exact work counters after them
   are compared with an independent replay *)
let check_at = 20

(* set-ups before the measured window, and as many again after it *)
let setups = 10

let rules =
  Ivm_datalog.Parser.parse_rules
    {|
      path(X, Y) :- link(X, Y).
      path(X, Y) :- path(X, Z), link(Z, Y).
    |}

let next_changes streams n =
  changes (Churn.next_batch streams.(n mod Array.length streams) k)

(* one stream per component, node ids [g * nodes ..] in component [g] *)
let fresh_streams seed =
  let r = Churn.rng seed in
  Array.init components (fun g ->
      let p = Churn.pool r ~nodes ~candidates in
      let p = Array.map (fun (a, b) -> ((g * nodes) + a, (g * nodes) + b)) p in
      Churn.stream (Churn.split r) p ~live)

let create streams =
  let edges = List.concat_map Churn.live_edges (Array.to_list streams) in
  Vm.create ~facts:[ ("link", List.map tuple edges) ] rules

let overdeleted_c = Metrics.counter "ivm_dred_overdeleted_total"
let rederived_c = Metrics.counter "ivm_dred_rederived_total"

(* exact work counters *)
type work = {
  derivations : int;
  probes : int;
  scanned : int;
  index_builds : int;
  overdeleted : int;
  rederived : int;
}

let work () =
  let s = Stats.snapshot () in
  {
    derivations = s.Stats.snap_derivations;
    probes = s.Stats.snap_probes;
    scanned = s.Stats.snap_tuples_scanned;
    index_builds = s.Stats.snap_index_builds;
    overdeleted = Metrics.counter_value overdeleted_c;
    rederived = Metrics.counter_value rederived_c;
  }

let map2 f a b =
  {
    derivations = f a.derivations b.derivations;
    probes = f a.probes b.probes;
    scanned = f a.scanned b.scanned;
    index_builds = f a.index_builds b.index_builds;
    overdeleted = f a.overdeleted b.overdeleted;
    rederived = f a.rederived b.rederived;
  }

let work_since w0 = map2 ( - ) (work ()) w0
let add = map2 ( + )

let zero =
  { derivations = 0; probes = 0; scanned = 0; index_builds = 0;
    overdeleted = 0; rederived = 0 }

let digest vm = Ivm_eval.Database.canonical_digest (Vm.database vm)

(* one manager and its inputs; work and allocation are accumulated
   around the applies only, so the query mix does not count *)
type runner = {
  vm : Vm.t;
  streams : Churn.stream array;
  mutable steps : int;
  qrng : Churn.rng;
  mutable work : work;
  mutable minor_words : float;
}

let runner seed =
  let streams = fresh_streams seed in
  let t0 = now () in
  let vm = create streams in
  let setup = now () -. t0 in
  ( { vm; streams; steps = 0; qrng = Churn.rng (seed + 0x5eed); work = zero;
      minor_words = 0. },
    setup )

(* one step: a churn batch, then the point queries; returns the
   (start, seconds) of the apply and of each query *)
let step ?hooks r =
  let changes = next_changes r.streams r.steps in
  r.steps <- r.steps + 1;
  let w0 = work () and mw0 = Gc.minor_words () in
  let t0 = now () in
  (match hooks with
  | None -> ignore (Vm.apply r.vm changes)
  | Some hooks -> (
    match Vm.apply_group ~hooks r.vm [ changes ] with
    | [ Ok _ ] -> ()
    | _ -> failwith "recursive_churn: batch rejected"));
  let apply_s = now () -. t0 in
  r.minor_words <- r.minor_words +. (Gc.minor_words () -. mw0);
  r.work <- add r.work (work_since w0);
  let db = Vm.database r.vm in
  let queries =
    List.init queries_per_batch (fun _ ->
        let body = Printf.sprintf "path(%d, X)" (Churn.int r.qrng (components * nodes)) in
        let t0 = now () in
        ignore (Query.run_text db body : Query.result);
        (t0, now () -. t0))
  in
  ((t0, apply_s), queries)

type phase = {
  setup_s : float;
  elapsed : float;
  window : float * float;  (** the measured window *)
  applies : (float * float) array;  (** (start, seconds) *)
  queries : (float * float) array;
  maintain : float array;  (** traced only *)
  normalize : float array;
  work : work;  (** summed over the measured applies *)
  minor_words : float;
  checkpoint : string * work;  (** digest + work after [check_at] steps *)
  replay : string * work;  (** the same, from an independent replay *)
  audit : (unit, string) result;
  rss_mb : float;
}

let phase ~seed ~seconds ~traced =
  (* set-up, [setups] times; the first manager replays the checkpoint
     prefix so the main run's state and counters can be compared with an
     independent execution *)
  let times = ref [] and replay = ref None and main = ref None in
  for i = 1 to setups do
    Gc.full_major ();
    let r, setup = runner seed in
    times := setup :: !times;
    if i = 1 then begin
      for _ = 1 to check_at do
        ignore (step r)
      done;
      replay := Some (digest r.vm, r.work)
    end;
    if i = setups then main := Some r
  done;
  let r = Option.get !main in
  let applies = samples () and queries = samples () in
  let maintain = ref [] and normalize = ref [] in
  let hooks =
    {
      Vm.batch_stage =
        (fun _ name t0 t1 ->
          match name with
          | "maintain" -> maintain := (t1 -. t0) :: !maintain
          | "normalize" -> normalize := (t1 -. t0) :: !normalize
          | _ -> ());
      group_stage = (fun _ _ _ -> ());
    }
  in
  let hooks = if traced then Some hooks else None in
  (* the first [check_at] steps warm up and are checked, untimed *)
  for _ = 1 to check_at do
    ignore (step ?hooks r)
  done;
  let checkpoint = (digest r.vm, r.work) in
  r.work <- zero;
  r.minor_words <- 0.;
  maintain := [];
  normalize := [];
  let t_start = now () in
  while now () -. t_start < seconds do
    let a, q = step ?hooks r in
    push applies a;
    List.iter (push queries) q
  done;
  let elapsed = now () -. t_start in
  (* the peak before the audit's from-scratch recomputation *)
  let rss_mb = peak_rss_mb "self" in
  let audit = Vm.audit r.vm in
  (* the rest of the set-ups, so that [setup_s] samples the machine on
     both sides of the window *)
  for _ = 1 to setups do
    Gc.full_major ();
    times := snd (runner seed) :: !times
  done;
  {
    setup_s = median !times;
    window = (t_start, t_start +. seconds);
    elapsed;
    applies = to_array applies;
    queries = to_array queries;
    maintain = Array.of_list !maintain;
    normalize = Array.of_list !normalize;
    work = r.work;
    minor_words = r.minor_words;
    checkpoint;
    replay = Option.get !replay;
    audit;
    rss_mb;
  }

let end_to_end p =
  let t0, t1 = p.window in
  let w xs q = us (windowed ~t0 ~t1 xs q) in
  [
    m "setup_s" "s" p.setup_s;
    m "ops_per_s" "1/s" (windowed_rate ~t0 ~t1 (Array.append p.applies p.queries));
    m "apply_p50_us" "us" (w p.applies 0.5);
    m "apply_p90_us" "us" (w p.applies 0.9);
    m "query_p50_us" "us" (w p.queries 0.5);
    m "query_p90_us" "us" (w p.queries 0.9);
    m "peak_rss_mb" "MiB" p.rss_mb;
  ]

(* layers this workload never enters read 0 *)
let not_run =
  List.map
    (fun (name, unit_) -> m name unit_ 0.)
    [
      ("store.fsync_us_p50", "us"); ("store.wal_append_us_p50", "us");
      ("store.fsyncs_per_apply", "count"); ("store.wal_bytes_per_tuple", "B");
      ("serve.queue_us_p50", "us"); ("serve.queue_us_p99", "us");
      ("serve.group_wait_us_p50", "us"); ("serve.batches_per_group", "count");
      ("serve.publish_us_p50", "us"); ("serve.publish_full_copies", "count");
      ("serve.query_us_p50", "us"); ("wire.unaccounted_us_p50", "us");
      ("wire.unaccounted_us_p99", "us"); ("wire.decode_us_p50", "us");
      ("wire.ack_us_p50", "us"); ("wire.stages_over_rtt", "count");
      ("loadgen.sched_lag_us_p99", "us");
    ]

let run ~seed ~seconds ~trace : outcome =
  (* a traced run splits its seconds between an untraced and a traced
     pass *)
  let seconds = if trace then seconds /. 2. else seconds in
  let base = phase ~seed ~seconds ~traced:false in
  let p = if trace then phase ~seed ~seconds ~traced:true else base in
  let (d_main, w_main) = p.checkpoint and (d_replay, w_replay) = p.replay in
  let ok p = p.checkpoint = p.replay && Result.is_ok p.audit in
  let n = Array.length p.applies in
  log "recursive_churn: seed %d, %d batches + %d queries in %.2f s" seed n
    (Array.length p.queries) p.elapsed;
  log "  state digest after %d batches: %s (replay %s)" check_at d_main d_replay;
  log "  exact work after %d batches: %d derivations, %d probes, %d overdeleted, %d rederived (replay %s)"
    check_at w_main.derivations w_main.probes w_main.overdeleted
    w_main.rederived (if w_main = w_replay then "identical" else "DIFFERENT");
  log "  audit: %s"
    (match p.audit with Ok () -> "ok" | Error e -> "MISMATCH " ^ e);
  let metrics =
    if not trace then end_to_end base
    else begin
      let per x = float_of_int x /. float_of_int n in
      let over = p.work.overdeleted and red = p.work.rederived in
      not_run
      @ [
        m "core.maintain_us_p50" "us" (us (pct p.maintain 0.5));
        m "core.normalize_us_p50" "us" (us (pct p.normalize 0.5));
        m "eval.derivations_per_apply" "count" (per p.work.derivations);
        m "eval.probes_per_apply" "count" (per p.work.probes);
        m "eval.tuples_scanned_per_apply" "count" (per p.work.scanned);
        m "relation.index_builds" "count" (float_of_int p.work.index_builds);
        m "core.minor_words_per_apply" "words" (p.minor_words /. float_of_int n);
        m "core.dred_overdeleted_per_apply" "count" (per over);
        m "core.dred_rederived_per_apply" "count" (per red);
        m "core.dred_useful_ratio" "ratio"
          (if over = 0 then 0. else float_of_int (over - red) /. float_of_int over);
      ]
      @ trace_overhead ~base:(end_to_end base) ~traced:(end_to_end p)
    end
  in
  {
    correct = ok base && ok p;
    attempted =
      (* a traced run answers for both of its passes *)
      List.fold_left
        (fun a p -> a + Array.length p.applies + Array.length p.queries)
        0
        (if trace then [ base; p ] else [ p ]);
    failed = 0;
    metrics;
  }
