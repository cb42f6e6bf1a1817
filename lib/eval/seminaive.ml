(** Initial bottom-up materialization: naive single-pass for nonrecursive
    predicates (their strata are below them, so one evaluation of each rule
    suffices), semi-naive iteration [Ull89] inside recursive components.

    Counts: a nonrecursive predicate stores its derivation counts (under
    set semantics these are counts relative to lower strata counted once —
    Section 5.1; under duplicate semantics full multiplicities).  Recursive
    predicates are materialized with set semantics and count 1 per tuple —
    the paper's counting algorithm is proposed for nonrecursive views only,
    and duplicate semantics on recursion may not terminate (Section 8). *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Program = Ivm_datalog.Program
module Trace = Ivm_obs.Trace
open Compile

let engine = Rounds.engine "seminaive"

exception Recursive_duplicates of string

(** Shared per-round cache of grouped relations, keyed by spec signature
    and a caller-chosen version tag ("old"/"new"/…). *)
module Agg_cache = struct
  type t = (string, Relation.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let grouped (cache : t) ~version ~mult view (spec : agg_spec) =
    let key = version ^ "|" ^ spec.gsignature in
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
      let r = Grouping.compute ~mult view spec in
      Hashtbl.add cache key r;
      r
end

(** Subgoal inputs resolving every predicate through [resolve], computing
    grouped relations through [cache] under version [version]. *)
let make_inputs ~(resolve : string -> Relation_view.t)
    ~(mult_for : string -> int -> int) ~cache ~version (cr : Compile.t) :
    int -> Rule_eval.subgoal_input =
 fun i ->
  match cr.clits.(i) with
  | Catom a -> Rule_eval.Enumerate (resolve a.cpred, mult_for a.cpred)
  | Cneg a -> Rule_eval.Filter_absent (resolve a.cpred)
  | Cagg (spec, _) ->
    let t =
      Agg_cache.grouped cache ~version
        ~mult:(mult_for spec.gsource.cpred)
        (resolve spec.gsource.cpred) spec
    in
    Rule_eval.Enumerate (Relation_view.concrete t, Rule_eval.identity_count)
  | Ccmp _ -> assert false

(* One full evaluation of each rule of [pred] against the stored
   relations. *)
let stored_seeds db ~cache pred =
  List.map
    (fun rule ->
      let cr = Database.compile db rule in
      let inputs =
        make_inputs ~resolve:(Database.view db) ~mult_for:(Database.mult_for db) ~cache
          ~version:"cur" cr
      in
      { Rounds.rule = cr; at = None; inputs })
    (Program.rules_for (Database.program db) pred)

(** Evaluate all rules of one nonrecursive predicate against the current
    database state; returns its full materialization.  The rules are one
    round of full evaluations on the round engine. *)
let eval_nonrecursive db ~cache pred =
  let program = Database.program db in
  let out = Relation.create (Program.arity program pred) in
  Ivm_obs.Attribution.set_context ~stratum:(Program.stratum program pred)
    ~phase:"materialize";
  Trace.span "seminaive.materialize"
    ~args:(fun () ->
      [ ("pred", pred); ("tuples", string_of_int (Relation.cardinal out)) ])
    (fun () ->
      Rounds.run (stored_seeds db ~cache pred) ~absorb:(fun _ part ->
          Relation.union_into ~into:out part));
  out

(** Semi-naive fixpoint for one recursive unit (an SCC of mutually
    recursive predicates), set semantics.  Relations outside the unit are
    read from the database (their strata are already materialized).
    Round 0 evaluates every rule against the (empty) unit totals; later
    rounds are the delta rules of the unit's occurrences, positions
    before the delta reading the new totals and positions after it the
    previous totals (totals minus delta). *)
let eval_recursive_unit db ~cache (unit_preds : string list) :
    (string * Relation.t) list =
  let program = Database.program db in
  if Database.semantics db = Database.Duplicate_semantics then
    raise
      (Recursive_duplicates
         (Printf.sprintf
            "predicate %s is recursive: duplicate (counting) semantics may \
             not terminate on recursive views (Section 8); use set semantics"
            (List.hd unit_preds)));
  (* one context for the whole unit: its predicates share a stratum *)
  Ivm_obs.Attribution.set_context
    ~stratum:(Program.stratum program (List.hd unit_preds))
    ~phase:"fixpoint";
  let totals =
    List.map (fun p -> (p, Relation.create (Program.arity program p))) unit_preds
  in
  let old_totals = Hashtbl.create 4 in
  let rules p = List.map (Database.compile db) (Program.rules_for program p) in
  let inputs ~resolve cr =
    make_inputs ~resolve ~mult_for:(fun _ -> Rule_eval.set_count) ~cache ~version:"cur" cr
  in
  let resolve ~before q =
    match List.assoc_opt q totals with
    | None -> Database.view db q
    | Some total ->
      if before then Relation_view.concrete total else Hashtbl.find old_totals q
  in
  Rounds.fixpoint ~engine db unit_preds ~rules
    ~round0:
      (List.concat_map
         (fun p ->
           List.map
             (fun cr ->
               let inputs = inputs ~resolve:(resolve ~before:true) cr in
               { Rounds.rule = cr; at = None; inputs })
             (rules p))
         unit_preds)
    ~inputs:(fun cr pos j -> inputs ~resolve:(resolve ~before:(j < pos)) cr j)
    ~absorb:(fun p tup c ->
      let total = List.assoc p totals in
      if c > 0 && not (Relation.mem total tup) then begin
        Relation.add total tup 1;
        1
      end
      else 0)
    ~on_round:(fun _ pending ->
      List.iter
        (fun (q, total) ->
          Hashtbl.replace old_totals q
            (Relation_view.overlay total (Relation.negate (pending q))))
        totals);
  totals

(** Materialize every derived predicate of the database's program from its
    base relations (overwrites previous materializations). *)
let evaluate (db : Database.t) : unit =
  Trace.span "seminaive.evaluate" (fun () ->
      (* A from-scratch materialization enumerates every derivation of
         every derived tuple exactly once (round-0 rules plus the
         semi-naive delta partition), so with capture on the emissions
         rebuild the support store from nothing. *)
      if Ivm_prov.Prov.capturing () then Ivm_prov.Prov.set_mode Ivm_prov.Prov.Add;
      let program = Database.program db in
      let cache = Agg_cache.create () in
      List.iter
        (fun unit_preds ->
          match unit_preds with
          | [ p ] when not (Program.recursive program p) ->
            Database.set_relation db p (eval_nonrecursive db ~cache p)
          | unit_preds ->
            List.iter
              (fun (p, rel) -> Database.set_relation db p rel)
              (Trace.span "seminaive.fixpoint"
                 ~args:(fun () -> [ ("unit", String.concat "," unit_preds) ])
                 (fun () -> eval_recursive_unit db ~cache unit_preds)))
        (Program.recursive_units program))

(** Re-enumerate every current derivation of every derived predicate —
    each rule evaluated once against the stored relations, emissions
    discarded.  The stored views are already a fixpoint, so this
    enumerates exactly the immediate derivations of each present tuple;
    with provenance capture on, the {!Rule_eval} hook repopulates the
    support store for an already-materialized database ([provenance on]
    mid-session, or after a truncation). *)
let replay_derivations (db : Database.t) : unit =
  if Ivm_prov.Prov.capturing () then begin
    Ivm_prov.Prov.set_mode Ivm_prov.Prov.Add;
    let cache = Agg_cache.create () in
    List.iter
      (fun p -> Rounds.run (stored_seeds db ~cache p) ~absorb:(fun _ _ -> ()))
      (Program.derived_preds (Database.program db))
  end
