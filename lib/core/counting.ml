(** The counting algorithm (Algorithm 4.1) for incremental maintenance of
    {e nonrecursive} views, with negation (Section 6.1), aggregation
    (Section 6.2), and both duplicate and set semantics (Section 5).

    Rules are processed in increasing rule stratum number.  For each rule
    [p :- s1 & … & sn], the [i]-th delta rule

    {v Δ(p) :- s1ν & … & s(i−1)ν & Δ(si) & s(i+1) & … & sn v}

    is evaluated only when [Δ(si)] is non-empty; the results of all delta
    rules of all rules defining [p] are combined with [⊎] into [Δ(P)], and
    [Pν = P ⊎ Δ(P)] becomes visible to higher strata through an overlay.

    Under set semantics the boxed statement (2) applies: stored counts are
    derivation counts relative to lower strata counted once, and the delta
    {e propagated} to higher strata is [set(Pν) − set(P)] — a deletion that
    leaves a tuple with alternative derivations cascades nowhere
    (Example 5.1).  By Theorem 4.1 the computed [Δ(P)] holds exactly
    [countν(t) − count(t)] for every tuple, which makes the algorithm
    optimal: it derives exactly the view tuples that change. *)

module Relation = Ivm_relation.Relation
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database

let log_src = Logs.Src.create "ivm.counting" ~doc:"counting algorithm maintenance"

module Log = (val Logs.src_log log_src)
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace

let batches_c =
  Metrics.counter ~labels:[ ("algorithm", "counting") ] "ivm_maintain_batches_total"

(** Per maintained view per batch: |Δ(P)| (Theorem 4.1 says this is
    exactly the number of changed view tuples — the optimality metric). *)
let delta_h = Metrics.histogram "ivm_counting_delta_size"

exception Recursive_program of string

type report = {
  base_deltas : (string * Relation.t) list;
      (** the normalized base changes that were applied *)
  view_deltas : (string * Relation.t) list;
      (** per derived predicate: the full count delta [Δ(P)] *)
  propagated_deltas : (string * Relation.t) list;
      (** per derived predicate: the delta visible to dependent views — the
          set transition under set semantics, [Δ(P)] itself under
          duplicates *)
}

let changed_views report = List.map fst report.view_deltas

(** The counting producer: Definition 4.1's delta rules for every view
    that transitively depends on a changed base relation, stratum by
    stratum.
    @raise Recursive_program when the program has recursive views — use
    {!Dred} there (Section 7). *)
let produce (ctx : Delta.ctx) : unit =
  let program = Database.program ctx.Delta.db in
  (match
     List.find_opt (fun p -> Program.recursive program p) (Program.derived_preds program)
   with
  | Some p ->
    raise
      (Recursive_program
         (Printf.sprintf
            "predicate %s is recursive; the counting algorithm handles \
             nonrecursive views — use DRed for recursive views" p))
  | None -> ());
  Metrics.inc batches_c;
  (* Delta emissions enumerate each gained (+) / lost (−) derivation
     exactly once (Definition 4.1's partition), so sign-driven support
     capture stays exact. *)
  if Ivm_prov.Prov.capturing () then Ivm_prov.Prov.set_mode Ivm_prov.Prov.Add;
  let base = ctx.Delta.base in
  let affected =
    (* only views transitively depending on a changed base relation can
       change; the rest are not visited at all *)
    Program.affected_views program ~changed:(List.map fst base)
  in
  Trace.span "counting.maintain"
    ~args:(fun () ->
      [
        ("affected_views", string_of_int (List.length affected));
        ("base_tuples", string_of_int (Changes.total_tuples base));
      ])
    (fun () ->
      Log.debug (fun m ->
          m "maintaining %d affected views (of %d) against %d changed base tuples"
            (List.length affected)
            (List.length (Program.derived_preds program))
            (Changes.total_tuples base));
      List.iter
        (fun p ->
          if List.mem p affected then begin
            Ivm_obs.Attribution.set_context
              ~stratum:(Program.stratum program p) ~phase:"delta";
            let out =
              Trace.span "counting.view"
                ~args:(fun () ->
                  [
                    ("view", p);
                    ("stratum", string_of_int (Program.stratum program p));
                    ("delta", string_of_int (Relation.cardinal (Delta.full_delta ctx p)));
                    ( "propagated",
                      string_of_int (Relation.cardinal (Delta.propagated_delta ctx p)) );
                  ])
                (fun () -> Delta.derive ctx p)
            in
            Metrics.observe delta_h (Relation.cardinal out);
            Log.debug (fun m ->
                m "stratum %d: Δ(%s) has %d tuples (%d propagated)"
                  (Program.stratum program p) p (Relation.cardinal out)
                  (Relation.cardinal (Delta.propagated_delta ctx p)))
          end)
        (Program.derived_in_stratum_order program))

(** Apply [changes] (base-relation deltas) to [db], incrementally updating
    every materialized view.  Returns what changed.
    @raise Recursive_program when the program has recursive views;
    @raise Changes.Invalid_changes on malformed change sets. *)
let maintain (db : Database.t) (changes : Changes.t) : report =
  let base = Changes.normalize_base db changes in
  let ctx = Delta.maintain db base produce in
  {
    base_deltas = base;
    view_deltas = Delta.derived_deltas ctx ctx.Delta.full;
    propagated_deltas = Delta.derived_deltas ctx ctx.Delta.propagated;
  }
