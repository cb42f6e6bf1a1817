(** DRed — Delete and Rederive (Section 7): incremental maintenance of
    (general) recursive views with stratified negation and aggregation,
    under set semantics.

    The program's derived predicates are partitioned into maintenance units
    — SCCs of mutually recursive predicates — processed in dependency
    order ("stratum by stratum").  For each unit, given the deletions
    [Del] and insertions [Add] accumulated from base changes and lower
    units:

    + {b Delete} an overestimate: semi-naive evaluation of the δ⁻-rules
      [δ⁻(p) :- s1 & … & δ⁻(si) & … & sn], where non-delta subgoals read
      the {e old} materialized relations.  A deletion reaches [δ⁻(si)]
      through a positive subgoal from [Del], through a negated subgoal from
      [Add] (a newly-true [q] falsifies [¬q]), and through a GROUPBY
      subgoal from the old tuples of changed groups (Algorithm 6.1).
    + {b Rederive}: [δ⁺(p) :- δ⁻(p) & s1ν & … & snν] — every overdeleted
      tuple that still has a derivation in the {e new} database is put
      back.  Within a recursive unit the fixpoint lets rederived tuples
      support further rederivations.
    + {b Insert}: semi-naive evaluation of the Δ⁺-rules over the new
      relations, seeded by [Add] of lower strata, by [Del] through negated
      subgoals, and by the new tuples of changed groups.

    By Theorem 7.1 the result contains a tuple iff it has a derivation in
    the updated database.  Stored counts are treated as set membership:
    deleting a tuple cancels its whole stored count, so DRed composes with
    materializations produced by either evaluation mode. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Ast = Ivm_datalog.Ast
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Compile = Ivm_eval.Compile
module Rounds = Ivm_eval.Rounds

let log_src = Logs.Src.create "ivm.dred" ~doc:"DRed maintenance"

module Log = (val Logs.src_log log_src)
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace
module Stats = Ivm_eval.Stats

let batches_c =
  Metrics.counter ~labels:[ ("algorithm", "dred") ] "ivm_maintain_batches_total"

(** The paper's DRed inefficiency metrics (Section 7 / bench E5–E6):
    tuples deleted by the step-1 overestimate, candidate support checks
    performed in step 2, and overdeleted tuples actually put back
    (deleted-then-rederived — pure wasted work relative to counting). *)
let overdeleted_c = Metrics.counter "ivm_dred_overdeleted_total"

let rederive_attempts_c = Metrics.counter "ivm_dred_rederive_attempts_total"
let rederived_c = Metrics.counter "ivm_dred_rederived_total"

(** Per maintenance unit per batch: size of the deletion overestimate. *)
let overestimate_h = Metrics.histogram "ivm_dred_overestimate_size"

exception Duplicate_semantics_unsupported

type report = {
  base_deltas : (string * Relation.t) list;
  view_deltas : (string * Relation.t) list;
      (** per derived predicate: ±1 set transitions actually applied *)
  overdeleted : (string * int) list;
      (** per predicate: size of the step-1 overestimate (for the
          fragmentation benches) *)
  rederived : (string * int) list;  (** per predicate: tuples put back in step 2 *)
}

(* ------------------------------------------------------------------ *)

(* Every phase runs on {!Delta.ctx}: a unit predicate's delta is a live
   {!Delta.start_delta} accumulator its new views read as it grows, and a
   finished predicate's Del and Add are the two sign parts of its ±1
   {!Delta.propagated_delta}.  Each phase is a semi-naive fixpoint on the
   round engine: rounds evaluate against views frozen for the round and
   absorb their emissions in task order afterwards.  A derivation a
   sequential interleaving would have seen mid-round is picked up by the
   next round's seeds instead — all three phases are monotone fixpoints
   over the unit's predicates, so they converge to the same state. *)

(* Fix a predicate's delta; DRed counts the scan that derives its
   transitions as work. *)
let fix_delta ctx p ~full =
  Relation.iter (fun _ _ -> Stats.add_scanned ()) full;
  Delta.set_delta ctx p ~full

(* The deletions ([sign] < 0) or insertions of a ±1 delta, as a set. *)
let part sign r = if sign < 0 then Relation.negative_part r else Relation.positive_part r

let holds ctx p tup = Relation_view.holds (Delta.new_view ctx p) tup

(* All three phases count their rounds under one engine label. *)
let engine = Rounds.engine "dred"

(** Round 0 of the delete ([sign] −1) and insert (+1) phases: the unit's
    rules seeded from outside the unit — a positive subgoal by the
    [sign] part of its predicate's transitions, a negated subgoal by the
    opposite part (a newly-true [q] falsifies [¬q]), a GROUPBY subgoal by
    the [sign] part of Algorithm 6.1's [Δ(T)]. *)
let round0 ctx unit_preds ~rules ~sign ~inputs =
  let delta = function
    | Compile.Catom a when not (List.mem a.cpred unit_preds) ->
      Some (part sign (Delta.propagated_delta ctx a.cpred))
    | Compile.Cneg a -> Some (part (-sign) (Delta.propagated_delta ctx a.cpred))
    | Compile.Cagg (spec, _) -> Some (part sign (Delta.agg_delta ctx spec))
    | Compile.Catom _ | Compile.Ccmp _ -> None
  in
  List.concat_map
    (fun p -> List.concat_map (fun cr -> Rounds.seeds cr ~delta ~inputs:(inputs cr)) (rules p))
    unit_preds

(** Step 1 for one unit: the δ⁻-rules against the {e old} relations.
    Returns the overestimate per predicate; each overdeleted tuple is
    hidden from the unit's new views (its whole stored count cancelled)
    as it is found. *)
let delete_overestimate ctx unit_preds ~rules =
  let db = ctx.Delta.db in
  let arity = Program.arity (Database.program db) in
  let dminus = List.map (fun p -> (p, Relation.create (arity p))) unit_preds in
  let inputs cr _pos = Delta.input ctx Delta.Old cr in
  Rounds.fixpoint ~engine db unit_preds ~rules
    ~round0:(round0 ctx unit_preds ~rules ~sign:(-1) ~inputs)
    ~inputs
    ~absorb:(fun p tup _ ->
      let stored = Database.relation db p and dm = List.assoc p dminus in
      Stats.add_probe ();
      if Relation.mem stored tup && not (Relation.mem dm tup) then begin
        Relation.add dm tup 1;
        Relation.add (Delta.full_delta ctx p) tup (-Relation.count stored tup);
        1
      end
      else 0);
  dminus

(* ------------------------------------------------------------------ *)
(* Step 2: rederivation                                                 *)
(* ------------------------------------------------------------------ *)

let marker_pred p = "$dred_overestimate$" ^ p

(* Rederivation rules reach the evaluator's provenance hook under their
   rewritten text; map it back to the source rule so stored supports name
   the program's own rules.  Populated only from sequential task
   construction (never from worker domains). *)
let rederive_sources : (string, string) Hashtbl.t = Hashtbl.create 16

let prov_source_rule s =
  match Hashtbl.find_opt rederive_sources s with Some orig -> orig | None -> s

(** The rederivation rule [δ⁺(p) :- δ⁻(p) & s1ν & … & snν] built as an AST
    rule whose first subgoal is a pseudo-predicate enumerating the
    still-deleted overestimate.  Head arguments that are expressions get a
    fresh variable in the marker atom and an equality filter, so
    rederivation also works for heads like [hop(S,D,C1+C2)]. *)
let rederive_rule (r : Ast.rule) : Ast.rule =
  let fresh = ref 0 in
  let marker_args, filters =
    List.fold_right
      (fun e (args, filters) ->
        match e with
        | Ast.Eterm (Ast.Var _) | Ast.Eterm (Ast.Const _) -> (e :: args, filters)
        | e ->
          incr fresh;
          let v = Printf.sprintf "$rederive%d" !fresh in
          ( Ast.Eterm (Ast.Var v) :: args,
            Ast.Lcmp (Ast.Eterm (Ast.Var v), Ast.Eq, e) :: filters ))
      r.head.args ([], [])
  in
  let marker = { Ast.pred = marker_pred r.head.pred; args = marker_args } in
  let rr =
    {
      Ast.head = { r.head with args = marker_args };
      body = (Ast.Lpos marker :: r.body) @ filters;
    }
  in
  if Ivm_prov.Prov.capturing () then
    Hashtbl.replace rederive_sources
      (Ivm_datalog.Pretty.rule_to_string rr)
      (Ivm_datalog.Pretty.rule_to_string r);
  rr

(** Step 2 for one unit: puts rederivable tuples back (their hidden counts
    are restored in the unit deltas), semi-naively.  Round 0 checks every
    overdeleted tuple for support in the new database; later rounds
    re-check only candidates joinable with the {e previous round's}
    putbacks (a rederived tuple can support further rederivations within
    a recursive unit).  Returns per-predicate putback counts. *)
let rederive ctx unit_preds dminus =
  let db = ctx.Delta.db in
  (* pend = δ⁻ tuples not yet put back *)
  let pend = List.map (fun (p, dm) -> (p, Relation.copy dm)) dminus in
  let putbacks = List.map (fun p -> (p, ref 0)) unit_preds in
  let rules p =
    if Relation.is_empty (List.assoc p pend) then []
    else
      List.map
        (fun r -> Database.compile db (rederive_rule r))
        (Program.rules_for (Database.program db) p)
  in
  let inputs (cr : Compile.t) _pos j =
    match cr.clits.(j) with
    | Compile.Catom a when a.cpred = marker_pred cr.head_pred ->
      Ivm_eval.Rule_eval.Enumerate
        ( Relation_view.concrete (List.assoc cr.head_pred pend),
          Ivm_eval.Rule_eval.set_count )
    | _ -> Delta.input ctx Delta.New cr j
  in
  Rounds.fixpoint ~engine db unit_preds ~rules
    ~round0:
      (List.concat_map
         (fun p ->
           List.map
             (fun cr ->
               { Rounds.rule = cr; at = Some (0, List.assoc p pend); inputs = inputs cr 0 })
             (rules p))
         unit_preds)
    ~inputs
    ~absorb:(fun p tup _ ->
      let pend_p = List.assoc p pend in
      Metrics.inc rederive_attempts_c;
      Stats.add_probe ();
      if Relation.mem pend_p tup && not (holds ctx p tup) then begin
        (* restore the hidden stored count *)
        Relation.add (Delta.full_delta ctx p) tup
          (Relation.count (Database.relation db p) tup);
        Relation.remove pend_p tup;
        incr (List.assoc p putbacks);
        1
      end
      else 0);
  List.map (fun (p, n) -> (p, !n)) putbacks

(** Step 3 for one unit: the Δ⁺-rules over the new relations; a tuple
    enters the unit delta when its new view does not already hold it. *)
let insert_new ctx unit_preds ~rules =
  let inputs cr _pos = Delta.input ctx Delta.New cr in
  Rounds.fixpoint ~engine ctx.Delta.db unit_preds ~rules
    ~round0:(round0 ctx unit_preds ~rules ~sign:1 ~inputs)
    ~inputs
    ~absorb:(fun p tup _ ->
      if holds ctx p tup then 0
      else begin
        Relation.add (Delta.full_delta ctx p) tup 1;
        1
      end)

(* ------------------------------------------------------------------ *)

(* The DRed producer, returning the per-predicate overdelete and
   rederive sizes for {!maintain}'s report. *)
let run (ctx : Delta.ctx) =
  let db = ctx.Delta.db in
  if Database.semantics db = Database.Duplicate_semantics then
    raise Duplicate_semantics_unsupported;
  Metrics.inc batches_c;
  if Ivm_prov.Prov.capturing () then
    Ivm_prov.Prov.set_rule_rewrite prov_source_rule;
  let program = Database.program db in
  (* DRed counts the scan that derives the base transitions as work *)
  List.iter
    (fun (_, full) -> Relation.iter (fun _ _ -> Stats.add_scanned ()) full)
    ctx.Delta.base;
  let rules p = List.map (Database.compile db) (Program.rules_for program p) in
  let overdeleted = ref [] and rederived = ref [] in
  Trace.span "dred.maintain"
    ~args:(fun () ->
      [ ("base_tuples", string_of_int (Changes.total_tuples ctx.Delta.base)) ])
    (fun () ->
      List.iter
        (fun unit_preds ->
          let unit_name = String.concat "," unit_preds in
          (* a unit's predicates share a stratum; each phase retags the
             ambient attribution context before its fan-outs *)
          let stratum = Program.stratum program (List.hd unit_preds) in
          let phase name f =
            Trace.span ("dred." ^ name)
              ~args:(fun () -> [ ("unit", unit_name) ])
              (fun () ->
                Ivm_obs.Attribution.set_context ~stratum ~phase:name;
                (* Delete-phase emissions enumerate lost derivations — their
                   supports are removed regardless of sign; rederivation and
                   insertion emissions add supports. *)
                if Ivm_prov.Prov.capturing () then
                  Ivm_prov.Prov.set_mode
                    (if String.equal name "delete" then Ivm_prov.Prov.Remove
                     else Ivm_prov.Prov.Add);
                f ())
          in
          List.iter (fun p -> ignore (Delta.start_delta ctx p)) unit_preds;
          Trace.span "dred.unit"
            ~args:(fun () -> [ ("unit", unit_name) ])
            (fun () ->
              let dminus =
                phase "delete" (fun () -> delete_overestimate ctx unit_preds ~rules)
              in
              let unit_overdeleted =
                List.fold_left (fun acc (_, dm) -> acc + Relation.cardinal dm) 0 dminus
              in
              Metrics.add overdeleted_c unit_overdeleted;
              Metrics.observe overestimate_h unit_overdeleted;
              let putbacks = phase "rederive" (fun () -> rederive ctx unit_preds dminus) in
              phase "insert" (fun () -> insert_new ctx unit_preds ~rules);
              List.iter
                (fun p -> fix_delta ctx p ~full:(Delta.full_delta ctx p))
                unit_preds;
              let unit_rederived = List.fold_left (fun acc (_, n) -> acc + n) 0 putbacks in
              Metrics.add rederived_c unit_rederived;
              Log.debug (fun m ->
                  m "unit {%s}: overdeleted %d, rederived %d" unit_name
                    unit_overdeleted unit_rederived);
              List.iter
                (fun (p, dm) ->
                  let d = Relation.cardinal dm in
                  if d > 0 then overdeleted := (p, d) :: !overdeleted)
                dminus;
              List.iter
                (fun (p, n) -> if n > 0 then rederived := (p, n) :: !rederived)
                putbacks))
        (Program.recursive_units program));
  (List.sort compare !overdeleted, List.sort compare !rederived)

let produce ctx = ignore (run ctx)

(** Apply [changes] (base-relation deltas with ±1 counts) to [db],
    maintaining all views with DRed.  Set semantics only (Section 7).
    @raise Duplicate_semantics_unsupported under duplicate semantics;
    @raise Changes.Invalid_changes on malformed change sets. *)
let maintain (db : Database.t) (changes : Changes.t) : report =
  let base_deltas = Changes.normalize_base db changes in
  let sizes = ref ([], []) in
  let ctx = Delta.maintain db base_deltas (fun ctx -> sizes := run ctx) in
  let overdeleted, rederived = !sizes in
  { base_deltas; view_deltas = Delta.view_deltas ctx; overdeleted; rederived }
