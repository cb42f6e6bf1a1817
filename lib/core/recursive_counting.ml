(** Counting for recursive views — the [GKM92] extension discussed in
    Section 8: "Counting can be used to maintain recursive views also.
    However computing counts for recursive views is expensive and
    furthermore counting may not terminate on some views."

    This module maintains full derivation counts through recursive
    components by iterating Definition 4.1 delta rules to a fixpoint:
    each round treats the previous round's deltas as a batch update, with
    "new" relations including the batch and "old" relations excluding it,
    so counts stay exact (Theorem 4.1 applied per batch).  On data over
    which a tuple has infinitely many derivations (a cycle reachable from
    and to itself), counts diverge; the iteration is capped and
    {!Divergence} raised — this is the behaviour the paper predicts, and
    finiteness detection [MS93a] is future work.

    Duplicate semantics only (derivation counting is the point); use
    {!Dred} for set-semantics recursive maintenance. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Compile = Ivm_eval.Compile
module Rule_eval = Ivm_eval.Rule_eval

module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace

exception Divergence of string

let default_max_rounds = 10_000
let engine = Ivm_eval.Rounds.engine "recursive-counting"

let batches_c =
  Metrics.counter
    ~labels:[ ("algorithm", "recursive-counting") ]
    "ivm_maintain_batches_total"

(* One recursive unit: iterate batch updates until the pending deltas
   drain.  [ctx] carries the finalized deltas of lower strata; each unit
   predicate's accumulated delta is installed in [ctx] up front, so new
   views of it see the accumulator grow.  Round 0 seeds from lower-strata
   deltas (unit predicates are unchanged in it, so plain Definition 4.1
   rules apply); every later round treats the pending deltas as a batch
   update of the unit, whose "new" state is stored ⊎ accumulated and
   whose "old" state subtracts the batch. *)
let fix_unit ~max_rounds (ctx : Delta.ctx) unit_preds =
  let db = ctx.Delta.db in
  let program = Database.program db in
  let acc = List.map (fun p -> (p, Delta.start_delta ctx p)) unit_preds in
  let old_delta = Hashtbl.create 4 in
  let rules p = List.map (Database.compile db) (Program.rules_for program p) in
  let inputs (cr : Compile.t) pos j =
    match cr.clits.(j) with
    | Compile.Catom b when List.mem_assoc b.cpred acc ->
      let delta =
        if j < pos then List.assoc b.cpred acc else Hashtbl.find old_delta b.cpred
      in
      Rule_eval.Enumerate
        ( Relation_view.Overlay { base = Database.relation db b.cpred; delta },
          Rule_eval.identity_count )
    | _ -> Delta.input ctx Delta.New cr j
  in
  let on_round round pending =
    if round > max_rounds then
      raise
        (Divergence
           (Printf.sprintf
              "counts of recursive predicate %s did not converge after %d \
               rounds — the data has cyclic derivations with infinite counts"
              (List.hd unit_preds) max_rounds));
    List.iter
      (fun (q, a) ->
        Hashtbl.replace old_delta q (Relation.union a (Relation.negate (pending q))))
      acc
  in
  (* as in {!Delta.derive}: each round's delta partition enumerates every
     gained/lost derivation once, so sign-driven capture is exact *)
  let context =
    { Rule_eval.stratum = Program.stratum program (List.hd unit_preds);
      phase = "delta"; lost = false }
  in
  Ivm_eval.Rounds.fixpoint ~engine ~context db unit_preds ~rules
    ~round0:
      (List.concat_map (fun p -> List.concat_map (Delta.seeds ctx) (rules p)) unit_preds)
    ~inputs
    ~absorb:(fun p tup c ->
      Relation.add (List.assoc p acc) tup c;
      c)
    ~on_round;
  List.iter (fun (p, a) -> Delta.set_delta ctx p ~full:a) acc

(** The recursive-counting producer: Definition 4.1 rounds for
    nonrecursive predicates, {!fix_unit} for recursive units.
    @raise Divergence when counts cannot converge;
    @raise Invalid_argument under set semantics (derivation counting
    through recursion needs duplicate semantics; use {!Dred}). *)
let produce ?(max_rounds = default_max_rounds) (ctx : Delta.ctx) : unit =
  let db = ctx.Delta.db in
  if Database.semantics db = Database.Set_semantics then
    invalid_arg
      "Recursive_counting.maintain: derivation counting through recursion \
       needs duplicate semantics; use Dred for set semantics";
  Metrics.inc batches_c;
  let program = Database.program db in
  Trace.span "recursive_counting.maintain"
    ~args:(fun () ->
      [ ("base_tuples", string_of_int (Changes.total_tuples ctx.Delta.base)) ])
    (fun () ->
      List.iter
        (fun unit_preds ->
          match unit_preds with
          | [ p ] when not (Program.recursive program p) -> ignore (Delta.derive ctx p)
          | unit_preds ->
            Trace.span "rc.fixpoint"
              ~args:(fun () -> [ ("unit", String.concat "," unit_preds) ])
              (fun () -> fix_unit ~max_rounds ctx unit_preds))
        (Program.recursive_units program))

(** Normalize base changes and run {!produce} through {!Delta.maintain};
    returns the view deltas. *)
let maintain ?max_rounds (db : Database.t) (changes : Changes.t) :
    (string * Relation.t) list =
  Delta.view_deltas
    (Delta.maintain db (Changes.normalize_base db changes) (produce ?max_rounds))

(** Materialize a database whose program may be recursive with full
    derivation counts: equivalent to maintaining from an empty database
    with every base fact inserted.  @raise Divergence on cyclic data. *)
let evaluate ?(max_rounds = default_max_rounds) (db : Database.t) : unit =
  let program = Database.program db in
  (* emptying a relation is a write outside the commit: drop the
     aggregate indexes it sources, so the batch rebuilds them empty *)
  let clear p =
    Database.invalidate_agg_indexes db p;
    Relation.clear (Database.relation db p)
  in
  let base_contents =
    List.map
      (fun p ->
        let copy = Relation.copy (Database.relation db p) in
        clear p;
        (p, copy))
      (Program.base_preds program)
  in
  List.iter clear (Program.derived_preds program);
  ignore (maintain ~max_rounds db base_contents)
