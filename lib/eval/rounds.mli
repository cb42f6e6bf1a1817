(** The semi-naive round engine: the one loop every evaluation and
    maintenance algorithm runs its rules through.

    A {e round} evaluates a list of rule applications ({!seed}s) against
    relations frozen for the round.  Each seeded application is split into
    one task per {!Par_eval.split} chunk of its seed delta; the tasks fan
    out over {!Ivm_par.parallel_map}, each emitting into a private buffer
    with [⊎], and the buffers are absorbed one at a time in task order —
    seed order, then chunk order.  Lazy caches behind a rule's inputs are
    forced sequentially before the fan-out, so tasks only read shared
    state.  With one domain the chunk count is 1 and the tasks run inline,
    in the same order.

    A {e fixpoint} iterates rounds over one recursive unit: round 0
    evaluates the caller's seeds; every later round seeds each occurrence
    of a unit predicate in a body with that predicate's pending delta —
    what the previous round absorbed.  It stops when nothing is pending.
    Callers supply only the round-0 seeds, the subgoal inputs of a seed
    position, and the absorb function; the pending tables, the task list,
    the fan-out and the absorb order are the engine's.

    Every round carries its caller's {!Rule_eval.context} — stratum,
    phase and whether emissions are lost derivations — into each task's
    evaluation, so attribution rows and provenance supports are tagged
    by the round that produced them, on whichever domain ran it. *)

module Relation = Ivm_relation.Relation
module Tuple = Ivm_relation.Tuple

(** One rule application: [rule] with body position [pos] enumerating
    [delta] first (the seed of a delta rule, Definition 4.1), or — [at =
    None] — a full evaluation without a seed.  [inputs j] is what every
    other position [j] reads. *)
type seed = {
  rule : Compile.t;
  at : (int * Relation.t) option;
  inputs : int -> Rule_eval.subgoal_input;
}

(** [seeds rule ~delta ~inputs] — one seed per body position of [rule]
    whose literal [delta] maps to a relation, the seed at [pos] reading
    [inputs pos] elsewhere.  Empty seed deltas are skipped when the round
    runs. *)
val seeds :
  Compile.t ->
  delta:(Compile.clit -> Relation.t option) ->
  inputs:(int -> int -> Rule_eval.subgoal_input) ->
  seed list

(** [run ~context seeds ~absorb] evaluates one round, every evaluation
    under [context], and calls [absorb head buf] for every task buffer,
    in task order; [head] is the rule's head predicate. *)
val run :
  context:Rule_eval.context -> seed list -> absorb:(string -> Relation.t -> unit) -> unit

(** A fixpoint engine: a name and the round instruments labelled with it,
    [ivm_fixpoint_rounds_total{engine}] and
    [ivm_fixpoint_delta_size{engine}].  Create one per caller, at module
    level, so the families export from the first scrape. *)
type engine

val engine : string -> engine

(** [fixpoint ~engine ~context db preds ~rules ~round0 ~inputs ~absorb]
    runs the semi-naive fixpoint of the recursive unit [preds], every
    round under [context].

    - [rules p] are the rules seeded for [p] in rounds after the first;
      it is called once per round.
    - [inputs rule pos] are the inputs of [rule] seeded at [pos] with a
      unit predicate's pending delta.
    - [absorb p tup c] takes one emitted tuple of a task deriving [p] and
      returns the count it adds to [p]'s next pending delta (0 for
      none).
    - [on_round n pending] runs before round [n ≥ 1] is built, with the
      pending deltas it seeds from.

    Every round [n ≥ 1] is counted under [engine]: one increment of its
    rounds counter, one delta-size observation per unit predicate's
    pending delta, and an [<engine>.round] trace instant carrying the
    round number and the pending sizes. *)
val fixpoint :
  ?on_round:(int -> (string -> Relation.t) -> unit) ->
  engine:engine ->
  context:Rule_eval.context ->
  Database.t ->
  string list ->
  rules:(string -> Compile.t list) ->
  round0:seed list ->
  inputs:(Compile.t -> int -> int -> Rule_eval.subgoal_input) ->
  absorb:(string -> Tuple.t -> int -> int) ->
  unit
