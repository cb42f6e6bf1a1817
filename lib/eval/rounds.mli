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
    the fan-out and the absorb order are the engine's. *)

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

(** [run seeds ~absorb] evaluates one round and calls [absorb head buf]
    for every task buffer, in task order; [head] is the rule's head
    predicate. *)
val run : seed list -> absorb:(string -> Relation.t -> unit) -> unit

(** [fixpoint db preds ~rules ~round0 ~inputs ~absorb ~on_round] runs the
    semi-naive fixpoint of the recursive unit [preds].

    - [rules p] are the rules seeded for [p] in rounds after the first;
      it is called once per round.
    - [inputs rule pos] are the inputs of [rule] seeded at [pos] with a
      unit predicate's pending delta.
    - [absorb p tup c] takes one emitted tuple of a task deriving [p] and
      returns the count it adds to [p]'s next pending delta (0 for
      none).
    - [on_round n pending] runs before round [n ≥ 1] is built, with the
      pending deltas it seeds from. *)
val fixpoint :
  Database.t ->
  string list ->
  rules:(string -> Compile.t list) ->
  round0:seed list ->
  inputs:(Compile.t -> int -> int -> Rule_eval.subgoal_input) ->
  absorb:(string -> Tuple.t -> int -> int) ->
  on_round:(int -> (string -> Relation.t) -> unit) ->
  unit
