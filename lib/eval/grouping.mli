(** Evaluation of GROUPBY subgoals (Section 6.2 of the paper).

    A GROUPBY subgoal over a source relation [U] denotes a grouped
    relation [T] with one tuple [y ++ [agg]] per distinct grouping value
    [y] in [U].  {!compute} materializes [T]; {!delta} is Algorithm 6.1:
    given [Δ(U)] it touches only the groups occurring in [Δ(U)],
    recomputing each touched group's aggregate from the old and new [U]
    (index-assisted, so a touched group costs its own size, not [|U|]),
    and emits [(T_y old, −1)] / [(T_y new, +1)] for changed groups.
    Maintenance takes [Δ(T)] from the accumulators of {!Agg_index}
    instead; {!delta} is the paper's reference that tests and bench E8
    compare them against. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view

(** Multiplicity regime: a tuple with count [c] contributes [c] times
    under duplicate semantics, once under set semantics. *)
type mult = int -> int

(** The grouped relation [T] over [view], in full. *)
val compute : ?mult:mult -> Relation_view.t -> Compile.agg_spec -> Relation.t

(** Aggregate value of one group; [None] when empty (an empty group
    contributes no tuple to [T]). *)
val group_value :
  ?mult:mult -> Relation_view.t -> Compile.agg_spec -> Tuple.t -> Value.t option

(** Distinct group keys occurring in a source delta. *)
val affected_keys : Relation.t -> Compile.agg_spec -> Tuple.t list

(** Algorithm 6.1: [Δ(T)] from [Δ(U)] and the old/new versions of [U]. *)
val delta :
  ?mult:mult ->
  old_view:Relation_view.t ->
  new_view:Relation_view.t ->
  delta_u:Relation.t ->
  Compile.agg_spec ->
  Relation.t
