(** Counting for recursive views — the [GKM92] extension the paper
    discusses in Section 8: full derivation counts are maintained through
    recursive components by iterating Definition 4.1 delta rules to a
    fixpoint, each round treating the previous round's deltas as a batch
    update (Theorem 4.1 applied per batch keeps counts exact).

    On data with cyclic derivations counts are infinite; the iteration is
    capped and {!Divergence} raised — "counting may not terminate on some
    views" (Section 8).  Duplicate semantics only. *)

module Relation = Ivm_relation.Relation
module Database = Ivm_eval.Database

exception Divergence of string

val default_max_rounds : int

(** The recursive-counting producer ({!Delta.maintain}): every view —
    recursive ones included — with exact derivation counts.
    @raise Divergence when counts cannot converge within [max_rounds];
    @raise Invalid_argument under set semantics (use {!Dred}). *)
val produce : ?max_rounds:int -> Delta.ctx -> unit

(** Normalize base changes, run {!produce} through {!Delta.maintain} and
    return the committed view deltas ({!Delta.view_deltas}). *)
val maintain :
  ?max_rounds:int -> Database.t -> Changes.t -> (string * Relation.t) list

(** Materialize a (possibly recursive) program with derivation counts:
    equivalent to maintaining from an empty database with every base fact
    inserted.  @raise Divergence on cyclic data. *)
val evaluate : ?max_rounds:int -> Database.t -> unit
