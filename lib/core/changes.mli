(** Change sets — the [Δ] notation of Section 3 of the paper.

    A change set maps base predicates to delta relations: insertions carry
    positive counts, deletions negative counts
    ([Δ(P) = {ab 4, mn −2}] inserts four derivations of [p(a,b)] and
    deletes two of [p(m,n)]).  Updates are modelled, as in the paper, as a
    deletion plus an insertion. *)

module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database

type t = (string * Relation.t) list

exception Invalid_changes of string

(** Build a change set from per-predicate [(tuple, signed count)] lists.
    @raise Program.Program_error on unknown predicates. *)
val of_list : Program.t -> (string * (Tuple.t * int) list) list -> t

val insertions : Program.t -> string -> Tuple.t list -> t
val deletions : Program.t -> string -> Tuple.t list -> t

(** Deletion of [old_tuple] ⊎ insertion of [new_tuple]. *)
val update : Program.t -> string -> old_tuple:Tuple.t -> new_tuple:Tuple.t -> t

(** Per-predicate [⊎] of two change sets. *)
val merge : t -> t -> t

val is_empty : t -> bool

(** Total number of distinct changed tuples. *)
val total_tuples : t -> int

(** Validate against the database and normalize for its semantics:
    changed predicates must be base relations; deletions must not exceed
    stored multiplicities (the standing assumption of Lemma 4.1); under
    set semantics insert/delete collapse to ±1 transitions and re-inserts
    of present tuples are dropped.  Duplicate entries for one predicate
    are merged first.
    @raise Invalid_changes on violations. *)
val normalize_base : Database.t -> t -> t

(** {2 Net-change collectors}

    A collector accumulates the deltas maintenance commits — base {e and}
    derived predicates — as one change set.  The view manager feeds it
    every delta [Delta.maintain] committed, which makes the collected set
    exact by construction: replaying it with [⊎] onto any count-identical
    database reproduces the post-maintenance database. *)

type collector

val collector : unit -> collector

(** [record col pred delta] ⊎-folds one committed per-tuple count delta
    of [pred] into the collector. *)
val record : collector -> string -> Relation.t -> unit

(** The accumulated net change set, sorted by predicate, empty deltas
    dropped. *)
val collected : collector -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
