(** DRed — Delete and Rederive, Section 7 of the paper: incremental
    maintenance of (general) recursive views with stratified negation and
    aggregation, under set semantics.

    Derived predicates are processed unit by unit (one SCC of mutually
    recursive predicates at a time, in dependency order).  Per unit:

    + {b delete} an overestimate — semi-naive evaluation of the δ⁻-rules
      against the {e old} relations: a tuple is overdeleted if {e any}
      derivation of it uses a deleted tuple (or a tuple newly true under a
      negated subgoal, or a vanished group tuple of a GROUPBY subgoal);
    + {b rederive} — every overdeleted tuple with an alternative
      derivation in the new database is put back
      ([δ⁺(p) :- δ⁻(p) & s1ν & … & snν]), semi-naively within the unit;
    + {b insert} — semi-naive propagation of the insertions over the new
      relations.

    Theorem 7.1: the result contains a tuple iff it has a derivation in
    the updated database. *)

module Relation = Ivm_relation.Relation
module Database = Ivm_eval.Database

exception Duplicate_semantics_unsupported

type report = {
  base_deltas : (string * Relation.t) list;
  view_deltas : (string * Relation.t) list;
      (** per derived predicate: ±1 set transitions actually applied *)
  overdeleted : (string * int) list;
      (** per predicate: size of the step-1 overestimate *)
  rederived : (string * int) list;
      (** per predicate: tuples put back in step 2 *)
}

(** The DRed producer ({!Delta.maintain}): delete, rederive and insert,
    unit by unit.  No count can go below zero: DRed hides exactly
    −count(stored) once per overdeleted tuple, puts back at most that
    amount, and adds +1 only to absent slots — so the commit's
    negative-count check guards DRed too.
    @raise Duplicate_semantics_unsupported under duplicate semantics
    (DRed is a set-semantics algorithm, Section 7). *)
val produce : Delta.ctx -> unit

(** Normalize base-relation changes and run {!produce} through
    {!Delta.maintain}.
    @raise Duplicate_semantics_unsupported under duplicate semantics;
    @raise Changes.Invalid_changes on malformed change sets. *)
val maintain : Database.t -> Changes.t -> report
