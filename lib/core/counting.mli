(** The counting algorithm — Algorithm 4.1 of the paper — for incremental
    maintenance of {e nonrecursive} views with negation (Section 6.1),
    aggregation (Section 6.2), union, and both duplicate and set semantics
    (Section 5).

    For every rule [p :- s1 & … & sn] and every changeable body position
    [i], the delta rule

    {v Δ(p) :- s1ν & … & s(i−1)ν & Δ(si) & s(i+1) & … & sn v}

    (Definition 4.1) is evaluated when [Δ(si)] is non-empty; all results
    are combined with [⊎] into [Δ(P)], which by Theorem 4.1 holds exactly
    [countν(t) − count(t)] for every tuple — the algorithm computes
    precisely the view tuples that change.  Under set semantics the boxed
    statement (2) propagates only [set(Pν) − set(P)] upward, so a deletion
    that leaves alternative derivations cascades nowhere (Example 5.1). *)

module Relation = Ivm_relation.Relation
module Database = Ivm_eval.Database

exception Recursive_program of string

type report = {
  base_deltas : (string * Relation.t) list;
      (** normalized base changes that were applied *)
  view_deltas : (string * Relation.t) list;
      (** per derived predicate: the full count delta [Δ(P)] *)
  propagated_deltas : (string * Relation.t) list;
      (** per derived predicate: the delta visible to dependent views —
          the ±1 set transition under set semantics, [Δ(P)] itself under
          duplicate semantics *)
}

(** Names of the views that changed. *)
val changed_views : report -> string list

(** The counting producer ({!Delta.maintain}): Definition 4.1's delta
    rules for every view depending on a changed base relation, stratum by
    stratum.  @raise Recursive_program when the program has recursive
    views — use {!Dred} (Section 7). *)
val produce : Delta.ctx -> unit

(** Normalize base-relation changes and run {!produce} through
    {!Delta.maintain}: commits to the stored relations and returns what
    changed.
    @raise Recursive_program when the program has recursive views;
    @raise Changes.Invalid_changes on malformed change sets. *)
val maintain : Database.t -> Changes.t -> report
