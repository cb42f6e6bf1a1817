(** The maintenance context shared by every maintenance algorithm, and
    the single commit point where stored state changes.

    Every algorithm — Counting, DRed, recursive counting and recomputation
    — is a delta producer: a function that only fills a {!ctx}.  It
    records per-predicate deltas ({!set_delta}, or a growing
    {!start_delta} inside a recursive unit), typically by evaluating its
    rules through the round engine ({!Ivm_eval.Rounds}) against the old
    and new views the context provides.  {!maintain} runs a producer
    between installing the base deltas and the commit; the commit alone
    writes stored counts, emits lineage transitions and refreshes
    aggregate indexes — an exception raised by a producer leaves the
    database untouched.

    The context also holds Definition 6.1's [Δ(¬Q)], Algorithm 6.1's
    [Δ(T)], and the delta rules of Definition 4.1 ({!seeds}: positions
    before the delta read new views, the delta position enumerates the
    change, positions after read old views). *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Database = Ivm_eval.Database
module Compile = Ivm_eval.Compile
module Rule_eval = Ivm_eval.Rule_eval

type version = Old | New

type ctx = {
  db : Database.t;
  base : (string * Relation.t) list;
      (** the normalized base deltas this batch was entered with *)
  full : (string, Relation.t) Hashtbl.t;
      (** per predicate: the full count delta of this maintenance batch *)
  propagated : (string, Relation.t) Hashtbl.t;
      (** what delta positions enumerate: [full] under duplicate
          semantics, the ±1 set transition under set semantics (the boxed
          statement 2 of Algorithm 4.1) *)
  neg_deltas : (string, Relation.t) Hashtbl.t;  (** Definition 6.1 cache *)
  agg_deltas : (string, Relation.t) Hashtbl.t;  (** Algorithm 6.1 cache *)
  grouped : (string, Relation.t) Hashtbl.t;  (** old/new grouped relations *)
}

(** The accumulated full delta of a predicate (empty if unchanged). *)
val full_delta : ctx -> string -> Relation.t

(** The delta enumerated at delta positions. *)
val propagated_delta : ctx -> string -> Relation.t

(** Record a predicate's delta for this batch; derives the propagated
    version from the database's semantics against the (uncommitted)
    stored relation. *)
val set_delta : ctx -> string -> full:Relation.t -> unit

(** Install an empty full delta for a predicate and return it: new views
    read it as it grows (a recursive unit's accumulator) until
    {!set_delta} fixes it. *)
val start_delta : ctx -> string -> Relation.t

(** [old ⊎ Δ] as a lazy overlay; collapses to the stored relation when the
    predicate's delta is empty. *)
val new_view : ctx -> string -> Relation_view.t

(** The stored relation ([Old]) or {!new_view} ([New]). *)
val view : ctx -> version -> string -> Relation_view.t

(** Definition 6.1: [Δ(¬Q)] — [t] with count +1 when deleted outright from
    [Q], −1 when inserted into a previously-false slot; computable from
    [Δ(Q)], [Q], [Qν] alone, so the delta literal can stay first in the
    join order. *)
val neg_delta : ctx -> string -> Relation.t

(** The grouped relation [T] of a GROUPBY spec over the old or new version
    of its source, cached per spec signature. *)
val grouped : ctx -> version -> Compile.agg_spec -> Relation.t

(** Algorithm 6.1: [Δ(T)], touching only the groups occurring in the
    source's delta; cached. *)
val agg_delta : ctx -> Compile.agg_spec -> Relation.t

(** What a non-seed body position reads when it reads the given version
    of its relation. *)
val input : ctx -> version -> Compile.t -> int -> Rule_eval.subgoal_input

(** The delta rules of Definition 4.1 for one compiled rule (extended to
    negation and aggregation): one seed per body literal whose delta is
    non-empty. *)
val seeds : ctx -> Compile.t -> Ivm_eval.Rounds.seed list

(** One Definition 4.1 round for a nonrecursive predicate: evaluate the
    delta rules of all its rules, [⊎]-combine them, record the result as
    its delta and return it. *)
val derive : ctx -> string -> Relation.t

(** [maintain db base produce]: a fresh context over [db] with the
    normalized [base] deltas installed, [produce] run to record every
    derived predicate's delta, then the commit of every accumulated delta
    into the stored relations.  Returns the committed context.
    @raise Invalid_argument if a count would go negative (the producer
    violated Lemma 4.1's precondition). *)
val maintain : Database.t -> (string * Relation.t) list -> (ctx -> unit) -> ctx

(** The non-empty deltas a table of the context ([full] or [propagated])
    holds for derived predicates, sorted by predicate. *)
val derived_deltas : ctx -> (string, Relation.t) Hashtbl.t -> (string * Relation.t) list

(** What maintenance reports per view: {!derived_deltas} of [propagated]
    (set transitions) under set semantics, of [full] (count deltas) under
    duplicate semantics. *)
val view_deltas : ctx -> (string * Relation.t) list
