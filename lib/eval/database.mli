(** The database: one stored counted relation per predicate — base
    relations (edb) loaded by the user, derived relations (idb)
    materialized with their derivation counts — plus a compiled-rule
    cache.

    Count regimes (Section 5 of the paper):
    - {e duplicate semantics} (SQL without DISTINCT): stored counts are
      full multiplicities and join inputs keep their counts;
    - {e set semantics}: stored counts are derivation counts {e assuming
      all tuples of lower strata count once} (Section 5.1); the evaluator
      reads lower-stratum inputs through the {!Rule_eval.set_count}
      clamp. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Tuple = Ivm_relation.Tuple
module Program = Ivm_datalog.Program

type semantics = Set_semantics | Duplicate_semantics

type t

(** Fresh database with empty relations for every predicate of the
    program. *)
val create : ?semantics:semantics -> Program.t -> t

val program : t -> Program.t
val semantics : t -> semantics

(** The count transform for non-delta subgoals: identity under duplicate
    semantics, the 0/1 clamp under set semantics. *)
val mult : t -> int -> int

(** Mark a derived relation DISTINCT (SQL's [SELECT DISTINCT], §5.1):
    readers see each true tuple once and only its set transitions
    propagate, even inside a duplicate-semantics database.  No-op under
    set semantics.  @raise Invalid_argument on base relations. *)
val mark_distinct : t -> string -> unit

val is_distinct : t -> string -> bool

(** All views marked DISTINCT, sorted. *)
val distinct_views : t -> string list

(** The count transform readers of this predicate apply: the set clamp
    under set semantics or for DISTINCT views, identity otherwise. *)
val mult_for : t -> string -> int -> int

(** @raise Program.Program_error on unknown relations. *)
val relation : t -> string -> Relation.t

val view : t -> string -> Relation_view.t

(** Compile a rule, memoized per database; [text] is
    {!Compile.compile}'s, used on the first compilation of [rule]. *)
val compile : ?text:string -> t -> Ivm_datalog.Ast.rule -> Compile.t

(** Insert base facts, one derivation each; idempotent per tuple under set
    semantics.  Drops aggregate indexes sourced from the predicate. *)
val load : t -> string -> Tuple.t list -> unit

(** Overwrite one relation (commits of maintenance results, the
    recomputation baseline).  Drops aggregate indexes sourced from it.
    @raise Invalid_argument on arity mismatch. *)
val set_relation : t -> string -> Relation.t -> unit

(** {2 Persistent incremental aggregate indexes}

    [DAJ91]-style per-group accumulators (see {!Agg_index}): every GROUPBY
    spec gets its [Δ(T)] from running group states in [O(|Δ| log)]
    instead of recomputing touched groups from the source.  Like relation
    indexes they are built on demand and kept current at the one commit
    point; any other write to a source drops them. *)

(** The spec's index, built from the current source relation on first
    use. *)
val agg_index : t -> Compile.agg_spec -> Agg_index.t

(** Fold committed per-predicate deltas (in the propagated regime: count
    deltas under duplicates, ±1 set transitions under sets) into every
    built index. *)
val refresh_agg_indexes : t -> (string * Relation.t) list -> unit

(** Drop indexes sourced from [pred] (its relation was written outside
    the maintenance commit). *)
val invalidate_agg_indexes : t -> string -> unit

(** Deep copy: same program and semantics, copied relations.  Secondary
    indexes and aggregate indexes are copied by default;
    [~with_indexes:false] skips both (the serve publish shadows and the
    recomputation scratch copy, which no commit maintains — readers
    rebuild relation indexes on demand under the relation build lock). *)
val copy : ?with_indexes:bool -> t -> t

(** Canonical content digest (hex MD5) over every relation's sorted
    [(tuple, count)] entries, base and derived, plus the semantics tag.
    Two databases digest equal iff they are count-identical; indexes and
    caches do not participate.  This is the publisher-equivalence
    oracle. *)
val canonical_digest : t -> string

(** Do the stored relations agree (sets under set semantics, counts under
    duplicates)?  [preds] defaults to every predicate. *)
val agree : ?preds:string list -> t -> t -> bool

(** Refresh the per-relation observability gauges
    ([ivm_relation_cardinality{relation=p}],
    [ivm_relation_indexes{relation=p}]) from the stored relations.  One
    cheap pass over the relation table. *)
val observe_gauges : t -> unit

val pp : Format.formatter -> t -> unit

(** Serialize as a re-loadable program text: rules, then base facts
    (repeated per multiplicity under duplicate semantics); derived
    relations are rebuilt on load. *)
val dump : Format.formatter -> t -> unit
