(** The library's front door: a materialized-view database plus an
    incremental-maintenance policy.

    A manager owns a {!Ivm_eval.Database} (program + stored relations with
    derivation counts) and routes every change batch through one of the
    paper's algorithms; [Auto] follows the paper's own recommendation —
    counting for nonrecursive programs, DRed otherwise (Section 1). *)

module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Ast = Ivm_datalog.Ast
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database

type algorithm =
  | Counting  (** Algorithm 4.1; nonrecursive programs, either semantics *)
  | Dred  (** Section 7; any stratified program, set semantics *)
  | Recursive_counting
      (** [GKM92]: counts through recursion, duplicate semantics; diverges
          (detected) on cyclic data *)
  | Recompute  (** the from-scratch baseline *)
  | Auto  (** counting if nonrecursive, else DRed *)

val algorithm_name : algorithm -> string
val algorithm_of_string : string -> algorithm option

type t

(** Create a manager from rules and initial base facts; materializes all
    views eagerly.  [extra_base] declares base relations (name, arity) not
    otherwise mentioned.  [domains] sets the process-global domain count
    for parallel delta evaluation ({!Ivm_par.set_domains}); omitted, the
    current setting stays (1 unless [IVM_DOMAINS] or an earlier call
    changed it).  [durable] names a store directory: if it already holds a
    store, the on-disk state wins — it is reopened through {!open_durable}
    and the given rules/facts are ignored; otherwise the fresh manager is
    snapshotted into it and subsequent batches are write-ahead logged. *)
val create :
  ?semantics:Database.semantics ->
  ?algorithm:algorithm ->
  ?extra_base:(string * int) list ->
  ?distinct:string list ->
  ?facts:(string * Tuple.t list) list ->
  ?domains:int ->
  ?durable:string ->
  Ast.rule list ->
  t

(** Create from Datalog source text (rules and facts together). *)
val of_source :
  ?semantics:Database.semantics ->
  ?algorithm:algorithm ->
  ?extra_base:(string * int) list ->
  ?distinct:string list ->
  ?domains:int ->
  ?durable:string ->
  string ->
  t

(** Wrap an already-materialized database (e.g. one loaded from a
    snapshot) without re-evaluating anything. *)
val of_database : ?algorithm:algorithm -> Database.t -> t

val database : t -> Database.t
val program : t -> Program.t
val relation : t -> string -> Relation.t
val semantics : t -> Database.semantics
val algorithm : t -> algorithm

(** The algorithm [Auto] resolves to on the current program. *)
val resolve : t -> algorithm

(** Switch the maintenance algorithm in place.  Counting requires a
    nonrecursive program (@raise Invalid_argument otherwise).  Switching
    to a count-bearing algorithm (counting / recursive counting) from a
    set-maintaining one (DRed, recompute) first re-derives every view
    from scratch — the set maintainers leave stored derivation counts
    stale.  Not WAL-logged: on a durable manager the switch folds the log
    into a fresh snapshot, like rule changes. *)
val set_algorithm : t -> algorithm -> unit

(** Apply one batch of base-relation changes.  The batch is normalized
    once ({!Changes.normalize_base}); every algorithm then runs as a
    delta producer through {!Delta.maintain}.  Returns the derived
    predicates' deltas ({!Delta.view_deltas}) — set transitions under set
    semantics, count deltas under duplicate semantics — the same for
    every algorithm, [Recompute] included.  On a durable manager the
    normalized batch is appended to the write-ahead log and fsync'd
    before maintenance runs (see {!Ivm_store.Store}). *)
val apply : t -> Changes.t -> (string * Relation.t) list

(** Stage-timing callbacks for {!apply_group}, the hook the serve path's
    request tracing hangs off ([Ivm_obs.Reqtrace]) without [lib/core]
    knowing about requests.  [batch_stage i name t0 t1] reports one
    timed stage of batch [i] ([normalize], [wal_append], [maintain]);
    [group_stage name t0 t1] reports a group-wide stage ([fsync] — once
    per group, zero-duration on a non-durable manager so every committed
    batch still carries exactly one fsync stage, ARCHITECTURE.md
    invariant 12).  Times are [Unix.gettimeofday] seconds; callbacks run
    on the applying domain and must not raise. *)
type group_hooks = {
  batch_stage : int -> string -> float -> float -> unit;
  group_stage : string -> float -> float -> unit;
}

(** Group commit: apply several batches in order with {e one} fsync.
    Each batch is normalized against the state the previous batches
    left, write-ahead logged without syncing, and maintained; one
    {!Ivm_store.Store.sync} after the last batch makes the whole group
    durable (non-durable managers skip the log entirely).  Validation
    failures are isolated to their slot ([Error msg], nothing logged or
    applied for that batch); the rest of the group proceeds.  The caller
    must not acknowledge or publish any batch of the group before this
    function returns — inside the group, maintenance runs ahead of the
    fsync (see ARCHITECTURE.md invariant 11 and [Ivm_serve.Server]).
    [hooks], when given, receives per-batch and group stage timings (a
    stage that raises reports nothing, so an [Error] slot's chain simply
    ends where the batch failed).  [track], when given, accumulates the
    group's exact net stored-count changes — base and derived, under
    every algorithm — from each batch's committed context
    ({!Changes.record}). *)
val apply_group :
  ?hooks:group_hooks -> ?track:Changes.collector -> t -> Changes.t list ->
  ((string * Relation.t) list, string) result list

(** Out-of-band mutation counter: bumped whenever stored relations may
    have been rewritten outside tracked batch maintenance (rule
    add/remove, algorithm switch).  Monotonic; the snapshot publisher
    compares it across groups. *)
val state_version : t -> int

(** {1 Durability}

    A durable manager pairs the in-memory database with an
    {!Ivm_store.Store}: a checksummed snapshot plus a write-ahead change
    log.  Every batch {!apply} validates is logged (fsync'd) before the
    maintenance algorithm touches any relation; restart replays only the
    log tail through the same maintenance path instead of re-deriving the
    views — the paper's "maintenance beats recomputation" argument applied
    to recovery. *)

(** Open an existing store directory: load the snapshot with zero
    re-evaluation, replay the surviving log tail through the normal
    maintenance path, attach the log for subsequent batches.  The returned
    {!Ivm_store.Store.recovery} says what was replayed, skipped, or
    dropped (torn/corrupt tail bytes).
    @raise Ivm_store.Store.Corrupt on an unrecoverable snapshot/log. *)
val open_durable : ?algorithm:algorithm -> string -> t * Ivm_store.Store.recovery

(** Turn an in-memory manager durable: snapshot its current state into the
    directory (created if needed) and start logging subsequent batches.
    @raise Invalid_argument if already durable or the directory already
    holds a store. *)
val make_durable : t -> dir:string -> unit

(** Fold the log into a fresh snapshot of the current state and reset it.
    Rule changes and algorithm switches — which are not logged — compact
    implicitly.
    @raise Invalid_argument on a non-durable manager. *)
val compact : t -> unit

(** [None] on a non-durable manager. *)
val store_status : t -> Ivm_store.Store.status option

val durable_dir : t -> string option

(** Close the log file descriptor and detach the store; the manager keeps
    working, in-memory only.  No-op when not durable. *)
val close_store : t -> unit

val insert : t -> string -> Tuple.t list -> (string * Relation.t) list
val delete : t -> string -> Tuple.t list -> (string * Relation.t) list

val update :
  t -> string -> old_tuple:Tuple.t -> new_tuple:Tuple.t ->
  (string * Relation.t) list

(** Add a rule to the program, incrementally maintaining all views
    (Section 7's view redefinition). *)
val add_rule : t -> Ast.rule -> unit

val add_rule_text : t -> string -> unit

(** Remove a rule (matched structurally), incrementally maintaining all
    views.  @raise Rule_changes.Unknown_rule if absent. *)
val remove_rule : t -> Ast.rule -> unit

val remove_rule_text : t -> string -> unit

(** Recompute every view from scratch and compare with the maintained
    materializations: [Ok ()] when they agree (with counts under
    count-bearing configurations, as sets under DRed/Recompute). *)
val audit : t -> (unit, string) result

val pp : Format.formatter -> t -> unit

(** {1 Provenance & lineage}

    Derivation-provenance capture ({!Ivm_prov.Prov}) records, per derived
    tuple, a bounded set of supports — (rule, immediate subgoal tuples) —
    kept incrementally correct by the maintenance algorithms, plus a
    batch-lineage history.  The store is process-global: with several
    managers in one process, enable capture on only one. *)

(** Switch capture on and bootstrap the store by re-enumerating every
    current derivation once ({!Ivm_eval.Seminaive.replay_derivations}). *)
val enable_provenance : t -> unit

(** Switch capture off and clear the store. *)
val disable_provenance : t -> unit

val provenance_enabled : t -> bool

(** Database-access closures for the {!Ivm_prov.Prov_query} layer
    ([why] / [why not] / [lineage]); reads through to the live database,
    surviving rule changes. *)
val provenance_access : t -> Ivm_prov.Prov_query.db_access

(** Parse ["p(v1, …)"] (trailing period optional) as one ground fact. *)
val parse_fact : string -> (string * Tuple.t, string) result

(** One-stop EXPLAIN for the monitor's [/why] endpoint: [why] (when the
    fact is present) or [why not] (when absent) bundled with its
    [lineage] as one JSON document; [Error] on a parse failure or
    unknown predicate. *)
val explain_json : t -> string -> (Ivm_obs.Json.t, string) result

(** The manager's state as JSON — the monitor's [/statusz] body (minus
    process-level fields like uptime, which the server adds): algorithm,
    semantics, domain count, per-view tuple counts (with strata),
    durable-store status ([null] when not durable), and the most recent
    batch's wall time plus its per-rule attribution
    ({!Ivm_obs.Attribution.batch_json}). *)
val status_json : t -> Ivm_obs.Json.t
