(** The library's front door: a materialized-view database plus an
    incremental maintenance policy.

    A manager owns a {!Ivm_eval.Database} (program + stored relations with
    counts) and routes every change batch through one of the paper's
    algorithms:

    - [Counting] — Algorithm 4.1; nonrecursive programs, set or duplicate
      semantics (Sections 4–6);
    - [Dred] — Delete/Rederive; any stratified program, set semantics
      (Section 7);
    - [Recursive_counting] — the [GKM92] extension: derivation counts
      through recursion, duplicate semantics, diverges on cyclic data
      (Section 8);
    - [Recompute] — the from-scratch baseline the paper argues against
      ("recomputing the view from scratch is too wasteful in most cases",
      Section 1);
    - [Auto] — counting when the program is nonrecursive, DRed otherwise:
      the paper's own recommendation ("we are proposing the counting
      algorithm for nonrecursive views, and the DRed algorithm for
      recursive views").

    Rule insertions/deletions (Section 7's view redefinition) go through
    {!Rule_changes} with the same policy. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Ast = Ivm_datalog.Ast
module Parser = Ivm_datalog.Parser
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Seminaive = Ivm_eval.Seminaive
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace

type algorithm = Counting | Dred | Recursive_counting | Recompute | Auto

let recompute_batches_c =
  Metrics.counter ~labels:[ ("algorithm", "recompute") ] "ivm_maintain_batches_total"

let algorithm_name = function
  | Counting -> "counting"
  | Dred -> "dred"
  | Recursive_counting -> "recursive-counting"
  | Recompute -> "recompute"
  | Auto -> "auto"

let algorithm_of_string = function
  | "counting" -> Some Counting
  | "dred" -> Some Dred
  | "recursive-counting" -> Some Recursive_counting
  | "recompute" -> Some Recompute
  | "auto" -> Some Auto
  | _ -> None

type t = {
  mutable db : Database.t;
  mutable algorithm : algorithm;
  mutable store : Ivm_store.Store.t option;
      (** durable mode: every validated batch is WAL-logged (fsync'd)
          before maintenance applies it — see {!open_durable} *)
  state_version : int Atomic.t;
      (** bumped on every out-of-band state mutation (rule change,
          algorithm switch) — anything that rewrites stored relations
          outside per-tuple-tracked batch maintenance.  The snapshot publisher compares this across
          groups to detect that its incremental shadow is stale. *)
}

let algorithm t = t.algorithm

(** [Auto] resolved against a database: counting when its program is
    nonrecursive, DRed otherwise.  Rule changes resolve against the
    database being maintained, whose program may differ from [t.db]'s. *)
let resolve_in algorithm db =
  match algorithm with
  | Auto -> if Program.nonrecursive (Database.program db) then Counting else Dred
  | a -> a

let resolve t = resolve_in t.algorithm t.db

(** Materialize every view from the base relations the way a resolved
    algorithm keeps them: full derivation counts through recursion for
    recursive counting, the semi-naive evaluation otherwise. *)
let materialize algorithm db =
  match algorithm with
  | Recursive_counting -> Recursive_counting.evaluate db
  | Counting | Dred | Recompute | Auto -> Seminaive.evaluate db

(** Recomputation as a delta producer — the baseline the paper argues
    against: evaluate a copy of the database from scratch with the base
    deltas applied, and record every derived predicate's delta as
    fresh − stored, so the batch commits like any other. *)
let recompute (ctx : Delta.ctx) : unit =
  Metrics.inc recompute_batches_c;
  Trace.span "recompute.maintain" (fun () ->
      (* Every stored support is dropped; evaluating the copy re-records
         each current derivation through the evaluator's capture hook,
         and the commit emits the lineage transitions. *)
      if Ivm_prov.Prov.capturing () then
        Ivm_prov.Prov.truncate_supports ~reason:"recompute";
      let db = ctx.Delta.db in
      let fresh = Database.copy ~with_indexes:false db in
      List.iter
        (fun (pred, delta) ->
          Relation.union_into ~into:(Database.relation fresh pred) delta)
        ctx.Delta.base;
      Seminaive.evaluate fresh;
      List.iter
        (fun p ->
          Delta.set_delta ctx p
            ~full:(Relation.diff (Database.relation fresh p) (Database.relation db p)))
        (Program.derived_preds (Database.program db)))

(** The delta producer of a resolved algorithm. *)
let producer : algorithm -> Delta.ctx -> unit = function
  | Counting -> Counting.produce
  | Dred -> Dred.produce
  | Recursive_counting -> Recursive_counting.produce ?max_rounds:None
  | Recompute | Auto -> recompute

(** Maintain one normalized batch with the configured algorithm through
    {!Delta.maintain}.  Returns the view deltas ({!Delta.view_deltas});
    [track] receives every committed delta, base and derived.

    Observability: the whole batch runs under a [maintain_batch] span
    (the root of the batch → stratum → rule span tree), its end-to-end
    wall clock feeds [ivm_batch_latency_ns{algorithm=...}] and the
    [ivm_last_batch_ns] gauge, per-rule cost attribution is collected
    between {!Ivm_obs.Attribution.batch_begin}/[batch_end] (backing
    [explain last], the labeled rule families on [/metrics], and the
    slow-batch log line), and the per-relation gauges are refreshed
    after commit. *)
let last_batch_g =
  Metrics.gauge "ivm_last_batch_ns"
    ~help:"Wall time of the most recent maintenance batch, nanoseconds"

let maintain_batch ?track (t : t) (normalized : Changes.t) :
    (string * Relation.t) list =
  let resolved = resolve t in
  let name = algorithm_name resolved in
  let t0 = Unix.gettimeofday () in
  Ivm_obs.Attribution.batch_begin ~algorithm:name;
  if Ivm_prov.Prov.capturing () then Ivm_prov.Prov.batch_begin ~algorithm:name;
  let finish () =
    let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    ignore (Ivm_obs.Attribution.batch_end ~total_wall_ns:wall_ns);
    Metrics.observe
      (Metrics.histogram ~labels:[ ("algorithm", name) ] "ivm_batch_latency_ns")
      wall_ns;
    Metrics.set last_batch_g (float_of_int wall_ns)
  in
  let ctx =
    Fun.protect ~finally:finish (fun () ->
        Trace.span "maintain_batch"
          ~args:(fun () -> [ ("algorithm", name) ])
          (fun () -> Delta.maintain t.db normalized (producer resolved)))
  in
  Option.iter (fun col -> Hashtbl.iter (Changes.record col) ctx.Delta.full) track;
  Database.observe_gauges t.db;
  Delta.view_deltas ctx

(** Apply one batch: normalized once against the pre-state — a durable
    manager then appends exactly that to the write-ahead log and fsyncs
    it {e before} maintenance touches any relation, so after a crash a
    batch is either durable or never happened. *)
let apply (t : t) (changes : Changes.t) : (string * Relation.t) list =
  let normalized = Changes.normalize_base t.db changes in
  Option.iter (fun store -> Ivm_store.Store.append store normalized) t.store;
  maintain_batch t normalized

(** Group commit (the [ivm_serve] writer's path): apply a whole queue of
    batches with {e one} fsync.  Each batch is normalized against the
    database state the previous batches left (so deletion validity and
    set-semantics collapsing see the right pre-state), appended to the
    WAL {e without} syncing, and maintained; after the last batch a
    single {!Ivm_store.Store.sync} makes the whole group durable.

    Per-batch validation failures are isolated: an invalid batch yields
    [Error msg] in its slot, is never logged, and leaves the database
    untouched — the rest of the group proceeds.  Callers must treat the
    group as {b unpublished} until this function returns: maintenance
    runs ahead of the fsync inside the group, so acknowledging or
    exposing a batch earlier would break the
    "no reader observes an un-fsync'd batch" invariant
    (ARCHITECTURE.md invariant 11).  A crash mid-group loses only
    un-acknowledged batches: the WAL tail is torn and truncated on
    recovery. *)
type group_hooks = {
  batch_stage : int -> string -> float -> float -> unit;
  group_stage : string -> float -> float -> unit;
}

let apply_group ?hooks ?track (t : t) (batches : Changes.t list) :
    ((string * Relation.t) list, string) result list =
  (* timestamps are taken only when a hook is installed, so the unhooked
     path is byte-for-byte the old one *)
  let batch_stage i name f =
    match hooks with
    | None -> f ()
    | Some h ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      h.batch_stage i name t0 (Unix.gettimeofday ());
      r
  in
  let group_stage name f =
    match hooks with
    | None -> f ()
    | Some h ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      h.group_stage name t0 (Unix.gettimeofday ());
      r
  in
  let results =
    List.mapi
      (fun i changes ->
        (* only validation failures are recoverable: they happen before
           the append, so an [Error] batch left no trace anywhere.  A
           maintenance exception after the append must propagate — the
           WAL and memory would otherwise silently diverge. *)
        match
          batch_stage i "normalize" (fun () ->
              Changes.normalize_base t.db changes)
        with
        | exception Changes.Invalid_changes msg -> Error msg
        | exception Program.Program_error msg -> Error msg
        | exception Invalid_argument msg -> Error msg
        | normalized ->
          (match t.store with
          | Some store ->
            batch_stage i "wal_append" (fun () ->
                Ivm_store.Store.append ~sync:false store normalized)
          | None -> ());
          Ok
            (batch_stage i "maintain" (fun () ->
                 maintain_batch ?track t normalized)))
      batches
  in
  (* one fsync per group (zero-duration without a store, so a committed
     batch's stage chain always carries exactly one fsync — invariant 12) *)
  group_stage "fsync" (fun () ->
      match t.store with
      | Some store -> Ivm_store.Store.sync store
      | None -> ());
  results

(** Wrap an already-materialized database (e.g. one loaded from a
    snapshot) without re-evaluating anything. *)
let of_database ?(algorithm = Auto) (db : Database.t) : t =
  { db; algorithm; store = None; state_version = Atomic.make 0 }

(** Open an existing durable store: load the snapshot (no re-evaluation),
    replay the surviving log tail through the normal maintenance path,
    and attach the store so subsequent batches are logged. *)
let open_durable ?algorithm (dir : string) : t * Ivm_store.Store.recovery =
  let db, store, recovery = Ivm_store.Store.open_ ~dir in
  let t = of_database ?algorithm db in
  (* the store handle is attached only after replay, so replayed batches
     are not appended to the log a second time *)
  Trace.span "store.replay"
    ~args:(fun () ->
      [ ("records", string_of_int (List.length recovery.Ivm_store.Store.replayed)) ])
    (fun () ->
      List.iter (fun c -> ignore (apply t c)) recovery.Ivm_store.Store.replayed);
  t.store <- Some store;
  (t, recovery)

(** Turn an in-memory manager durable: snapshot its current state into
    [dir] (created if needed) and start logging subsequent batches. *)
let make_durable (t : t) ~(dir : string) : unit =
  match t.store with
  | Some s ->
    invalid_arg
      (Printf.sprintf "View_manager.make_durable: already durable in %s"
         (Ivm_store.Store.dir s))
  | None -> t.store <- Some (Ivm_store.Store.initialize ~dir t.db)

(** Create a manager from rules and initial base facts; materializes all
    views eagerly.  [domains], when given, sets the process-global domain
    count for parallel delta evaluation ({!Ivm_par.set_domains}); the
    default leaves the current setting (1 unless [IVM_DOMAINS] or an
    earlier call changed it).  With [durable], the on-disk state wins: an
    existing store is reopened (recovering through {!open_durable}, the
    given rules/facts ignored); otherwise the fresh manager is snapshotted
    into the directory. *)
let create ?(semantics = Database.Set_semantics) ?(algorithm = Auto)
    ?(extra_base : (string * int) list = []) ?(distinct : string list = [])
    ?(facts : (string * Tuple.t list) list = []) ?domains ?durable
    (rules : Ast.rule list) : t =
  (match domains with Some n -> Ivm_par.set_domains n | None -> ());
  match durable with
  | Some dir when Ivm_store.Store.exists dir -> fst (open_durable ~algorithm dir)
  | _ ->
    let program = Program.make ~extra_base rules in
    let db = Database.create ~semantics program in
    List.iter (fun v -> Database.mark_distinct db v) distinct;
    List.iter (fun (pred, tuples) -> Database.load db pred tuples) facts;
    let t = { db; algorithm; store = None; state_version = Atomic.make 0 } in
    materialize (resolve t) db;
    (match durable with Some dir -> make_durable t ~dir | None -> ());
    t

(** Create from program text (rules and facts together, Datalog syntax). *)
let of_source ?semantics ?algorithm ?extra_base ?distinct ?domains ?durable
    (src : string) : t =
  let rules, facts = Parser.split (Parser.parse_program src) in
  let facts = List.map (fun (p, vals) -> (p, [ Tuple.of_list vals ])) facts in
  create ?semantics ?algorithm ?extra_base ?distinct ?domains ?durable ~facts
    rules

let database t = t.db
let program t = Database.program t.db
let relation t pred = Database.relation t.db pred
let semantics t = Database.semantics t.db

(** Fold the log into a fresh snapshot of the current state and reset it.
    @raise Invalid_argument on a non-durable manager. *)
let compact (t : t) : unit =
  match t.store with
  | None -> invalid_arg "View_manager.compact: manager is not durable"
  | Some s -> Ivm_store.Store.compact s t.db

let store_status (t : t) : Ivm_store.Store.status option =
  Option.map Ivm_store.Store.status t.store

let durable_dir (t : t) : string option = Option.map Ivm_store.Store.dir t.store

(** Close the log file descriptor and detach the store (the manager keeps
    working, in-memory only).  No-op when not durable. *)
let close_store (t : t) : unit =
  match t.store with
  | None -> ()
  | Some s ->
    Ivm_store.Store.close s;
    t.store <- None

(* Program and algorithm changes are not WAL-logged; durable managers fold
   them straight into a fresh snapshot.  Every such change also rewrites
   stored state outside per-tuple-tracked maintenance, so the state
   version is bumped here — the snapshot publisher watches it. *)
let resnapshot (t : t) : unit =
  Atomic.incr t.state_version;
  match t.store with Some s -> Ivm_store.Store.compact s t.db | None -> ()

(** Out-of-band mutation counter (rule changes, algorithm switches).
    Monotonic; a change between two reads means stored relations may have
    been rewritten outside tracked batch maintenance. *)
let state_version (t : t) : int = Atomic.get t.state_version

let insert t pred tuples =
  apply t (Changes.insertions (program t) pred tuples)

let delete t pred tuples =
  apply t (Changes.deletions (program t) pred tuples)

let update t pred ~old_tuple ~new_tuple =
  apply t (Changes.update (program t) pred ~old_tuple ~new_tuple)

let maintainer t : Rule_changes.maintainer =
 fun db changes ->
  (* during a rule change the maintainer runs on the rebuilt database
     while [t.db] still holds the old one *)
  ignore
    (Delta.maintain db (Changes.normalize_base db changes)
       (producer (resolve_in t.algorithm db)))

(* After a rule change the stored supports may cite a rule that no longer
   exists (or miss derivations through a new one): drop them all and
   re-enumerate the current derivations against the rebuilt database. *)
let refresh_provenance (t : t) ~reason : unit =
  if Ivm_prov.Prov.capturing () then begin
    Ivm_prov.Prov.truncate_supports ~reason;
    Seminaive.replay_derivations t.db
  end

let counted_algorithm = function
  | Counting | Recursive_counting -> true
  | Dred | Recompute | Auto -> false

(* A rule change can flip what [Auto] resolves to.  Flipping {e into} a
   count-bearing resolution (the program stopped being recursive, so Auto
   now means counting) inherits derivation counts a set maintainer let go
   stale — re-derive from scratch, exactly as [set_algorithm] does for an
   explicit switch. *)
let rederive_if_counts_went_live (t : t) ~prev : unit =
  let now = resolve t in
  if counted_algorithm now && not (counted_algorithm prev) then
    Ivm_prov.Prov.with_suspended (fun () -> materialize now t.db)

(** Add a rule to the program, incrementally maintaining all views
    (Section 7, view redefinition). *)
let add_rule (t : t) (rule : Ast.rule) : unit =
  let prev = resolve t in
  t.db <-
    Ivm_prov.Prov.with_suspended (fun () ->
        Rule_changes.add_rule t.db ~maintain:(maintainer t) rule);
  rederive_if_counts_went_live t ~prev;
  refresh_provenance t ~reason:"rule-change";
  resnapshot t

let add_rule_text (t : t) (src : string) : unit = add_rule t (Parser.parse_rule src)

(** Remove a rule (matched structurally), incrementally maintaining all
    views. *)
let remove_rule (t : t) (rule : Ast.rule) : unit =
  let prev = resolve t in
  t.db <-
    Ivm_prov.Prov.with_suspended (fun () ->
        Rule_changes.remove_rule t.db ~maintain:(maintainer t) rule);
  rederive_if_counts_went_live t ~prev;
  refresh_provenance t ~reason:"rule-change";
  resnapshot t

let remove_rule_text (t : t) (src : string) : unit =
  remove_rule t (Parser.parse_rule src)

(** Switch the maintenance algorithm in place.

    Counting maintains nonrecursive programs only — asking for it on a
    recursive program is rejected eagerly rather than at the next batch.
    Switching {e to} a count-bearing algorithm (counting / recursive
    counting) from a set-maintaining one (DRed, recomputation) re-derives
    every view from scratch first: the set maintainers keep the stored
    tuple {e sets} exact but let the derivation counts go stale, and the
    counting algorithms' deltas are only correct against true counts.
    Like rule changes, a switch is not WAL-logged: on a durable manager it
    folds the log into a fresh snapshot, so every record in any log tail
    was appended under the algorithm the snapshot was taken under. *)
let set_algorithm (t : t) (algorithm : algorithm) : unit =
  if algorithm <> t.algorithm then begin
    let prev = resolve t in
    let target = resolve_in algorithm t.db in
    if target = Counting && not (Program.nonrecursive (program t)) then
      invalid_arg
        "View_manager.set_algorithm: counting maintains nonrecursive \
         programs only (use dred, recursive-counting or recompute)";
    t.algorithm <- algorithm;
    if counted_algorithm target && target <> prev then begin
      Ivm_prov.Prov.with_suspended (fun () -> materialize target t.db);
      refresh_provenance t ~reason:"algorithm-switch"
    end;
    resnapshot t
  end

(** Audit: recompute every view from scratch and compare with the
    maintained materializations.  [Ok ()] when they agree (counts included
    under count-bearing configurations, sets under DRed). *)
let audit (t : t) : (unit, string) result =
  let fresh = Database.copy t.db in
  (* The audit copy's evaluation must not pollute the provenance store. *)
  let resolved = resolve t in
  Ivm_prov.Prov.with_suspended (fun () -> materialize resolved fresh);
  let compare_counts = counted_algorithm resolved in
  let bad =
    List.filter_map
      (fun p ->
        let a = Database.relation t.db p and b = Database.relation fresh p in
        let same =
          if compare_counts then Relation.equal_counted a b
          else Relation.equal_sets a b
        in
        if same then None
        else
          Some
            (Printf.sprintf "%s: maintained %s <> recomputed %s" p
               (Relation.to_string a) (Relation.to_string b)))
      (Program.derived_preds (program t))
  in
  match bad with [] -> Ok () | msgs -> Error (String.concat "\n" msgs)

let pp ppf t = Database.pp ppf t.db

(* ------------------------------------------------------------------ *)
(* Provenance & lineage                                                 *)
(* ------------------------------------------------------------------ *)

(** Switch derivation-provenance capture on ({!Ivm_prov.Prov}) and
    bootstrap the support store by re-enumerating every current
    derivation once.  The store is process-global: with several managers
    in one process, enable capture on only one. *)
let enable_provenance (t : t) : unit =
  Ivm_prov.Prov.set_enabled true;
  Seminaive.replay_derivations t.db

(** Switch capture off and clear the store. *)
let disable_provenance (_t : t) : unit = Ivm_prov.Prov.set_enabled false

let provenance_enabled (_t : t) : bool = Ivm_prov.Prov.enabled ()

(** Database-access closures for {!Ivm_prov.Prov_query} — every closure
    rereads [t.db], so the record survives rule changes. *)
let provenance_access (t : t) : Ivm_prov.Prov_query.db_access =
  let prog () = Database.program t.db in
  {
    Ivm_prov.Prov_query.rules_for = (fun p -> Program.rules_for (prog ()) p);
    is_base = (fun p -> List.mem p (Program.base_preds (prog ())));
    known_pred =
      (fun p ->
        let program = prog () in
        List.mem p (Program.base_preds program)
        || List.mem p (Program.derived_preds program));
    arity = (fun p -> Program.arity (prog ()) p);
    holds = (fun p tup -> Relation.mem (Database.relation t.db p) tup);
    count = (fun p tup -> Relation.count (Database.relation t.db p) tup);
    probe =
      (fun p bound f ->
        let rel = Database.relation t.db p in
        match bound with
        | [] -> Relation.iter (fun tup c -> f tup c) rel
        | _ ->
          let cols = Array.of_list (List.map fst bound) in
          let key = Tuple.of_list (List.map snd bound) in
          Relation.probe rel cols key f);
    dup_semantics = Database.semantics t.db = Database.Duplicate_semantics;
  }

(** Parse ["p(v1, …)"] (trailing period optional) as one ground fact. *)
let parse_fact (txt : string) : (string * Tuple.t, string) result =
  let txt = String.trim txt in
  let txt =
    if String.length txt > 0 && txt.[String.length txt - 1] = '.' then txt
    else txt ^ "."
  in
  match Parser.split (Parser.parse_program txt) with
  | [], [ (p, vals) ] -> Ok (p, Tuple.of_list vals)
  | _ -> Error "expected a single ground fact, e.g. tc(1, 3)"
  | exception Parser.Parse_error msg -> Error msg

(** One-stop EXPLAIN for the monitor's [/why] endpoint: parse the fact,
    then bundle [why] (when present) or [why not] (when absent) with its
    [lineage] into one JSON document. *)
let explain_json (t : t) (q : string) : (Ivm_obs.Json.t, string) result =
  let module Json = Ivm_obs.Json in
  let module Pq = Ivm_prov.Prov_query in
  match parse_fact q with
  | Error e -> Error e
  | Ok (pred, tup) ->
    let access = provenance_access t in
    if not (access.Pq.known_pred pred) then
      Error (Printf.sprintf "unknown predicate %s" pred)
    else begin
      let present = access.Pq.holds pred tup in
      Ok
        (Json.Obj
           [
             ("fact", Json.Str (Pq.fact_to_string pred tup));
             ("present", Json.Bool present);
             ("count", Json.int (access.Pq.count pred tup));
             ("provenance_enabled", Json.Bool (Ivm_prov.Prov.enabled ()));
             ( (if present then "why" else "whynot"),
               if present then Pq.why_json (Pq.why access pred tup)
               else Pq.whynot_json (Pq.whynot access pred tup) );
             ("lineage", Pq.lineage_json (Pq.lineage access pred tup));
           ])
    end

(** The manager's state as JSON — the monitor's [/statusz] body (minus
    process-level fields like uptime, which the server adds): algorithm,
    semantics, domain count, per-view tuple counts, durable-store
    status, and the last batch's wall time.

    The monitor calls this from its accept domain, possibly while
    {!apply} is mutating relations on another.  The values are {e racy
    point-in-time reads} — the same contract as a [/metrics] scrape:
    cardinals taken mid-batch can be mutually inconsistent (each read is
    an O(1) size-field load, never a traversal, so a concurrent resize
    cannot misreport beyond staleness).  Callers wanting a consistent
    snapshot must serialize with [apply] themselves, as [apply] is
    single-writer by design and takes no lock. *)
let status_json (t : t) : Ivm_obs.Json.t =
  let module Json = Ivm_obs.Json in
  let program = program t in
  let views =
    List.map
      (fun p ->
        ( p,
          Json.Obj
            [
              ("stratum", Json.int (Program.stratum program p));
              ("tuples", Json.int (Relation.cardinal (relation t p)));
            ] ))
      (Program.derived_in_stratum_order program)
  in
  let bases =
    List.map
      (fun p -> (p, Json.int (Relation.cardinal (relation t p))))
      (List.sort String.compare (Program.base_preds program))
  in
  let store =
    match store_status t with
    | None -> Json.Null
    | Some s ->
      Json.Obj
        [
          ("dir", Json.Str s.Ivm_store.Store.dir);
          ("seq", Json.int s.Ivm_store.Store.seq);
          ("snapshot_seq", Json.int s.Ivm_store.Store.snapshot_seq);
          ("snapshot_bytes", Json.int s.Ivm_store.Store.snapshot_bytes);
          ("wal_records", Json.int s.Ivm_store.Store.wal_records);
          ("wal_bytes", Json.int s.Ivm_store.Store.wal_bytes);
        ]
  in
  Json.Obj
    [
      ("algorithm", Json.Str (algorithm_name (resolve t)));
      ( "semantics",
        Json.Str
          (match semantics t with
          | Database.Set_semantics -> "set"
          | Database.Duplicate_semantics -> "duplicate") );
      ("domains", Json.int (Ivm_par.domains ()));
      ("views", Json.Obj views);
      ("base_relations", Json.Obj bases);
      ("store", store);
      ("provenance", Ivm_prov.Prov.status_json ());
      ( "last_batch_ns",
        Json.int (int_of_float (Metrics.gauge_value last_batch_g)) );
      ( "last_batch",
        match Ivm_obs.Attribution.last () with
        | None -> Json.Null
        | Some b -> Ivm_obs.Attribution.batch_json b );
    ]
