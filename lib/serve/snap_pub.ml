(* Incremental snapshot publication (ARCHITECTURE.md §18).

   The serve path used to publish a reader snapshot by deep-copying the
   whole database after every group commit — O(|DB| + index rebuild)
   per group, measured as the dominant share of durable apply latency
   (EXPERIMENTS.md E19).  This module applies the paper's own
   counting-delta discipline to publication itself: keep two shadow
   databases in rotation and, instead of copying, {e patch} the spare
   with the group's net tuple-count changes (the deltas every batch
   committed through [Delta.maintain], gathered in a [Changes.collector]),
   then publish it atomically.  Publish cost drops to O(|Δ| · indexes).

   Reader safety is epoch pinning.  A global epoch counter is bumped at
   every publish; each reader domain owns one pin cell.  To use a
   snapshot a reader stores the current epoch in its cell and only then
   fetches [published]; when done it parks the cell at [idle]
   (= max_int).  A buffer retired at epoch [E] may be patched again only
   once every cell holds a value ≥ [E]: a cell pinned below [E] can hold
   a reference to the retired buffer, a cell at or above [E] pinned
   after the swap and can only have fetched a newer one.  (The pin is
   written before the fetch and both are OCaml SC atomics, so a pin
   observed ≥ E really did happen after the publish that made [E]
   current — there is no window where a reader fetches the old buffer
   yet advertises a new epoch.)

   The writer's rotate wait is bounded: if a pinned reader does not
   drain within [max_wait_s] the writer abandons the pinned buffer to
   the GC and publishes a {e fresh} full copy instead — the stalled
   reader keeps its snapshot unmutated forever (invariant 13: a
   published snapshot is never mutated while any reader's epoch pins
   it), and the writer never blocks on a client (the PR 4/PR 8
   discipline).  Fallback also covers every commit the delta feed
   cannot describe: rule changes / algorithm switches
   ([View_manager.state_version]) and a replaced database identity.
   Batches commit through one entry point under every algorithm,
   recomputation included, so a tracked group is always describable.
   Shadows are [Database.copy ~with_indexes:false] copies, which carry no
   aggregate index: readers evaluate GROUPBY subgoals from the stored
   source, so patching tuple counts is the whole publish, GROUPBY views
   included. *)

module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Database = Ivm_eval.Database
module Relation = Ivm_relation.Relation
module Json = Ivm_obs.Json
module Metrics = Ivm_obs.Metrics

let idle = max_int

type buffer = {
  mutable db : Database.t;
  pending : (string, Relation.t) Hashtbl.t;
      (** net changes committed to the live database since this buffer
          last equaled it; ⊎-merged per group, applied on rotation *)
  mutable dirty : bool;
      (** an untracked commit happened since this buffer last equaled
          the live database — [pending] is not a faithful replay and the
          next rotation must full-copy *)
  mutable retired_at : int;
      (** epoch at which this buffer stopped being the published one *)
}

type mode = Incremental | Full_copy

let mode_name = function
  | Incremental -> "incremental"
  | Full_copy -> "full_fallback"

type t = {
  vm : Vm.t;
  max_wait_s : float;
  epoch : int Atomic.t;
  published : Database.t Atomic.t;
  readers : int Atomic.t array;  (** per-reader pin cells, [idle] when unpinned *)
  (* writer-domain state *)
  mutable front : buffer;  (** currently published *)
  mutable spare : buffer;  (** patched and swapped in at the next publish *)
  mutable last_db : Database.t;
      (** physical identity of the live database at the last publish —
          a rule change replaces it wholesale *)
  mutable last_state_version : int;
  mutable last_publish_at : float;
  mutable last_mode : mode;
  (* writer-only counters, mirrored into the metrics registry *)
  mutable publishes : int;
  mutable incremental : int;
  mutable full_untracked : int;
  mutable full_stalled : int;
}

(* ---------------- metrics ---------------- *)

let publish_mode_c mode =
  Metrics.counter
    ~labels:[ ("mode", mode_name mode) ]
    "ivm_serve_publish_total" ~help:"Snapshot publishes, by mode"

let full_copies_c reason =
  Metrics.counter
    ~labels:[ ("reason", reason) ]
    "ivm_serve_publish_full_copies_total"
    ~help:"Publishes that fell back to a full database copy, by reason"

let patched_tuples_h =
  Metrics.histogram "ivm_serve_publish_patch_tuples"
    ~help:"Net tuples patched into the spare snapshot per incremental publish"

let snapshot_age_g =
  Metrics.gauge "ivm_serve_snapshot_age_seconds"
    ~help:"Seconds since the published snapshot was last swapped"

let reader_lag_g i =
  Metrics.gauge
    ~labels:[ ("reader", string_of_int i) ]
    "ivm_serve_reader_epoch_lag"
    ~help:"Publish epochs the reader's pin trails behind (0 when idle)"

let stage_h stage =
  Metrics.histogram
    ~labels:[ ("stage", stage) ]
    "ivm_serve_stage_ns"

(* ---------------- construction ---------------- *)

let shadow_of live =
  {
    db = Database.copy ~with_indexes:false live;
    pending = Hashtbl.create 8;
    dirty = false;
    retired_at = 0;
  }

let create ?(max_wait_s = 0.05) ~readers (vm : Vm.t) : t =
  if readers < 1 then invalid_arg "Snap_pub.create: readers must be >= 1";
  (* pre-register every label combination so the families export at 0
     from the first scrape, before any publish or fallback happens *)
  ignore (publish_mode_c Incremental);
  ignore (publish_mode_c Full_copy);
  ignore (full_copies_c "untracked");
  ignore (full_copies_c "stalled_reader");
  let live = Vm.database vm in
  let front = shadow_of live and spare = shadow_of live in
  {
    vm;
    max_wait_s;
    epoch = Atomic.make 1;
    published = Atomic.make front.db;
    readers = Array.init readers (fun _ -> Atomic.make idle);
    front;
    spare;
    last_db = live;
    last_state_version = Vm.state_version vm;
    last_publish_at = Unix.gettimeofday ();
    last_mode = Full_copy;
    publishes = 0;
    incremental = 0;
    full_untracked = 0;
    full_stalled = 0;
  }

(* ---------------- reader protocol ---------------- *)

let acquire (t : t) ~reader : Database.t =
  let cell = t.readers.(reader) in
  (* pin BEFORE fetching: the writer treats a cell below a buffer's
     retirement epoch as "may still hold it", so the unsafe interleaving
     (fetch old buffer, then advertise a fresh epoch) cannot be
     expressed *)
  Atomic.set cell (Atomic.get t.epoch);
  Atomic.get t.published

let release (t : t) ~reader : unit = Atomic.set t.readers.(reader) idle

(** The published snapshot without pinning — safe only where no publish
    can run concurrently (the writer domain itself, single-domain
    tests).  Readers must use {!acquire}/{!release}. *)
let current (t : t) : Database.t = Atomic.get t.published

let epoch (t : t) : int = Atomic.get t.epoch

(* ---------------- writer side ---------------- *)

let mark_dirty (buf : buffer) =
  buf.dirty <- true;
  (* a dirty buffer's pending set is useless — drop it rather than keep
     merging into it until the full copy clears it *)
  Hashtbl.reset buf.pending

let merge_pending (buf : buffer) (delta : Changes.t) =
  if not buf.dirty then
    List.iter
      (fun (pred, d) ->
        match Hashtbl.find_opt buf.pending pred with
        | Some acc -> Relation.union_into ~into:acc d
        | None ->
          Hashtbl.replace buf.pending pred (Relation.copy ~with_indexes:false d))
      delta

let pending_tuples (buf : buffer) =
  Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) buf.pending 0

let apply_pending (buf : buffer) =
  Hashtbl.iter
    (fun pred acc ->
      let stored = Database.relation buf.db pred in
      Relation.iter (fun tup c -> Relation.patch stored tup c) acc)
    buf.pending;
  Hashtbl.reset buf.pending

let unpinned (t : t) (buf : buffer) =
  Array.for_all (fun cell -> Atomic.get cell >= buf.retired_at) t.readers

(* Spin (with short naps) until every reader has drained past the
   buffer's retirement epoch, or the deadline passes. *)
let wait_unpinned (t : t) (buf : buffer) : bool =
  if unpinned t buf then true
  else begin
    let deadline = Unix.gettimeofday () +. t.max_wait_s in
    let rec go spins =
      if unpinned t buf then true
      else if Unix.gettimeofday () > deadline then false
      else begin
        if spins > 200 then Unix.sleepf 0.0002 else Domain.cpu_relax ();
        go (spins + 1)
      end
    in
    go 0
  end

(** Publish the live database's state after a group commit.  Writer
    domain only.  [track], when given and nothing moved out-of-band
    since the last publish, carries the group's exact net changes: both
    shadows absorb them and the spare is patched in place — otherwise
    both shadows are marked dirty and a fresh full copy is published.
    Returns the mode actually used. *)
let publish ?track (t : t) : mode =
  let live = Vm.database t.vm in
  let version = Vm.state_version t.vm in
  let tracked =
    match track with
    | Some col
      when live == t.last_db && version = t.last_state_version ->
      Some (Changes.collected col)
    | _ -> None
  in
  (match tracked with
  | Some delta ->
    merge_pending t.front delta;
    merge_pending t.spare delta
  | None ->
    mark_dirty t.front;
    mark_dirty t.spare);
  let w0 = Unix.gettimeofday () in
  let spare_free = wait_unpinned t t.spare in
  let w1 = Unix.gettimeofday () in
  Metrics.observe (stage_h "publish.rotate_wait")
    (int_of_float ((w1 -. w0) *. 1e9));
  let mode, fresh_front =
    if spare_free && not t.spare.dirty then begin
      let n = pending_tuples t.spare in
      apply_pending t.spare;
      let w2 = Unix.gettimeofday () in
      Metrics.observe (stage_h "publish.patch")
        (int_of_float ((w2 -. w1) *. 1e9));
      Metrics.observe patched_tuples_h n;
      (Incremental, t.spare)
    end
    else begin
      (* Untracked commit, or a stalled reader still pins the spare: give
         the spare up to the GC (never mutate a buffer a reader may hold
         — invariant 13) and copy the live database afresh.  The copy
         equals the live state, so the new buffer starts clean. *)
      let reason = if spare_free then "untracked" else "stalled_reader" in
      Metrics.inc (full_copies_c reason);
      if spare_free then t.full_untracked <- t.full_untracked + 1
      else t.full_stalled <- t.full_stalled + 1;
      (Full_copy, shadow_of live)
    end
  in
  (* swap: make the new buffer fetchable first, then bump the epoch —
     a pin at the new epoch can only have fetched the new buffer, so the
     outgoing front is exactly "retired at the new epoch" *)
  let outgoing = t.front in
  Atomic.set t.published fresh_front.db;
  let e' = 1 + Atomic.fetch_and_add t.epoch 1 in
  outgoing.retired_at <- e';
  t.front <- fresh_front;
  t.spare <- outgoing;
  t.last_db <- live;
  t.last_state_version <- version;
  t.last_publish_at <- Unix.gettimeofday ();
  t.last_mode <- mode;
  t.publishes <- t.publishes + 1;
  if mode = Incremental then t.incremental <- t.incremental + 1;
  Metrics.inc (publish_mode_c mode);
  Metrics.set snapshot_age_g 0.;
  mode

(* ---------------- observability ---------------- *)

let reader_lag (t : t) i =
  let pinned = Atomic.get t.readers.(i) in
  if pinned = idle then 0 else max 0 (Atomic.get t.epoch - pinned)

(** Refresh the snapshot-age and per-reader epoch-lag gauges (called
    from the monitor's before-scrape hook and after each publish). *)
let refresh_gauges (t : t) : unit =
  Metrics.set snapshot_age_g (Unix.gettimeofday () -. t.last_publish_at);
  Array.iteri
    (fun i _ -> Metrics.set (reader_lag_g i) (float_of_int (reader_lag t i)))
    t.readers

type stats = {
  publishes : int;
  incremental : int;
  full_copies : int;
  full_stalled : int;
}

let stats (t : t) : stats =
  {
    publishes = t.publishes;
    incremental = t.incremental;
    full_copies = t.full_untracked + t.full_stalled;
    full_stalled = t.full_stalled;
  }

(** The publisher block of the server's [/statusz] document.  Same racy
    point-in-time read contract as the rest of the status page. *)
let status_json (t : t) : Json.t =
  let readers =
    Array.to_list
      (Array.mapi
         (fun i cell ->
           let pinned = Atomic.get cell <> idle in
           Json.Obj
             [
               ("reader", Json.int i);
               ("pinned", Json.Bool pinned);
               ("epoch_lag", Json.int (reader_lag t i));
             ])
         t.readers)
  in
  Json.Obj
    [
      ("epoch", Json.int (Atomic.get t.epoch));
      ("mode", Json.Str (mode_name t.last_mode));
      ("publishes", Json.int t.publishes);
      ("incremental", Json.int t.incremental);
      ("full_untracked", Json.int t.full_untracked);
      ("full_stalled", Json.int t.full_stalled);
      ( "snapshot_age_s",
        Json.Num (Unix.gettimeofday () -. t.last_publish_at) );
      ("max_wait_s", Json.Num t.max_wait_s);
      ("readers", Json.List readers);
    ]
