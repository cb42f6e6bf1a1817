(** Incremental snapshot publication — epoch-pinned double buffering
    (ARCHITECTURE.md §18).

    Two shadow databases rotate behind an atomically published pointer.
    After each group commit the writer patches the spare shadow with the
    group's {e net tuple-count changes} (the deltas every batch committed,
    gathered in an {!Ivm.Changes.collector}) and swaps it
    in: O(|Δ| · indexes) instead of the old O(|DB| + index rebuild)
    [Database.copy] per group.

    Reader safety is {e epoch pinning}: a reader stores the current
    epoch in its pin cell, {e then} fetches the published database; the
    writer patches a retired buffer only once every cell is idle or at
    an epoch ≥ the buffer's retirement epoch.  The rotate wait is
    bounded — a stalled reader makes the writer abandon the pinned
    buffer and publish a fresh full copy instead, so a published
    snapshot is {e never} mutated while any reader's epoch pins it
    (invariant 13) and no client can wedge the writer.

    Commits the delta feed cannot describe — rule changes / algorithm
    switches ({!Ivm.View_manager.state_version}), a replaced database
    identity, registered aggregate indexes — also fall back to a full
    copy (counted, observable on [/metrics] and [/statusz]).  Batch
    commits are always describable: every algorithm, recomputation
    included, commits through one entry point. *)

module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Database = Ivm_eval.Database
module Json = Ivm_obs.Json

type t

type mode = Incremental | Full_copy

(** ["incremental"] / ["full_fallback"] — the [mode] label values of
    [ivm_serve_publish_total]. *)
val mode_name : mode -> string

(** [create ~readers vm] seeds both shadows from the manager's current
    database ([~with_indexes:false] copies).  [readers] is the number of
    pin cells — one per reader domain, addressed by index.
    [max_wait_s] (default 0.05) bounds the writer's rotate wait before
    it gives up on a pinned spare and full-copies. *)
val create : ?max_wait_s:float -> readers:int -> Vm.t -> t

(** [acquire t ~reader] pins reader [reader]'s cell at the current epoch
    and returns the published snapshot.  The snapshot is guaranteed
    unmutated until the matching {!release}.  Pin windows should span
    only the query evaluation, never socket writes. *)
val acquire : t -> reader:int -> Database.t

val release : t -> reader:int -> unit

(** The published snapshot without pinning — safe only where no publish
    can run concurrently (the writer domain, single-domain tests). *)
val current : t -> Database.t

(** Publish epoch: bumped once per {!publish}. *)
val epoch : t -> int

(** Publish the live database's state after a group commit (writer
    domain only).  With a [track] collector and no out-of-band
    mutation since the last publish, the spare is patched in place and
    swapped in ([Incremental]); otherwise a fresh full copy is published
    ([Full_copy]).  Observes [publish.rotate_wait] / [publish.patch]
    under [ivm_serve_stage_ns] and the publish-mode counters. *)
val publish : ?track:Changes.collector -> t -> mode

(** Epochs reader [i]'s pin trails the current epoch; 0 when idle. *)
val reader_lag : t -> int -> int

(** Refresh [ivm_serve_snapshot_age_seconds] and the per-reader
    [ivm_serve_reader_epoch_lag] gauges (the monitor's before-scrape
    hook). *)
val refresh_gauges : t -> unit

type stats = {
  publishes : int;
  incremental : int;
  full_copies : int;
  full_stalled : int;
}

val stats : t -> stats

(** The publisher block of [/statusz] (racy point-in-time reads, like
    the rest of the status document). *)
val status_json : t -> Json.t
