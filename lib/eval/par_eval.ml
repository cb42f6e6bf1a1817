(** Evaluation-side conventions for parallel delta fan-out, used by the
    round engine ({!Rounds}) — the one caller of {!Ivm_par.parallel_map}
    in evaluation and maintenance.  Its tasks follow a strict discipline:

    - {b read} shared state only — stored relations, overlays, and the
      maintenance caches, all forced sequentially before the fan-out
      (first touch of a lazy cache must never happen inside a task);
    - {b write} task-private relations only; the engine absorbs them
      sequentially in task order.

    Since a batch often has fewer delta rules than domains, seed deltas
    are additionally {!split} into chunks by tuple hash.  The partition
    is deterministic for a given chunk count, but the chunk count tracks
    the configured domain count ({!chunks_hint}) — so the task list, and
    with it the absorb order, is fixed only per configuration, never by
    scheduling.  Identical final states across {e different} domain
    counts rest on [⊎] alone: counts sum per tuple (commutative,
    associative), so the merged content does not depend on how the seeds
    were chunked.  That commutativity argument is what the determinism
    property suite checks. *)

module Relation = Ivm_relation.Relation
module Tuple = Ivm_relation.Tuple

(** How many chunks to split a seed delta into: twice the domain count,
    so task stealing can balance skewed chunk costs — and 1 at one
    domain, where splitting would only repeat each seed scan. *)
let chunks_hint () = match Ivm_par.domains () with 1 -> 1 | d -> 2 * d

(** Deterministically partition [r] into at most [chunks] disjoint parts
    by tuple hash (counts preserved).  Returns [[| r |]] unchanged when
    chunking cannot help; never returns empty parts. *)
let split (r : Relation.t) ~chunks : Relation.t array =
  let n = Relation.cardinal r in
  if chunks <= 1 || n <= 1 then [| r |]
  else begin
    let arity = Relation.arity r in
    let parts =
      Array.init chunks (fun _ -> Relation.create ~size:(max 4 (n / chunks)) arity)
    in
    Relation.iter
      (fun t c -> Relation.add parts.((Tuple.hash t land max_int) mod chunks) t c)
      r;
    Array.of_list
      (List.filter (fun p -> not (Relation.is_empty p)) (Array.to_list parts))
  end

(** ⊎-merge task outputs into [into], sequentially, in task order. *)
let merge ~into (outs : Relation.t array) =
  Array.iter (fun r -> Relation.union_into ~into r) outs
