(* Helpers shared by the workloads: timing, percentiles, the result
   record every workload returns, the churn batch encoding, and the
   process memory probe. *)

(* CLOCK_MONOTONIC, in seconds at nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* nearest-rank percentile, [p] in [0, 1]; nan on no samples *)
let pct (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  end

let median xs = pct (Array.of_list xs) 0.5

(* microseconds from seconds *)
let us s = s *. 1e6

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let log fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let tuple (a, b) =
  Ivm_relation.Tuple.make [| Ivm_relation.Value.int a; Ivm_relation.Value.int b |]

(* a churn batch as a change set on [link]: deletions at -1, inserts +1 *)
let changes ((dels, ins) : Churn.edge list * Churn.edge list) =
  [
    ( "link",
      Ivm_relation.Relation.of_list 2
        (List.map (fun e -> (tuple e, -1)) dels
        @ List.map (fun e -> (tuple e, 1)) ins) );
  ]

(* A growable list of samples [(start, value)] in two unboxed float
   arrays: 16 bytes a sample, outside the minor heap and never scanned by
   the GC.  An in-process workload keeps its samples in these, so that
   its own bookkeeping adds little to [peak_rss_mb]: boxed pairs in a
   list made a 30 s [recursive_churn] run peak at 30-36 MiB against
   23 MiB for 8 s, and the peak moved with how many steps the host's
   speed allowed. *)
type samples = {
  mutable starts : Float.Array.t;
  mutable values : Float.Array.t;
  mutable len : int;
}

let samples () =
  { starts = Float.Array.create 1024; values = Float.Array.create 1024; len = 0 }

let push s (start, value) =
  if s.len = Float.Array.length s.starts then begin
    let grow a =
      let b = Float.Array.create (2 * s.len) in
      Float.Array.blit a 0 b 0 s.len;
      b
    in
    s.starts <- grow s.starts;
    s.values <- grow s.values
  end;
  Float.Array.set s.starts s.len start;
  Float.Array.set s.values s.len value;
  s.len <- s.len + 1

let to_array s =
  Array.init s.len (fun i -> (Float.Array.get s.starts i, Float.Array.get s.values i))

(* VmHWM (peak resident set) of a process, in MiB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> nan
  | lines ->
    List.fold_left
      (fun acc l ->
        match Scanf.sscanf l "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.
        | exception _ -> acc)
      nan lines

(* Latency samples [(start, latency)]: start is the time a request was
   sent, so start + latency is when it completed.
   The measured window [t0, t1) is cut into slices of about [slice_s]
   seconds, a metric is computed per slice, and the slices' best tenth
   is reported: the lower decile across slices of a latency percentile,
   the upper decile of a rate.  The shared virtual machine the benchmark
   was tuned on ran a CPU-bound loop up to twice as slowly for stretches
   of seconds to tens of seconds, so a run's median slice depended on how
   much of the run fell in a slow stretch; its best slices depend on it
   much less.  A slower program slows every slice, so it still moves the
   result. *)
let slice_s = 1.0
let best = 0.1

let slices ~t0 ~t1 key (xs : (float * float) array) =
  let n = max 1 (int_of_float (Float.round ((t1 -. t0) /. slice_s))) in
  let s = Array.make n [] in
  Array.iter
    (fun x ->
      let i = int_of_float ((key x -. t0) /. (t1 -. t0) *. float_of_int n) in
      if i >= 0 && i < n then s.(i) <- x :: s.(i))
    xs;
  Array.to_list s

(* lower decile across slices (by start) of each slice's percentile [p] *)
let windowed ~t0 ~t1 xs p =
  slices ~t0 ~t1 fst xs
  |> List.filter (( <> ) [])
  |> List.map (fun l -> pct (Array.of_list (List.map snd l)) p)
  |> Array.of_list
  |> fun a -> pct a best

(* upper decile across slices (by completion) of each slice's completion
   rate, (n - 1) / (last - first completion) *)
let windowed_rate ~t0 ~t1 xs =
  slices ~t0 ~t1 (fun (t, l) -> t +. l) xs
  |> List.filter_map (fun l ->
         let ends = List.map (fun (t, l) -> t +. l) l in
         match ends with
         | [] | [ _ ] -> None
         | _ ->
           let first = List.fold_left Float.min infinity ends
           and last = List.fold_left Float.max neg_infinity ends in
           Some (float_of_int (List.length ends - 1) /. (last -. first)))
  |> Array.of_list
  |> fun a -> pct a (1. -. best)

let value_of (l : metric list) name = (List.find (fun x -> x.name = name) l).value

(* the cost of tracing: untraced minus traced throughput, traced minus
   untraced p50s, from two passes with one seed *)
let trace_overhead ~base ~traced =
  [
    m "obs.trace_overhead_ops_per_s" "1/s"
      (value_of base "ops_per_s" -. value_of traced "ops_per_s");
    m "obs.trace_overhead_apply_p50_us" "us"
      (value_of traced "apply_p50_us" -. value_of base "apply_p50_us");
    m "obs.trace_overhead_query_p50_us" "us"
      (value_of traced "query_p50_us" -. value_of base "query_p50_us");
  ]
