(* Stationary edge churn: the input generator of every workload.

   One seeded pool of distinct candidate edges, drawn in random order, is
   dealt round-robin into shares, one per stream (a client connection,
   or one component of the in-process graph).  Each share starts with a
   fixed number of live edges; every batch deletes [k] live edges and
   inserts [k] dead ones of the same share.  So the live-edge count, and
   with it the view sizes, stays level over a run of any length; every
   delete names a live edge and every insert a dead one; and streams
   never touch each other's edges, so the final edge set is fixed by each
   stream's own sequence, whatever order the server interleaves them in.

   The generator has its own PRNG (SplitMix64) so the benchmark's inputs
   depend on nothing but the seed and the sizes each workload passes. *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int r bound =
  Int64.(to_int (rem (shift_right_logical (next r) 1) (of_int bound)))

let split r = { s = next r }

type edge = int * int

(* [candidates] distinct directed edges over [nodes] nodes, no self
   loops, in a seeded random order *)
let pool r ~nodes ~candidates : edge array =
  if candidates > nodes * (nodes - 1) then invalid_arg "Churn.pool: too dense";
  let seen = Hashtbl.create candidates in
  let out = Array.make candidates (0, 0) in
  let n = ref 0 in
  while !n < candidates do
    let a = int r nodes and b = int r nodes in
    if a <> b && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      out.(!n) <- (a, b);
      incr n
    end
  done;
  out

(* One stream's share: [edges.(0 .. live-1)] are live, the rest dead.
   Swapping a chosen live slot with a chosen dead slot keeps both halves
   contiguous, so a batch is O(k). *)
type stream = { r : rng; edges : edge array; live : int }

let stream r edges ~live =
  if live < 1 || live >= Array.length edges then
    invalid_arg "Churn.stream: needs live and dead edges";
  { r; edges; live }

(* one pool dealt round-robin into [streams] disjoint shares *)
let deal r ~nodes ~candidates ~live ~streams : stream array =
  let p = pool r ~nodes ~candidates in
  Array.init streams (fun i ->
      let share =
        Array.of_list
          (List.filteri (fun j _ -> j mod streams = i) (Array.to_list p))
      in
      stream (split r) share ~live:(live / streams))

let live_edges s = Array.to_list (Array.sub s.edges 0 s.live)
let live_count s = s.live

(* Next batch: [k] distinct live edges to delete and [k] distinct dead
   edges to insert, in draw order.  Committed to the stream at once. *)
let next_batch s k : edge list * edge list =
  let dead = Array.length s.edges - s.live in
  if k > s.live || k > dead then invalid_arg "Churn.next_batch: k too large";
  (* partial Fisher-Yates on each half picks k distinct slots *)
  let pick lo n =
    for i = 0 to k - 1 do
      let j = lo + i + int s.r (n - i) in
      let x = s.edges.(lo + i) in
      s.edges.(lo + i) <- s.edges.(j);
      s.edges.(j) <- x
    done;
    List.init k (fun i -> lo + i)
  in
  let del_slots = pick 0 s.live in
  let ins_slots = pick s.live dead in
  let dels = List.map (fun i -> s.edges.(i)) del_slots
  and ins = List.map (fun i -> s.edges.(i)) ins_slots in
  List.iter2
    (fun d i ->
      let x = s.edges.(d) in
      s.edges.(d) <- s.edges.(i);
      s.edges.(i) <- x)
    del_slots ins_slots;
  (dels, ins)

let all_edges s = Array.to_list s.edges
