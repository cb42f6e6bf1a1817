(* The churn generator's contract: a seed fixes the stream, the live-edge
   count stays level, every delete names a live edge and every insert a
   dead one, and streams of one pool never share an edge. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let draw seed =
  let streams =
    Churn.deal (Churn.rng seed) ~nodes:200 ~candidates:900 ~live:600
      ~streams:2
  in
  let batches =
    List.init 500 (fun i -> Churn.next_batch streams.(i mod 2) 3)
  in
  (streams, batches)

let () =
  let _, a = draw 7 and _, b = draw 7 and _, c = draw 8 in
  if a <> b then fail "same seed gave different streams";
  if a = c then fail "different seeds gave the same stream";
  let streams = Churn.deal (Churn.rng 7) ~nodes:200 ~candidates:900
      ~live:600 ~streams:2 in
  let live = Array.map (fun _ -> Hashtbl.create 512) streams in
  Array.iteri
    (fun i s -> List.iter (fun e -> Hashtbl.replace live.(i) e ()) (Churn.live_edges s))
    streams;
  let all = Array.map Churn.all_edges streams in
  List.iter
    (fun e -> if List.mem e all.(1) then fail "streams share an edge")
    all.(0);
  for n = 0 to 999 do
    let i = n mod 2 in
    let dels, ins = Churn.next_batch streams.(i) 3 in
    List.iter
      (fun e ->
        if not (Hashtbl.mem live.(i) e) then fail "deleted a dead edge";
        Hashtbl.remove live.(i) e)
      dels;
    List.iter
      (fun e ->
        if Hashtbl.mem live.(i) e then fail "inserted a live edge";
        Hashtbl.replace live.(i) e ())
      ins;
    if Churn.live_count streams.(i) <> 300 || Hashtbl.length live.(i) <> 300
    then fail "live-edge count drifted after batch %d" n
  done;
  Array.iteri
    (fun i s ->
      let got = List.sort compare (Churn.live_edges s)
      and want = List.sort compare (List.of_seq (Hashtbl.to_seq_keys live.(i))) in
      if got <> want then fail "stream %d live set diverged from its deltas" i)
    streams;
  print_endline "churn: ok"
