(* The benchmark's workload runner: one workload, one seed, one run.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --server PATH --work DIR

   Prints a human-readable report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  run.py
   builds the programs and calls this. *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref false and server = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer run");
      ("--server", Arg.Set_string server, "PATH ivm_server executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for stores");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --server PATH --work DIR";
  let r =
    match !workload with
    | "recursive_churn" -> Rec_wl.run ~seed:!seed ~seconds:!seconds ~trace:!trace
    | "serve_bulk" ->
      Serve_wl.run ~seed:!seed ~seconds:!seconds ~trace:!trace ~server:!server
        ~work:!work
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let num f =
    if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  in
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (num x.value) x.unit_)
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed metrics
