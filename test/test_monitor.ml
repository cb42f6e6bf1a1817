(** The live monitoring endpoint and per-rule cost attribution.

    Three layers: QCheck properties over the Prometheus text writer
    (escaping round-trips, header/sample structure, histogram
    bucket/sum/count consistency against the registry's own
    accounting), unit tests of the attribution table's batch invariants
    (per-stratum wall sums vs the recorded totals, sequentially at one
    domain), and an HTTP smoke test against a live server on an
    ephemeral port — real sockets, real requests. *)

module Metrics = Ivm_obs.Metrics
module Json = Ivm_obs.Json
module Attribution = Ivm_obs.Attribution
module Prometheus = Ivm_monitor.Prometheus
module Monitor = Ivm_monitor.Monitor
module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Tuple = Ivm_relation.Tuple
module Value = Ivm_relation.Value

let q ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Unique metric names per registration: the registry is global and
   rejects kind clashes, so every property iteration gets fresh names. *)
let fresh =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "monitor_test_%s_%d" prefix !n

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
let is_comment l = String.length l > 0 && l.[0] = '#'

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~needle s =
  let nl = String.length needle and sl = String.length s in
  let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Prometheus writer: escaping                                          *)
(* ------------------------------------------------------------------ *)

(* Label values drawn from the characters the exposition format cares
   about, plus ordinary text. *)
let label_value_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '\\'; '"'; '\n'; ' '; '{'; '}'; '='; ',' ])
      (0 -- 16))

let label_value_arb =
  QCheck.make ~print:(Printf.sprintf "%S") label_value_gen

(** Inverse of the writer's label-value escaping; raises on an invalid
    escape so the property fails loudly rather than silently matching. *)
let unescape_label_value s =
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    (if s.[!i] = '\\' then begin
       if !i + 1 >= String.length s then failwith "dangling backslash";
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char b '\\'
       | '"' -> Buffer.add_char b '"'
       | 'n' -> Buffer.add_char b '\n'
       | c -> failwith (Printf.sprintf "bad escape \\%c" c));
       i := !i + 2
     end
     else begin
       Buffer.add_char b s.[!i];
       incr i
     end)
  done;
  Buffer.contents b

(** One labeled counter rendered: the sample stays on a single line and
    the label value round-trips through the escaping. *)
let prop_label_escaping v =
  let name = fresh "esc" in
  let c = Metrics.counter ~labels:[ ("rule", v) ] name in
  Metrics.add c 7;
  let out =
    Prometheus.render_list
      [ { Metrics.name; labels = [ ("rule", v) ]; metric = Metrics.Counter c } ]
  in
  let ls = lines out in
  (* exactly TYPE + one sample: a raw newline in the value would add lines *)
  if List.length ls <> 2 then
    QCheck.Test.fail_reportf "expected 2 lines, got %d:@.%s" (List.length ls) out;
  let sample = List.nth ls 1 in
  let prefix = name ^ "{rule=\"" and suffix = "\"} 7" in
  if not (starts_with ~prefix sample) then
    QCheck.Test.fail_reportf "sample %S lacks prefix %S" sample prefix;
  let slen = String.length sample in
  if String.sub sample (slen - String.length suffix) (String.length suffix) <> suffix
  then QCheck.Test.fail_reportf "sample %S lacks suffix %S" sample suffix;
  let escaped =
    String.sub sample (String.length prefix)
      (slen - String.length prefix - String.length suffix)
  in
  String.equal (unescape_label_value escaped) v

(** Help text: backslash and newline escaped, double quote left alone. *)
let test_help_escaping () =
  let name = fresh "help" in
  let g = Metrics.gauge name ~help:"line1\nline2 \\ \"quoted\"" in
  Metrics.set g 1.0;
  let out =
    Prometheus.render_list
      [ { Metrics.name; labels = []; metric = Metrics.Gauge g } ]
  in
  let help_line = List.hd (lines out) in
  Alcotest.(check string)
    "escaped help line"
    (Printf.sprintf "# HELP %s line1\\nline2 \\\\ \"quoted\"" name)
    help_line

(* ------------------------------------------------------------------ *)
(* Prometheus writer: family structure                                  *)
(* ------------------------------------------------------------------ *)

(** Random mix of families and label sets: every family has exactly one
    TYPE header, the header precedes all its samples, and the family's
    samples are contiguous. *)
let prop_family_structure (kinds : bool list) =
  let base = fresh "fam" in
  let rows =
    List.concat
      (List.mapi
         (fun i as_counter ->
           let name = Printf.sprintf "%s_%d" base (i mod 3) in
           (* colliding names across iterations are deliberate: families
              with several label sets must still render as one block *)
           let labels = [ ("idx", string_of_int i) ] in
           if as_counter then
             match Metrics.counter ~labels name with
             | c -> [ { Metrics.name; labels; metric = Metrics.Counter c } ]
             | exception Invalid_argument _ -> []
           else
             match Metrics.gauge ~labels name with
             | g -> [ { Metrics.name; labels; metric = Metrics.Gauge g } ]
             | exception Invalid_argument _ -> [])
         kinds)
  in
  let out = Prometheus.render_list rows in
  let ls = lines out in
  (* walk the output: record for each family the order of events *)
  let family_of_line l =
    if is_comment l then
      match String.split_on_char ' ' l with
      | "#" :: _ :: name :: _ -> name
      | _ -> Alcotest.failf "malformed comment %S" l
    else
      let stop =
        match String.index_opt l '{' with
        | Some i -> i
        | None -> (match String.index_opt l ' ' with Some i -> i | None -> String.length l)
      in
      String.sub l 0 stop
  in
  let seen_done = Hashtbl.create 8 in
  let current = ref None in
  List.for_all
    (fun l ->
      let fam = family_of_line l in
      (match !current with
      | Some f when f <> fam -> Hashtbl.replace seen_done f ()
      | _ -> ());
      current := Some fam;
      if is_comment l then
        if Hashtbl.mem seen_done fam then false (* header after family closed *)
        else true
      else if Hashtbl.mem seen_done fam then false (* family split apart *)
      else true)
    ls
  &&
  (* every family that produced rows got exactly one TYPE line *)
  let type_lines =
    List.filter (fun l -> starts_with ~prefix:"# TYPE " l) ls
  in
  List.length type_lines
  = List.length
      (List.sort_uniq String.compare
         (List.map (fun (r : Metrics.registered) -> r.name) rows))

(* ------------------------------------------------------------------ *)
(* Prometheus writer: histogram consistency                             *)
(* ------------------------------------------------------------------ *)

let observations_arb =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (1 -- 40) (int_range 0 100000))

(** Rendered histogram vs the registry's own accounting: cumulative
    buckets nondecreasing, [le] bounds increasing, +Inf bucket = _count =
    observation count, _sum = observation sum. *)
let prop_histogram_consistency obs =
  let name = fresh "hist" in
  let h = Metrics.histogram name in
  List.iter (Metrics.observe h) obs;
  let out =
    Prometheus.render_list
      [ { Metrics.name; labels = []; metric = Metrics.Histogram h } ]
  in
  let ls = List.filter (fun l -> not (is_comment l)) (lines out) in
  let value_of l =
    match String.rindex_opt l ' ' with
    | Some i ->
      float_of_string (String.sub l (i + 1) (String.length l - i - 1))
    | None -> Alcotest.failf "malformed sample %S" l
  in
  let bucket_lines, rest =
    List.partition (fun l -> starts_with ~prefix:(name ^ "_bucket{") l) ls
  in
  let le_of l =
    let i = String.index l '"' in
    let j = String.index_from l (i + 1) '"' in
    String.sub l (i + 1) (j - i - 1)
  in
  let finite, inf =
    List.partition (fun l -> le_of l <> "+Inf") bucket_lines
  in
  let sum_line = List.find (fun l -> starts_with ~prefix:(name ^ "_sum ") l) rest in
  let count_line =
    List.find (fun l -> starts_with ~prefix:(name ^ "_count ") l) rest
  in
  let n = List.length obs and total = List.fold_left ( + ) 0 obs in
  (* exactly one +Inf bucket, equal to the count *)
  List.length inf = 1
  && value_of (List.hd inf) = float_of_int n
  && value_of count_line = float_of_int n
  && value_of sum_line = float_of_int total
  (* finite buckets: increasing le, nondecreasing cumulative, last <= n *)
  &&
  let les = List.map (fun l -> int_of_string (le_of l)) finite in
  let cums = List.map value_of finite in
  let rec nondecreasing = function
    | a :: (b :: _ as t) -> a <= b && nondecreasing t
    | _ -> true
  in
  List.sort_uniq compare les = les
  && nondecreasing cums
  && (match List.rev cums with [] -> n = 0 | last :: _ -> last <= float_of_int n)
  (* each le bound really is the registry's inclusive bucket upper *)
  && List.for_all
       (fun le -> Metrics.bucket_upper (Metrics.bucket_of le) = le || le = 0)
       les

(* ------------------------------------------------------------------ *)
(* Attribution: batch invariants                                        *)
(* ------------------------------------------------------------------ *)

let two_strata_src =
  "hop(X,Y) :- link(X,Z), link(Z,Y).\n\
   far(X,Y) :- hop(X,Z), hop(Z,Y).\n\
   link(a,b). link(b,c). link(c,d). link(d,e).\n"

let t2 a b = Tuple.of_list [ Value.Str a; Value.Str b ]

(** One counting batch at one domain: rows present, busy = Σ row walls,
    busy ≤ total (no overlap without parallelism), per-stratum sums
    partition busy, and the slowest rule heads the list. *)
let test_attribution_batch () =
  let prev_domains = Ivm_par.domains () in
  Ivm_par.set_domains 1;
  Fun.protect ~finally:(fun () -> Ivm_par.set_domains prev_domains) @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting two_strata_src in
  Ivm_eval.Stats.sync ();
  let stats_before = Ivm_eval.Stats.snapshot () in
  ignore (Vm.apply vm (Changes.insertions (Vm.program vm) "link" [ t2 "e" "f" ]));
  Ivm_eval.Stats.sync ();
  let kernel = Ivm_eval.Stats.since stats_before in
  match Attribution.last () with
  | None -> Alcotest.fail "no batch recorded (attribution disabled?)"
  | Some b ->
    Alcotest.(check string) "algorithm" "counting" b.Attribution.algorithm;
    Alcotest.(check bool) "has rows" true (b.Attribution.rows <> []);
    Alcotest.(check int) "nothing truncated" 0 b.Attribution.truncated;
    let busy =
      List.fold_left (fun a r -> a + r.Attribution.wall_ns) 0 b.Attribution.rows
    in
    Alcotest.(check int) "busy = sum of row walls" busy b.Attribution.busy_wall_ns;
    Alcotest.(check bool) "busy <= total at one domain" true
      (b.Attribution.busy_wall_ns <= b.Attribution.total_wall_ns);
    (* per-stratum sums partition busy and stay within total *)
    let strata = Hashtbl.create 4 in
    List.iter
      (fun r ->
        let s = r.Attribution.stratum in
        Hashtbl.replace strata s
          (r.Attribution.wall_ns
          + try Hashtbl.find strata s with Not_found -> 0))
      b.Attribution.rows;
    let stratum_sum = Hashtbl.fold (fun _ v a -> a + v) strata 0 in
    Alcotest.(check int) "stratum sums partition busy" busy stratum_sum;
    Alcotest.(check bool) "both strata attributed" true (Hashtbl.length strata >= 2);
    (* rows are wall-descending *)
    let rec sorted = function
      | a :: (b :: _ as t) -> a.Attribution.wall_ns >= b.Attribution.wall_ns && sorted t
      | _ -> true
    in
    Alcotest.(check bool) "rows wall-descending" true (sorted b.Attribution.rows);
    (* delta flowed: at least one rule saw input and produced output *)
    Alcotest.(check bool) "some rule consumed delta" true
      (List.exists (fun r -> r.Attribution.din > 0) b.Attribution.rows);
    (* per-rule probe/scan counters partition the kernel's global
       counters for the batch: every probe the compiled plans issue is
       attributed to exactly one rule (no double counting, nothing
       escapes the attributed windows) *)
    let sum f = List.fold_left (fun a r -> a + f r) 0 b.Attribution.rows in
    Alcotest.(check int) "row probes partition kernel probes"
      kernel.Ivm_eval.Stats.snap_probes
      (sum (fun r -> r.Attribution.probes));
    Alcotest.(check int) "row scans partition kernel scans"
      kernel.Ivm_eval.Stats.snap_tuples_scanned
      (sum (fun r -> r.Attribution.scanned));
    (* both join rules consumed delta, so the compiled plans must have
       probed — a kernel that stopped reporting probes would zero these *)
    Alcotest.(check bool) "kernel probed at all" true
      (kernel.Ivm_eval.Stats.snap_probes > 0);
    List.iter
      (fun r ->
        if r.Attribution.din > 0 then
          Alcotest.(check bool)
            ("delta-consuming rule probed: " ^ r.Attribution.rule)
            true
            (r.Attribution.probes > 0);
        (* each derived tuple of these join-only rules came from a
           scanned match *)
        Alcotest.(check bool)
          ("dout bounded by scanned: " ^ r.Attribution.rule)
          true
          (r.Attribution.dout <= r.Attribution.scanned))
      b.Attribution.rows

let test_attribution_disabled () =
  Attribution.set_enabled false;
  Fun.protect ~finally:(fun () -> Attribution.set_enabled true) @@ fun () ->
  let before = Attribution.last () in
  let vm = Vm.of_source ~algorithm:Vm.Counting two_strata_src in
  ignore (Vm.apply vm (Changes.insertions (Vm.program vm) "link" [ t2 "e" "f" ]));
  Alcotest.(check bool) "disabled batches leave no trace" true
    (Attribution.last () == before
    || Attribution.last () = before)

let test_attribution_json_and_pp () =
  let vm = Vm.of_source ~algorithm:Vm.Dred two_strata_src in
  ignore (Vm.apply vm (Changes.deletions (Vm.program vm) "link" [ t2 "b" "c" ]));
  match Attribution.last () with
  | None -> Alcotest.fail "no batch recorded"
  | Some b ->
    let j = Attribution.batch_json b in
    Alcotest.(check (option string))
      "algorithm in json" (Some "dred")
      (Option.bind (Json.member "algorithm" j) Json.to_string_opt);
    (* the JSON document round-trips through the parser *)
    let reparsed = Json.of_string (Json.to_string j) in
    Alcotest.(check bool) "rules is a list" true
      (match Json.member "rules" reparsed with
      | Some (Json.List _) -> true
      | _ -> false);
    let table = Format.asprintf "%a" (fun ppf b -> Attribution.pp_batch ppf b) b in
    Alcotest.(check bool) "pp names a rule" true (contains ~needle:":-" table);
    Alcotest.(check bool) "pp shows the phase column" true
      (contains ~needle:"phase" table)

(* ------------------------------------------------------------------ *)
(* Evaluation context: rows, labels and spans per round                 *)
(* ------------------------------------------------------------------ *)

(* The [rule] label of every registered [ivm_rule_*] series. *)
let rule_labels () =
  List.filter_map
    (fun (m : Metrics.registered) ->
      if starts_with ~prefix:"ivm_rule_" m.name then List.assoc_opt "rule" m.labels
      else None)
    (Metrics.dump ())

(** An ad-hoc query run while a batch is open carries no evaluation
    context: it adds no row to the batch and no label to the registry. *)
let test_query_not_attributed () =
  let vm = Vm.of_source ~algorithm:Vm.Counting two_strata_src in
  Attribution.batch_begin ~algorithm:"query-probe";
  let r = Ivm_eval.Query.run_text (Vm.database vm) "hop(a, X)" in
  Alcotest.(check int) "the query answers" 1 (Ivm_relation.Relation.cardinal r.rows);
  match Attribution.batch_end ~total_wall_ns:0 with
  | None -> Alcotest.fail "no batch recorded (attribution disabled?)"
  | Some b ->
    Alcotest.(check (list string)) "no query row" []
      (List.filter_map
         (fun r ->
           if contains ~needle:"$query$" r.Attribution.rule then Some r.Attribution.rule
           else None)
         b.Attribution.rows);
    Alcotest.(check (list string)) "no query label" []
      (List.filter (fun l -> contains ~needle:"$query$" l) (rule_labels ()))

let tc_src =
  "tc(X, Y) :- link(X, Y).\n\
   tc(X, Y) :- tc(X, Z), link(Z, Y).\n\
   link(a,b). link(b,c). link(a,c). link(c,d).\n"

(** A DRed deletion whose overestimate is rederived: every row names a
    rule of the program — the rederive rows the recursive source rule,
    not DRed's internal rewrite — and no [ivm_rule_*] label names a
    pseudo-predicate. *)
let test_dred_rows_name_program_rules () =
  let vm = Vm.of_source ~algorithm:Vm.Dred tc_src in
  let texts =
    List.map Ivm_datalog.Pretty.rule_to_string
      (Ivm_datalog.Program.rules (Vm.program vm))
  in
  ignore (Vm.apply vm (Changes.deletions (Vm.program vm) "link" [ t2 "a" "c" ]));
  Alcotest.(check bool) "tc(a, c) rederived" true
    (Ivm_relation.Relation.mem (Vm.relation vm "tc") (t2 "a" "c"));
  match Attribution.last () with
  | None -> Alcotest.fail "no batch recorded"
  | Some b ->
    List.iter
      (fun r ->
        Alcotest.(check bool)
          ("row names a program rule: " ^ r.Attribution.rule)
          true
          (List.mem r.Attribution.rule texts))
      b.Attribution.rows;
    let rederive =
      List.filter (fun r -> r.Attribution.phase = "rederive") b.Attribution.rows
    in
    Alcotest.(check bool) "rederive rows present" true (rederive <> []);
    Alcotest.(check bool) "a rederive row names the recursive rule" true
      (List.exists
         (fun r -> r.Attribution.rule = "tc(X, Y) :- tc(X, Z), link(Z, Y).")
         rederive);
    Alcotest.(check (list string)) "no pseudo-predicate label" []
      (List.filter (fun l -> String.contains l '$') (rule_labels ()))

(** A rule longer than a pretty-printing margin still names itself on one
    line: the [explain last] row, its [ivm_rule_*] label and the row's
    text carry no line break. *)
let test_long_rule_text_one_line () =
  let text =
    "longish_view_name(X, Y) :- link(X, Z), link(Z, W), link(W, V), \
     link(V, Y), X != Y."
  in
  let vm =
    Vm.of_source ~algorithm:Vm.Counting (text ^ "\nlink(a,b). link(b,c). link(c,d).")
  in
  ignore (Vm.apply vm (Changes.insertions (Vm.program vm) "link" [ t2 "d" "e" ]));
  match Attribution.last () with
  | None -> Alcotest.fail "no batch recorded"
  | Some b ->
    Alcotest.(check (list string)) "the row names the rule on one line" [ text ]
      (List.map (fun r -> r.Attribution.rule) b.Attribution.rows);
    let table = Format.asprintf "%a" (fun ppf -> Attribution.pp_batch ppf) b in
    Alcotest.(check bool) "explain last prints the row on one line" true
      (List.exists
         (fun line -> contains ~needle:text line)
         (String.split_on_char '\n' table));
    Alcotest.(check bool) "the label is the one-line text" true
      (List.mem text (rule_labels ()));
    Alcotest.(check (list string)) "no label holds a newline" []
      (List.filter (fun l -> String.contains l '\n') (rule_labels ()))

(* A graph big enough that a batch's seed deltas split into many chunks. *)
let chain_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "hop(X,Y) :- link(X,Z), link(Z,Y).\n\
     tri(X,Y) :- hop(X,Z), link(Z,Y).\n";
  for i = 0 to 119 do
    List.iter
      (fun k -> Printf.bprintf b "link(n%d, n%d).\n" i ((i + k) mod 120))
      [ 1; 7; 31 ]
  done;
  Buffer.contents b

(** Forced to four domains, the [rule] spans of one multi-chunk counting
    batch carry per-domain work: their [derivations] args sum to the
    batch's derivation count, with no other domain's work folded in. *)
let test_rule_spans_exact_at_4_domains () =
  let prev_domains = Ivm_par.domains () in
  Ivm_par.set_domains 4;
  Fun.protect ~finally:(fun () -> Ivm_par.set_domains prev_domains) @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting chain_src in
  let changes =
    Changes.insertions (Vm.program vm) "link"
      (List.init 40 (fun i ->
           Tuple.of_list
             [ Value.Str (Printf.sprintf "n%d" (3 * i)); Value.Str (Printf.sprintf "n%d" (i + 50)) ]))
  in
  let before = Ivm_eval.Stats.derivations () in
  Ivm_obs.Trace.enable ~capacity:100_000 ();
  Fun.protect ~finally:(fun () -> ignore (Ivm_obs.Trace.disable ())) (fun () ->
      ignore (Vm.apply vm changes));
  let derived = Ivm_eval.Stats.derivations () - before in
  let spans =
    List.filter (fun e -> e.Ivm_obs.Trace.name = "rule") (Ivm_obs.Trace.ring_events ())
  in
  Alcotest.(check int) "no span dropped" 0 (Ivm_obs.Trace.dropped ());
  (* 4 delta positions (2 rules × 2 body atoms): more spans means chunks *)
  Alcotest.(check bool) "multi-chunk batch" true (List.length spans > 4);
  let sum =
    List.fold_left
      (fun acc e -> acc + int_of_string (List.assoc "derivations" e.Ivm_obs.Trace.args))
      0 spans
  in
  Alcotest.(check bool) "the batch derived something" true (derived > 0);
  Alcotest.(check int) "span derivations sum to the batch's" derived sum

(* ------------------------------------------------------------------ *)
(* HTTP smoke: a live server on an ephemeral port                       *)
(* ------------------------------------------------------------------ *)

let http_get port path =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path in
  ignore (Unix.write_substring s req 0 (String.length req));
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 4096 in
  let rec drain () =
    let n = Unix.read s bytes 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes buf bytes 0 n;
      drain ()
    end
  in
  drain ();
  let raw = Buffer.contents buf in
  (* split status line / body at the header terminator *)
  let sep = "\r\n\r\n" in
  let rec find i =
    if i + 4 > String.length raw then Alcotest.failf "no header end in %S" raw
    else if String.sub raw i 4 = sep then i
    else find (i + 1)
  in
  let hend = find 0 in
  let status =
    match String.index_opt raw '\r' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  (status, String.sub raw (hend + 4) (String.length raw - hend - 4))

let test_http_endpoints () =
  let vm = Vm.of_source ~algorithm:Vm.Counting two_strata_src in
  let vmref = ref vm in
  let srv =
    Monitor.start
      ~config:
        {
          Monitor.status = (fun () -> Vm.status_json !vmref);
          before_metrics = Ivm_eval.Stats.sync;
          explain = Some (fun q -> Vm.explain_json !vmref q);
        }
      ~port:0 ()
  in
  Fun.protect ~finally:(fun () -> Monitor.stop srv) @@ fun () ->
  let port = Monitor.port srv in
  (* generate some maintenance so the attribution families exist *)
  ignore (Vm.apply vm (Changes.insertions (Vm.program vm) "link" [ t2 "e" "f" ]));
  let status, body = http_get port "/healthz" in
  Alcotest.(check string) "healthz 200" "HTTP/1.0 200 OK" status;
  let j = Json.of_string body in
  Alcotest.(check (option string)) "healthz ok" (Some "ok")
    (Option.bind (Json.member "status" j) Json.to_string_opt);
  let status, body = http_get port "/metrics" in
  Alcotest.(check string) "metrics 200" "HTTP/1.0 200 OK" status;
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " present") true (contains ~needle:family body))
    [ "# TYPE ivm_derivations_total counter";
      "ivm_rule_wall_ns_total";
      "ivm_last_batch_ns";
      "ivm_batch_latency_ns_bucket" ];
  let status, body = http_get port "/statusz" in
  Alcotest.(check string) "statusz 200" "HTTP/1.0 200 OK" status;
  let j = Json.of_string body in
  Alcotest.(check (option string)) "statusz algorithm" (Some "counting")
    (Option.bind (Json.member "algorithm" j) Json.to_string_opt);
  Alcotest.(check bool) "statusz has last_batch rules" true
    (match Option.bind (Json.member "last_batch" j) (Json.member "rules") with
    | Some (Json.List (_ :: _)) -> true
    | _ -> false);
  let status, body = http_get port "/trace" in
  Alcotest.(check string) "trace 200" "HTTP/1.0 200 OK" status;
  Alcotest.(check bool) "trace is a JSON list" true
    (match Json.of_string body with Json.List _ -> true | _ -> false);
  let status, _ = http_get port "/nope" in
  Alcotest.(check string) "unknown path is 404" "HTTP/1.0 404 Not Found" status

let test_stop_releases_port () =
  let srv = Monitor.start ~port:0 () in
  let port = Monitor.port srv in
  Monitor.stop srv;
  Monitor.stop srv (* idempotent *);
  (* the port is free again: a second server can bind it *)
  let srv2 = Monitor.start ~port () in
  Alcotest.(check int) "rebound same port" port (Monitor.port srv2);
  Monitor.stop srv2

(* ------------------------------------------------------------------ *)

let suite =
  [
    q ~count:200 "prometheus: label values escape and round-trip"
      label_value_arb prop_label_escaping;
    Alcotest.test_case "prometheus: help text escaping" `Quick test_help_escaping;
    q ~count:100 "prometheus: one header per family, samples contiguous"
      QCheck.(make Gen.(list_size (0 -- 12) bool)) prop_family_structure;
    q ~count:100 "prometheus: histogram buckets consistent with registry"
      observations_arb prop_histogram_consistency;
    Alcotest.test_case "attribution: batch invariants at one domain" `Quick
      test_attribution_batch;
    Alcotest.test_case "attribution: disabled records nothing" `Quick
      test_attribution_disabled;
    Alcotest.test_case "attribution: json + explain table" `Quick
      test_attribution_json_and_pp;
    Alcotest.test_case "attribution: ad-hoc queries record nothing" `Quick
      test_query_not_attributed;
    Alcotest.test_case "attribution: long rule text stays on one line" `Quick
      test_long_rule_text_one_line;
    Alcotest.test_case "attribution: DRed rows and labels name program rules"
      `Quick test_dred_rows_name_program_rules;
    Alcotest.test_case "trace: rule spans exact at 4 domains" `Quick
      test_rule_spans_exact_at_4_domains;
    Alcotest.test_case "http: endpoints over a live socket" `Quick
      test_http_endpoints;
    Alcotest.test_case "http: stop joins and releases the port" `Quick
      test_stop_releases_port;
  ]
