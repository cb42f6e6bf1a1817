(* serve_bulk: the real ivm_server binary in its own process,
   [--durable] (one fsync per group commit, the server's default
   policy), default reader pool.  This process is the load: one thread
   driving two connections, each owning one share of the churn pool.

   [hop_tri_hop] over ~2k nodes / 6k live edges.  Closed loop: each
   connection applies a 32-delete + 32-insert batch, then reads
   [bulk_queries] point queries [tri_hop(n, X)] under the write load.
   With 16 reads per apply about 6% of them meet a busy writer, so p90
   falls in the body of the distribution; with 4 it sat on the knee
   between the two modes and moved 2x between runs.

   With [--trace 0] the server runs with [IVM_REQTRACE=0] and no
   monitor.  With [--trace 1] the workload first runs untraced (for the
   tracing overhead), then again with request tracing on: applies carry
   a trace context so the [Applied] reply echoes the server's per-stage
   timings ([Unix.gettimeofday], microsecond resolution), and the
   monitor's [/metrics] plus the [status] document are read before and
   after the measured window. *)

module Vm = Ivm.View_manager
module Client = Ivm_serve.Client
module Relation = Ivm_relation.Relation
module Json = Ivm_obs.Json
module Protocol = Ivm_serve.Protocol
module Frame = Ivm_wire.Frame
open Common

type spec = {
  name : string;
  program : string;
  views : string list;  (** derived views checked at the end *)
  query_view : string;
  nodes : int;
  candidates : int;
  live : int;
  k : int;  (** deletes (and inserts) per batch *)
}

let bulk =
  {
    name = "serve_bulk";
    program =
      "hop(X, Y) :- link(X, Z), link(Z, Y).\n\
       tri_hop(X, Y) :- hop(X, Z), link(Z, Y).\n";
    views = [ "hop"; "tri_hop" ];
    query_view = "tri_hop";
    nodes = 2000;
    candidates = 9000;
    live = 6000;
    k = 32;
  }

(* server spawns before the measured window, and as many again after
   it *)
let setups = 4
let bulk_queries = 16

(* in-process replay of the applied batch stream (per-layer run) *)
let replay_batches = 300

let streams spec seed =
  Churn.deal (Churn.rng seed) ~nodes:spec.nodes ~candidates:spec.candidates
    ~live:spec.live ~streams:2

let live_edges streams =
  List.concat_map Churn.live_edges (Array.to_list streams)

(* the program over [edges], materialized from scratch in this process *)
let materialize spec edges =
  Vm.create
    ~facts:[ ("link", List.map tuple edges) ]
    (Ivm_datalog.Parser.parse_rules spec.program)

(* ---------------- the server process ---------------- *)

type server = {
  pid : int;
  out : in_channel;
  port : int;
  monitor : int option;
}

let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let spawn ~exe ~program_file ~store ~traced =
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun v ->
              not
                (String.starts_with ~prefix:"IVM_REQTRACE=" v
                || String.starts_with ~prefix:"IVM_SLOW_REQUEST_MS=" v))
            (Array.to_list (Unix.environment ()))))
      [| (if traced then "IVM_REQTRACE=1" else "IVM_REQTRACE=0") |]
  in
  let args =
    [ exe; program_file; "--durable"; store; "--port"; "0" ]
    @ if traced then [ "--monitor"; "0" ] else []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list args) env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  children := pid :: !children;
  let out = Unix.in_channel_of_descr r in
  let monitor = ref None in
  let rec wait_port () =
    match input_line out with
    | exception End_of_file -> failwith "ivm_server exited before serving"
    | line -> (
      match Scanf.sscanf line "monitoring on http://127.0.0.1:%d" Fun.id with
      | p ->
        monitor := Some p;
        wait_port ()
      | exception _ -> (
        match Scanf.sscanf line "ivm-serve: serving on %s@:%d" (fun _ p -> p) with
        | p -> p
        | exception _ -> wait_port ()))
  in
  let port = wait_port () in
  { pid; out; port; monitor = !monitor }

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try
     while true do
       ignore (input_line s.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr s.out;
  let _, status = Unix.waitpid [] s.pid in
  children := List.filter (( <> ) s.pid) !children;
  status

(* spawn to first answered ping *)
let start ~exe ~program_file ~store ~traced =
  rm_rf store;
  let t0 = now () in
  let s = spawn ~exe ~program_file ~store ~traced in
  let c = Client.connect ~port:s.port () in
  Client.ping c;
  let setup = now () -. t0 in
  Client.close c;
  (s, setup)

(* ---------------- monitor scrape ---------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
      let rec loop () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
      in
      loop ();
      Buffer.contents buf)

(* [(sample name with labels, value)] from a Prometheus text page *)
let samples page =
  String.split_on_char '\n' page
  |> List.filter_map (fun l ->
         if l = "" || l.[0] = '#' then None
         else
           match String.rindex_opt l ' ' with
           | None -> None
           | Some i ->
             Option.map
               (fun v -> (String.sub l 0 i, v))
               (float_of_string_opt
                  (String.sub l (i + 1) (String.length l - i - 1))))

(* p50 of the [ivm_serve_stage_ns{stage}] samples that arrived between
   two scrapes, as the upper bound (µs) of the log2 bucket holding it:
   the true value lies in (bound / 2, bound] *)
let stage_hist_p50_us before after stage =
  let prefix = Printf.sprintf "ivm_serve_stage_ns_bucket{stage=\"%s\",le=\"" stage in
  let buckets page =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix k then
          let le = String.sub k (String.length prefix)
              (String.length k - String.length prefix - 2) in
          Option.map (fun le -> (le, v)) (float_of_string_opt le)
        else None)
      page
  in
  let b0 = buckets before and a = buckets after in
  let cum =
    List.map
      (fun (le, v) ->
        (le, v -. Option.value ~default:0. (List.assoc_opt le b0)))
      a
    |> List.sort compare
  in
  match List.rev cum with
  | [] -> 0.
  | (_, total) :: _ ->
    if total <= 0. then 0.
    else
      let le, _ = List.find (fun (_, c) -> c >= total /. 2.) cum in
      le /. 1e3

(* ---------------- status document ---------------- *)

let status_num doc path =
  let rec go j = function
    | [] -> Json.to_float_opt j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  Option.value ~default:nan (go doc path)

(* ---------------- the load ---------------- *)

type sample = {
  rtt : float;  (** seconds, send to reply *)
  stages : (string * int) list;  (** echoed, ns *)
}

type conn_result = {
  applies : (float * float) array;  (** (send time, latency) *)
  queries : (float * float) array;
  lags : float array;  (** reply read to the next request sent *)
  traced : sample list;
  seqs : int list;  (** acked sequence numbers, in order *)
  attempted : int;
  failed : int;
}

let point_query spec ops =
  Printf.sprintf "%s(%d, X)" spec.query_view (Churn.int ops spec.nodes)

(* One client connection of the load, speaking the protocol directly,
   with one request in flight at a time. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  stream : Churn.stream;  (** this connection's share of the edges *)
  ops : Churn.rng;  (** query keys *)
  mutable pending : ([ `Apply | `Query ] * float) option;
      (** the request in flight and when it was sent *)
  mutable issued : int;
  mutable queries_left : int;  (** reads still due this cycle *)
  mutable done_ : bool;
  mutable c_applies : (float * float) list;
  mutable c_queries : (float * float) list;
  mutable c_lags : float list;
  mutable c_samples : sample list;
  mutable c_seqs : int list;
  mutable c_attempted : int;
  mutable c_failed : int;
}

let send c req = Frame.write_fd c.fd (Protocol.encode_request req)
let recv c = Protocol.decode_response (Frame.read_fd c.fd)

let connect ~port ~seed cid stream =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let c =
    { cid; fd; stream; ops = Churn.rng ((seed * 31) + cid); pending = None;
      issued = 0; queries_left = 0; done_ = false; c_applies = [];
      c_queries = []; c_lags = []; c_samples = []; c_seqs = [];
      c_attempted = 0; c_failed = 0 }
  in
  send c (Protocol.Hello { version = Protocol.version; token = "" });
  (match recv c with
  | Protocol.Hello_ok _ -> ()
  | _ -> failwith "handshake refused");
  c

let send_request c kind req =
  c.c_attempted <- c.c_attempted + 1;
  c.issued <- c.issued + 1;
  c.pending <- Some (kind, now ());
  send c req

let send_apply spec ~traced c =
  let changes = changes (Churn.next_batch c.stream spec.k) in
  let trace = if traced then Printf.sprintf "b%d-%d" c.cid c.issued else "" in
  send_request c `Apply (Protocol.Apply { changes; trace })

let send_query spec c =
  send_request c `Query (Protocol.Query { body = point_query spec c.ops; trace = "" })

(* read one reply; returns the kind of request it answered, or None for
   a frame that answers none *)
let receive ~traced c =
  let resp = recv c in
  let t = now () in
  match (c.pending, resp) with
  | Some (`Query, sent), Protocol.Answer _ ->
    c.c_queries <- (sent, t -. sent) :: c.c_queries;
    c.pending <- None;
    Some `Query
  | Some (`Apply, sent), Protocol.Applied { seq; timings; _ } ->
    c.c_applies <- (sent, t -. sent) :: c.c_applies;
    c.c_seqs <- seq :: c.c_seqs;
    if traced then
      c.c_samples <- { rtt = t -. sent; stages = timings } :: c.c_samples;
    c.pending <- None;
    Some `Apply
  | Some (kind, _), Protocol.Error _ ->
    c.c_failed <- c.c_failed + 1;
    c.pending <- None;
    Some kind
  | _ -> None

(* The load: both connections driven from this one thread, closed loop.
   Each connection applies a batch, waits for its ack, reads
   [bulk_queries] point queries one at a time, and starts over until
   the window ends.  [lags] is how long a reply waited in this process,
   from the [select] that found it to the request it releases: the
   generator's own delay, which must stay far below the latencies it
   measures. *)
let load spec ~port ~seed ~(streams : Churn.stream array) ~t_end ~traced =
  let conns = List.init 2 (fun cid -> connect ~port ~seed cid streams.(cid)) in
  let give_up = t_end +. 5. in
  List.iter (send_apply spec ~traced) conns;
  while List.exists (fun c -> not c.done_) conns && now () < give_up do
    let fds = List.filter_map (fun c -> Option.map (fun _ -> c.fd) c.pending) conns in
    match Unix.select fds [] [] (Float.max 0. (give_up -. now ())) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      let t_ready = now () in
      List.iter
        (fun c ->
          if List.memq c.fd ready then
            match receive ~traced c with
            | None -> ()
            | Some kind ->
              if kind = `Apply then c.queries_left <- bulk_queries;
              if c.queries_left = 0 && now () >= t_end then c.done_ <- true
              else begin
                c.c_lags <- (now () -. t_ready) :: c.c_lags;
                if c.queries_left > 0 then begin
                  c.queries_left <- c.queries_left - 1;
                  send_query spec c
                end
                else send_apply spec ~traced c
              end)
        conns
  done;
  List.map
    (fun c ->
      (try
         Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 5.;
         send c Protocol.Close;
         let rec until_bye () =
           match recv c with Protocol.Bye -> () | _ -> until_bye ()
         in
         until_bye ()
       with _ -> ());
      Unix.close c.fd;
      {
        applies = Array.of_list c.c_applies;
        queries = Array.of_list c.c_queries;
        lags = Array.of_list c.c_lags;
        traced = List.rev c.c_samples;
        seqs = List.rev c.c_seqs;
        attempted = c.c_attempted;
        (* a request still unanswered when the load gave up *)
        failed = c.c_failed + Option.fold ~none:0 ~some:(fun _ -> 1) c.pending;
      })
    conns

(* ---------------- correctness ---------------- *)

let rows_of (rel : Relation.t) =
  List.map fst (Relation.to_sorted_list rel)

(* the final views over the wire must equal a from-scratch
   materialization of the final edge set (the two connections own
   disjoint edges, so the final set is fixed whatever the interleaving) *)
let check_final spec ~port streams =
  let expected = materialize spec (live_edges streams) in
  let c = Client.connect ~port () in
  let ok =
    List.for_all
      (fun view ->
        let _, got = Client.query c (Printf.sprintf "%s(X, Y)" view) in
        let same = rows_of got = rows_of (Vm.relation expected view) in
        if not same then log "  final %s over the wire DIFFERS from recomputation" view;
        same)
      ("link" :: spec.views)
  in
  Client.close c;
  ok

(* a connection's acks never go back in commit sequence (applies of one
   group commit share its sequence number) *)
let monotone l =
  let rec go = function a :: (b :: _ as rest) -> a <= b && go rest | _ -> true in
  go l

(* ---------------- one phase ---------------- *)

type phase = {
  setup_s : float;
  window : float * float;  (** the measured window *)
  elapsed : float;
  conns : conn_result list;
  rss_mb : float;
  correct : bool;
  before : (string * float) list;  (** /metrics samples, traced only *)
  after : (string * float) list;
  status0 : Json.t;
  status1 : Json.t;
}

let phase spec ~seed ~seconds ~traced ~exe ~work =
  let program_file = Filename.concat work "program.dl" in
  Out_channel.with_open_text program_file (fun oc ->
      output_string oc spec.program;
      List.iter
        (fun (a, b) -> Printf.fprintf oc "link(%d, %d).\n" a b)
        (live_edges (streams spec seed)));
  let store = Filename.concat work "store" in
  let times = ref [] and server = ref None in
  for i = 1 to setups do
    let s, t = start ~exe ~program_file ~store ~traced in
    times := t :: !times;
    if i < setups then ignore (stop s) else server := Some s
  done;
  let s = Option.get !server in
  let st = streams spec seed in
  let scrape () =
    match s.monitor with Some p -> samples (http_get p "/metrics") | None -> []
  in
  let status () =
    let c = Client.connect ~port:s.port () in
    let doc = Json.of_string (Client.status c) in
    Client.close c;
    doc
  in
  let before = scrape () and status0 = status () in
  let t_start = now () in
  let t_end = t_start +. seconds in
  let conns = load spec ~port:s.port ~seed ~streams:st ~t_end ~traced in
  let elapsed = now () -. t_start in
  let after = scrape () and status1 = status () in
  let final_ok = check_final spec ~port:s.port st in
  let rss_mb = peak_rss_mb (string_of_int s.pid) in
  let exit_ok = stop s = Unix.WEXITED 0 in
  (* the rest of the set-ups, so that [setup_s] samples the machine on
     both sides of the window *)
  for _ = 1 to setups do
    let s, t = start ~exe ~program_file ~store ~traced in
    times := t :: !times;
    ignore (stop s)
  done;
  rm_rf store;
  let seq_ok = List.for_all (fun r -> monotone r.seqs) conns in
  if not seq_ok then log "  acked sequence numbers went backwards";
  if not exit_ok then log "  ivm_server did not exit cleanly";
  {
    setup_s = median !times;
    window = (t_start, t_end);
    elapsed;
    conns;
    rss_mb;
    correct = final_ok && seq_ok && exit_ok;
    before;
    after;
    status0;
    status1;
  }

let all f p = Array.concat (List.map f p.conns)

let end_to_end p =
  let a = all (fun r -> r.applies) p and q = all (fun r -> r.queries) p in
  let t0, t1 = p.window in
  let w xs q = us (windowed ~t0 ~t1 xs q) in
  [
    m "setup_s" "s" p.setup_s;
    m "ops_per_s" "1/s" (windowed_rate ~t0 ~t1 (Array.append a q));
    m "apply_p50_us" "us" (w a 0.5);
    m "apply_p90_us" "us" (w a 0.9);
    m "query_p50_us" "us" (w q 0.5);
    m "query_p90_us" "us" (w q 0.9);
    m "peak_rss_mb" "MiB" p.rss_mb;
  ]

(* per-apply work of the same batch stream, replayed in this process
   through a non-durable manager (the server's own counters would mix in
   the queries' evaluation work) *)
let replay spec ~seed ~applies =
  let st = streams spec seed in
  let vm = materialize spec (live_edges st) in
  let n = min applies replay_batches in
  let s0 = Ivm_eval.Stats.snapshot () and mw0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Vm.apply vm (changes (Churn.next_batch st.(i mod 2) spec.k)))
  done;
  let w = Ivm_eval.Stats.since s0 in
  let per x = float_of_int x /. float_of_int (max 1 n) in
  [
    m "eval.derivations_per_apply" "count" (per w.Ivm_eval.Stats.snap_derivations);
    m "eval.probes_per_apply" "count" (per w.Ivm_eval.Stats.snap_probes);
    m "eval.tuples_scanned_per_apply" "count"
      (per w.Ivm_eval.Stats.snap_tuples_scanned);
    m "relation.index_builds" "count" (float_of_int w.Ivm_eval.Stats.snap_index_builds);
    m "core.minor_words_per_apply" "words"
      ((Gc.minor_words () -. mw0) /. float_of_int (max 1 n));
    m "core.dred_overdeleted_per_apply" "count" 0.;
    m "core.dred_rederived_per_apply" "count" 0.;
    m "core.dred_useful_ratio" "ratio" 0.;
  ]

let per_layer spec ~seed ~base p =
  let samples = List.concat_map (fun r -> r.traced) p.conns in
  let stage name =
    Array.of_list
      (List.filter_map
         (fun s -> Option.map (fun ns -> float_of_int ns /. 1e3) (List.assoc_opt name s.stages))
         samples)
  in
  let stage_p name q = pct (stage name) q in
  let unaccounted =
    Array.of_list
      (List.map
         (fun s ->
           us s.rtt -. (float_of_int (List.fold_left (fun a (_, ns) -> a + ns) 0 s.stages) /. 1e3))
         samples)
  in
  let over = Array.fold_left (fun n u -> if u < 0. then n + 1 else n) 0 unaccounted in
  let applies = List.fold_left (fun n r -> n + Array.length r.applies) 0 p.conns in
  let d path = status_num p.status1 path -. status_num p.status0 path in
  let commits = d [ "server"; "group_commits" ]
  and batches = d [ "server"; "committed_batches" ] in
  let full =
    d [ "server"; "publish"; "full_untracked" ]
    +. d [ "server"; "publish"; "full_stalled" ]
  in
  let wal_bytes = d [ "manager"; "store"; "wal_bytes" ] in
  let fsyncs =
    let v page =
      Option.value ~default:0. (List.assoc_opt "ivm_store_wal_fsyncs_total" page)
    in
    v p.after -. v p.before
  in
  let lags = all (fun r -> r.lags) p in
  log "  decomposition: %d traced applies, client_rtt = sum(echoed stages) + unaccounted; %d with stages > rtt"
    (Array.length unaccounted) over;
  [
    m "store.fsync_us_p50" "us" (stage_p "fsync" 0.5);
    m "store.wal_append_us_p50" "us" (stage_p "wal_append" 0.5);
    m "store.fsyncs_per_apply" "count" (fsyncs /. float_of_int applies);
    m "store.wal_bytes_per_tuple" "B"
      (wal_bytes /. float_of_int (applies * 2 * spec.k));
    m "serve.queue_us_p50" "us" (stage_p "queue" 0.5);
    m "serve.queue_us_p99" "us" (stage_p "queue" 0.99);
    m "serve.group_wait_us_p50" "us" (stage_p "group_wait" 0.5);
    m "serve.batches_per_group" "count" (batches /. commits);
    m "serve.publish_us_p50" "us" (stage_p "publish" 0.5);
    m "serve.publish_full_copies" "count" full;
    m "serve.query_us_p50" "us" (stage_hist_p50_us p.before p.after "query");
    m "core.maintain_us_p50" "us" (stage_p "maintain" 0.5);
    m "core.normalize_us_p50" "us" (stage_p "normalize" 0.5);
  ]
  @ replay spec ~seed ~applies
  @ [
      m "wire.unaccounted_us_p50" "us" (pct unaccounted 0.5);
      m "wire.unaccounted_us_p99" "us" (pct unaccounted 0.99);
      m "wire.decode_us_p50" "us" (stage_p "decode" 0.5);
      m "wire.ack_us_p50" "us" (stage_hist_p50_us p.before p.after "ack");
      m "wire.stages_over_rtt" "count" (float_of_int over);
      m "loadgen.sched_lag_us_p99" "us"
        (if Array.length lags = 0 then 0. else us (pct lags 0.99));
    ]
  @ trace_overhead ~base:(end_to_end base) ~traced:(end_to_end p)

let run ~seed ~seconds ~trace ~server ~work : outcome =
  let spec = bulk in
  (* a traced run splits its seconds between an untraced and a traced
     pass *)
  let seconds = if trace then seconds /. 2. else seconds in
  let base = phase spec ~seed ~seconds ~traced:false ~exe:server ~work in
  let p =
    if trace then phase spec ~seed ~seconds ~traced:true ~exe:server ~work
    else base
  in
  (* a traced run answers for both of its passes *)
  let conns = if trace then base.conns @ p.conns else p.conns in
  let sum f = List.fold_left (fun n r -> n + f r) 0 conns in
  let attempted = sum (fun r -> r.attempted) and failed = sum (fun r -> r.failed) in
  log "%s: seed %d, %d requests (%d failed) in %.2f s, closed loop"
    spec.name seed attempted failed p.elapsed;
  log "  final state over the wire vs recomputation, acked seqs monotone: %s"
    (if base.correct && p.correct then "ok" else "FAILED");
  {
    correct = base.correct && p.correct;
    attempted;
    failed;
    metrics = (if trace then per_layer spec ~seed ~base p else end_to_end base);
  }
