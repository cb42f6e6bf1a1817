(** The durable layer ([ivm_store]) and its recovery invariant.

    Units: CRC-32 check values, wire-codec round-trips, snapshot
    save/load identity (distinct views, duplicate semantics, stores that
    list aggregate-index signatures), WAL append/scan, corruption detection.

    The headline property is fault injection: build a durable manager,
    stream random batches at it, truncate the log at a {e random byte
    offset} (simulating a crash mid-write), recover, and demand the
    recovered state equal a fresh manager that applied exactly the
    batches whose log frames survived — no more, no fewer. *)

open Util
module Crc32 = Ivm_wire.Crc32
module Wire = Ivm_wire.Wire
module Snapshot = Ivm_store.Snapshot
module Wal = Ivm_store.Wal
module Store = Ivm_store.Store
module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Update_gen = Ivm_workload.Update_gen
module Programs = Ivm_workload.Programs

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                  *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

(** A fresh scratch directory; removed when [f] returns or raises. *)
let with_dir (f : string -> 'a) : 'a =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivm_store_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* CRC-32 and the wire codec                                            *)
(* ------------------------------------------------------------------ *)

let crc_check_values () =
  Alcotest.(check int32) "empty" 0l (Crc32.digest "");
  (* the standard CRC-32/IEEE check value *)
  Alcotest.(check int32) "123456789" 0xCBF43926l (Crc32.digest "123456789");
  let s = "incremental view maintenance" in
  Alcotest.(check int32) "incremental = one-shot"
    (Crc32.digest s)
    (Crc32.update (Crc32.update 0l s 0 11) s 11 (String.length s - 11))

let wire_value_roundtrip () =
  let values =
    [ Value.int 0; Value.int (-42); Value.int max_int;
      Value.float 0.1; Value.float (-1e300); Value.float Float.infinity;
      Value.str ""; Value.str "with \"escapes\"\n\000";
      Value.bool true; Value.bool false ]
  in
  let buf = Buffer.create 64 in
  List.iter (Wire.put_value buf) values;
  let r = Wire.reader (Buffer.contents buf) in
  List.iter
    (fun v ->
      let v' = Wire.get_value r in
      if Value.compare v v' <> 0 then
        Alcotest.failf "wire round-trip changed %s to %s" (Value.to_string v)
          (Value.to_string v'))
    values;
  Alcotest.(check int) "no trailing bytes" 0 (Wire.remaining r)

let wire_relation_roundtrip () =
  let rel = rel_of_pairs "ab; ac 3; bc 2" in
  let buf = Buffer.create 64 in
  Wire.put_relation buf rel;
  let r = Wire.reader (Buffer.contents buf) in
  check_rel "relation round-trips with counts" rel (Wire.get_relation r)

let wire_rejects_truncation () =
  let buf = Buffer.create 64 in
  Wire.put_string buf "hello world";
  let s = Buffer.contents buf in
  let r = Wire.reader (String.sub s 0 (String.length s - 3)) in
  match Wire.get_string r with
  | _ -> Alcotest.fail "truncated string decoded"
  | exception Wire.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Snapshot                                                             *)
(* ------------------------------------------------------------------ *)

let snapshot_source =
  {|
    link(a, b). link(b, c). link(c, d). link(a, d).
    hop(X, Y) :- link(X, Z), link(Z, Y).
    out_deg(X, N) :- groupby(link(X, Y), [X], N = count()).
    far(X) :- hop(X, Y), not link(X, Y).
  |}

let snapshot_roundtrip () =
  let db = db_of_source snapshot_source in
  let s = Snapshot.encode ~seq:7 db in
  let db2, seq = Snapshot.decode s in
  Alcotest.(check int) "sequence survives" 7 seq;
  Alcotest.(check bool) "state survives" true (Database.agree db db2);
  (* the snapshot is byte-stable: same state, same bytes *)
  Alcotest.(check string) "deterministic encoding" s (Snapshot.encode ~seq:7 db2)

let snapshot_duplicate_semantics () =
  let db =
    db_of_source ~semantics:Database.Duplicate_semantics
      {|
        link(a, b). link(a, b). link(b, c).
        hop(X, Y) :- link(X, Z), link(Z, Y).
      |}
  in
  let db2, _ = Snapshot.decode (Snapshot.encode ~seq:0 db) in
  Alcotest.(check bool) "duplicate counts survive" true (Database.agree db db2);
  check_rel "hop multiplicity 2" (rel_of_pairs "ac 2")
    (Database.relation db2 "hop")

(* The snapshot byte layout with an explicit aggregate-signature list —
   what stores written while aggregate indexes were registered per view
   hold.  With an empty list it must equal [Snapshot.encode]. *)
let encode_with_agg_signatures ~seq sigs (db : Database.t) =
  let program = Database.program db in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf Snapshot.magic;
  Wire.put_u32 buf Snapshot.version;
  Wire.put_u8 buf
    (match Database.semantics db with
    | Database.Set_semantics -> 0
    | Database.Duplicate_semantics -> 1);
  Wire.put_i64 buf seq;
  Wire.put_string buf
    (Format.asprintf "%a" Ivm_datalog.Pretty.pp_program (Program.rules program));
  let base = List.sort String.compare (Program.base_preds program) in
  Wire.put_u32 buf (List.length base);
  List.iter
    (fun p ->
      Wire.put_string buf p;
      Wire.put_u32 buf (Program.arity program p))
    base;
  let distinct = Database.distinct_views db in
  Wire.put_u32 buf (List.length distinct);
  List.iter (Wire.put_string buf) distinct;
  Wire.put_u32 buf (List.length sigs);
  List.iter (Wire.put_string buf) sigs;
  let preds =
    List.sort String.compare (Program.base_preds program @ Program.derived_preds program)
  in
  Wire.put_u32 buf (List.length preds);
  List.iter
    (fun p ->
      Wire.put_string buf p;
      Wire.put_relation buf (Database.relation db p))
    preds;
  let body = Buffer.contents buf in
  let trailer = Buffer.create 4 in
  Buffer.add_int32_le trailer (Crc32.digest body);
  body ^ Buffer.contents trailer

(* A snapshot that lists aggregate-index signatures still opens: the list
   is skipped, the first maintained batch builds the index from the
   loaded source, and the maintained views audit clean. *)
let snapshot_agg_indexes () =
  let db = db_of_source snapshot_source in
  Alcotest.(check string) "the helper mirrors the current encoder"
    (Snapshot.encode ~seq:3 db)
    (encode_with_agg_signatures ~seq:3 [] db);
  let sigs =
    List.concat_map
      (fun (rule : Ast.rule) ->
        List.filter_map
          (function
            | Ast.Lagg agg ->
              Some (Ivm_eval.Compile.compile_agg_spec agg).Ivm_eval.Compile.gsignature
            | _ -> None)
          rule.Ast.body)
      (Program.rules (Database.program db))
  in
  Alcotest.(check int) "one signature listed" 1 (List.length sigs);
  let db2, seq = Snapshot.decode (encode_with_agg_signatures ~seq:3 sigs db) in
  Alcotest.(check int) "seq" 3 seq;
  Alcotest.(check string) "same state" (Database.canonical_digest db)
    (Database.canonical_digest db2);
  let batch vm =
    ignore
      (Vm.apply vm
         (Changes.of_list (Vm.program vm)
            [ ("link", [ (Tuple.of_strs [ "a"; "e" ], 1); (Tuple.of_strs [ "a"; "b" ], -1) ]) ]))
  in
  let reopened = Vm.of_database ~algorithm:Vm.Counting db2 in
  let fresh = Vm.of_database ~algorithm:Vm.Counting db in
  batch reopened;
  batch fresh;
  Alcotest.(check (result unit string)) "audit after the first batch" (Ok ())
    (Vm.audit reopened);
  Alcotest.(check string) "maintained like a fresh database"
    (Database.canonical_digest (Vm.database fresh))
    (Database.canonical_digest (Vm.database reopened));
  let deg x n = (Tuple.of_list [ Value.str x; Value.int n ], 1) in
  check_rel "out_deg after the batch"
    (Relation.of_list 2 [ deg "a" 2; deg "b" 1; deg "c" 1 ])
    (Database.relation (Vm.database reopened) "out_deg")

let snapshot_detects_corruption () =
  with_dir (fun dir ->
      let db = db_of_source snapshot_source in
      let path = Filename.concat dir "snap" in
      ignore (Snapshot.save ~path ~seq:1 db);
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let broken = Bytes.of_string bytes in
      let mid = Bytes.length broken / 2 in
      Bytes.set broken mid (Char.chr (Char.code (Bytes.get broken mid) lxor 1));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc broken);
      match Snapshot.load ~path with
      | _ -> Alcotest.fail "corrupt snapshot loaded"
      | exception Snapshot.Corrupt _ -> ())

(* ------------------------------------------------------------------ *)
(* Store protocol                                                       *)
(* ------------------------------------------------------------------ *)

let initialize_twice_refused () =
  with_dir (fun dir ->
      let db = db_of_source snapshot_source in
      let s = Store.initialize ~dir db in
      Store.close s;
      match Store.initialize ~dir db with
      | _ -> Alcotest.fail "re-initialize over an existing store"
      | exception Invalid_argument _ -> ())

let open_missing_refused () =
  with_dir (fun dir ->
      match Store.open_ ~dir:(Filename.concat dir "nowhere") with
      | _ -> Alcotest.fail "opened a non-store"
      | exception Store.Corrupt _ -> ())

(* Crash between [Snapshot.save] and [Wal.reset] during compaction: the
   log still holds records the new snapshot already covers.  Recovery
   must skip them by sequence number instead of replaying them twice. *)
let compaction_crash_skips_covered_records () =
  with_dir (fun dir ->
      let vm = Vm.of_source ~durable:dir snapshot_source in
      ignore (Vm.insert vm "link" (pairs "bd"));
      ignore (Vm.delete vm "link" (pairs "ad"));
      let db = Vm.database vm in
      (* the first half of compaction, then "crash" before the log reset *)
      ignore (Snapshot.save ~path:(Store.snapshot_file dir) ~seq:2 db);
      Vm.close_store vm;
      let vm2, recovery = Vm.open_durable dir in
      Alcotest.(check int) "both records skipped" 2 recovery.Store.skipped_records;
      Alcotest.(check int) "nothing replayed" 0
        (List.length recovery.Store.replayed);
      Alcotest.(check bool) "state agrees" true
        (Database.agree db (Vm.database vm2));
      Vm.close_store vm2)

(* ------------------------------------------------------------------ *)
(* Crash-recovery fault injection                                       *)
(* ------------------------------------------------------------------ *)

let q ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let seed_gen =
  QCheck.Gen.(map (fun s -> s) (int_range 1 1_000_000))
  |> QCheck.make ~print:(Printf.sprintf "seed=%d")

(** Build a durable manager over a random graph, apply [steps] random
    batches recording where each log frame ends, and return the initial
    tuples, the batches, and the frame end offsets. *)
let durable_run ~dir rng ~nodes ~edges ~steps =
  let tuples = Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges) in
  let vm =
    Vm.create ~durable:dir
      ~facts:[ ("link", tuples) ]
      (Parser.parse_rules Ivm_workload.Programs.hop_tri_hop)
  in
  let batches = ref [] and offsets = ref [] in
  for _ = 1 to steps do
    let changes =
      Update_gen.mixed rng (Vm.database vm) "link" ~nodes
        ~dels:(Prng.int rng 3) ~ins:(Prng.int rng 4)
    in
    ignore (Vm.apply vm changes);
    batches := changes :: !batches;
    let st = Option.get (Vm.store_status vm) in
    offsets := st.Store.wal_bytes :: !offsets
  done;
  Vm.close_store vm;
  (tuples, List.rev !batches, List.rev !offsets)

let oracle ~tuples batches =
  let vm =
    Vm.create
      ~facts:[ ("link", tuples) ]
      (Parser.parse_rules Ivm_workload.Programs.hop_tri_hop)
  in
  List.iter (fun c -> ignore (Vm.apply vm c)) batches;
  vm

let crash_recovery_prop =
  q ~count:40 "truncate log at a random offset, recover = surviving prefix"
    seed_gen
    (fun seed ->
      with_dir (fun dir ->
          let rng = Prng.create seed in
          let nodes = 8 and edges = 14 and steps = 5 in
          let tuples, batches, offsets =
            durable_run ~dir rng ~nodes ~edges ~steps
          in
          let wal = Store.wal_file dir in
          let size = (Unix.stat wal).Unix.st_size in
          (* cut anywhere from just after the header to the full file *)
          let cut = Wal.header_size + Prng.int rng (size - Wal.header_size + 1) in
          Unix.truncate wal cut;
          let survivors =
            List.length (List.filter (fun o -> o <= cut) offsets)
          in
          let vm, recovery = Vm.open_durable dir in
          let expected = oracle ~tuples (List.filteri (fun i _ -> i < survivors) batches) in
          let ok =
            List.length recovery.Store.replayed = survivors
            && Database.agree (Vm.database expected) (Vm.database vm)
          in
          Vm.close_store vm;
          ok))

(* Flipping one byte inside a record must drop that record and everything
   after it (the scan cannot trust frame boundaries past a bad CRC), and
   recovery must land exactly on the preceding prefix. *)
let corruption_recovery_prop =
  q ~count:40 "flip a log byte, recover = prefix before the damage"
    seed_gen
    (fun seed ->
      with_dir (fun dir ->
          let rng = Prng.create seed in
          let nodes = 8 and edges = 14 and steps = 5 in
          let tuples, batches, offsets =
            durable_run ~dir rng ~nodes ~edges ~steps
          in
          let wal = Store.wal_file dir in
          let size = (Unix.stat wal).Unix.st_size in
          let pos = Wal.header_size + Prng.int rng (size - Wal.header_size) in
          let fd = Unix.openfile wal [ Unix.O_RDWR ] 0 in
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          let b = Bytes.create 1 in
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5A));
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1);
          Unix.close fd;
          (* the flip lands inside the first non-surviving frame: the scan
             stops there, so exactly the frames before it replay *)
          let survivors =
            List.length (List.filter (fun o -> o <= pos) offsets)
          in
          let vm, recovery = Vm.open_durable dir in
          let expected = oracle ~tuples (List.filteri (fun i _ -> i < survivors) batches) in
          let ok =
            List.length recovery.Store.replayed = survivors
            && recovery.Store.damage <> None
            && Database.agree (Vm.database expected) (Vm.database vm)
          in
          Vm.close_store vm;
          ok))

(* ------------------------------------------------------------------ *)
(* End-to-end durability through the manager                            *)
(* ------------------------------------------------------------------ *)

let reopen_after_rule_change () =
  with_dir (fun dir ->
      let vm = Vm.of_source ~durable:dir snapshot_source in
      ignore (Vm.insert vm "link" (pairs "bd"));
      Vm.add_rule_text vm "far2(X, Y) :- hop(X, Z), hop(Z, Y).";
      ignore (Vm.insert vm "link" (pairs "db"));
      Vm.close_store vm;
      let vm2, _ = Vm.open_durable dir in
      Alcotest.(check bool) "rule change + later batches survive" true
        (Database.agree (Vm.database vm) (Vm.database vm2));
      Alcotest.(check bool) "the added view is defined after reopen" true
        (List.mem "far2" (Program.derived_preds (Vm.program vm2)));
      Vm.close_store vm2)

let compact_then_reopen () =
  with_dir (fun dir ->
      let vm = Vm.of_source ~durable:dir snapshot_source in
      ignore (Vm.insert vm "link" (pairs "bd"));
      ignore (Vm.delete vm "link" (pairs "ab"));
      Vm.compact vm;
      let st = Option.get (Vm.store_status vm) in
      Alcotest.(check int) "log empty after compaction" 0 st.Store.wal_records;
      ignore (Vm.insert vm "link" (pairs "ab"));
      Vm.close_store vm;
      let vm2, recovery = Vm.open_durable dir in
      Alcotest.(check int) "only the post-compaction record replays" 1
        (List.length recovery.Store.replayed);
      Alcotest.(check bool) "state agrees" true
        (Database.agree (Vm.database vm) (Vm.database vm2));
      Vm.close_store vm2)

let suite =
  [
    quick "crc32 check values" crc_check_values;
    quick "wire: values round-trip" wire_value_roundtrip;
    quick "wire: relations round-trip" wire_relation_roundtrip;
    quick "wire: truncation detected" wire_rejects_truncation;
    quick "snapshot: round-trip" snapshot_roundtrip;
    quick "snapshot: duplicate semantics" snapshot_duplicate_semantics;
    quick "snapshot: aggregate indexes" snapshot_agg_indexes;
    quick "snapshot: corruption detected" snapshot_detects_corruption;
    quick "store: initialize twice refused" initialize_twice_refused;
    quick "store: open missing refused" open_missing_refused;
    quick "store: compaction crash skips covered records"
      compaction_crash_skips_covered_records;
    quick "manager: rule change survives reopen" reopen_after_rule_change;
    quick "manager: compact then reopen" compact_then_reopen;
    crash_recovery_prop;
    corruption_recovery_prop;
  ]
