module Wire = Ivm_wire.Wire
module Crc32 = Ivm_wire.Crc32
module Relation = Ivm_relation.Relation
module Parser = Ivm_datalog.Parser
module Pretty = Ivm_datalog.Pretty
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace

exception Corrupt of string

let magic = "IVMSNAP1"
let version = 1

let bytes_written_c = Metrics.counter "ivm_store_bytes_written_total"
let snapshots_c = Metrics.counter "ivm_store_snapshots_total"

(* ---------------- encoding ---------------- *)

(** Every predicate of the program, in a deterministic order — equal
    databases encode to equal snapshot bytes. *)
let stored_preds program =
  List.sort String.compare (Program.base_preds program @ Program.derived_preds program)

let encode ~seq (db : Database.t) : string =
  let program = Database.program db in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Wire.put_u32 buf version;
  Wire.put_u8 buf
    (match Database.semantics db with
    | Database.Set_semantics -> 0
    | Database.Duplicate_semantics -> 1);
  Wire.put_i64 buf seq;
  Wire.put_string buf
    (Format.asprintf "%a" Pretty.pp_program (Program.rules program));
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
  (* the aggregate-index signature list: kept in the layout so stores
     that list signatures still open, always empty because aggregate
     indexes are built on demand *)
  Wire.put_u32 buf 0;
  let preds = stored_preds program in
  Wire.put_u32 buf (List.length preds);
  List.iter
    (fun p ->
      Wire.put_string buf p;
      Wire.put_relation buf (Database.relation db p))
    preds;
  let body = Buffer.contents buf in
  let crc = Crc32.digest body in
  let trailer = Buffer.create 4 in
  Buffer.add_int32_le trailer crc;
  body ^ Buffer.contents trailer

(* ---------------- decoding ---------------- *)

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt ("snapshot: " ^ s))) fmt

let decode (s : string) : Database.t * int =
  let n = String.length s in
  if n < String.length magic + 4 + 4 then corrupt "file too short (%d bytes)" n;
  if String.sub s 0 (String.length magic) <> magic then corrupt "bad magic";
  let stored_crc = String.get_int32_le s (n - 4) in
  let computed = Crc32.update 0l s 0 (n - 4) in
  if stored_crc <> computed then
    corrupt "CRC mismatch (stored %08lx, computed %08lx)" stored_crc computed;
  let r = Wire.reader ~pos:(String.length magic) (String.sub s 0 (n - 4)) in
  try
    let v = Wire.get_u32 r in
    if v <> version then corrupt "unsupported version %d (expected %d)" v version;
    let semantics =
      match Wire.get_u8 r with
      | 0 -> Database.Set_semantics
      | 1 -> Database.Duplicate_semantics
      | b -> corrupt "bad semantics byte %d" b
    in
    let seq = Wire.get_i64 r in
    let program_src = Wire.get_string r in
    let extra_base =
      List.init (Wire.get_u32 r) (fun _ ->
          let name = Wire.get_string r in
          let arity = Wire.get_u32 r in
          (name, arity))
    in
    let distinct = List.init (Wire.get_u32 r) (fun _ -> Wire.get_string r) in
    (* signatures a store may list here are skipped: the first
       maintained batch builds each aggregate index from its source *)
    for _ = 1 to Wire.get_u32 r do
      ignore (Wire.get_string r)
    done;
    let rels =
      List.init (Wire.get_u32 r) (fun _ ->
          let name = Wire.get_string r in
          let rel = Wire.get_relation r in
          (name, rel))
    in
    if Wire.remaining r <> 0 then
      corrupt "%d trailing bytes after payload" (Wire.remaining r);
    let program = Program.make ~extra_base (Parser.parse_rules program_src) in
    let db = Database.create ~semantics program in
    List.iter (fun (name, rel) -> Database.set_relation db name rel) rels;
    List.iter (fun v -> Database.mark_distinct db v) distinct;
    (db, seq)
  with
  | Corrupt _ as e -> raise e
  | Wire.Corrupt msg -> corrupt "payload: %s" msg
  | Parser.Parse_error msg | Program.Program_error msg -> corrupt "program: %s" msg
  | Invalid_argument msg -> corrupt "inconsistent payload: %s" msg

(* ---------------- files ---------------- *)

let save ~path ~seq (db : Database.t) : int =
  Trace.span "store.snapshot_save" (fun () ->
      let data = encode ~seq db in
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_gen
        [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
        0o644 tmp
        (fun oc ->
          Out_channel.output_string oc data;
          Fsutil.fsync_out_channel oc);
      Sys.rename tmp path;
      Fsutil.fsync_dir (Filename.dirname path);
      Metrics.inc snapshots_c;
      Metrics.add bytes_written_c (String.length data);
      String.length data)

let load ~path : Database.t * int =
  decode (In_channel.with_open_bin path In_channel.input_all)
