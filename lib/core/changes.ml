(** Change sets: the [Δ] notation of Section 3.  A change set maps
    predicates to delta relations — insertions with positive counts,
    deletions with negative counts.  Updates are modelled, as in the paper,
    as a deletion plus an insertion of the modified tuple. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database

type t = (string * Relation.t) list

exception Invalid_changes of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid_changes s)) fmt

(** Build a change set from per-predicate [(tuple, count)] lists. *)
let of_list (program : Program.t) (specs : (string * (Tuple.t * int) list) list) : t =
  List.map
    (fun (pred, entries) ->
      let r = Relation.of_list (Program.arity program pred) entries in
      (pred, r))
    specs

let insertions program pred tuples =
  of_list program [ (pred, List.map (fun t -> (t, 1)) tuples) ]

let deletions program pred tuples =
  of_list program [ (pred, List.map (fun t -> (t, -1)) tuples) ]

(** [update program pred ~old_tuple ~new_tuple] — delete + insert. *)
let update program pred ~old_tuple ~new_tuple =
  of_list program [ (pred, [ (old_tuple, -1); (new_tuple, 1) ]) ]

(** Merge change sets with [⊎] per predicate. *)
let merge (a : t) (b : t) : t =
  let tbl = Hashtbl.create 8 in
  let absorb (pred, r) =
    match Hashtbl.find_opt tbl pred with
    | Some acc -> Relation.union_into ~into:acc r
    | None -> Hashtbl.replace tbl pred (Relation.copy r)
  in
  List.iter absorb a;
  List.iter absorb b;
  Hashtbl.fold (fun p r acc -> (p, r) :: acc) tbl []
  |> List.sort (fun (p, _) (q, _) -> String.compare p q)

let is_empty (t : t) = List.for_all (fun (_, r) -> Relation.is_empty r) t

let total_tuples (t : t) =
  List.fold_left (fun acc (_, r) -> acc + Relation.cardinal r) 0 t

(** Validate a change set against the database and normalize it for the
    database's semantics:

    - every changed predicate must be a base relation of the program;
    - deletions must not exceed stored multiplicities (the paper's standing
      assumption [Γ− ⊆ E], Lemma 4.1);
    - under set semantics, inserting an already-present tuple and deleting
      with multiplicity collapse to ±1 transitions (re-inserting a present
      tuple is dropped).

    Returns the normalized change set.
    @raise Invalid_changes on violations. *)
let normalize_base (db : Database.t) (t : t) : t =
  let program = Database.program db in
  (* Collapse duplicate entries for the same predicate with [⊎] first. *)
  let t = merge t [] in
  List.filter_map
    (fun (pred, delta) ->
      if not (Program.mem_pred program pred) then fail "unknown relation %s" pred;
      if Program.is_derived program pred then
        fail "%s is a derived relation: apply changes to base relations only"
          pred;
      if Relation.arity delta <> Program.arity program pred then
        fail "arity mismatch in changes for %s" pred;
      let stored = Database.relation db pred in
      let out = Relation.create (Relation.arity delta) in
      Relation.iter
        (fun tup c ->
          let have = Relation.count stored tup in
          match Database.semantics db with
          | Database.Duplicate_semantics ->
            if have + c < 0 then
              fail "deleting %d copies of %s%s but only %d stored" (-c) pred
                (Tuple.to_string tup) have;
            Relation.add out tup c
          | Database.Set_semantics ->
            if c > 0 && have = 0 then Relation.add out tup 1
            else if c < 0 then begin
              if have = 0 then
                fail "deleting %s%s which is not in the database" pred
                  (Tuple.to_string tup);
              Relation.add out tup (-1)
            end)
        delta;
      if Relation.is_empty out then None else Some (pred, out))
    t
  |> List.sort (fun (p, _) (q, _) -> String.compare p q)

(* ---------------- net-change collectors ---------------- *)

(* A collector accumulates, as a change set, the deltas maintenance
   commits — base and derived predicates alike.  Every algorithm commits
   through [Delta.maintain], and the view manager feeds each committed
   delta here, so the collected set is exact by construction: replaying
   it with ⊎ onto any count-identical database yields the
   post-maintenance database.  The accumulators are index-free: a
   committed delta may carry the indexes its rule evaluation probed
   (Δhop under [tri_hop :- hop, link]), and nothing probes a collector,
   so copying them would only rebuild and then maintain indexes on
   every batch of a group. *)
type collector = (string, Relation.t) Hashtbl.t

let collector () : collector = Hashtbl.create 8

let record (col : collector) pred delta =
  if not (Relation.is_empty delta) then
    match Hashtbl.find_opt col pred with
    | Some r -> Relation.union_into ~into:r delta
    | None -> Hashtbl.replace col pred (Relation.copy ~with_indexes:false delta)

let collected (col : collector) : t =
  Hashtbl.fold (fun p r acc -> if Relation.is_empty r then acc else (p, r) :: acc)
    col []
  |> List.sort (fun (p, _) (q, _) -> String.compare p q)

let pp ppf (t : t) =
  List.iter
    (fun (pred, r) -> Format.fprintf ppf "Δ%s = %a@." pred Relation.pp r)
    t

let to_string t = Format.asprintf "%a" pp t
