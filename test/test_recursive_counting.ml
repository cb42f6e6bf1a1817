(** Recursive counting ([GKM92] extension, Section 8): exact derivation
    counts through recursion on acyclic data, detected divergence on
    cycles. *)

open Util
module Changes = Ivm.Changes
module Rc = Ivm.Recursive_counting

let dag_source =
  {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- path(X, Z), link(Z, Y).
    link(a,b). link(b,c). link(a,c). link(c,d).
  |}

let db_counted src =
  let statements = Ivm_datalog.Parser.parse_program src in
  let rules, facts = Ivm_datalog.Parser.split statements in
  let program = Program.make rules in
  let db = Database.create ~semantics:Database.Duplicate_semantics program in
  List.iter (fun (p, vals) -> Database.load db p [ Tuple.of_list vals ]) facts;
  Rc.evaluate db;
  db

(* Derivation counts on a diamond: path(a,c) has 2 derivations (direct and
   via b); path(a,d) has 2 (each a→c derivation extends by c→d). *)
let diamond_counts () =
  let db = db_counted dag_source in
  check_rel "path counts"
    (rel_of_pairs "ab; bc; cd; ac 2; bd; ad 2")
    (rel db "path")

(* Insertion updates counts exactly: adding b→d gives path(a,d) a third
   derivation (a→b→d) ... via path(a,b)&link(b,d) plus existing 2. *)
let insertion_updates_counts () =
  let db = db_counted dag_source in
  let changes =
    Changes.insertions (Database.program db) "link" [ Tuple.of_strs [ "b"; "d" ] ]
  in
  ignore (Rc.maintain db changes);
  Alcotest.(check int)
    "path(a,d) count" 3
    (Relation.count (rel db "path") (Tuple.of_strs [ "a"; "d" ]));
  Alcotest.(check int)
    "path(b,d) count" 2
    (Relation.count (rel db "path") (Tuple.of_strs [ "b"; "d" ]))

(* Deletion updates counts exactly and removes zero-count tuples. *)
let deletion_updates_counts () =
  let db = db_counted dag_source in
  let changes =
    Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "a"; "c" ] ]
  in
  ignore (Rc.maintain db changes);
  Alcotest.(check int)
    "path(a,c) count" 1
    (Relation.count (rel db "path") (Tuple.of_strs [ "a"; "c" ]));
  Alcotest.(check int)
    "path(a,d) count" 1
    (Relation.count (rel db "path") (Tuple.of_strs [ "a"; "d" ]))

(* Incremental equals recompute on a random-ish DAG update mix. *)
let matches_recompute () =
  let db = db_counted dag_source in
  let changes =
    Changes.of_list (Database.program db)
      [
        ( "link",
          [
            (Tuple.of_strs [ "b"; "c" ], -1);
            (Tuple.of_strs [ "b"; "e" ], 1);
            (Tuple.of_strs [ "e"; "d" ], 1);
          ] );
      ]
  in
  let oracle = Database.copy db in
  List.iter
    (fun (pred, delta) ->
      let stored = Database.relation oracle pred in
      Relation.iter (fun tup c -> Relation.add stored tup c) delta)
    (Changes.normalize_base oracle changes);
  Rc.evaluate oracle;
  ignore (Rc.maintain db changes);
  check_rel "counts match oracle" (rel oracle "path") (rel db "path")

(* Cyclic data: infinitely many derivations — divergence must be raised,
   exactly as Section 8 warns. *)
let cycle_diverges () =
  let raised = ref false in
  (try
     ignore
       (db_counted
          {|
            path(X, Y) :- link(X, Y).
            path(X, Y) :- path(X, Z), link(Z, Y).
            link(a,b). link(b,a).
          |})
   with Rc.Divergence _ -> raised := true);
  Alcotest.(check bool) "divergence detected" true !raised

(* An insertion that creates a cycle on previously acyclic data also
   diverges. *)
let insertion_creates_cycle () =
  let db = db_counted dag_source in
  let before = Database.canonical_digest db in
  let raised = ref false in
  (try
     ignore
       (Rc.maintain ~max_rounds:64 db
          (Changes.insertions (Database.program db) "link"
             [ Tuple.of_strs [ "d"; "a" ] ]))
   with Rc.Divergence _ -> raised := true);
  Alcotest.(check bool) "divergence detected" true !raised;
  (* the single commit point never ran: stored state is untouched *)
  Alcotest.(check string) "state unchanged" before (Database.canonical_digest db)

(* Set semantics is rejected. *)
let set_semantics_rejected () =
  let db = db_of_source dag_source in
  try
    ignore
      (Rc.maintain db
         (Changes.insertions (Database.program db) "link"
            [ Tuple.of_strs [ "d"; "e" ] ]));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* Mixed program: nonrecursive predicates above the recursion also keep
   exact counts. *)
let counts_above_recursion () =
  let db =
    db_counted
      {|
        path(X, Y) :- link(X, Y).
        path(X, Y) :- path(X, Z), link(Z, Y).
        two_way(X, Y) :- path(X, Y), path(Y, X).
        link(a,b). link(b,c). link(a,c). link(c,d).
      |}
  in
  Alcotest.(check int) "two_way empty" 0 (Relation.cardinal (rel db "two_way"));
  ignore
    (Rc.maintain ~max_rounds:64 db
       (Changes.insertions (Database.program db) "link" [ Tuple.of_strs [ "d"; "e" ] ]));
  Alcotest.(check int)
    "path(a,e) count" 2
    (Relation.count (rel db "path") (Tuple.of_strs [ "a"; "e" ]))

let suite =
  [
    quick "diamond derivation counts" diamond_counts;
    quick "insertion updates counts exactly" insertion_updates_counts;
    quick "deletion updates counts exactly" deletion_updates_counts;
    quick "incremental matches recompute" matches_recompute;
    quick "cycle diverges at evaluation" cycle_diverges;
    quick "insertion creating a cycle diverges" insertion_creates_cycle;
    quick "set semantics rejected" set_semantics_rejected;
    quick "counts above recursion" counts_above_recursion;
  ]
