(** Persistent incremental aggregate indexes ([DAJ91] accumulators), the
    one path every maintenance algorithm takes [Δ(T)] from: the index
    must agree exactly with the paper's Algorithm 6.1 ({!Grouping.delta},
    which re-scans touched groups) and maintained views with a
    from-scratch evaluation, across insertions, deletions, group
    birth/death, both semantics, rule changes, algorithm switches and a
    durable reopen.  Indexes are built on first use; nothing opts in. *)

open Util
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Vm = Ivm.View_manager
module Agg_index = Ivm_eval.Agg_index
module Compile = Ivm_eval.Compile
module Grouping = Ivm_eval.Grouping
module Rule_eval = Ivm_eval.Rule_eval

let agg_spec_of_source src =
  let rule = Ivm_datalog.Parser.parse_rule src in
  match rule.Ivm_datalog.Ast.body with
  | [ Ivm_datalog.Ast.Lagg agg ] -> Compile.compile_agg_spec agg
  | _ -> failwith "expected a single groupby literal"

let min_spec =
  agg_spec_of_source "v(S, D, M) :- groupby(hop(S, D, C), [S, D], M = min(C))."

let tup3 s d c = Tuple.of_list Value.[ str s; str d; int c ]

(* Build over a relation, then mutate through deltas; grouped relation and
   previews must match a fresh build at every step. *)
let build_and_apply () =
  let u = Relation.create 3 in
  List.iter
    (fun t -> Relation.add u t 1)
    [ tup3 "a" "b" 3; tup3 "a" "b" 5; tup3 "a" "c" 9 ];
  let idx = Agg_index.build (Relation_view.concrete u) min_spec in
  Alcotest.(check int) "two groups" 2 (Agg_index.group_count idx);
  let fresh () = Grouping.compute (Relation_view.concrete u) min_spec in
  check_rel ~counted:false "initial grouped" (fresh ()) (Agg_index.grouped idx);
  (* delete the current minimum of (a,b): min moves 3 → 5 *)
  let delta = Relation.of_list 3 [ (tup3 "a" "b" 3, -1) ] in
  Relation.add u (tup3 "a" "b" 3) (-1);
  let dt = Agg_index.apply_delta idx delta in
  check_rel ~counted:false "grouped after delete" (fresh ()) (Agg_index.grouped idx);
  Alcotest.(check int) "ΔT has −old +new" 2 (Relation.cardinal dt);
  (* kill the whole (a,c) group *)
  let delta = Relation.of_list 3 [ (tup3 "a" "c" 9, -1) ] in
  Relation.add u (tup3 "a" "c" 9) (-1);
  ignore (Agg_index.apply_delta idx delta);
  Alcotest.(check int) "group died" 1 (Agg_index.group_count idx);
  check_rel ~counted:false "grouped after group death" (fresh ())
    (Agg_index.grouped idx);
  (* new group appears *)
  let delta = Relation.of_list 3 [ (tup3 "x" "y" 7, 1) ] in
  Relation.add u (tup3 "x" "y" 7) 1;
  let dt = Agg_index.apply_delta idx delta in
  Alcotest.(check int) "group born" 2 (Agg_index.group_count idx);
  Alcotest.(check int) "ΔT is the new tuple" 1 (Relation.cardinal dt);
  check_rel ~counted:false "grouped after birth" (fresh ()) (Agg_index.grouped idx)

(* preview must not mutate *)
let preview_is_pure () =
  let u = Relation.create 3 in
  List.iter (fun t -> Relation.add u t 1) [ tup3 "a" "b" 3; tup3 "a" "b" 5 ];
  let idx = Agg_index.build (Relation_view.concrete u) min_spec in
  let before = Relation.copy (Agg_index.grouped idx) in
  let delta = Relation.of_list 3 [ (tup3 "a" "b" 3, -1) ] in
  let dt1 = Agg_index.delta_preview idx delta in
  let dt2 = Agg_index.delta_preview idx delta in
  check_rel "previews agree" dt1 dt2;
  check_rel ~counted:false "index unchanged" before (Agg_index.grouped idx)

(* ---------------- the reference property ---------------- *)

(* A random source [u(K, X, C)] (stored counts 1..3) and a random delta in
   the regime maintenance propagates: count changes under duplicate
   semantics; under set semantics ±1 presence transitions, with count
   changes that keep a tuple present left out of the delta (they move no
   set-clamped aggregate).  Returns the old source, the new one and the
   delta. *)
let random_source_and_delta semantics seed =
  let rng = Random.State.make [| seed |] in
  let tuple () =
    Tuple.of_list
      Value.
        [ int (Random.State.int rng 3); int (Random.State.int rng 4);
          int (Random.State.int rng 11 - 5) ]
  in
  let old_u = Relation.create 3 in
  for _ = 1 to 2 + Random.State.int rng 14 do
    let t = tuple () in
    if not (Relation.mem old_u t) then Relation.add old_u t (1 + Random.State.int rng 3)
  done;
  let new_u = Relation.copy old_u and delta = Relation.create 3 in
  let touched = Hashtbl.create 8 in
  for _ = 1 to 1 + Random.State.int rng 8 do
    let t =
      if Relation.is_empty old_u || Random.State.bool rng then tuple ()
      else
        fst
          (List.nth (Relation.to_sorted_list old_u)
             (Random.State.int rng (Relation.cardinal old_u)))
    in
    if not (Hashtbl.mem touched t) then begin
      Hashtbl.add touched t ();
      let before = Relation.count old_u t in
      let after =
        if before = 0 then 1 + Random.State.int rng 2 else Random.State.int rng (before + 2)
      in
      Relation.add new_u t (after - before);
      match semantics with
      | Database.Duplicate_semantics ->
        if after <> before then Relation.add delta t (after - before)
      | Database.Set_semantics ->
        if before = 0 && after > 0 then Relation.add delta t 1
        else if before > 0 && after = 0 then Relation.add delta t (-1)
    end
  done;
  (old_u, new_u, delta)

(* [Agg_index.delta_preview] ≡ [Grouping.delta] (Algorithm 6.1) for one
   aggregate under one semantics, and the index after [apply_delta]
   equals the grouped relation of the new source. *)
let reference_property semantics fn =
  let call = if fn = "count" then "count()" else fn ^ "(C)" in
  let spec =
    agg_spec_of_source
      (Printf.sprintf "v(K, M) :- groupby(u(K, X, C), [K], M = %s)." call)
  in
  let mult =
    match semantics with
    | Database.Set_semantics -> Rule_eval.set_count
    | Database.Duplicate_semantics -> Rule_eval.identity_count
  in
  let name =
    Printf.sprintf "Alg 6.1 reference: %s, %s" fn
      (match semantics with
      | Database.Set_semantics -> "set"
      | Database.Duplicate_semantics -> "dup")
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name QCheck.small_nat (fun seed ->
         let old_u, new_u, delta = random_source_and_delta semantics seed in
         let reference =
           Grouping.delta ~mult ~old_view:(Relation_view.concrete old_u)
             ~new_view:(Relation_view.concrete new_u) ~delta_u:delta spec
         in
         let idx = Agg_index.build ~mult (Relation_view.concrete old_u) spec in
         let preview = Agg_index.delta_preview idx delta in
         let applied = Agg_index.apply_delta idx delta in
         let ok =
           Relation.equal_counted reference preview
           && Relation.equal_counted reference applied
           && Relation.equal_counted
                (Grouping.compute ~mult (Relation_view.concrete new_u) spec)
                (Agg_index.grouped idx)
         in
         if not ok then
           QCheck.Test.fail_reportf "Δ(U) %s: Algorithm 6.1 %s, index %s"
             (Relation.to_string delta) (Relation.to_string reference)
             (Relation.to_string preview);
         true))

(* ---------------- maintenance reads the index ---------------- *)

let aggregation_source =
  {|
    hop(S, D, C1 + C2) :- link(S, I, C1), link(I, D, C2).
    min_cost_hop(S, D, M) :- groupby(hop(S, D, C), [S, D], M = min(C)).
    total_fanout(S, T) :- groupby(link(S, D, C), [S], T = sum(C)).
    link(a,b,1). link(b,c,2). link(b,e,5). link(a,d,4). link(d,c,1).
  |}

let batches =
  [
    [ (tup3 "a" "f" 1, 1); (tup3 "f" "c" 1, 1) ];
    [ (tup3 "f" "c" 1, -1) ];
    [ (tup3 "b" "c" 2, -1); (tup3 "b" "c" 7, 1) ];
    [ (tup3 "a" "b" 1, -1) ];
    [ (tup3 "z" "z2" 3, 1) ];
  ]

(* Every derived relation of [db] equals a from-scratch evaluation of its
   base relations, counts included. *)
let check_against_seminaive what db =
  let oracle = Database.copy db in
  Seminaive.evaluate oracle;
  List.iter
    (fun p -> check_rel (what ^ ": " ^ p) (rel oracle p) (rel db p))
    (Program.derived_preds (Database.program db))

(* counting maintained over a stream of updates equals the semi-naive
   oracle after every batch, in both semantics *)
let maintained_matches_oracle semantics () =
  let db = db_of_source ~semantics aggregation_source in
  List.iteri
    (fun i batch ->
      ignore
        (Counting.maintain db (Changes.of_list (Database.program db) [ ("link", batch) ]));
      check_against_seminaive (Printf.sprintf "batch %d" (i + 1)) db)
    batches

(* View_manager with no setup: audits stay green through updates, a rule
   change, algorithm switches and a durable reopen. *)
let view_manager_integration () =
  Test_store.with_dir (fun dir ->
      let audit what vm = Alcotest.(check (result unit string)) what (Ok ()) (Vm.audit vm) in
      let vm = Vm.of_source ~algorithm:Vm.Counting ~durable:dir aggregation_source in
      ignore (Vm.insert vm "link" [ tup3 "a" "f" 1; tup3 "f" "c" 1 ]);
      audit "after insert" vm;
      ignore (Vm.delete vm "link" [ tup3 "f" "c" 1 ]);
      audit "after delete" vm;
      (* a rule change rebuilds the database *)
      Vm.add_rule_text vm "cheap(S, D) :- min_cost_hop(S, D, M), M < 4.";
      ignore (Vm.delete vm "link" [ tup3 "a" "b" 1 ]);
      audit "after rule change" vm;
      (* switching back to counting re-derives every view *)
      Vm.set_algorithm vm Vm.Dred;
      ignore (Vm.insert vm "link" [ tup3 "a" "b" 2 ]);
      audit "under dred" vm;
      Vm.set_algorithm vm Vm.Counting;
      ignore (Vm.update vm "link" ~old_tuple:(tup3 "b" "c" 2) ~new_tuple:(tup3 "b" "c" 1));
      audit "after switching back" vm;
      let digest = Database.canonical_digest (Vm.database vm) in
      Vm.close_store vm;
      let reopened, _ = Vm.open_durable ~algorithm:Vm.Counting dir in
      Alcotest.(check string) "reopened state" digest
        (Database.canonical_digest (Vm.database reopened));
      ignore (Vm.insert reopened "link" [ tup3 "c" "g" 1; tup3 "a" "c" 9 ]);
      audit "after reopen" reopened;
      Vm.close_store reopened)

(* Recursive counting re-materializes by emptying every relation in place
   and inserting the base facts through one batch: indexes built before
   the switch must not survive the emptying. *)
let switch_to_recursive_counting () =
  let vm =
    Vm.of_source ~semantics:Database.Duplicate_semantics ~algorithm:Vm.Counting
      aggregation_source
  in
  ignore (Vm.insert vm "link" [ tup3 "a" "f" 1 ]);
  Vm.set_algorithm vm Vm.Recursive_counting;
  Alcotest.(check (result unit string)) "after the switch" (Ok ()) (Vm.audit vm);
  ignore (Vm.insert vm "link" [ tup3 "f" "c" 1 ]);
  Alcotest.(check (result unit string)) "after a batch" (Ok ()) (Vm.audit vm)

(* DRed consumes set transitions *)
let dred_with_index () =
  let src =
    {|
      path(X, Y) :- link(X, Y).
      path(X, Y) :- path(X, Z), link(Z, Y).
      out_degree(X, N) :- groupby(path(X, Y), [X], N = count()).
      link(a,b). link(b,c). link(c,d). link(a,c).
    |}
  in
  let db = db_of_source src in
  let oracle = Database.copy db in
  let changes =
    Changes.deletions (Database.program db) "link" [ Tuple.of_strs [ "b"; "c" ] ]
  in
  List.iter
    (fun (pred, delta) ->
      let stored = Database.relation oracle pred in
      Relation.iter (fun tup c -> Relation.add stored tup c) delta)
    (Changes.normalize_base oracle changes);
  Seminaive.evaluate oracle;
  ignore (Dred.maintain db changes);
  check_rel ~counted:false "out_degree matches oracle" (rel oracle "out_degree")
    (rel db "out_degree")

(* a recompute drops the indexes it bypasses; later counting rebuilds them
   and stays exact *)
let recompute_invalidates () =
  let db = db_of_source aggregation_source in
  let ins t = Changes.insertions (Database.program db) "link" [ t ] in
  ignore (Counting.maintain db (ins (tup3 "e" "q" 1)));
  Ivm_baselines.Recompute.maintain db (ins (tup3 "q" "r" 2));
  ignore (Counting.maintain db (ins (tup3 "r" "s" 2)));
  check_against_seminaive "after recompute" db

let suite =
  [
    quick "build / apply_delta lifecycle" build_and_apply;
    quick "delta_preview is pure" preview_is_pure;
  ]
  @ List.concat_map
      (fun semantics ->
        List.map (reference_property semantics) [ "count"; "sum"; "min"; "max"; "avg" ])
      [ Database.Set_semantics; Database.Duplicate_semantics ]
  @ [
      quick "maintained == Seminaive (set)"
        (maintained_matches_oracle Database.Set_semantics);
      quick "maintained == Seminaive (dup)"
        (maintained_matches_oracle Database.Duplicate_semantics);
      quick "view manager integration + rule changes" view_manager_integration;
      quick "recursive-counting switch" switch_to_recursive_counting;
      quick "DRed with demand-built index" dred_with_index;
      quick "recompute invalidates indexes" recompute_invalidates;
    ]
