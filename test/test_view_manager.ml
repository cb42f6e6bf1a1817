(** The View_manager front door: algorithm selection, the update API, and
    the audit. *)

open Util
module Vm = Ivm.View_manager
module Changes = Ivm.Changes

let tc_source =
  {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- path(X, Z), link(Z, Y).
    link(a,b). link(b,c).
  |}

let hop_source = {|
  hop(X, Y) :- link(X, Z), link(Z, Y).
  link(a,b). link(b,c).
|}

let auto_resolution () =
  let vm = Vm.of_source ~algorithm:Vm.Auto hop_source in
  Alcotest.(check bool) "nonrecursive → counting" true (Vm.resolve vm = Vm.Counting);
  let vm = Vm.of_source ~algorithm:Vm.Auto tc_source in
  Alcotest.(check bool) "recursive → dred" true (Vm.resolve vm = Vm.Dred)

let algorithm_names () =
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Vm.algorithm_name a) true
        (Vm.algorithm_of_string (Vm.algorithm_name a) = Some a))
    [ Vm.Counting; Vm.Dred; Vm.Recursive_counting; Vm.Recompute; Vm.Auto ];
  Alcotest.(check bool) "unknown" true (Vm.algorithm_of_string "nope" = None)

let all_algorithms_agree () =
  (* the same update stream through every applicable algorithm ends in the
     same sets *)
  let run algorithm semantics =
    let vm = Vm.of_source ~algorithm ~semantics tc_source in
    ignore (Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ]);
    ignore (Vm.delete vm "link" [ Tuple.of_strs [ "b"; "c" ] ]);
    ignore
      (Vm.update vm "link" ~old_tuple:(Tuple.of_strs [ "a"; "b" ])
         ~new_tuple:(Tuple.of_strs [ "a"; "c" ]));
    Vm.relation vm "path"
  in
  let reference = run Vm.Recompute Database.Set_semantics in
  List.iter
    (fun (name, algorithm, semantics) ->
      let r = run algorithm semantics in
      if not (Relation.equal_sets reference r) then
        Alcotest.failf "%s: %s <> %s" name (Relation.to_string r)
          (Relation.to_string reference))
    [
      ("dred", Vm.Dred, Database.Set_semantics);
      ("auto", Vm.Auto, Database.Set_semantics);
      ("recursive-counting", Vm.Recursive_counting, Database.Duplicate_semantics);
    ]

let apply_reports_deltas () =
  let vm = Vm.of_source ~semantics:Database.Duplicate_semantics hop_source in
  let deltas = Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ] in
  match List.assoc_opt "hop" deltas with
  | Some d -> check_rel "Δhop" (rel_of_pairs "bd") d
  | None -> Alcotest.fail "expected a hop delta"

let audit_detects_corruption () =
  let vm = Vm.of_source hop_source in
  Alcotest.(check (result unit string)) "clean" (Ok ()) (Vm.audit vm);
  (* corrupt the materialization behind the manager's back *)
  Relation.add (Vm.relation vm "hop") (Tuple.of_strs [ "z"; "z" ]) 1;
  match Vm.audit vm with
  | Ok () -> Alcotest.fail "audit missed the corruption"
  | Error msg ->
    Alcotest.(check bool) "names the view" true
      (String.length msg > 0
      && String.sub msg 0 3 = "hop")

let view_deltas = Alcotest.(list (pair string relation_counted))

let recompute_mode_works () =
  let insert algorithm =
    Vm.insert (Vm.of_source ~algorithm hop_source) "link" [ Tuple.of_strs [ "c"; "d" ] ]
  in
  let vm = Vm.of_source ~algorithm:Vm.Recompute hop_source in
  let deltas = Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ] in
  Alcotest.check view_deltas "deltas equal counting's" (insert Vm.Counting) deltas;
  Alcotest.(check bool)
    "view still right" true
    (Relation.mem (Vm.relation vm "hop") (Tuple.of_strs [ "b"; "d" ]))

(* A nonrecursive program with negation and aggregation, and a seeded
   stream of mixed batches over [link]: each deletes two live edges and
   inserts two absent ones. *)
let mixed_source =
  {|
    hop(X, Y) :- link(X, Z), link(Z, Y).
    only2(X, Y) :- hop(X, Y), not link(X, Y).
    deg(X, N) :- groupby(link(X, Y), [X], N = count()).
  |}

let seeded_stream ~seed ~nodes ~steps =
  let rng = Ivm_workload.Prng.create seed in
  let live = Hashtbl.create 64 in
  let edge () =
    Tuple.of_ints [ Ivm_workload.Prng.int rng nodes; Ivm_workload.Prng.int rng nodes ]
  in
  let rec pick want acc k =
    if k = 0 then acc
    else
      let e = edge () in
      if Hashtbl.mem live e = want && not (List.mem_assoc e acc) then
        pick want ((e, if want then -1 else 1) :: acc) (k - 1)
      else pick want acc k
  in
  List.iter (fun (e, _) -> Hashtbl.replace live e ()) (pick false [] (nodes * 2));
  let initial = Hashtbl.fold (fun e () acc -> e :: acc) live [] in
  let batches =
    List.init steps (fun _ ->
        let batch = pick true [] 2 @ pick false [] 2 in
        List.iter
          (fun (e, c) ->
            if c < 0 then Hashtbl.remove live e else Hashtbl.replace live e ())
          batch;
        batch)
  in
  (initial, batches)

(* Every algorithm applies the same stream; the per-view deltas [apply]
   returns must be identical batch by batch. *)
let same_view_deltas semantics algorithms () =
  let initial, batches = seeded_stream ~seed:17 ~nodes:7 ~steps:10 in
  let run algorithm =
    let vm =
      Vm.create ~semantics ~algorithm ~facts:[ ("link", initial) ]
        (fst (Parser.split (Parser.parse_program mixed_source)))
    in
    List.map
      (fun batch -> Vm.apply vm (Changes.of_list (Vm.program vm) [ ("link", batch) ]))
      batches
  in
  let reference = run Vm.Counting in
  List.iter
    (fun algorithm ->
      List.iteri
        (fun i (want, got) ->
          Alcotest.check view_deltas
            (Printf.sprintf "%s, batch %d" (Vm.algorithm_name algorithm) i)
            want got)
        (List.combine reference (run algorithm)))
    algorithms

let recursive_counting_reports_views_only () =
  let vm =
    Vm.of_source ~algorithm:Vm.Recursive_counting
      ~semantics:Database.Duplicate_semantics tc_source
  in
  let deltas = Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ] in
  Alcotest.(check (list string)) "only the view" [ "path" ] (List.map fst deltas)

let extra_base_relations () =
  let vm =
    Vm.of_source ~extra_base:[ ("wire", 2) ]
      {|
        conn(X, Y) :- link(X, Y).
        conn(X, Y) :- wire(X, Y).
        link(a,b).
      |}
  in
  ignore (Vm.insert vm "wire" [ Tuple.of_strs [ "b"; "c" ] ]);
  check_rel ~counted:false "both sources" (rel_of_pairs "ab; bc")
    (Vm.relation vm "conn")

let empty_program () =
  let vm = Vm.of_source "" in
  Alcotest.(check (result unit string)) "empty audit" (Ok ()) (Vm.audit vm)

let suite =
  [
    quick "auto resolves per the paper's recommendation" auto_resolution;
    quick "algorithm name round trip" algorithm_names;
    quick "all algorithms agree on final state" all_algorithms_agree;
    quick "apply reports per-view deltas" apply_reports_deltas;
    quick "audit detects corruption" audit_detects_corruption;
    quick "recompute mode" recompute_mode_works;
    quick "apply: same view deltas, set semantics"
      (same_view_deltas Database.Set_semantics [ Vm.Dred; Vm.Recompute ]);
    quick "apply: same view deltas, duplicate semantics"
      (same_view_deltas Database.Duplicate_semantics
         [ Vm.Recursive_counting; Vm.Recompute ]);
    quick "apply: recursive counting reports views only"
      recursive_counting_reports_views_only;
    quick "extra base relations" extra_base_relations;
    quick "empty program" empty_program;
  ]
