(** Provenance & lineage ([Ivm_prov]): unit tests over small programs and
    randomized properties over generated stratified programs.

    The properties drive each maintenance algorithm over a seeded
    insert/delete stream with capture on and then check the store against
    the live database:

    - every [why]-tree edge re-validates: the support's rule is in the
      program and {!Ivm_prov.Prov_query.validate_support} accepts it
      against the current relations;
    - leaves are base facts (nonrecursive programs; recursive trees may
      also end at a cycle);
    - [why not] never fires for a present tuple;
    - tuples deleted by maintenance retain no supports.

    Aggregate-free shapes only: a GROUPBY subgoal is deliberately not
    expanded into children (the tree notes it instead), which would void
    the strict leaves-are-base-facts check. *)

open Util
module Prov = Ivm_prov.Prov
module Pq = Ivm_prov.Prov_query
module Json = Ivm_obs.Json
module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Rc = Ivm.Recursive_counting
module Pf = Ivm_baselines.Pf
module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Update_gen = Ivm_workload.Update_gen
module Programs = Ivm_workload.Programs
module Pretty = Ivm_datalog.Pretty

let q ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Capture is process-global state; every test flips it on for its own
   scenario and restores the disabled default. *)
let with_capture f =
  Prov.reset ();
  Prov.set_enabled true;
  Fun.protect ~finally:(fun () -> Prov.set_enabled false) f

let access_of db = Vm.provenance_access (Vm.of_database db)

let t2 a b = Tuple.of_list [ Value.Str a; Value.Str b ]

(* ------------------------------------------------------------------ *)
(* Unit tests                                                           *)
(* ------------------------------------------------------------------ *)

let hop_src =
  "hop(X, Y) :- link(X, Z), link(Z, Y).\n\
   tri(X) :- hop(X, X).\n\
   link(a, b). link(b, c). link(c, a)."

let test_why_present_tuple () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Vm.enable_provenance vm;
  let access = Vm.provenance_access vm in
  match Pq.why access "hop" (t2 "a" "c") with
  | Pq.Why_tree { t_kind = Pq.Derived { supports = [ d ]; _ }; _ } ->
    Alcotest.(check string)
      "support rule" "hop(X, Y) :- link(X, Z), link(Z, Y)." d.Pq.d_rule;
    Alcotest.(check int) "two subgoal children" 2 (List.length d.Pq.d_children);
    List.iter
      (fun c ->
        match c.Pq.t_kind with
        | Pq.Base -> ()
        | _ -> Alcotest.fail "hop child should be a base fact")
      d.Pq.d_children
  | _ -> Alcotest.fail "expected a single-support derivation tree"

let test_why_absent_and_unknown () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Vm.enable_provenance vm;
  let access = Vm.provenance_access vm in
  (match Pq.why access "hop" (t2 "a" "a") with
  | Pq.Why_tree _ -> Alcotest.fail "hop(a,a) holds?"
  | Pq.Why_absent -> ()
  | Pq.Why_unknown_pred -> Alcotest.fail "hop is known");
  match Pq.why access "nope" (t2 "a" "a") with
  | Pq.Why_unknown_pred -> ()
  | _ -> Alcotest.fail "nope should be unknown"

let test_insert_delete_lineage () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Vm.enable_provenance vm;
  (* c->b closes hop(b,b): batch 1 derives it, batch 2 deletes it *)
  ignore (Vm.insert vm "link" [ t2 "c" "b" ]);
  Alcotest.(check bool)
    "hop(b,b) present" true
    (Relation.mem (Vm.relation vm "hop") (t2 "b" "b"));
  Alcotest.(check bool)
    "hop(b,b) has supports" true
    (Prov.supports_of ~pred:"hop" (t2 "b" "b") <> []);
  ignore (Vm.delete vm "link" [ t2 "c" "b" ]);
  Alcotest.(check bool)
    "supports purged on deletion" true
    (Prov.supports_of ~pred:"hop" (t2 "b" "b") = []);
  match Prov.lineage_of ~pred:"hop" (t2 "b" "b") with
  | Some { Prov.first_derived = Some b1; last_deleted = Some b2; _ } ->
    Alcotest.(check bool) "derived before deleted" true (b1 < b2)
  | _ -> Alcotest.fail "expected full lineage for hop(b,b)"

(* Recompute commits through the same point as the incremental
   algorithms, so its batches leave the same lineage trail. *)
let test_recompute_lineage () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Recompute hop_src in
  Vm.enable_provenance vm;
  ignore (Vm.insert vm "link" [ t2 "c" "b" ]);
  Alcotest.(check bool)
    "hop(b,b) has supports" true
    (Prov.supports_of ~pred:"hop" (t2 "b" "b") <> []);
  ignore (Vm.delete vm "link" [ t2 "c" "b" ]);
  match Prov.lineage_of ~pred:"hop" (t2 "b" "b") with
  | Some { Prov.first_derived = Some b1; last_deleted = Some b2; _ } ->
    Alcotest.(check bool) "derived before deleted" true (b1 < b2)
  | _ -> Alcotest.fail "expected a Deleted transition for hop(b,b)"

let test_whynot_reports_failing_subgoal () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Vm.enable_provenance vm;
  let access = Vm.provenance_access vm in
  (match Pq.whynot access "hop" (t2 "a" "c") with
  | Pq.Whynot_present 1 -> ()
  | _ -> Alcotest.fail "hop(a,c) is present with count 1");
  (match Pq.whynot access "link" (t2 "a" "z") with
  | Pq.Whynot_base -> ()
  | _ -> Alcotest.fail "absent base fact reports Whynot_base");
  match Pq.whynot access "hop" (t2 "b" "b") with
  | Pq.Whynot_failures [ f ] ->
    Alcotest.(check int) "one of two subgoals satisfiable" 1 f.Pq.f_progress;
    Alcotest.(check int) "two body literals" 2 f.Pq.f_total;
    Alcotest.(check bool) "a failing literal is named" true (f.Pq.f_failing <> None)
  | _ -> Alcotest.fail "expected one candidate-rule failure"

let test_rule_change_refreshes_supports () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Vm.enable_provenance vm;
  Vm.add_rule_text vm "hop(X, Y) :- link(X, Y).";
  let sups = Prov.supports_of ~pred:"hop" (t2 "a" "b") in
  Alcotest.(check bool)
    "direct-rule support exists after addrule" true
    (List.exists (fun s -> s.Prov.rule = "hop(X, Y) :- link(X, Y).") sups);
  Vm.remove_rule_text vm "hop(X, Y) :- link(X, Y).";
  Alcotest.(check bool)
    "support through the removed rule is gone" true
    (List.for_all
       (fun s -> s.Prov.rule <> "hop(X, Y) :- link(X, Y).")
       (Prov.supports_of ~pred:"hop" (t2 "a" "b")));
  let access = Vm.provenance_access vm in
  match Pq.why access "hop" (t2 "a" "c") with
  | Pq.Why_tree { t_kind = Pq.Derived _; _ } -> ()
  | _ -> Alcotest.fail "hop(a,c) should re-validate after rule churn"

let test_support_bound_truncates () =
  with_capture @@ fun () ->
  let prev = Prov.max_supports () in
  Prov.set_max_supports 1;
  Fun.protect ~finally:(fun () -> Prov.set_max_supports prev) @@ fun () ->
  let vm =
    Vm.of_source ~algorithm:Vm.Counting
      "hop(X, Y) :- link(X, Y).\n\
       hop(X, Y) :- back(Y, X).\n\
       link(a, b). back(b, a)."
  in
  Vm.enable_provenance vm;
  Alcotest.(check int)
    "bound keeps one support" 1
    (List.length (Prov.supports_of ~pred:"hop" (t2 "a" "b")));
  Alcotest.(check bool)
    "tuple marked truncated" true
    (Prov.supports_truncated ~pred:"hop" (t2 "a" "b"))

let test_disabled_capture_is_inert () =
  Prov.reset ();
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Alcotest.(check bool) "capture off" false (Vm.provenance_enabled vm);
  ignore (Vm.insert vm "link" [ t2 "c" "b" ]);
  Alcotest.(check int) "nothing recorded" 0 (Prov.tuples_tracked ());
  let access = Vm.provenance_access vm in
  match Pq.why access "hop" (t2 "b" "b") with
  | Pq.Why_tree { t_kind = Pq.Unsupported; _ } -> ()
  | _ -> Alcotest.fail "present tuple without capture reports Unsupported"

let test_explain_json () =
  with_capture @@ fun () ->
  let vm = Vm.of_source ~algorithm:Vm.Counting hop_src in
  Vm.enable_provenance vm;
  (match Vm.explain_json vm "hop(a, c)" with
  | Ok doc ->
    Alcotest.(check (option string))
      "fact echoed" (Some "hop(a, c)")
      (Option.bind (Json.member "fact" doc) Json.to_string_opt);
    Alcotest.(check bool)
      "why present" true
      (Json.member "why" doc <> None)
  | Error e -> Alcotest.fail ("explain_json: " ^ e));
  (match Vm.explain_json vm "hop(b, b)." with
  | Ok doc -> Alcotest.(check bool) "whynot present" true (Json.member "whynot" doc <> None)
  | Error e -> Alcotest.fail ("explain_json absent: " ^ e));
  (match Vm.explain_json vm "nosuch(1)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown predicate must error");
  match Vm.explain_json vm "garbage(((" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse failure must error"

let test_dred_recursive_why () =
  with_capture @@ fun () ->
  let vm =
    Vm.of_source ~algorithm:Vm.Dred
      (Programs.transitive_closure ^ "\nlink(a, b). link(b, c). link(c, d).")
  in
  Vm.enable_provenance vm;
  ignore (Vm.insert vm "link" [ t2 "d" "a" ]);
  let access = Vm.provenance_access vm in
  (match Pq.why ~max_depth:32 access "path" (t2 "a" "d") with
  | Pq.Why_tree { t_kind = Pq.Derived _; _ } -> ()
  | _ -> Alcotest.fail "path(a,d) should have a derivation tree");
  ignore (Vm.delete vm "link" [ t2 "b" "c" ]);
  Alcotest.(check bool)
    "path(a,d) deleted" false
    (Relation.mem (Vm.relation vm "path") (t2 "a" "d"));
  Alcotest.(check bool)
    "deleted path tuple keeps no supports" true
    (Prov.supports_of ~pred:"path" (t2 "a" "d") = [])

(* ------------------------------------------------------------------ *)
(* Randomized properties                                                *)
(* ------------------------------------------------------------------ *)

let nodes = 10
let edges = 25
let steps = 3

(* Aggregate-free variant of the differential suite's program shapes. *)
type shape = {
  seed : int;
  union_hop : bool;
  tri : bool;
  negation : bool;
  cmp : bool;
}

let source_of s =
  let b = Buffer.create 256 in
  Buffer.add_string b "hop(X, Y) :- link(X, Z), link(Z, Y).\n";
  if s.union_hop then Buffer.add_string b "hop(X, Y) :- link(X, Y).\n";
  if s.tri || s.negation then
    Buffer.add_string b "tri(X, Y) :- hop(X, Z), link(Z, Y).\n";
  if s.negation then
    Buffer.add_string b "only_tri(X, Y) :- tri(X, Y), not hop(X, Y).\n";
  if s.cmp then Buffer.add_string b "up_hop(X, Y) :- hop(X, Y), X < Y.\n";
  Buffer.contents b

let arb_shape =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "seed=%d\n%s" s.seed (source_of s))
    QCheck.Gen.(
      map
        (fun (seed, (u, t, n, c)) ->
          { seed; union_hop = u; tri = t; negation = n; cmp = c })
        (pair (int_range 1 1_000_000) (tup4 bool bool bool bool)))

let arb_seed =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
    QCheck.Gen.(int_range 1 1_000_000)

let with_domains d f =
  let prev = Ivm_par.domains () in
  Ivm_par.set_domains d;
  Fun.protect ~finally:(fun () -> Ivm_par.set_domains prev) f

(* Walk a why tree, failing on anything that is not a validated current
   derivation ending in base facts (or, when [allow_cycle], a cycle). *)
let check_tree ~allow_cycle access root =
  let rec walk t =
    match t.Pq.t_kind with
    | Pq.Base ->
      if not (access.Pq.is_base t.Pq.t_pred) then
        failwith (Printf.sprintf "non-base leaf %s" t.Pq.t_pred);
      if not (access.Pq.holds t.Pq.t_pred t.Pq.t_tuple) then
        failwith "base leaf does not hold"
    | Pq.Cycle ->
      if not allow_cycle then failwith "cycle in a nonrecursive tree"
    | Pq.Depth_limit -> failwith "depth limit reached"
    | Pq.Unsupported ->
      failwith
        (Printf.sprintf "present tuple %s has no valid support"
           (Pq.fact_to_string t.Pq.t_pred t.Pq.t_tuple))
    | Pq.Derived { supports; _ } ->
      if supports = [] then failwith "derived node with no supports";
      List.iter
        (fun d ->
          (* the support's rule must be one of the program's own rules —
             never an internal rewrite like DRed's rederivation rules *)
          if
            not
              (List.exists
                 (fun r -> String.equal (Pretty.rule_to_string r) d.Pq.d_rule)
                 (access.Pq.rules_for t.Pq.t_pred))
          then failwith (Printf.sprintf "rule not in program: %s" d.Pq.d_rule);
          (* edge re-validation, independently of the walk itself *)
          let sup =
            {
              Prov.rule = d.Pq.d_rule;
              subgoals =
                Array.of_list
                  (List.map (fun c -> (c.Pq.t_pred, c.Pq.t_tuple)) d.Pq.d_children);
              mult = d.Pq.d_mult;
            }
          in
          if not (Pq.validate_support access t.Pq.t_pred t.Pq.t_tuple sup) then
            failwith
              (Printf.sprintf "support fails validation: %s for %s" d.Pq.d_rule
                 (Pq.fact_to_string t.Pq.t_pred t.Pq.t_tuple));
          List.iter walk d.Pq.d_children)
        supports
  in
  walk root

(** Drive one algorithm over a seeded change stream with capture on, then
    check the whole store against the final database state. *)
let scenario ~semantics ~src ~load ~evaluate ~maintain ~next ~max_depth
    ~allow_cycle seed =
  with_domains 1 @@ fun () ->
  with_capture @@ fun () ->
  let rng = Prng.create seed in
  let program = Program.make (Parser.parse_rules src) in
  let db = Database.create ~semantics program in
  Database.load db "link" (load rng);
  Prov.set_mode Prov.Add;
  evaluate db;
  let derived = Program.derived_preds program in
  (* every (pred, tuple) ever observed present, to find deletions later *)
  let seen = Hashtbl.create 64 in
  let snapshot () =
    List.iter
      (fun p ->
        Relation.iter
          (fun tup _ -> Hashtbl.replace seen (p, tup) ())
          (Database.relation db p))
      derived
  in
  snapshot ();
  for _ = 1 to steps do
    let changes = next rng db in
    Prov.batch_begin ~algorithm:"property";
    maintain db changes;
    snapshot ()
  done;
  let access = access_of db in
  List.iter
    (fun p ->
      Relation.iter
        (fun tup _ ->
          (match Pq.why ~max_depth ~max_width:16 access p tup with
          | Pq.Why_tree t -> check_tree ~allow_cycle access t
          | Pq.Why_absent | Pq.Why_unknown_pred ->
            failwith "why did not return a tree for a present tuple");
          match Pq.whynot access p tup with
          | Pq.Whynot_present _ -> ()
          | _ ->
            failwith
              (Printf.sprintf "why not fired for present %s"
                 (Pq.fact_to_string p tup)))
        (Database.relation db p))
    derived;
  Hashtbl.iter
    (fun (p, tup) () ->
      if not (Relation.mem (Database.relation db p) tup) then
        if Prov.supports_of ~pred:p tup <> [] then
          failwith
            (Printf.sprintf "deleted tuple %s retains supports"
               (Pq.fact_to_string p tup)))
    seen;
  true

let mixed_stream rng db =
  Update_gen.mixed rng db "link" ~nodes ~dels:(Prng.int rng 4)
    ~ins:(Prng.int rng 4)

let random_graph rng = Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges)

let nonrec_prop ~semantics ~maintain s =
  scenario ~semantics ~src:(source_of s) ~load:random_graph
    ~evaluate:Seminaive.evaluate ~maintain ~next:mixed_stream ~max_depth:8
    ~allow_cycle:false s.seed

let property_tests =
  [
    q ~count:40 "counting: why edges validate, leaves are base (set)" arb_shape
      (nonrec_prop ~semantics:Database.Set_semantics ~maintain:(fun db c ->
           ignore (Counting.maintain db c)));
    q ~count:25 "counting: why edges validate (duplicate counts)" arb_shape
      (nonrec_prop ~semantics:Database.Duplicate_semantics ~maintain:(fun db c ->
           ignore (Counting.maintain db c)));
    q ~count:30 "dred: why edges validate, leaves are base (nonrecursive)"
      arb_shape
      (nonrec_prop ~semantics:Database.Set_semantics ~maintain:(fun db c ->
           ignore (Dred.maintain db c)));
    q ~count:20 "pf: why edges validate, leaves are base (nonrecursive)"
      arb_shape
      (nonrec_prop ~semantics:Database.Set_semantics ~maintain:(fun db c ->
           ignore (Pf.maintain db c)));
    q ~count:20 "dred: why edges validate (recursive closure)" arb_seed
      (fun seed ->
        scenario ~semantics:Database.Set_semantics
          ~src:Programs.transitive_closure ~load:random_graph
          ~evaluate:Seminaive.evaluate
          ~maintain:(fun db c -> ignore (Dred.maintain db c))
          ~next:mixed_stream ~max_depth:64 ~allow_cycle:true seed);
    q ~count:15 "pf: why edges validate (recursive closure)" arb_seed
      (fun seed ->
        scenario ~semantics:Database.Set_semantics
          ~src:Programs.transitive_closure ~load:random_graph
          ~evaluate:Seminaive.evaluate
          ~maintain:(fun db c -> ignore (Pf.maintain db c))
          ~next:mixed_stream ~max_depth:64 ~allow_cycle:true seed);
    (* recursive counting needs acyclic data: layered DAG, deletions only *)
    q ~count:15 "recursive counting: why edges validate (DAG deletions)"
      arb_seed
      (fun seed ->
        scenario ~semantics:Database.Duplicate_semantics
          ~src:Programs.transitive_closure
          ~load:(fun rng ->
            Graph_gen.tuples
              (Graph_gen.layered_dag rng ~layers:5 ~width:4 ~out_degree:2))
          ~evaluate:Rc.evaluate
          ~maintain:(fun db c -> ignore (Rc.maintain db c))
          ~next:(fun rng db ->
            Update_gen.deletions rng db "link" (Prng.int rng 3))
          ~max_depth:64 ~allow_cycle:true seed);
  ]

let suite =
  [
    Alcotest.test_case "why: present tuple tree" `Quick test_why_present_tuple;
    Alcotest.test_case "why: absent / unknown" `Quick test_why_absent_and_unknown;
    Alcotest.test_case "insert/delete lineage" `Quick test_insert_delete_lineage;
    Alcotest.test_case "recompute: insert/delete lineage" `Quick
      test_recompute_lineage;
    Alcotest.test_case "why not: failing subgoal" `Quick
      test_whynot_reports_failing_subgoal;
    Alcotest.test_case "rule change refreshes supports" `Quick
      test_rule_change_refreshes_supports;
    Alcotest.test_case "support bound truncates" `Quick
      test_support_bound_truncates;
    Alcotest.test_case "disabled capture is inert" `Quick
      test_disabled_capture_is_inert;
    Alcotest.test_case "explain_json" `Quick test_explain_json;
    Alcotest.test_case "dred: recursive why + purge" `Quick
      test_dred_recursive_why;
  ]
  @ property_tests
