(** The incremental snapshot publisher (lib/serve/snap_pub).

    The load-bearing property: an incrementally patched published
    snapshot is indistinguishable from a fresh [Database.copy] — same
    canonical digest after every publish, across generated traces of
    batch applies, rule changes and algorithm switches, under all four
    maintenance algorithms.  Plus directed tests for the stalled-reader
    full-copy fallback (invariant 13: a pinned snapshot is never
    mutated) and the [Relation.patch] / index-free copy primitives the
    publisher is built on. *)

module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Parser = Ivm_datalog.Parser
module Database = Ivm_eval.Database
module Query = Ivm_eval.Query
module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Snap_pub = Ivm_serve.Snap_pub
module Q = QCheck

let seed_src = "hop(X,Y) :- link(X,Z), link(Z,Y)."
let extra_rule = Parser.parse_rule "far(X,Y) :- hop(X,Z), link(Z,Y)."

(* ---------------- primitives the publisher rests on ---------------- *)

let test_patch_guard () =
  let r = Relation.create 2 in
  let t = Tuple.of_ints [ 1; 2 ] in
  Relation.patch r t 3;
  Alcotest.(check int) "patched in" 3 (Relation.count r t);
  Relation.patch r t (-1);
  Alcotest.(check int) "patched down" 2 (Relation.count r t);
  Alcotest.check_raises "below zero rejected"
    (Invalid_argument
       "Relation.patch: count would go negative (2-3) for (1, 2)")
    (fun () -> Relation.patch r t (-3));
  Relation.patch r t (-2);
  Alcotest.(check int) "patched to absence" 0 (Relation.count r t)

let test_copy_without_indexes () =
  let vm = Vm.of_source ~algorithm:Vm.Counting seed_src in
  let changes =
    Changes.insertions (Vm.program vm) "link"
      [ Tuple.of_ints [ 1; 2 ]; Tuple.of_ints [ 2; 3 ]; Tuple.of_ints [ 3; 1 ] ]
  in
  ignore (Vm.apply vm changes);
  let db = Vm.database vm in
  let shadow = Database.copy ~with_indexes:false db in
  Alcotest.(check string) "digest-equal to the original"
    (Database.canonical_digest db)
    (Database.canonical_digest shadow);
  (* queries against the index-free copy rebuild indexes on demand *)
  let rows q db = Relation.to_sorted_list (Query.run_text db q).Query.rows in
  Alcotest.(check bool) "query answers match" true
    (rows "hop(X, Y)" db = rows "hop(X, Y)" shadow)

(* ---------------- the publish-equivalence property ---------------- *)

type op =
  | Apply of (bool * int * int) list  (** (insert?, x, y) over link *)
  | Rule_toggle  (** add [extra_rule] if absent, remove it if present *)
  | Algo of Vm.algorithm

type scenario = { duplicate : bool; algo : Vm.algorithm; ops : op list }

let algo_pool duplicate =
  if duplicate then [ Vm.Counting; Vm.Recursive_counting; Vm.Recompute ]
  else [ Vm.Counting; Vm.Dred; Vm.Recompute ]

let gen_scenario =
  let open Q.Gen in
  bool >>= fun duplicate ->
  let algos = algo_pool duplicate in
  oneofl algos >>= fun algo ->
  let gen_entry =
    frequencyl [ (7, true); (3, false) ] >>= fun ins ->
    int_range 0 5 >>= fun x ->
    int_range 0 5 >|= fun y -> (ins, x, y)
  in
  let gen_op =
    frequency
      [
        (7, list_size (int_range 1 8) gen_entry >|= fun es -> Apply es);
        (2, return Rule_toggle);
        (2, oneofl algos >|= fun a -> Algo a);
      ]
  in
  list_size (int_range 3 12) gen_op >|= fun ops -> { duplicate; algo; ops }

let print_scenario s =
  let op = function
    | Apply es ->
      Printf.sprintf "apply[%s]"
        (String.concat ";"
           (List.map
              (fun (ins, x, y) ->
                Printf.sprintf "%c(%d,%d)" (if ins then '+' else '-') x y)
              es))
    | Rule_toggle -> "rule-toggle"
    | Algo a -> "algo:" ^ Vm.algorithm_name a
  in
  Printf.sprintf "{dup=%b; algo=%s; [%s]}" s.duplicate
    (Vm.algorithm_name s.algo)
    (String.concat " " (List.map op s.ops))

(** Run one scenario, publishing after every mutation and requiring the
    published snapshot to digest-equal a fresh [Database.copy] of the
    live database.  Generated deletes are clamped to valid ones against
    a running count map, so every batch is well-formed. *)
let run_scenario (s : scenario) : bool =
  let semantics =
    if s.duplicate then Database.Duplicate_semantics
    else Database.Set_semantics
  in
  let vm = Vm.of_source ~semantics ~algorithm:s.algo seed_src in
  let pub = Snap_pub.create ~readers:2 vm in
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let has_extra = ref false in
  let check_pub what =
    let got = Database.canonical_digest (Snap_pub.current pub) in
    let want = Database.canonical_digest (Database.copy (Vm.database vm)) in
    if got <> want then
      Q.Test.fail_reportf "after %s: published %s, fresh copy %s" what got want
  in
  List.iter
    (fun op ->
      match op with
      | Apply entries ->
        let entries =
          List.filter_map
            (fun (ins, x, y) ->
              let c = Option.value ~default:0 (Hashtbl.find_opt counts (x, y)) in
              if ins then begin
                Hashtbl.replace counts (x, y) (c + 1);
                Some (Tuple.of_ints [ x; y ], 1)
              end
              else if c > 0 then begin
                Hashtbl.replace counts (x, y) (c - 1);
                Some (Tuple.of_ints [ x; y ], -1)
              end
              else None)
            entries
        in
        if entries <> [] then begin
          let changes = Changes.of_list (Vm.program vm) [ ("link", entries) ] in
          let track = Changes.collector () in
          (match Vm.apply_group ~track vm [ changes ] with
          | [ Ok _ ] -> ()
          | [ Error e ] -> Q.Test.fail_reportf "apply_group failed: %s" e
          | _ -> assert false);
          ignore (Snap_pub.publish ~track pub : Snap_pub.mode);
          check_pub "apply"
        end
      | Rule_toggle ->
        if !has_extra then Vm.remove_rule vm extra_rule
        else Vm.add_rule vm extra_rule;
        has_extra := not !has_extra;
        (* untracked: the publisher must detect the resnapshot and
           full-copy *)
        ignore (Snap_pub.publish pub : Snap_pub.mode);
        check_pub "rule change"
      | Algo a ->
        Vm.set_algorithm vm a;
        ignore (Snap_pub.publish pub : Snap_pub.mode);
        check_pub "set_algorithm")
    s.ops;
  let st = Snap_pub.stats pub in
  st.Snap_pub.publishes = st.Snap_pub.incremental + st.Snap_pub.full_copies

let test_publish_equivalence () =
  let cell =
    Q.Test.make_cell ~count:220 ~name:"snap_pub publish equivalence"
      (Q.make ~print:print_scenario gen_scenario)
      run_scenario
  in
  match
    Q.TestResult.get_state
      (Q.Test.check_cell ~rand:(Random.State.make [| 0xD1CE |]) cell)
  with
  | Q.TestResult.Success -> ()
  | Q.TestResult.Failed { instances = c :: _ } ->
    Alcotest.failf "publish equivalence failed on %s\n%s"
      (print_scenario c.Q.TestResult.instance)
      (String.concat "\n" c.Q.TestResult.msg_l)
  | Q.TestResult.Failed { instances = [] } ->
    Alcotest.fail "publish equivalence failed without a counterexample"
  | Q.TestResult.Failed_other { msg } -> Alcotest.fail msg
  | Q.TestResult.Error { exn; instance; _ } ->
    Alcotest.failf "publish equivalence raised %s on %s"
      (Printexc.to_string exn)
      (print_scenario instance.Q.TestResult.instance)

(* ---------------- stalled reader: bounded wait, fallback ------------ *)

let test_stalled_reader_fallback () =
  let vm = Vm.of_source ~algorithm:Vm.Counting seed_src in
  let pub = Snap_pub.create ~max_wait_s:0.01 ~readers:1 vm in
  let apply xs =
    let changes =
      Changes.of_list (Vm.program vm)
        [ ("link", List.map (fun (x, y) -> (Tuple.of_ints [ x; y ], 1)) xs) ]
    in
    let track = Changes.collector () in
    (match Vm.apply_group ~track vm [ changes ] with
    | [ Ok _ ] -> ()
    | _ -> Alcotest.fail "apply_group failed");
    Snap_pub.publish ~track pub
  in
  (* a reader pins the initial snapshot and never releases *)
  let pinned = Snap_pub.acquire pub ~reader:0 in
  let d0 = Database.canonical_digest pinned in
  let m1 = apply [ (1, 2) ] in
  Alcotest.(check string) "first publish patches the free spare"
    "incremental" (Snap_pub.mode_name m1);
  (* the retired buffer is now pinned by reader 0: the next publish must
     give up after max_wait_s and full-copy instead of mutating it *)
  let m2 = apply [ (2, 3) ] in
  Alcotest.(check string) "second publish falls back" "full_fallback"
    (Snap_pub.mode_name m2);
  let st = Snap_pub.stats pub in
  Alcotest.(check bool) "stalled fallback counted" true
    (st.Snap_pub.full_stalled >= 1);
  Alcotest.(check int) "reader lag grows" 2 (Snap_pub.reader_lag pub 0);
  (* invariant 13: the snapshot the reader pinned was never mutated *)
  Alcotest.(check string) "pinned snapshot unchanged" d0
    (Database.canonical_digest pinned);
  Snap_pub.release pub ~reader:0;
  Alcotest.(check int) "idle reader has no lag" 0 (Snap_pub.reader_lag pub 0);
  ignore (apply [ (3, 4) ] : Snap_pub.mode);
  Alcotest.(check string) "published tracks live after release"
    (Database.canonical_digest (Vm.database vm))
    (Database.canonical_digest (Snap_pub.current pub))

(* ---------------- recompute commits like every algorithm ---------- *)

let test_recompute_publishes_incrementally () =
  let vm = Vm.of_source ~algorithm:Vm.Recompute seed_src in
  let pub = Snap_pub.create ~readers:1 vm in
  let group entries =
    let changes =
      Changes.of_list (Vm.program vm)
        [ ("link", List.map (fun (x, y, c) -> (Tuple.of_ints [ x; y ], c)) entries) ]
    in
    let track = Changes.collector () in
    (match Vm.apply_group ~track vm [ changes ] with
    | [ Ok _ ] -> ()
    | _ -> Alcotest.fail "apply_group failed");
    Alcotest.(check string) "tracked group publishes by patching" "incremental"
      (Snap_pub.mode_name (Snap_pub.publish ~track pub));
    Alcotest.(check string) "published equals live"
      (Database.canonical_digest (Vm.database vm))
      (Database.canonical_digest (Snap_pub.current pub))
  in
  group [ (1, 2, 1); (2, 3, 1); (3, 1, 1) ];
  group [ (2, 3, -1); (3, 4, 1) ];
  Alcotest.(check int) "no full copies" 0 (Snap_pub.stats pub).Snap_pub.full_copies

(* ---------------- GROUPBY views publish by patching ---------------- *)

(** A MIN aggregate maintained through its accumulator index still
    publishes by patching tuple counts: the shadows carry no aggregate
    index, so a tracked group is fully described by its net changes. *)
let test_groupby_publishes_incrementally () =
  let vm = Vm.of_source ~algorithm:Vm.Counting Ivm_workload.Programs.min_cost_hop in
  let pub = Snap_pub.create ~readers:1 vm in
  let group entries =
    let changes =
      Changes.of_list (Vm.program vm)
        [ ("link", List.map (fun (x, y, w, c) -> (Tuple.of_ints [ x; y; w ], c)) entries) ]
    in
    let track = Changes.collector () in
    (match Vm.apply_group ~track vm [ changes ] with
    | [ Ok _ ] -> ()
    | _ -> Alcotest.fail "apply_group failed");
    Alcotest.(check string) "tracked group publishes by patching" "incremental"
      (Snap_pub.mode_name (Snap_pub.publish ~track pub));
    Alcotest.(check string) "published equals live"
      (Database.canonical_digest (Vm.database vm))
      (Database.canonical_digest (Snap_pub.current pub))
  in
  group [ (1, 2, 5, 1); (2, 3, 4, 1); (1, 4, 1, 1); (4, 3, 1, 1) ];
  group [ (4, 3, 1, -1); (4, 3, 7, 1) ];
  group [ (1, 4, 1, -1) ];
  Alcotest.(check bool) "the MIN view is populated" true
    (Relation.cardinal (Vm.relation vm "min_cost_hop") > 0);
  Alcotest.(check int) "no full copies" 0 (Snap_pub.stats pub).Snap_pub.full_copies

let suite =
  [
    Alcotest.test_case "Relation.patch guards negative counts" `Quick
      test_patch_guard;
    Alcotest.test_case "copy ~with_indexes:false rebuilds on demand" `Quick
      test_copy_without_indexes;
    Alcotest.test_case "publish equivalence (220 generated traces)" `Quick
      test_publish_equivalence;
    Alcotest.test_case "stalled reader triggers counted full-copy fallback"
      `Quick test_stalled_reader_fallback;
    Alcotest.test_case "recompute publishes incrementally" `Quick
      test_recompute_publishes_incrementally;
    Alcotest.test_case "GROUPBY view publishes incrementally" `Quick
      test_groupby_publishes_incrementally;
  ]
