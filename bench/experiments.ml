(** One experiment per quantitative claim / worked example of the paper.
    Each prints a table (the rows EXPERIMENTS.md records) plus a verdict
    line stating whether the paper's claimed shape holds.  See DESIGN.md
    §4 for the experiment ↔ paper-section mapping. *)

open Harness
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Recursive_counting = Ivm.Recursive_counting
module Rule_changes = Ivm.Rule_changes
module Vm = Ivm.View_manager
module Store = Ivm_store.Store
module Recompute = Ivm_baselines.Recompute
module Pf = Ivm_baselines.Pf
module Rule_eval = Ivm_eval.Rule_eval
module Relation_view = Ivm_relation.Relation_view
module Compile = Ivm_eval.Compile
module Grouping = Ivm_eval.Grouping
module Agg_index = Ivm_eval.Agg_index

(* =================================================================== *)
(* E1 — counting vs recomputation (§1, §4)                              *)
(* =================================================================== *)

let e1 () =
  print_header "E1: counting vs full recomputation (hop & tri_hop)"
    "incremental maintenance beats recomputation; the gap grows with |base|/|Δ|";
  let rows = ref [] in
  let all_faster = ref true in
  List.iter
    (fun (edges, nodes) ->
      let db0, rng =
        graph_db ~src:Programs.hop_tri_hop ~seed:11 ~nodes ~edges ()
      in
      warm db0 `Counting;
      List.iter
        (fun n_delta ->
          let changes =
            Update_gen.mixed rng db0 "link" ~nodes ~dels:(n_delta / 2)
              ~ins:(n_delta - (n_delta / 2))
          in
          let t_inc =
            median_time ~repeat:3
              ~setup:(fun () -> Database.copy db0)
              (fun db -> ignore (Counting.maintain db changes))
          in
          let t_re =
            median_time ~repeat:3
              ~setup:(fun () -> Database.copy db0)
              (fun db -> Recompute.maintain db changes)
          in
          if t_inc >= t_re then all_faster := false;
          rows :=
            [
              fmt_int edges; fmt_int n_delta; fmt_time t_inc; fmt_time t_re;
              fmt_ratio (t_re /. t_inc);
            ]
            :: !rows)
        [ 1; 10; 100 ])
    [ (1000, 200); (4000, 800); (10000, 2000) ];
  (* heavy-tailed fan-out: hubs make hop quadratic in hub degree — the
     regime where incrementality matters most *)
  let db_sf =
    let rng = Prng.create 13 in
    let program = Program.make (Parser.parse_rules Programs.hop_tri_hop) in
    let db = Database.create program in
    Database.load db "link"
      (Graph_gen.tuples (Graph_gen.scale_free rng ~nodes:1500 ~attach:2));
    Seminaive.evaluate db;
    db
  in
  warm db_sf `Counting;
  let rng_sf = Prng.create 17 in
  List.iter
    (fun n_delta ->
      let changes =
        Update_gen.mixed rng_sf db_sf "link" ~nodes:1500 ~dels:(n_delta / 2)
          ~ins:(n_delta - (n_delta / 2))
      in
      let t_inc =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db_sf)
          (fun db -> ignore (Counting.maintain db changes))
      in
      let t_re =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db_sf)
          (fun db -> Recompute.maintain db changes)
      in
      if t_inc >= t_re then all_faster := false;
      rows :=
        [ "scale-free"; fmt_int n_delta; fmt_time t_inc; fmt_time t_re;
          fmt_ratio (t_re /. t_inc) ]
        :: !rows)
    [ 1; 10 ];
  print_table
    [ "|link|"; "|Δ|"; "counting"; "recompute"; "speedup" ]
    (List.rev !rows);
  verdict !all_faster "counting beats recomputation at every point of the sweep"

(* =================================================================== *)
(* E2 — count tracking is (almost) free (§5)                            *)
(* =================================================================== *)

(* Evaluate the hop join over the same data twice: once maintaining
   derivation counts, once discarding them (set-style emit).  Both must
   enumerate every derivation; the only difference is the count upkeep. *)
let e2 () =
  print_header "E2: overhead of computing counts"
    "\"counts can be computed at little or no cost above the cost of evaluating the view\" (§5)";
  let rows = ref [] in
  let max_ratio = ref 0. in
  List.iter
    (fun (edges, nodes) ->
      let rng = Prng.create 7 in
      let program = Program.make (Parser.parse_rules Programs.hop) in
      let db = Database.create program in
      Database.load db "link"
        (Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges));
      let rule = List.hd (Program.rules program) in
      let cr = Ivm_eval.Compile.compile rule in
      let inputs _ =
        Rule_eval.Enumerate
          (Database.view db "link", Rule_eval.identity_count)
      in
      let eval emit =
        let out = Relation.create 2 in
        Rule_eval.eval ~inputs ~emit:(emit out) cr;
        out
      in
      let with_counts () = eval (fun out tup c -> Relation.add out tup c) in
      let without_counts () = eval (fun out tup _ -> Relation.set_count out tup 1) in
      (* interleave the two variants to decorrelate GC/cache drift *)
      let samples_with = ref [] and samples_without = ref [] in
      for _ = 1 to 9 do
        let t, _ = timed (fun () -> ignore (with_counts ())) in
        samples_with := t :: !samples_with;
        let t, _ = timed (fun () -> ignore (without_counts ())) in
        samples_without := t :: !samples_without
      done;
      let median l = List.nth (List.sort compare l) (List.length l / 2) in
      let t_with = median !samples_with in
      let t_without = median !samples_without in
      let ratio = t_with /. t_without in
      if ratio > !max_ratio then max_ratio := ratio;
      rows :=
        [ fmt_int edges; fmt_time t_without; fmt_time t_with;
          Printf.sprintf "%.2fx" ratio ]
        :: !rows)
    [ (2000, 300); (8000, 800); (20000, 2000) ];
  print_table
    [ "|link|"; "eval w/o counts"; "eval with counts"; "overhead" ]
    (List.rev !rows);
  verdict (!max_ratio < 1.5)
    (Printf.sprintf "worst-case count-tracking overhead %.2fx (claim: ~1x)" !max_ratio)

(* =================================================================== *)
(* E3 — optimality: exactly the changed tuples (§1, Thm 4.1)            *)
(* =================================================================== *)

let e3 () =
  print_header "E3: optimality of the counting algorithm"
    "\"it computes exactly those view tuples that are inserted or deleted\" (§1)";
  let rows = ref [] in
  let tight = ref true in
  List.iter
    (fun n_delta ->
      let db0, rng = graph_db ~src:Programs.hop_tri_hop ~seed:23 ~nodes:500 ~edges:4000 () in
      warm db0 `Counting;
      let changes =
        Update_gen.mixed rng db0 "link" ~nodes:500 ~dels:(n_delta / 2)
          ~ins:(n_delta - (n_delta / 2))
      in
      let db = Database.copy db0 in
      Stats.reset ();
      let report = Counting.maintain db changes in
      let derivs = Stats.derivations () in
      let changed =
        List.fold_left
          (fun acc (_, d) -> acc + Relation.fold (fun _ c a -> a + abs c) d 0)
          0 report.Counting.view_deltas
      in
      let ratio = float_of_int derivs /. float_of_int (max 1 changed) in
      if ratio > 2.5 then tight := false;
      rows :=
        [ fmt_int n_delta; fmt_int changed; fmt_int derivs;
          Printf.sprintf "%.2f" ratio ]
        :: !rows)
    [ 1; 10; 100; 500 ];
  print_table
    [ "|Δbase|"; "Σ|Δviews| (derivation changes)"; "derivations computed";
      "work/change" ]
    (List.rev !rows);
  verdict !tight
    "derivations computed track the number of actual view changes (small constant)"

(* =================================================================== *)
(* E4 — the set-semantics optimization stops cascades (§5.1, Ex 5.1)    *)
(* =================================================================== *)

let e4_src =
  {|
    reach2(X, Y) :- link(X, Z), link(Z, Y).
    reach4(X, Y) :- reach2(X, Z), reach2(Z, Y).
    reach8(X, Y) :- reach4(X, Z), reach4(Z, Y).
  |}

let e4 () =
  print_header "E4: boxed statement (2) — set semantics stops propagation"
    "a deletion leaving alternative derivations does not cascade to higher strata (Ex 5.1)";
  let rows = ref [] in
  let ok = ref true in
  List.iter
    (fun out_degree ->
      let mk semantics =
        let db, _rng =
          layered_db ~semantics ~src:e4_src ~seed:5 ~layers:9 ~width:8
            ~out_degree ()
        in
        db
      in
      let victim db =
        (* deterministic victim: smallest stored link edge *)
        let stored = Database.relation db "link" in
        let all = Relation.fold (fun t _ acc -> t :: acc) stored [] in
        List.hd (List.sort Tuple.compare all)
      in
      let run semantics =
        let db = mk semantics in
        let changes =
          Changes.deletions (Database.program db) "link" [ victim db ]
        in
        Stats.reset ();
        let report = Counting.maintain db changes in
        let cascaded =
          List.length
            (match Database.semantics db with
            | Database.Set_semantics -> report.Counting.propagated_deltas
            | Database.Duplicate_semantics -> report.Counting.view_deltas)
        in
        (Stats.derivations (), cascaded)
      in
      let dup_derivs, dup_casc = run Database.Duplicate_semantics in
      let set_derivs, set_casc = run Database.Set_semantics in
      if out_degree >= 3 && set_derivs >= dup_derivs then ok := false;
      rows :=
        [
          fmt_int out_degree;
          fmt_int dup_derivs; fmt_int dup_casc;
          fmt_int set_derivs; fmt_int set_casc;
        ]
        :: !rows)
    [ 1; 2; 3; 4 ];
  print_table
    [ "out-degree"; "dup: derivations"; "dup: strata w/ Δ";
      "set: derivations"; "set: strata w/ Δ" ]
    (List.rev !rows);
  verdict !ok
    "with alternative derivations (degree ≥ 3) the set-mode cascade is cheaper and shallower"

(* =================================================================== *)
(* E5 — DRed vs recomputation on transitive closure (§7)                *)
(* =================================================================== *)

let e5 () =
  print_header "E5: DRed vs recomputation (transitive closure)"
    "DRed maintains recursive views far cheaper than recomputation when the \
     change's impact is bounded (§7); §1's inertia caveat applies when it is not";
  let rows = ref [] in
  let ok = ref true in
  let run_case label db0 rng ks ~expect_win =
    List.iter
      (fun k ->
        let changes = Update_gen.deletions rng db0 "link" k in
        let impact =
          let db = Database.copy db0 in
          let report = Dred.maintain db changes in
          List.fold_left
            (fun acc (_, d) -> acc + Relation.cardinal d)
            0 report.Dred.view_deltas
        in
        let t_dred =
          median_time ~repeat:3
            ~setup:(fun () -> Database.copy db0)
            (fun db -> ignore (Dred.maintain db changes))
        in
        let t_re =
          median_time ~repeat:3
            ~setup:(fun () -> Database.copy db0)
            (fun db -> Recompute.maintain db changes)
        in
        if expect_win && k <= 5 && t_dred >= t_re then ok := false;
        rows :=
          [
            label; fmt_int k; fmt_int impact; fmt_time t_dred; fmt_time t_re;
            fmt_ratio (t_re /. t_dred);
          ]
          :: !rows)
      ks
  in
  (* Controlled impact: a deep layered DAG; edges deleted from the last
     inter-layer band invalidate few paths, edges from the first band
     invalidate many — §1's heuristic of inertia made measurable. *)
  let mk_dag () =
    layered_db ~src:Programs.transitive_closure ~seed:31 ~layers:14 ~width:12
      ~out_degree:2 ()
  in
  let db_dag, _ = mk_dag () in
  warm db_dag `Dred;
  let band_edges db ~layer ~width =
    Relation.fold
      (fun t _ acc ->
        match Tuple.get t 0 with
        | Value.Int src when src / width = layer -> t :: acc
        | _ -> acc)
      (Database.relation db "link")
      []
    |> List.sort Tuple.compare
  in
  let take k xs = List.filteri (fun i _ -> i < k) xs in
  let run_band label ~layer ks =
    List.iter
      (fun (k, expect_win) ->
        let victims = take k (band_edges db_dag ~layer ~width:12) in
        let changes = Changes.deletions (Database.program db_dag) "link" victims in
        let impact =
          let db = Database.copy db_dag in
          let report = Dred.maintain db changes in
          List.fold_left
            (fun acc (_, d) -> acc + Relation.cardinal d)
            0 report.Dred.view_deltas
        in
        let t_dred =
          median_time ~repeat:3
            ~setup:(fun () -> Database.copy db_dag)
            (fun db -> ignore (Dred.maintain db changes))
        in
        let t_re =
          median_time ~repeat:3
            ~setup:(fun () -> Database.copy db_dag)
            (fun db -> Recompute.maintain db changes)
        in
        if expect_win && t_dred >= t_re then ok := false;
        rows :=
          [
            label; fmt_int k; fmt_int impact; fmt_time t_dred; fmt_time t_re;
            fmt_ratio (t_re /. t_dred);
          ]
          :: !rows)
      ks
  in
  run_band "leaf band (bounded impact)" ~layer:12
    [ (1, true); (4, true); (16, false) ];
  run_band "root band (wide impact)" ~layer:0 [ (4, false) ];
  (* worst case, reported but not claimed: a dense strongly connected graph,
     where one deletion's overestimate covers almost the whole view *)
  let db_dense, rng_dense =
    graph_db ~src:Programs.transitive_closure ~seed:35 ~nodes:100 ~edges:200 ()
  in
  warm db_dense `Dred;
  run_case "dense cyclic 100/200 (worst case)" db_dense rng_dense [ 1 ]
    ~expect_win:false;
  print_table
    [ "graph"; "|Δ⁻|"; "|Δpath|"; "DRed"; "recompute"; "speedup" ]
    (List.rev !rows);
  verdict !ok
    "DRed wins when deletions have bounded impact; on a dense SCC the \
     overestimate approaches the full view and recomputation wins (§1's caveat)"

(* =================================================================== *)
(* E6 — DRed vs PF: fragmentation costs an order of magnitude (§2)      *)
(* =================================================================== *)

let e6 () =
  print_header "E6: DRed vs Propagation/Filtration (PF)"
    "PF \"fragments computation, can rederive ... again and again, and can be worse ... by an order of magnitude\" (§2)";
  let rows = ref [] in
  let max_ratio = ref 0. in
  (* A root with [spokes] parallel 2-edge routes into a hub above a long
     chain.  Deleting the root's spoke edges one at a time (PF) overdeletes
     every root→downstream path and rederives it — per pass, since the
     surviving spokes still support them — while DRed handles the batch
     with a single overestimate + rederivation.  This is the paper's
     "can rederive changed and deleted tuples again and again". *)
  let spokes = 16 and chain_len = 120 in
  let build () =
    let program = Program.make (Parser.parse_rules Programs.transitive_closure) in
    let db = Database.create program in
    let root = 0 and hub = spokes + 1 in
    let edges =
      List.concat
        [
          List.init spokes (fun i -> (root, i + 1));
          List.init spokes (fun i -> (i + 1, hub));
          List.init chain_len (fun i -> (hub + i, hub + i + 1));
        ]
    in
    Database.load db "link" (Graph_gen.tuples edges);
    Seminaive.evaluate db;
    db
  in
  let db0 = build () in
  warm db0 `Dred;
  List.iter
    (fun k ->
      let victims = List.init k (fun i -> Tuple.of_ints [ 0; i + 1 ]) in
      let changes = Changes.deletions (Database.program db0) "link" victims in
      let t_dred, w_dred =
        time_and_work ~setup:(fun () -> Database.copy db0) (fun db ->
            ignore (Dred.maintain db changes))
      in
      let t_pf, w_pf =
        time_and_work ~setup:(fun () -> Database.copy db0) (fun db ->
            ignore (Pf.maintain db changes))
      in
      let ratio = float_of_int w_pf /. float_of_int (max 1 w_dred) in
      if ratio > !max_ratio then max_ratio := ratio;
      rows :=
        [
          fmt_int k; fmt_int w_dred; fmt_int w_pf;
          Printf.sprintf "%.1fx" ratio; fmt_time t_dred; fmt_time t_pf;
        ]
        :: !rows)
    [ 2; 4; 8; 16 ];
  print_table
    [ "|Δ⁻|"; "DRed derivations"; "PF derivations"; "work ratio"; "DRed time";
      "PF time" ]
    (List.rev !rows);
  verdict
    (!max_ratio >= 5.

)
    (Printf.sprintf
       "PF's fragmented rederivation costs up to %.0fx DRed's work (paper: order of magnitude)"
       !max_ratio)

(* =================================================================== *)
(* E7 — counting vs DRed on nonrecursive views (§7)                     *)
(* =================================================================== *)

let e7 () =
  print_header "E7: counting vs DRed on nonrecursive views"
    "\"DRed can be used for nonrecursive views also but it is less efficient than counting\" (§7/§8)";
  let rows = ref [] in
  let ok = ref true in
  List.iter
    (fun k ->
      let db0, rng =
        graph_db ~src:Programs.hop_tri_hop ~seed:41 ~nodes:400 ~edges:2400 ()
      in
      warm db0 `Counting;
      warm db0 `Dred;
      let changes = Update_gen.deletions rng db0 "link" k in
      let t_cnt, w_cnt =
        time_and_work ~setup:(fun () -> Database.copy db0) (fun db ->
            ignore (Counting.maintain db changes))
      in
      let t_dred, w_dred =
        time_and_work ~setup:(fun () -> Database.copy db0) (fun db ->
            ignore (Dred.maintain db changes))
      in
      if w_cnt > w_dred then ok := false;
      rows :=
        [
          fmt_int k; fmt_time t_cnt; fmt_int w_cnt; fmt_time t_dred;
          fmt_int w_dred;
        ]
        :: !rows)
    [ 1; 10; 50 ];
  print_table
    [ "|Δ⁻|"; "counting time"; "counting derivs"; "DRed time"; "DRed derivs" ]
    (List.rev !rows);
  verdict !ok
    "counting does no more work than DRed's delete+rederive on nonrecursive views"

(* =================================================================== *)
(* E8 — aggregate views touch only changed groups (§6.2, Alg 6.1)       *)
(* =================================================================== *)

(* The program's one GROUPBY subgoal, compiled. *)
let groupby_spec program =
  Option.get
    (List.find_map
       (fun rule ->
         List.find_map
           (function
             | Ivm_datalog.Ast.Lagg agg -> Some (Compile.compile_agg_spec agg)
             | _ -> None)
           rule.Ivm_datalog.Ast.body)
       (Program.rules program))

let e8 () =
  print_header "E8: aggregation — only changed groups are recomputed"
    "Algorithm 6.1 recomputes the aggregate tuple only for groups occurring in Δ(U)";
  let rows = ref [] in
  let ok = ref true in
  List.iter
    (fun k ->
      let db0, rng =
        costed_graph_db ~src:Programs.min_cost_hop ~seed:53 ~nodes:200
          ~edges:2000 ~max_cost:50 ()
      in
      warm db0 `Counting;
      let total_groups = Relation.cardinal (Database.relation db0 "min_cost_hop") in
      (* k fresh costed edges *)
      let stored = Database.relation db0 "link" in
      let rec fresh k acc =
        if k = 0 then acc
        else
          let t =
            Tuple.make
              [| Value.Int (Prng.int rng 200); Value.Int (Prng.int rng 200);
                 Value.Int (1 + Prng.int rng 50) |]
          in
          if Relation.mem stored t then fresh k acc else fresh (k - 1) (t :: acc)
      in
      let changes =
        Changes.insertions (Database.program db0) "link" (fresh k [])
      in
      let t_inc =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db0)
          (fun db -> ignore (Counting.maintain db changes))
      in
      (* Δ(T) alone for the same Δ(hop): Algorithm 6.1 as the paper states
         it (re-scan each touched group in the old and new hop) against
         the [DAJ91] accumulator index maintenance reads it from *)
      let after = Database.copy db0 in
      let delta_hop =
        List.assoc "hop" (Counting.maintain after changes).Counting.propagated_deltas
      in
      let spec = groupby_spec (Database.program db0) in
      let idx = Database.agg_index db0 spec in
      let rescan () =
        Grouping.delta ~mult:(Database.mult_for db0 "hop")
          ~old_view:(Database.view db0 "hop") ~new_view:(Database.view after "hop")
          ~delta_u:delta_hop spec
      in
      let accumulate () = Agg_index.delta_preview idx delta_hop in
      (* the untimed first call also builds hop's group-key index *)
      if not (Relation.equal_counted (rescan ()) (accumulate ())) then ok := false;
      let t_rescan = median_time ~repeat:3 ~setup:ignore rescan in
      let t_acc = median_time ~repeat:3 ~setup:ignore accumulate in
      let t_re =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db0)
          (fun db -> Recompute.maintain db changes)
      in
      if t_inc >= t_re then ok := false;
      rows :=
        [
          fmt_int k; fmt_int (Relation.cardinal delta_hop); fmt_int total_groups;
          fmt_time t_rescan; fmt_time t_acc; fmt_time t_inc; fmt_time t_re;
          fmt_ratio (t_re /. t_inc);
        ]
        :: !rows)
    [ 1; 10; 50 ];
  print_table
    [ "|Δlink|"; "|Δhop|"; "groups in view"; "Δ(T) re-scan (Alg 6.1)";
      "Δ(T) accumulators"; "counting"; "recompute"; "speedup" ]
    (List.rev !rows);
  verdict !ok
    "maintaining MIN per touched group beats recomputing every group; \
     both Δ(T) paths agree"


(* =================================================================== *)
(* E9 — the heuristic of inertia has a crossover (§1)                   *)
(* =================================================================== *)

let e9 () =
  print_header "E9: the crossover of the heuristic of inertia"
    "\"if an entire base relation is deleted, it may be cheaper to recompute the view\" (§1)";
  let db0, rng = graph_db ~src:Programs.hop ~seed:61 ~nodes:400 ~edges:4000 () in
  warm db0 `Counting;
  let all_edges =
    Relation.fold (fun t _ acc -> t :: acc) (Database.relation db0 "link") []
  in
  let n = List.length all_edges in
  let rows = ref [] in
  let crossover = ref None in
  List.iter
    (fun percent ->
      let k = max 1 (n * percent / 100) in
      let victims = Prng.sample rng k all_edges in
      let changes = Changes.deletions (Database.program db0) "link" victims in
      let t_inc =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db0)
          (fun db -> ignore (Counting.maintain db changes))
      in
      let t_re =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db0)
          (fun db -> Recompute.maintain db changes)
      in
      if t_inc > t_re && !crossover = None then crossover := Some percent;
      rows :=
        [
          Printf.sprintf "%d%%" percent; fmt_time t_inc; fmt_time t_re;
          (if t_inc < t_re then "incremental" else "recompute");
        ]
        :: !rows)
    [ 1; 5; 20; 50; 80; 100 ];
  print_table
    [ "deleted fraction"; "counting"; "recompute"; "winner" ]
    (List.rev !rows);
  match !crossover with
  | Some p ->
    verdict true
      (Printf.sprintf
         "incremental wins for small changes; recomputation takes over around %d%% deleted"
         p)
  | None ->
    verdict true
      "incremental won everywhere up to 100% on this workload (inertia very strong)"

(* =================================================================== *)
(* E10 — negation views maintained incrementally (§6.1, Ex 6.1)         *)
(* =================================================================== *)

let e10 () =
  print_header "E10: negation (only_tri_hop)"
    "Δ(¬Q) computed from Δ(Q), Q, Qν alone (Def 6.1); the delta stays first in the join order";
  let rows = ref [] in
  let ok = ref true in
  List.iter
    (fun k ->
      let db0, rng =
        graph_db ~semantics:Database.Duplicate_semantics
          ~src:Programs.only_tri_hop ~seed:71 ~nodes:80 ~edges:400 ()
      in
      warm db0 `Counting;
      let changes = Update_gen.mixed rng db0 "link" ~nodes:80 ~dels:k ~ins:k in
      let t_inc =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db0)
          (fun db -> ignore (Counting.maintain db changes))
      in
      let t_re =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db0)
          (fun db -> Recompute.maintain db changes)
      in
      (* correctness spot check *)
      let db = Database.copy db0 in
      ignore (Counting.maintain db changes);
      let oracle = Database.copy db0 in
      Recompute.maintain oracle changes;
      let exact =
        Relation.equal_counted
          (Database.relation db "only_tri_hop")
          (Database.relation oracle "only_tri_hop")
      in
      if (not exact) || (k <= 5 && t_inc >= t_re) then ok := false;
      rows :=
        [
          fmt_int (2 * k); fmt_time t_inc; fmt_time t_re;
          fmt_ratio (t_re /. t_inc); (if exact then "yes" else "NO");
        ]
        :: !rows)
    [ 1; 5; 20 ];
  print_table
    [ "|Δ|"; "incremental"; "recompute"; "speedup"; "exact?" ]
    (List.rev !rows);
  verdict !ok
    "views with negation maintained exactly, cheaper than recomputation for \
     small Δ (large Δ hits §1's inertia crossover, as expected)"

(* =================================================================== *)
(* E11 — rule insertions/deletions (§1, §7)                             *)
(* =================================================================== *)

let e11 () =
  print_header "E11: view redefinition — rule insertion and deletion"
    "\"The algorithm can also be used when the view definition is itself \
     altered\" (§1): changing one view's rules must not recompute unrelated \
     views";
  (* A database with one large unrelated view (transitive closure) and one
     small union view whose definition changes.  Incremental rule change
     touches only the affected derivations; the recompute alternative must
     re-evaluate everything, the big closure included. *)
  let wire_rule = Parser.parse_rule "reach(X, Y) :- wire(X, Y)." in
  let with_wire =
    {|
      path(X, Y) :- link(X, Y).
      path(X, Y) :- path(X, Z), link(Z, Y).
      reach(X, Y) :- link(X, Y).
      reach(X, Y) :- wire(X, Y).
    |}
  in
  let without_wire =
    {|
      path(X, Y) :- link(X, Y).
      path(X, Y) :- path(X, Z), link(Z, Y).
      reach(X, Y) :- link(X, Y).
    |}
  in
  let mk src =
    let rng = Prng.create 83 in
    let program = Program.make ~extra_base:[ ("wire", 2) ] (Parser.parse_rules src) in
    let db = Database.create program in
    Database.load db "link"
      (Graph_gen.tuples (Graph_gen.layered_dag rng ~layers:12 ~width:10 ~out_degree:2));
    Database.load db "wire"
      (Graph_gen.tuples (Graph_gen.random rng ~nodes:120 ~edges:60));
    Seminaive.evaluate db;
    db
  in
  let maintain db changes = ignore (Dred.maintain db changes) in
  let recompute_with rules db =
    let program = Program.make ~extra_base:[ ("wire", 2) ] rules in
    let db' = Database.create program in
    List.iter
      (fun p ->
        Database.load db' p
          (Relation.fold (fun t _ acc -> t :: acc) (Database.relation db p) []))
      [ "link"; "wire" ];
    Seminaive.evaluate db'
  in
  let t_add =
    median_time ~repeat:3
      ~setup:(fun () -> mk without_wire)
      (fun db -> ignore (Rule_changes.add_rule db ~maintain wire_rule))
  in
  let t_add_re =
    median_time ~repeat:3
      ~setup:(fun () -> mk without_wire)
      (fun db -> recompute_with (Program.rules (Database.program db) @ [ wire_rule ]) db)
  in
  let t_del =
    median_time ~repeat:3
      ~setup:(fun () -> mk with_wire)
      (fun db -> ignore (Rule_changes.remove_rule db ~maintain wire_rule))
  in
  let t_del_re =
    median_time ~repeat:3
      ~setup:(fun () -> mk with_wire)
      (fun db ->
        recompute_with
          (List.filter
             (fun r -> not (Ivm_datalog.Ast.equal_rule r wire_rule))
             (Program.rules (Database.program db)))
          db)
  in
  print_table
    [ "operation"; "incremental (guard)"; "recompute all views"; "speedup" ]
    [
      [ "add union rule to reach"; fmt_time t_add; fmt_time t_add_re;
        fmt_ratio (t_add_re /. t_add) ];
      [ "remove union rule from reach"; fmt_time t_del; fmt_time t_del_re;
        fmt_ratio (t_del_re /. t_del) ];
    ];
  verdict (t_add < t_add_re && t_del < t_del_re)
    "incremental rule change touches only the altered view's derivations; \
     recomputation pays for every view in the database"

(* =================================================================== *)
(* E12 — counting for recursive views ([GKM92], §8)                     *)
(* =================================================================== *)

let e12 () =
  print_header "E12: recursive counting — works on DAGs, diverges on cycles"
    "\"counting may not terminate on some views\"; finite counts are maintainable (§8)";
  let mk semantics =
    let rng = Prng.create 97 in
    let program = Program.make (Parser.parse_rules Programs.transitive_closure) in
    let db = Database.create ~semantics program in
    Database.load db "link"
      (Graph_gen.tuples (Graph_gen.layered_dag rng ~layers:7 ~width:5 ~out_degree:2));
    (db, rng)
  in
  let rows = ref [] in
  List.iter
    (fun k ->
      let db0, rng = mk Database.Duplicate_semantics in
      Recursive_counting.evaluate db0;
      warm db0 `Recursive_counting;
      let changes = Update_gen.deletions rng db0 "link" k in
      let t_rc =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db0)
          (fun db -> ignore (Recursive_counting.maintain db changes))
      in
      let t_re =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db0)
          (fun db -> Recompute.maintain db changes)
      in
      let db_set, rng_set = mk Database.Set_semantics in
      Ivm_eval.Seminaive.evaluate db_set;
      warm db_set `Dred;
      let changes_set = Update_gen.deletions rng_set db_set "link" k in
      let t_dred =
        median_time ~repeat:3
          ~setup:(fun () -> Database.copy db_set)
          (fun db -> ignore (Dred.maintain db changes_set))
      in
      rows :=
        [ fmt_int k; fmt_time t_rc; fmt_time t_dred; fmt_time t_re;
          fmt_ratio (t_re /. t_rc) ]
        :: !rows)
    [ 1; 5 ];
  print_table
    [ "|Δ⁻|"; "recursive counting"; "DRed (sets)"; "recompute (counts)";
      "speedup vs recompute" ]
    (List.rev !rows);
  (* divergence demonstration *)
  let program = Program.make (Parser.parse_rules Programs.transitive_closure) in
  let db = Database.create ~semantics:Database.Duplicate_semantics program in
  Database.load db "link" (Graph_gen.tuples (Graph_gen.cycle 8));
  let diverged =
    try
      Recursive_counting.evaluate ~max_rounds:256 db;
      false
    with Recursive_counting.Divergence _ -> true
  in
  Printf.printf "\n  cyclic data (8-cycle): %s\n"
    (if diverged then "divergence detected and reported, as the paper predicts"
     else "UNEXPECTEDLY CONVERGED");
  verdict diverged
    "counts maintained incrementally on acyclic data; divergence detected on cycles"

(* =================================================================== *)
(* X1 — the paper's worked example, end to end (Ex 4.1/4.2/5.1)         *)
(* =================================================================== *)

let x1 () =
  print_header "X1: the paper's running example (link/hop/tri_hop)"
    "Examples 4.2 and 5.1, reproduced tuple for tuple";
  let src =
    {|
      hop(X, Y) :- link(X, Z) & link(Z, Y).
      tri_hop(X, Y) :- hop(X, Z) & link(Z, Y).
      link(a,b). link(a,d). link(d,c). link(b,c). link(c,h). link(f,g).
    |}
  in
  let statements = Parser.parse_program src in
  let rules, facts = Parser.split statements in
  let mk semantics =
    let program = Program.make rules in
    let db = Database.create ~semantics program in
    List.iter (fun (p, vals) -> Database.load db p [ Tuple.of_list vals ]) facts;
    Seminaive.evaluate db;
    db
  in
  let changes db =
    Changes.of_list (Database.program db)
      [
        ( "link",
          [
            (Tuple.of_strs [ "a"; "b" ], -1);
            (Tuple.of_strs [ "d"; "f" ], 1);
            (Tuple.of_strs [ "a"; "f" ], 1);
          ] );
      ]
  in
  let db = mk Database.Duplicate_semantics in
  Printf.printf "  duplicate semantics (Example 4.2):\n";
  Printf.printf "    link     = %s\n" (Relation.to_string (Database.relation db "link"));
  Printf.printf "    hop      = %s   (paper: {ac 2, dh, bh})\n"
    (Relation.to_string (Database.relation db "hop"));
  Printf.printf "    tri_hop  = %s   (paper: {ah 2})\n"
    (Relation.to_string (Database.relation db "tri_hop"));
  let report = Counting.maintain db (changes db) in
  Printf.printf "    Δ(link)  = {ab -1, df, af}\n";
  List.iter
    (fun (p, d) -> Printf.printf "    Δ(%s) = %s\n" p (Relation.to_string d))
    report.Counting.view_deltas;
  Printf.printf "    hopν     = %s   (paper: {ac, af, ag, dg, dh, bh})\n"
    (Relation.to_string (Database.relation db "hop"));
  Printf.printf "    tri_hopν = %s   (paper: {ah, ag})\n"
    (Relation.to_string (Database.relation db "tri_hop"));
  let db = mk Database.Set_semantics in
  let report = Counting.maintain db (changes db) in
  Printf.printf "\n  set semantics with the boxed optimization (Example 5.1):\n";
  List.iter
    (fun (p, d) ->
      Printf.printf "    propagated Δ(%s) = %s\n" p (Relation.to_string d))
    report.Counting.propagated_deltas;
  Printf.printf
    "    (paper: Δ(hop) = {af, ag, dg} — the tuple ac·-1 does not cascade,\n\
    \     so (ah -1) is never derived for tri_hop)\n";
  verdict true "matches the paper's printed deltas"

(* =================================================================== *)
(* E14 — durable views: snapshot + write-ahead log (ivm_store)          *)
(* =================================================================== *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let e14 () =
  print_header
    "E14: durable views — snapshot size, log cost, recovery vs recompute"
    "restart = snapshot load + replay-Δ through the maintenance path; \
     \"too wasteful to recompute from scratch\" applies to recovery too";
  let batches = 16 in
  let rows = ref [] in
  let ok = ref true in
  List.iter
    (fun (edges, nodes) ->
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "ivm_bench_e14_%d_%d" (Unix.getpid ()) edges)
      in
      rm_rf dir;
      let rng = Prng.create 41 in
      let tuples = Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges) in
      let vm =
        Vm.create ~durable:dir
          ~facts:[ ("link", tuples) ]
          (Parser.parse_rules Programs.hop_tri_hop)
      in
      for _ = 1 to batches do
        let changes =
          Update_gen.mixed rng (Vm.database vm) "link" ~nodes ~dels:2 ~ins:3
        in
        ignore (Vm.apply vm changes)
      done;
      let st = Option.get (Vm.store_status vm) in
      let final_base =
        Relation.fold
          (fun t _ acc -> t :: acc)
          (Vm.relation vm "link") []
      in
      Vm.close_store vm;
      (* recovery: verify + load the snapshot (zero re-evaluation), then
         replay the [batches]-record log tail incrementally *)
      let t_recover =
        median_time ~repeat:3
          ~setup:(fun () -> ())
          (fun () ->
            let vm2, _ = Vm.open_durable dir in
            Vm.close_store vm2)
      in
      (* cold start: same final base relation, every view re-derived *)
      let t_cold =
        median_time ~repeat:3
          ~setup:(fun () -> ())
          (fun () ->
            ignore
              (Vm.create
                 ~facts:[ ("link", final_base) ]
                 (Parser.parse_rules Programs.hop_tri_hop)))
      in
      let log_per_batch = (st.Store.wal_bytes - Ivm_store.Wal.header_size) / batches in
      (* write amplification avoided: the naive durable design snapshots
         after every batch; the WAL writes [log_per_batch] instead *)
      let amp = float_of_int st.Store.snapshot_bytes /. float_of_int log_per_batch in
      if t_recover >= t_cold then ok := false;
      rows :=
        [
          fmt_int edges; fmt_bytes st.Store.snapshot_bytes;
          fmt_bytes log_per_batch; fmt_ratio amp; fmt_time t_recover;
          fmt_time t_cold; fmt_ratio (t_cold /. t_recover);
        ]
        :: !rows;
      rm_rf dir)
    [ (2000, 400); (8000, 1600) ];
  print_table
    [ "|E|"; "snapshot"; "log B/batch"; "vs snap/batch"; "recover (load+replay)";
      "cold recompute"; "speedup" ]
    (List.rev !rows);
  verdict !ok
    "per-batch logging writes a fraction of a snapshot, and recovery \
     (snapshot + 16-batch replay) beats re-deriving the views from the base \
     relations"

(* =================================================================== *)

let all : (string * (unit -> unit)) list =
  [
    ("x1", x1); ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12); ("e14", e14);
  ]
