(* Tests for the clock-tree data model, exact Elmore evaluation and the
   skew repair pass. *)

module Pt = Geometry.Pt
open Clocktree

let pt = Pt.make
let params = Rc.Wire.default

let sink id x y ?(cap = 20.) group = Sink.make ~id ~loc:(pt x y) ~cap ~group

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* --- Instance ------------------------------------------------------------ *)

let test_instance_validation () =
  let sinks = [| sink 0 0. 0. 0; sink 1 10. 0. 1 |] in
  let inst = Instance.make ~source:(pt 0. 0.) ~n_groups:2 sinks in
  Alcotest.(check int) "n_sinks" 2 (Instance.n_sinks inst);
  Alcotest.(check (list int)) "group 1 sinks" [ 1 ]
    (List.map (fun (s : Sink.t) -> s.id) (Instance.group_sinks inst 1));
  Alcotest.(check (array int)) "group sizes" [| 1; 1 |] (Instance.group_sizes inst);
  Alcotest.check_raises "group out of range"
    (Invalid_argument "Instance.make: sink group out of range") (fun () ->
      ignore (Instance.make ~source:(pt 0. 0.) ~n_groups:1 sinks));
  Alcotest.check_raises "dense ids"
    (Invalid_argument "Instance.make: sink ids must be dense") (fun () ->
      ignore
        (Instance.make ~source:(pt 0. 0.) ~n_groups:2 [| sink 1 0. 0. 0 |]))

(* --- Tree ---------------------------------------------------------------- *)

let two_sink_tree () =
  let s0 = sink 0 10. 0. 0 and s1 = sink 1 (-10.) 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:10. ~rlen:10.
  in
  (s0, s1, Tree.route (pt 0. 0.) t)

let test_tree_metrics () =
  let _, _, routed = two_sink_tree () in
  check_float "wirelength" 20. (Tree.wirelength routed);
  check_float "no snaking" 0. (Tree.total_snaking routed);
  Alcotest.(check int) "n_sinks" 2 (Tree.n_sinks routed.tree);
  Alcotest.(check int) "n_nodes" 3 (Tree.n_nodes routed.tree);
  Alcotest.(check int) "depth" 2 (Tree.depth routed.tree)

let test_tree_snaking_counted () =
  let s0 = sink 0 10. 0. 0 and s1 = sink 1 (-10.) 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:15. ~rlen:10.
  in
  let routed = Tree.route (pt 0. 0.) t in
  check_float "wirelength includes snake" 25. (Tree.wirelength routed);
  check_float "snaking" 5. (Tree.total_snaking routed)

let test_tree_rejects_short_edge () =
  let s0 = sink 0 10. 0. 0 and s1 = sink 1 (-10.) 0. 0 in
  Alcotest.check_raises "short edge"
    (Invalid_argument "Tree.node: left length 5 < distance 10") (fun () ->
      ignore (Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:5. ~rlen:10.))

(* --- Evaluate ------------------------------------------------------------ *)

let test_evaluate_hand_check () =
  let _, _, routed = two_sink_tree () in
  let inst =
    Instance.make ~rd:100. ~source:(pt 0. 0.) ~n_groups:1
      [| sink 0 10. 0. 0; sink 1 (-10.) 0. 0 |]
  in
  let d = Evaluate.delays inst routed in
  (* Total cap = 2*20 fF + 20 units * 0.02 fF = 40.4 fF.
     Driver: 100 ohm * 40.4 fF = 4.04 ps.
     Edge: 0.003*10*(0.02*10/2 + 20) = 0.603 ohm·fF = 0.000603 ps. *)
  check_float ~tol:1e-9 "sink 0 delay" 4.040603 d.(0);
  check_float ~tol:1e-9 "symmetric" d.(0) d.(1);
  let report = Evaluate.run inst routed in
  check_float "zero skew" 0. report.global_skew;
  check_float "group skew" 0. report.max_group_skew;
  check_float "wirelength" 20. report.wirelength;
  Alcotest.(check bool) "within bound" true (Evaluate.within_bound inst report)

let test_evaluate_matches_direct_recursion () =
  (* Cross-check the RC-tree-based evaluation against a direct recursive
     Elmore computation on an asymmetric tree. *)
  let s0 = sink 0 0. 0. ~cap:35. 0 in
  let s1 = sink 1 40. 0. ~cap:15. 0 in
  let s2 = sink 2 20. 30. ~cap:25. 1 in
  let inner =
    Tree.node (pt 20. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:20. ~rlen:20.
  in
  let top = Tree.node (pt 20. 10.) inner (Tree.Leaf s2) ~llen:10. ~rlen:20. in
  let routed = Tree.route (pt 0. 10.) top in
  let inst =
    Instance.make ~rd:50. ~source:(pt 0. 10.) ~n_groups:2 [| s0; s1; s2 |]
  in
  let d = Evaluate.delays inst routed in
  let w len load = Rc.Elmore.wire_delay params ~len ~load in
  let cap_inner = 35. +. 15. +. (params.Rc.Wire.c *. 40.) in
  let cap_top = cap_inner +. 25. +. (params.Rc.Wire.c *. 30.) in
  let cap_total = cap_top +. (params.Rc.Wire.c *. 20.) in
  let at_root = Rc.Elmore.driver_delay ~rd:50. ~load:cap_total +. w 20. cap_top in
  check_float ~tol:1e-9 "sink0" (at_root +. w 10. cap_inner +. w 20. 35.) d.(0);
  check_float ~tol:1e-9 "sink1" (at_root +. w 10. cap_inner +. w 20. 15.) d.(1);
  check_float ~tol:1e-9 "sink2" (at_root +. w 20. 25.) d.(2)

(* --- Repair -------------------------------------------------------------- *)

let test_repair_balances_pair () =
  (* Unbalanced: the merge point sits at one sink, so the other is slower.
     Zero-skew repair must snake the short edge. *)
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:100.
  in
  let routed = Tree.route (pt 0. 0.) t in
  let inst =
    Instance.make ~bound:0. ~source:(pt 0. 0.) ~n_groups:1 [| s0; s1 |]
  in
  let before = Evaluate.run inst routed in
  Alcotest.(check bool) "skewed before" true (before.max_group_skew > 1e-6);
  let repaired, stats = Repair.run inst routed in
  let after = Evaluate.run inst repaired in
  Alcotest.(check bool) "balanced after" true (after.max_group_skew <= 1e-6);
  Alcotest.(check bool) "wire added" true (stats.added_wire > 0.);
  Alcotest.(check int) "one edge adjusted" 1 stats.adjusted_edges;
  Alcotest.(check int) "no unresolved" 0 stats.unresolved_groups

let test_repair_respects_bound_slack () =
  (* With a generous bound the same tree needs no repair. *)
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:100.
  in
  let routed = Tree.route (pt 0. 0.) t in
  let inst =
    Instance.make ~bound:1000. ~source:(pt 0. 0.) ~n_groups:1 [| s0; s1 |]
  in
  let _, stats = Repair.run inst routed in
  check_float "no wire added" 0. stats.added_wire;
  Alcotest.(check int) "no adjustment" 0 stats.adjusted_edges

let test_repair_ignores_cross_group () =
  (* Two sinks from different groups: no constraint, no repair. *)
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 1 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:100.
  in
  let routed = Tree.route (pt 0. 0.) t in
  let inst =
    Instance.make ~bound:0. ~source:(pt 0. 0.) ~n_groups:2 [| s0; s1 |]
  in
  let _, stats = Repair.run inst routed in
  check_float "no wire added" 0. stats.added_wire

(* Random trees: greedily pair sinks (midpoint nodes, exact distances) and
   check that repair enforces the bound on the final embedded tree. *)
let random_topology sinks =
  let rec pair = function
    | [] -> assert false
    | [ t ] -> t
    | t1 :: t2 :: rest ->
      let p = Pt.mid (Tree.pos t1) (Tree.pos t2) in
      let llen = Pt.dist p (Tree.pos t1) and rlen = Pt.dist p (Tree.pos t2) in
      pair (rest @ [ Tree.node p t1 t2 ~llen ~rlen ])
  in
  pair (List.map (fun s -> Tree.Leaf s) sinks)

let gen_repair_case =
  QCheck.Gen.(
    let* n = int_range 2 24 in
    let* n_groups = int_range 1 4 in
    let* coords = list_repeat n (pair (float_range 0. 20000.) (float_range 0. 20000.)) in
    let* groups = list_repeat n (int_range 0 (n_groups - 1)) in
    let* caps = list_repeat n (float_range 5. 80.) in
    let* bound = oneofl [ 0.; 5.; 10. ] in
    return (coords, groups, caps, n_groups, bound))

(* The instance and greedily paired tree of a [gen_repair_case] draw. *)
let repair_case (coords, groups, caps, n_groups, bound) =
  let sinks =
    List.mapi
      (fun i ((x, y), (g, cap)) -> Sink.make ~id:i ~loc:(pt x y) ~cap ~group:g)
      (List.combine coords (List.combine groups caps))
  in
  let inst =
    Instance.make ~bound ~source:(pt 0. 0.) ~n_groups (Array.of_list sinks)
  in
  (inst, Tree.route (pt 0. 0.) (random_topology sinks))

(* Uniform random sinks (group [i mod n_groups]) under a greedily
   paired tree. *)
let random_case ~seed ~n ~n_groups ~bound =
  let rng = Workload.Rng.create seed in
  let sinks =
    List.init n (fun i ->
        sink i
          (Workload.Rng.float_range rng 0. 20000.)
          (Workload.Rng.float_range rng 0. 20000.)
          (i mod n_groups))
  in
  let inst =
    Instance.make ~bound ~source:(pt 0. 0.) ~n_groups (Array.of_list sinks)
  in
  (inst, Tree.route (pt 0. 0.) (random_topology sinks))

let prop_repair_enforces_bound =
  QCheck.Test.make ~name:"repair enforces intra-group bound" ~count:200
    (QCheck.make gen_repair_case)
    (fun case ->
      let inst, routed = repair_case case in
      let repaired, stats = Repair.run inst routed in
      let report = Evaluate.run inst repaired in
      stats.unresolved_groups = 0 && Evaluate.within_bound inst report)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- Arena ----------------------------------------------------------------- *)

(* Flatten → rebuild must be the identity, bit for bit: same structure,
   same positions, same sink records, same edge lengths.  Structural
   equality on the routed record compares every float exactly. *)
let prop_arena_roundtrip =
  QCheck.Test.make ~name:"arena flatten/rebuild round-trips bit-exact"
    ~count:300
    (QCheck.make gen_repair_case)
    (fun (coords, groups, caps, n_groups, _bound) ->
      let sinks =
        List.mapi
          (fun i ((x, y), (g, cap)) -> Sink.make ~id:i ~loc:(pt x y) ~cap ~group:g)
          (List.combine coords (List.combine groups caps))
      in
      ignore n_groups;
      let routed = Tree.route (pt (-5.) 7.) (random_topology sinks) in
      let a = Arena.of_routed params ~rd:100. routed in
      routed = Arena.to_routed a)

(* A 240k-node left-deep comb: every recursive walk would need ~120k
   stack frames.  Flatten, repair and evaluate must all survive it and,
   with a generous bound, repair must leave the tree untouched. *)
let test_deep_comb_stack_safety () =
  let n = 120_000 in
  let sinks = Array.init n (fun i -> sink i (float_of_int i) 0. 0) in
  let t = ref (Tree.Leaf sinks.(0)) in
  for i = 1 to n - 1 do
    let p = sinks.(i).Sink.loc in
    t := Tree.node p !t (Tree.Leaf sinks.(i)) ~llen:1. ~rlen:0.
  done;
  let root = pt (float_of_int (n - 1)) 0. in
  let routed = Tree.route root !t in
  let inst = Instance.make ~bound:1e9 ~source:root ~n_groups:1 sinks in
  let a = Arena.of_routed inst.params ~rd:inst.rd routed in
  Alcotest.(check int) "node count" (2 * n - 1) a.Arena.n;
  check_float "wirelength" (float_of_int (n - 1))
    (Arena.wirelength a);
  let repaired, stats = Repair.run inst routed in
  check_float "repair is a no-op" 0. stats.added_wire;
  Alcotest.(check int) "no edges adjusted" 0 stats.adjusted_edges;
  Alcotest.(check int) "no unresolved" 0 stats.unresolved_groups;
  let report = Evaluate.run inst repaired in
  Alcotest.(check bool) "within bound" true (Evaluate.within_bound inst report)

(* Windowed (parallel-shaped) evaluation must be bit-identical to the
   serial kernels: the window fills and the serial spine stitch compute
   every node's value with the serial expression from the serial
   operands, so no jobs/regions decomposition may move a single ulp. *)
let test_evaluate_windowed_identity () =
  let inst, routed = random_case ~seed:9L ~n:500 ~n_groups:5 ~bound:10. in
  let serial = Evaluate.run ~jobs:1 inst routed in
  List.iter
    (fun (jobs, regions) ->
      let w = Evaluate.run ~jobs ?regions inst routed in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d regions=%s identical report" jobs
           (match regions with None -> "auto" | Some r -> string_of_int r))
        true
        (w.delays = serial.delays
        && w.wirelength = serial.wirelength
        && w.snaking = serial.snaking
        && w.min_delay = serial.min_delay
        && w.max_delay = serial.max_delay
        && w.global_skew = serial.global_skew
        && w.group_skew = serial.group_skew
        && w.max_group_skew = serial.max_group_skew))
    [ (2, None); (4, Some 3); (8, Some 17) ]

(* Feasible tree: repair must hand back the identical arena content —
   not merely "no stats", the rebuilt tree itself is bit-equal. *)
let test_repair_noop_preserves_tree () =
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:100.
  in
  let routed = Tree.route (pt 0. 0.) t in
  let inst =
    Instance.make ~bound:1000. ~source:(pt 0. 0.) ~n_groups:1 [| s0; s1 |]
  in
  let repaired, stats = Repair.run inst routed in
  Alcotest.(check int) "no adjustment" 0 stats.adjusted_edges;
  Alcotest.(check bool) "tree bit-equal" true (routed = repaired)

(* Conflicting groups under a zero bound: one balance pass cannot
   converge, so [max_cycles = 0] must exhaust the budget, report the
   unresolved groups, and still terminate.  The default budget resolves
   the same instance. *)
let exhaustion_case () =
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 0. 10000. 1 in
  let s2 = sink 2 20000. 0. 0 and s3 = sink 3 20000. 20000. 1 in
  let a =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:10000.
  in
  let b =
    Tree.node (pt 20000. 0.) (Tree.Leaf s2) (Tree.Leaf s3) ~llen:0.
      ~rlen:20000.
  in
  let top = Tree.node (pt 10000. 0.) a b ~llen:10000. ~rlen:10000. in
  let routed = Tree.route (pt 10000. 0.) top in
  let inst =
    Instance.make ~bound:0. ~source:(pt 10000. 0.) ~n_groups:2
      [| s0; s1; s2; s3 |]
  in
  (inst, routed)

let test_repair_budget_exhaustion () =
  let inst, routed = exhaustion_case () in
  let config = { Repair.default_config with max_cycles = 0 } in
  let _, stats = Repair.run ~config inst routed in
  Alcotest.(check bool) "budget exhausted" true stats.budget_exhausted;
  Alcotest.(check int) "one balance pass" 1 stats.cycles;
  Alcotest.(check bool) "unresolved reported" true
    (stats.unresolved_groups > 0)

let test_repair_default_budget_converges () =
  let inst, routed = exhaustion_case () in
  let repaired, stats = Repair.run inst routed in
  Alcotest.(check bool) "not exhausted" false stats.budget_exhausted;
  Alcotest.(check int) "no unresolved" 0 stats.unresolved_groups;
  let report = Evaluate.run inst repaired in
  Alcotest.(check bool) "within bound" true (Evaluate.within_bound inst report)

(* --- Repair: worklist global cycle vs the full-scan spec ------------------ *)

(* The default (worklist) global cycle must reproduce the full-scan walk
   ([incremental = false], jobs 1) bit for bit: every edge length and
   every stat, for any jobs count. *)
let float_bits_equal x y = Int64.bits_of_float x = Int64.bits_of_float y

let repair_stats_equal (s : Repair.stats) (t : Repair.stats) =
  float_bits_equal s.added_wire t.added_wire
  && s.adjusted_edges = t.adjusted_edges
  && s.conflict_nodes = t.conflict_nodes
  && s.lift_iterations = t.lift_iterations
  && s.unresolved_groups = t.unresolved_groups
  && s.cycles = t.cycles
  && s.budget_exhausted = t.budget_exhausted

let worklist_matches_spec ?(max_cycles = Repair.default_config.max_cycles)
    ?regions (inst : Instance.t) routed =
  let spec = { Repair.max_cycles; jobs = 1; incremental = false; regions } in
  let repaired config =
    let a = Arena.of_routed inst.params ~rd:inst.rd routed in
    let stats = Repair.run_arena ~config inst a in
    (a.Arena.len, stats)
  in
  let len0, stats0 = repaired spec in
  List.for_all
    (fun jobs ->
      let len, stats = repaired { spec with incremental = true; jobs } in
      repair_stats_equal stats stats0
      && Array.for_all2 float_bits_equal len len0)
    [ 1; 2; 4 ]

(* One group: the whole tree is a single pure subtree rooted at the
   arena root, whose amount stays 0. *)
let test_worklist_single_group () =
  let inst, routed = random_case ~seed:3L ~n:300 ~n_groups:1 ~bound:0. in
  Alcotest.(check bool) "auto regions" true (worklist_matches_spec inst routed);
  Alcotest.(check bool) "16 regions" true
    (worklist_matches_spec ~regions:16 inst routed)

let test_worklist_exhaustion () =
  let inst, routed = exhaustion_case () in
  List.iter
    (fun max_cycles ->
      Alcotest.(check bool)
        (Printf.sprintf "max_cycles %d" max_cycles)
        true
        (worklist_matches_spec ~max_cycles inst routed))
    [ 0; 1 ]

(* [Some 1] leaves no windows (serial evaluation, one residual store);
   [Some 64] splits the tree into many small windows. *)
let test_worklist_regions () =
  let inst, routed = random_case ~seed:11L ~n:1500 ~n_groups:4 ~bound:5. in
  List.iter
    (fun regions ->
      Alcotest.(check bool)
        (Printf.sprintf "regions %d" regions)
        true
        (worklist_matches_spec ~regions inst routed))
    [ 1; 64 ]

(* A planned (unrepaired) AST-DME tree under a zero bound: hundreds of
   cycles whose balance passes re-adjust edges, so skipping a node whose
   own edge changed last pass (instead of re-balancing it) drifts the
   memos and changes the answer. *)
let test_worklist_routed_zero_bound () =
  let spec =
    { Workload.Circuits.name = "s500"; n_sinks = 500; die = 2000. *. sqrt 500. }
  in
  let inst =
    Workload.Circuits.instance ~seed:1L spec ~n_groups:8
      ~scheme:Workload.Partition.Intermingled ~bound:0. ()
  in
  let arena, _, _ =
    Dme.Cluster.run_arena
      ~config:{ Astskew.Router.ast_default_config with jobs = 1 }
      inst
  in
  let routed = Arena.to_routed arena in
  Alcotest.(check bool) "auto regions" true (worklist_matches_spec inst routed);
  Alcotest.(check bool) "16 regions" true
    (worklist_matches_spec ~regions:16 inst routed)

(* One pure group-0 subtree u = (x, y) under a conflicted mixed merge,
   with x = (z, w) two mirror copies of z = (c, d).  The mirror ties
   the min deficits of z and w exactly, so one lift sweep lifts c's
   edge (and its mirror's) but neither of x's child edges, then lifts
   u's own edge.  That last lift reads u's downstream cap, which holds
   x's, and x's moved only through its grandchildren: the sweep must
   refresh caps all the way up, not only at nodes whose child edges it
   lifted. *)
let nested_lift_case () =
  let o = pt 0. 0. in
  let c = sink 0 0. 0. 0 and d = sink 1 0. 0. 0 in
  let e = sink 2 0. 0. 0 and f = sink 3 0. 0. 0 in
  let y = sink 4 0. 0. 0 in
  let z = Tree.node o (Tree.Leaf c) (Tree.Leaf d) ~llen:0. ~rlen:300. in
  let w = Tree.node o (Tree.Leaf e) (Tree.Leaf f) ~llen:0. ~rlen:300. in
  let x = Tree.node o z w ~llen:0. ~rlen:0. in
  let u = Tree.node o x (Tree.Leaf y) ~llen:0. ~rlen:0. in
  let s1 = sink 5 0. 25000. 1 in
  let s2 = sink 6 (-20000.) 0. 0 and s3 = sink 7 (-20000.) 20000. 1 in
  let a = Tree.node o u (Tree.Leaf s1) ~llen:0. ~rlen:25000. in
  let b =
    Tree.node (pt (-20000.) 0.) (Tree.Leaf s2) (Tree.Leaf s3) ~llen:0.
      ~rlen:20000.
  in
  let src = pt (-10000.) 0. in
  let top = Tree.node src b a ~llen:10000. ~rlen:10000. in
  let inst =
    Instance.make ~bound:1. ~source:src ~n_groups:2
      [| c; d; e; f; y; s1; s2; s3 |]
  in
  (inst, Tree.route src top)

let test_worklist_nested_lift () =
  let inst, routed = nested_lift_case () in
  Alcotest.(check bool) "auto regions" true (worklist_matches_spec inst routed)

let prop_worklist_matches_spec =
  QCheck.Test.make ~name:"worklist repair = full-scan repair, bit for bit"
    ~count:100
    (QCheck.make gen_repair_case)
    (fun case ->
      let inst, routed = repair_case case in
      worklist_matches_spec inst routed
      && worklist_matches_spec ~regions:4 inst routed)

(* --- Per-group bounds ----------------------------------------------------- *)

let test_per_group_bounds () =
  let sinks = [| sink 0 0. 0. 0; sink 1 20000. 0. 0; sink 2 0. 100. 1; sink 3 20000. 100. 1 |] in
  let inst =
    Instance.make ~bound:10. ~group_bounds:[| 0.; 50. |] ~source:(pt 0. 0.)
      ~n_groups:2 sinks
  in
  check_float "group 0 bound" 0. (Instance.bound_for inst 0);
  check_float "group 1 bound" 50. (Instance.bound_for inst 1);
  check_float "max bound" 50. (Instance.max_bound inst);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Instance.make: group_bounds length mismatch") (fun () ->
      ignore
        (Instance.make ~group_bounds:[| 1. |] ~source:(pt 0. 0.) ~n_groups:2 sinks))

let test_repair_per_group_bounds () =
  (* Group 0 must be exact; group 1 may drift 50 ps.  Build a skewed tree
     and verify repair enforces exactly the per-group limits. *)
  let sinks =
    [| sink 0 0. 0. 0; sink 1 30000. 0. 0; sink 2 100. 100. 1; sink 3 30100. 100. 1 |]
  in
  let inst =
    Instance.make ~bound:10. ~group_bounds:[| 0.; 50. |] ~source:(pt 0. 0.)
      ~n_groups:2 sinks
  in
  let routed =
    Tree.route (pt 0. 0.) (random_topology (Array.to_list sinks))
  in
  let repaired, stats = Repair.run inst routed in
  let report = Evaluate.run inst repaired in
  Alcotest.(check int) "no unresolved" 0 stats.unresolved_groups;
  Alcotest.(check bool) "group 0 exact" true (report.group_skew.(0) <= 1e-4);
  Alcotest.(check bool) "group 1 within 50" true (report.group_skew.(1) <= 50. +. 1e-4)

(* --- Io ------------------------------------------------------------------- *)

let test_io_roundtrip () =
  let sinks = [| sink 0 1.5 2.5 ~cap:33.25 0; sink 1 100. 200. ~cap:55. 1 |] in
  let inst =
    Instance.make ~bound:7.5 ~group_bounds:[| 7.5; 12. |] ~rd:80.
      ~source:(pt 10. 20.) ~n_groups:2 sinks
  in
  let text = Io.to_string inst in
  match Io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok inst' ->
    Alcotest.(check int) "n_sinks" (Instance.n_sinks inst) (Instance.n_sinks inst');
    Alcotest.(check int) "n_groups" inst.n_groups inst'.n_groups;
    check_float "bound" inst.bound inst'.bound;
    check_float "rd" inst.rd inst'.rd;
    check_float "group bound 1" 12. (Instance.bound_for inst' 1);
    Alcotest.(check bool) "source" true (Pt.equal inst.source inst'.source);
    Array.iteri
      (fun i (s : Sink.t) ->
        let t = inst'.sinks.(i) in
        Alcotest.(check bool) "sink preserved" true
          (Pt.equal s.loc t.loc && s.cap = t.cap && s.group = t.group))
      inst.sinks

let test_io_errors () =
  (match Io.of_string "nonsense 1 2 3" with
   | Error msg ->
     Alcotest.(check bool) "mentions line" true
       (String.length msg > 0 && String.sub msg 0 4 = "line")
   | Ok _ -> Alcotest.fail "expected parse error");
  (match Io.of_string "groups 2\nsink 0 0 0 10 0" with
   | Error msg ->
     Alcotest.(check bool) "missing source reported" true
       (String.length msg > 0)
   | Ok _ -> Alcotest.fail "expected missing-source error");
  (* Sink.make refuses these by raising; the parser must report them as
     line errors instead. *)
  List.iter
    (fun (record, expected) ->
      match Io.of_string ("groups 2\nsource 0 0\n" ^ record) with
      | Error msg -> Alcotest.(check string) record expected msg
      | Ok _ -> Alcotest.fail ("expected an error for " ^ record))
    [
      ("sink 5 1 2 36.56 -1", "line 3: negative group");
      ("sink 5 1 2 -36.5 6", "line 3: negative capacitance");
    ]

let test_io_comments_and_order () =
  let text =
    "# a comment\n\
     groups 1\n\
     sink 0 5 6 20 0   # trailing comment\n\
     source 0 0\n\
     bound 3\n"
  in
  match Io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    Alcotest.(check int) "one sink" 1 (Instance.n_sinks inst);
    check_float "bound" 3. inst.bound

(* --- Svg ------------------------------------------------------------------ *)

let test_svg_renders () =
  let _, _, routed = two_sink_tree () in
  let inst =
    Instance.make ~source:(pt 0. 0.) ~n_groups:1
      [| sink 0 10. 0. 0; sink 1 (-10.) 0. 0 |]
  in
  let svg = Svg.render inst routed in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m > 0 && go 0
  in
  Alcotest.(check bool) "is svg" true (contains_sub svg "<svg");
  Alcotest.(check bool) "has sinks" true (contains_sub svg "<circle");
  Alcotest.(check bool) "has wires" true (contains_sub svg "<path");
  Alcotest.(check bool) "has source marker" true (contains_sub svg "<rect x=")

let () =
  Alcotest.run "clocktree"
    [
      ( "instance",
        [ Alcotest.test_case "validation" `Quick test_instance_validation ] );
      ( "tree",
        [
          Alcotest.test_case "metrics" `Quick test_tree_metrics;
          Alcotest.test_case "snaking counted" `Quick test_tree_snaking_counted;
          Alcotest.test_case "short edge rejected" `Quick test_tree_rejects_short_edge;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "hand check" `Quick test_evaluate_hand_check;
          Alcotest.test_case "matches direct recursion" `Quick
            test_evaluate_matches_direct_recursion;
        ] );
      ( "repair",
        [
          Alcotest.test_case "balances a pair" `Quick test_repair_balances_pair;
          Alcotest.test_case "bound slack" `Quick test_repair_respects_bound_slack;
          Alcotest.test_case "cross-group free" `Quick test_repair_ignores_cross_group;
          Alcotest.test_case "per-group bounds" `Quick test_repair_per_group_bounds;
        ]
        @ qsuite [ prop_repair_enforces_bound ] );
      ( "arena",
        [
          Alcotest.test_case "deep comb stack safety" `Quick
            test_deep_comb_stack_safety;
          Alcotest.test_case "windowed evaluation identity" `Quick
            test_evaluate_windowed_identity;
          Alcotest.test_case "no-op preserves tree" `Quick
            test_repair_noop_preserves_tree;
          Alcotest.test_case "budget exhaustion" `Quick
            test_repair_budget_exhaustion;
          Alcotest.test_case "default budget converges" `Quick
            test_repair_default_budget_converges;
        ]
        @ qsuite [ prop_arena_roundtrip ] );
      ( "worklist",
        [
          Alcotest.test_case "single group" `Quick test_worklist_single_group;
          Alcotest.test_case "budget exhaustion" `Quick
            test_worklist_exhaustion;
          Alcotest.test_case "regions 1 and 64" `Quick test_worklist_regions;
          Alcotest.test_case "routed tree, zero bound" `Quick
            test_worklist_routed_zero_bound;
          Alcotest.test_case "nested pure-subtree lift" `Quick
            test_worklist_nested_lift;
        ]
        @ qsuite [ prop_worklist_matches_spec ] );
      ( "bounds",
        [ Alcotest.test_case "per-group accessors" `Quick test_per_group_bounds ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "comments and order" `Quick test_io_comments_and_order;
        ] );
      ("svg", [ Alcotest.test_case "renders" `Quick test_svg_renders ]);
    ]
