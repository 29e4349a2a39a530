(* Tests for the deferred-merge engine: subtree state, the four merge
   cases, ordering, embedding, and end-to-end constraint satisfaction. *)

module Pt = Geometry.Pt
module Octagon = Geometry.Octagon
module Interval = Geometry.Interval
open Clocktree

let pt = Pt.make

let sink id x y ?(cap = 20.) group = Sink.make ~id ~loc:(pt x y) ~cap ~group

let instance ?(bound = 0.) ?(n_groups = 1) sinks =
  Instance.make ~bound ~source:(pt 0. 0.) ~n_groups (Array.of_list sinks)

let merge inst ?(id = 1000) a b =
  Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 ~sdr_samples:9 ~id a b

let check_float ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* --- Subtree ------------------------------------------------------------- *)

let test_subtree_leaf () =
  let s = sink 3 10. 20. 2 in
  let t = Dme.Subtree.leaf s in
  Alcotest.(check int) "id" 3 t.id;
  Alcotest.(check (list int)) "groups" [ 2 ] (Dme.Subtree.groups t);
  check_float "cap" 20. t.cap;
  Alcotest.(check bool) "region is the sink" true
    (Octagon.contains t.region (pt 10. 20.));
  check_float "no width" 0. (Dme.Subtree.max_group_width t);
  check_float "full slack" 10. (Dme.Subtree.min_slack ~bound:10. t)

let test_subtree_shared_groups () =
  let inst =
    instance ~n_groups:3
      [ sink 0 0. 0. 0; sink 1 10. 0. 1; sink 2 20. 0. 1; sink 3 30. 0. 2 ]
  in
  let l i = Dme.Subtree.leaf inst.sinks.(i) in
  let a = (merge inst ~id:10 (l 0) (l 1)).subtree in
  let b = (merge inst ~id:11 (l 2) (l 3)).subtree in
  Alcotest.(check (list int)) "a groups" [ 0; 1 ] (Dme.Subtree.groups a);
  Alcotest.(check (list int)) "shared" [ 1 ] (Dme.Subtree.shared_groups a b)

(* --- Merge cases --------------------------------------------------------- *)

let test_merge_same_group_zero_skew () =
  (* Two equal sinks 100 apart, zero skew: merging segment through the
     middle, delays equal. *)
  let inst = instance ~bound:0. [ sink 0 0. 0. 0; sink 1 100. 0. 0 ] in
  let r =
    merge inst (Dme.Subtree.leaf inst.sinks.(0)) (Dme.Subtree.leaf inst.sinks.(1))
  in
  Alcotest.(check bool) "kind" true (r.kind = Dme.Merge.Same_group);
  Alcotest.(check bool) "feasible" true r.feasible;
  check_float "wire = distance" 100. r.planned_wire;
  check_float "no snake" 0. r.snake;
  Alcotest.(check bool) "region contains midpoint" true
    (Octagon.contains r.subtree.region (pt 50. 0.));
  Alcotest.(check bool) "region excludes endpoints" false
    (Octagon.contains r.subtree.region (pt 0. 0.));
  let iv = Dme.Subtree.IntMap.find 0 r.subtree.delay in
  check_float "zero width delay" 0. (Interval.width iv);
  (* cap: 2 sinks + wire *)
  check_float "cap" (40. +. (0.02 *. 100.)) r.subtree.cap

let test_merge_same_group_snaking () =
  (* Very unequal loads at distance 0 force snaking. *)
  let inst =
    instance ~bound:0. [ sink 0 0. 0. ~cap:10. 0; sink 1 0. 0. ~cap:500. 0 ]
  in
  let heavy =
    merge inst
      (Dme.Subtree.leaf inst.sinks.(0))
      (Dme.Subtree.leaf inst.sinks.(1))
  in
  check_float "no snake needed at dist 0 with equal delays" 0. heavy.snake;
  (* Distance large, but one side has a big head start in delay: build an
     unbalanced inner pair first. *)
  let inst2 =
    instance ~bound:0. ~n_groups:1
      [ sink 0 0. 0. 0; sink 1 20000. 0. 0; sink 2 20100. 0. 0 ]
  in
  let inner =
    merge inst2
      (Dme.Subtree.leaf inst2.sinks.(1))
      (Dme.Subtree.leaf inst2.sinks.(2))
  in
  let outer = merge inst2 inner.subtree (Dme.Subtree.leaf inst2.sinks.(0)) in
  Alcotest.(check bool) "feasible" true outer.feasible;
  (* The lone far sink is faster; balancing may need wire beyond the
     distance only if the imbalance exceeds the span — here it should
     balance without snaking. *)
  check_float "no snake" 0. outer.snake

let test_merge_cross_group () =
  let inst =
    instance ~bound:10. ~n_groups:2 [ sink 0 0. 0. 0; sink 1 60. 40. 1 ]
  in
  let r =
    merge inst (Dme.Subtree.leaf inst.sinks.(0)) (Dme.Subtree.leaf inst.sinks.(1))
  in
  Alcotest.(check bool) "kind" true (r.kind = Dme.Merge.Cross_group);
  check_float "wire = distance" 100. r.planned_wire;
  check_float "no snake ever" 0. r.snake;
  (* The merging region is inside the SDR: every point splits the
     distance exactly. *)
  let reg = r.subtree.region in
  let c = Octagon.center reg in
  check_float ~tol:1e-4 "center splits distance" 100.
    (Pt.dist c (pt 0. 0.) +. Pt.dist c (pt 60. 40.));
  (* Both groups present, delay intervals disjoint keys. *)
  Alcotest.(check (list int)) "groups" [ 0; 1 ] (Dme.Subtree.groups r.subtree)

let test_merge_cross_group_interval_soundness () =
  (* The recorded interval must cover the delay of any admissible
     split. *)
  let inst =
    instance ~bound:10. ~n_groups:2 [ sink 0 0. 0. 0; sink 1 2000. 0. 1 ]
  in
  let r =
    merge inst (Dme.Subtree.leaf inst.sinks.(0)) (Dme.Subtree.leaf inst.sinks.(1))
  in
  match r.subtree.build with
  | Dme.Subtree.Merge { lengths = Dme.Subtree.Split { total; split_lo; split_hi }; _ } ->
    check_float "total" 2000. total;
    Alcotest.(check bool) "split range ordered" true (split_lo <= split_hi);
    (* Nominal bookkeeping: the recorded delay is that of the balanced
       split, which lies inside the admissible split range; widths stay
       exact (0 for a single sink). *)
    let iv0 = Dme.Subtree.IntMap.find 0 r.subtree.delay in
    check_float "single sink keeps zero width" 0. (Interval.width iv0);
    let w len = Rc.Elmore.wire_delay inst.params ~len ~load:20. in
    Alcotest.(check bool) "nominal delay within split range" true
      (iv0.Interval.lo >= w split_lo -. 1e-9 && iv0.Interval.hi <= w split_hi +. 1e-9)
  | _ -> Alcotest.fail "expected a split merge"

let test_merge_shared_one () =
  (* Subtrees {g0, g1} and {g1, g2}: share exactly one group. *)
  let inst =
    instance ~bound:10. ~n_groups:3
      [ sink 0 0. 0. 0; sink 1 100. 0. 1; sink 2 5000. 0. 1; sink 3 5100. 0. 2 ]
  in
  let l i = Dme.Subtree.leaf inst.sinks.(i) in
  let a = (merge inst ~id:10 (l 0) (l 1)).subtree in
  let b = (merge inst ~id:11 (l 2) (l 3)).subtree in
  let r = merge inst ~id:12 a b in
  Alcotest.(check bool) "kind" true (r.kind = Dme.Merge.Shared_one);
  Alcotest.(check bool) "feasible" true r.feasible;
  let iv1 = Dme.Subtree.IntMap.find 1 r.subtree.delay in
  Alcotest.(check bool) "shared group within bound" true
    (Interval.width iv1 <= 10. +. 1e-6)

let test_merge_shared_multi () =
  (* Both subtrees contain groups {0, 1}. *)
  let inst =
    instance ~bound:10. ~n_groups:2
      [
        sink 0 0. 0. 0;
        sink 1 100. 0. 1;
        sink 2 5000. 0. 0;
        sink 3 5100. 0. 1;
      ]
  in
  let l i = Dme.Subtree.leaf inst.sinks.(i) in
  let a = (merge inst ~id:10 (l 0) (l 1)).subtree in
  let b = (merge inst ~id:11 (l 2) (l 3)).subtree in
  let r = merge inst ~id:12 a b in
  Alcotest.(check bool) "kind" true (r.kind = Dme.Merge.Shared_multi);
  List.iter
    (fun g ->
      let iv = Dme.Subtree.IntMap.find g r.subtree.delay in
      Alcotest.(check bool)
        (Printf.sprintf "group %d within bound" g)
        true
        (Interval.width iv <= 10. +. 1e-6))
    [ 0; 1 ]

(* --- Order --------------------------------------------------------------- *)

let mk_instance n ~n_groups ~bound =
  let rng = Workload.Rng.create 42L in
  let sinks =
    List.init n (fun i ->
        sink i
          (Workload.Rng.float_range rng 0. 10000.)
          (Workload.Rng.float_range rng 0. 10000.)
          (i mod n_groups))
  in
  instance ~bound ~n_groups sinks

let test_order_reduces_to_one () =
  let inst = mk_instance 33 ~n_groups:3 ~bound:10. in
  let merge_cb ~id a b = (merge inst ~id a b).subtree in
  let cost (a : Dme.Subtree.t) (b : Dme.Subtree.t) =
    Octagon.dist a.region b.region
  in
  let root, stats = Dme.Order.run inst Dme.Order.default ~cost ~merge:merge_cb in
  Alcotest.(check int) "all sinks" 33 root.n_sinks;
  Alcotest.(check bool) "several rounds" true (stats.rounds >= 2);
  (* single-pair mode produces one merge per round *)
  let config = { Dme.Order.default with multi_merge = false } in
  let root1, stats1 = Dme.Order.run inst config ~cost ~merge:merge_cb in
  Alcotest.(check int) "all sinks single" 33 root1.n_sinks;
  Alcotest.(check int) "n-1 rounds" 32 stats1.rounds

(* Endgame audit: the smallest instances exercise the final 2- and
   3-subtree rounds of the nearest-neighbour loop, where a grid query
   returning [] (or a knn misconfiguration) used to stall the order. *)
let test_order_two_sink_endgame () =
  let inst = instance ~bound:10. ~n_groups:2 [ sink 0 0. 0. 0; sink 1 700. 300. 1 ] in
  let merge_cb ~id a b = (merge inst ~id a b).subtree in
  let cost (a : Dme.Subtree.t) (b : Dme.Subtree.t) =
    Octagon.dist a.region b.region
  in
  let root, stats = Dme.Order.run inst Dme.Order.default ~cost ~merge:merge_cb in
  Alcotest.(check int) "both sinks merged" 2 root.n_sinks;
  Alcotest.(check int) "one round" 1 stats.Dme.Order.rounds

let test_order_three_sink_endgame () =
  let inst =
    instance ~bound:10. ~n_groups:3
      [ sink 0 0. 0. 0; sink 1 900. 0. 1; sink 2 0. 900. 2 ]
  in
  let merge_cb ~id a b = (merge inst ~id a b).subtree in
  let cost (a : Dme.Subtree.t) (b : Dme.Subtree.t) =
    Octagon.dist a.region b.region
  in
  let root, _ = Dme.Order.run inst Dme.Order.default ~cost ~merge:merge_cb in
  Alcotest.(check int) "all three sinks merged" 3 root.n_sinks

let test_order_knn_zero_clamped () =
  (* knn = 0 used to make every query return [] and loop forever; it is
     now clamped to 1. *)
  let inst = mk_instance 12 ~n_groups:2 ~bound:10. in
  let merge_cb ~id a b = (merge inst ~id a b).subtree in
  let cost (a : Dme.Subtree.t) (b : Dme.Subtree.t) =
    Octagon.dist a.region b.region
  in
  let config = { Dme.Order.default with knn = 0 } in
  let root, _ = Dme.Order.run inst config ~cost ~merge:merge_cb in
  Alcotest.(check int) "all sinks merged" 12 root.n_sinks

(* Distance-mode ranking stops at a probe's first feasible candidate in
   ascending (distance, id) order; cost mode scores every candidate with
   [dist + (if feasible then 0 else P)] and takes the least (cost, id).
   The two must pick the same partner at the same cost for every probe,
   hence build the same tree round by round, at jobs 1 and 2.  The
   feasibility predicate is a pseudo-random function of the pair: all,
   most or none of the pairs feasible.  The penalties cover the engine's
   huge one, one below most candidate distances (the guard falls back
   to scoring every candidate) and one that splits them.  The lattice
   instance ties many distances, so a partner choice that ignored the
   id tie-break would differ. *)
let test_order_first_feasible_exact () =
  let random_instance =
    let rng = Workload.Rng.create 7L in
    instance ~bound:10. ~n_groups:3
      (List.init 120 (fun i ->
           sink i
             (Workload.Rng.float_range rng 0. 3000.)
             (Workload.Rng.float_range rng 0. 3000.)
             (i mod 3)))
  in
  let lattice_instance =
    instance ~bound:10. ~n_groups:3
      (List.init 144 (fun i ->
           sink i
             (100. *. float_of_int (i mod 12))
             (100. *. float_of_int (i / 12))
             (i * 7 mod 3)))
  in
  let run ?pool inst ranking =
    let merger = Dme.Order.of_merge (fun ~id a b -> (merge inst ~id a b).subtree) in
    let rounds = ref [] in
    let on_round (r : Dme.Order.round_info) =
      rounds := (r.round, r.active, r.probes, r.merges, r.best_cost) :: !rounds
    in
    let root, stats =
      Dme.Order.run_ranked ?pool ~on_round inst Dme.Order.default ~ranking
        ~merger
    in
    (Marshal.to_string root [], stats, List.rev !rounds)
  in
  let tests = Atomic.make 0 in
  List.iter
    (fun (iname, inst) ->
      List.iter
        (fun pct ->
          let feasible ~dist:_ (a : Dme.Subtree.t) (b : Dme.Subtree.t) =
            Atomic.incr tests;
            Hashtbl.hash (a.id, b.id, 17) mod 100 < pct
          in
          List.iter
            (fun penalty ->
              let name = Printf.sprintf "%s, %d%% feasible, P=%g" iname pct penalty in
              let by_distance = Dme.Order.By_distance { feasible; penalty } in
              let by_cost =
                Dme.Order.By_cost
                  {
                    session =
                      (fun () ->
                        ( (fun ~dist a b ->
                            if feasible ~dist a b then dist else dist +. penalty),
                          fun () -> () ));
                    absorb = ignore;
                  }
              in
              let expected = run inst by_cost in
              Atomic.set tests 0;
              let ((_, stats, _) as serial) = run inst by_distance in
              if pct = 100 && penalty > 1e6 then
                Alcotest.(check int) (name ^ ": one test per probe")
                  stats.nn_probes (Atomic.get tests);
              Alcotest.(check bool) (name ^ ": jobs 1") true (serial = expected);
              Par.Pool.with_pool ~jobs:2 (fun pool ->
                  Alcotest.(check bool) (name ^ ": jobs 2, distance") true
                    (run ?pool inst by_distance = expected);
                  Alcotest.(check bool) (name ^ ": jobs 2, cost") true
                    (run ?pool inst by_cost = expected)))
            [ 1e13; 1.; 150. ])
        [ 100; 60; 0 ])
    [ ("random", random_instance); ("lattice", lattice_instance) ]

(* --- Embed --------------------------------------------------------------- *)

let rec check_positions_consistent = function
  | Tree.Leaf _ -> ()
  | Tree.Node n ->
    let check len child =
      let d = Pt.dist n.pos (Tree.pos child) in
      Alcotest.(check bool) "edge covers distance" true (len +. 1e-4 >= d)
    in
    check n.llen n.left;
    check n.rlen n.right;
    check_positions_consistent n.left;
    check_positions_consistent n.right

let test_embed_valid_tree () =
  let inst = mk_instance 25 ~n_groups:2 ~bound:10. in
  let routed, _ = Dme.Engine.run inst in
  Alcotest.(check int) "sinks preserved" 25 (Tree.n_sinks routed.tree);
  check_positions_consistent routed.tree;
  Alcotest.(check bool) "source wire covers distance" true
    (routed.source_len +. 1e-4 >= Pt.dist routed.source (Tree.pos routed.tree))

(* Arena-direct embedding must be bit-identical — every column, every
   float — to the reference path (recursive embed, [Tree.route], then
   [Arena.of_routed]), for every generation regime and any jobs count.
   The oracle compares the two arenas field by field. *)
let prop_embed_arena_identity =
  let regimes = Check.Gen.all_regimes in
  let gen =
    QCheck.Gen.(
      let* seed = 1 -- 10_000 in
      let* index = 0 -- (Array.length regimes - 1) in
      return (seed, index))
  in
  QCheck.Test.make ~name:"arena embed = reference embed (all regimes)"
    ~count:27
    (QCheck.make
       ~print:(fun (seed, index) ->
         Printf.sprintf "seed=%d regime=%s" seed
           (Check.Gen.regime_to_string regimes.(index)))
       gen)
    (fun (seed, index) ->
      let case =
        Check.Gen.case ~regime:regimes.(index) ~seed:(Int64.of_int seed)
          ~index ()
      in
      Check.Oracle.invariance
        ~rows:[ ("embed-identity", [ 1; 2; 4 ]) ]
        case.Check.Gen.instance
      = [])

(* The Banked regime (10^3—4*10^3 sinks in dense banks) rides the same
   identity through a benchmark-scale plan. *)
let test_embed_identity_banked () =
  let case = Check.Gen.case ~regime:Check.Gen.Banked ~seed:11L ~index:0 () in
  Alcotest.(check (list string))
    "banked embed identity" []
    (List.map
       (fun (f : Check.Oracle.finding) -> f.oracle)
       (Check.Oracle.invariance
          ~rows:[ ("embed-identity", [ 2 ]) ]
          case.Check.Gen.instance))

(* A 240k-node left-deep merge plan: the iterative arena embed must
   walk it in constant stack (the recursive reference embedder would
   need ~120k frames), and the iterative rebuild must survive too. *)
let test_embed_deep_comb_stack_safety () =
  let n = 120_000 in
  let sinks = Array.init n (fun i -> sink i (float_of_int i) 0. 0) in
  let inst = Instance.make ~bound:1e9 ~source:(pt 0. 0.) ~n_groups:1 sinks in
  let root = ref (Dme.Subtree.leaf sinks.(0)) in
  for i = 1 to n - 1 do
    root :=
      (merge inst ~id:(n + i) !root (Dme.Subtree.leaf sinks.(i))).subtree
  done;
  let a = Dme.Embed.run_arena inst !root in
  Alcotest.(check int) "node count" ((2 * n) - 1) a.Arena.n;
  Alcotest.(check int) "sink count" n a.Arena.n_sinks;
  let routed = Arena.to_routed a in
  Alcotest.(check int) "sinks preserved" n (Tree.n_sinks routed.tree)

(* --- Engine end-to-end --------------------------------------------------- *)

let test_engine_zero_skew () =
  let inst = mk_instance 30 ~n_groups:1 ~bound:0. in
  let routed, stats = Dme.Engine.run inst in
  let routed, _ = Repair.run inst routed in
  let report = Evaluate.run inst routed in
  Alcotest.(check bool) "zero skew achieved" true (report.global_skew <= 1e-4);
  Alcotest.(check int) "all merges same-group" 29 stats.same_group

let test_engine_stats_add_up () =
  let inst = mk_instance 40 ~n_groups:4 ~bound:10. in
  let _, stats = Dme.Engine.run inst in
  Alcotest.(check int) "n-1 merges total" 39
    (stats.same_group + stats.cross_group + stats.shared_one + stats.shared_multi);
  Alcotest.(check bool) "cross merges happened" true (stats.cross_group > 0)

(* --- Parallel ranking determinism ---------------------------------------- *)

let test_parallel_bit_identical () =
  (* Parallel cost ranking must be a pure speedup: jobs=1 and jobs=4
     must produce bit-identical trees — positions, exact edge lengths,
     sink delays — AND identical trial-merge counts (proving the
     workers ran exactly the trials the serial code would have). *)
  List.iter
    (fun name ->
      let spec = Option.get (Workload.Circuits.find name) in
      let inst =
        Workload.Circuits.instance spec ~n_groups:6
          ~scheme:Workload.Partition.Intermingled ~bound:10. ()
      in
      let serial = Astskew.Router.ast_dme ~jobs:1 inst in
      let par = Astskew.Router.ast_dme ~jobs:4 inst in
      Alcotest.(check bool)
        (name ^ ": identical topology and embedding")
        true
        (Check.Audit.tree_equal serial.routed par.routed);
      Alcotest.(check bool)
        (name ^ ": identical wirelength/skews")
        true
        (serial.evaluation.wirelength = par.evaluation.wirelength
        && serial.evaluation.global_skew = par.evaluation.global_skew
        && serial.evaluation.max_group_skew = par.evaluation.max_group_skew);
      Alcotest.(check bool)
        (name ^ ": identical per-sink delays")
        true
        (serial.evaluation.delays = par.evaluation.delays);
      Alcotest.(check bool)
        (name ^ ": identical trial merges")
        true
        (serial.engine.trial_merges = par.engine.trial_merges
        (* Distance-cost ranking answers feasibility from the constraint
           windows (Merge.committed_feasible), so probes run no trial
           merges at all. *)
        && serial.engine.trial_merges = 0))
    [ "r1"; "r2" ]

let test_dedupe_pairs () =
  let open Dme.Order in
  Alcotest.(check (list (triple (float 0.) int int)))
    "empty" [] (dedupe_pairs []);
  (* Pre-sorted by (i, j, cost): the first entry of each (i, j) run —
     the cheapest — survives. *)
  Alcotest.(check (list (triple (float 0.) int int)))
    "collapses runs to the cheapest"
    [ (1., 0, 1); (5., 0, 2); (2., 1, 3) ]
    (dedupe_pairs
       [ (1., 0, 1); (3., 0, 1); (5., 0, 2); (2., 1, 3); (2., 1, 3) ])

let test_dedupe_pairs_large () =
  (* Regression: the former non-tail recursion overflowed the stack at
     Gen.Huge-scale pair counts. *)
  let n = 400_000 in
  let pairs = List.init n (fun i -> (float_of_int i, i, i + 1)) in
  Alcotest.(check int) "all distinct pairs survive" n
    (List.length (Dme.Order.dedupe_pairs pairs))

let prop_engine_respects_bound =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 40 in
      let* n_groups = int_range 1 5 in
      let* bound = oneofl [ 0.; 10.; 50. ] in
      let* per_group = QCheck.Gen.bool in
      let* seed = int_range 0 10000 in
      return (n, n_groups, bound, per_group, seed))
  in
  QCheck.Test.make ~name:"engine+repair respects intra-group bound" ~count:120
    (QCheck.make ~print:(fun (n, g, b, pg, s) ->
         Printf.sprintf "n=%d groups=%d bound=%g per_group=%b seed=%d" n g b pg s)
       gen)
    (fun (n, n_groups, bound, per_group, seed) ->
      let rng = Workload.Rng.create (Int64.of_int seed) in
      let sinks =
        List.init n (fun i ->
            Sink.make ~id:i
              ~loc:(pt (Workload.Rng.float_range rng 0. 30000.)
                      (Workload.Rng.float_range rng 0. 30000.))
              ~cap:(Workload.Rng.float_range rng 5. 100.)
              ~group:(Workload.Rng.int rng n_groups))
      in
      let n_groups =
        1 + List.fold_left (fun m (s : Sink.t) -> Int.max m s.group) 0 sinks
      in
      let group_bounds =
        if per_group then
          Some (Array.init n_groups (fun _ -> Workload.Rng.float_range rng 0. 30.))
        else None
      in
      let inst =
        Instance.make ~bound ?group_bounds ~source:(pt 0. 0.) ~n_groups
          (Array.of_list sinks)
      in
      let routed, _ = Dme.Engine.run inst in
      let routed, rstats = Repair.run inst routed in
      let report = Evaluate.run inst routed in
      rstats.unresolved_groups = 0 && Evaluate.within_bound inst report)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dme"
    [
      ( "subtree",
        [
          Alcotest.test_case "leaf" `Quick test_subtree_leaf;
          Alcotest.test_case "shared groups" `Quick test_subtree_shared_groups;
        ] );
      ( "merge",
        [
          Alcotest.test_case "same group zero skew" `Quick
            test_merge_same_group_zero_skew;
          Alcotest.test_case "same group snaking" `Quick
            test_merge_same_group_snaking;
          Alcotest.test_case "cross group" `Quick test_merge_cross_group;
          Alcotest.test_case "cross group intervals" `Quick
            test_merge_cross_group_interval_soundness;
          Alcotest.test_case "shared one" `Quick test_merge_shared_one;
          Alcotest.test_case "shared multi" `Quick test_merge_shared_multi;
        ] );
      ( "order",
        [
          Alcotest.test_case "reduces to one" `Quick test_order_reduces_to_one;
          Alcotest.test_case "two-sink endgame" `Quick test_order_two_sink_endgame;
          Alcotest.test_case "three-sink endgame" `Quick
            test_order_three_sink_endgame;
          Alcotest.test_case "knn=0 clamped" `Quick test_order_knn_zero_clamped;
          Alcotest.test_case "first feasible equals full scoring" `Quick
            test_order_first_feasible_exact;
          Alcotest.test_case "dedupe pairs" `Quick test_dedupe_pairs;
          Alcotest.test_case "dedupe pairs large (stack safety)" `Quick
            test_dedupe_pairs_large;
        ] );
      ( "embed",
        [
          Alcotest.test_case "valid tree" `Quick test_embed_valid_tree;
          Alcotest.test_case "deep comb stack safety" `Quick
            test_embed_deep_comb_stack_safety;
          Alcotest.test_case "banked identity" `Slow test_embed_identity_banked;
        ]
        @ qsuite [ prop_embed_arena_identity ] );
      ( "engine",
        [
          Alcotest.test_case "zero skew" `Quick test_engine_zero_skew;
          Alcotest.test_case "stats add up" `Quick test_engine_stats_add_up;
          Alcotest.test_case "parallel ranking bit-identical" `Slow
            test_parallel_bit_identical;
        ]
        @ qsuite [ prop_engine_respects_bound ] );
    ]
