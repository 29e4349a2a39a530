(* Tests for the geometry kernel: canonical octagons, distances, SDRs and
   the spatial grid.  The qcheck properties pin down the exactness claims
   the DME engine relies on. *)

open Geometry

let pt = Pt.make

let check_float msg expected actual =
  Alcotest.(check (float 1e-6)) msg expected actual

(* --- Pt ----------------------------------------------------------------- *)

let test_pt_dist () =
  check_float "L1 dist" 7. (Pt.dist (pt 0. 0.) (pt 3. 4.));
  check_float "Linf dist" 4. (Pt.dist_linf (pt 0. 0.) (pt 3. 4.));
  check_float "rotated s" 7. (Pt.s (pt 3. 4.));
  check_float "rotated d" (-1.) (Pt.d (pt 3. 4.));
  let p = pt 3. 4. in
  Alcotest.(check bool) "of_sd inverse" true (Pt.equal p (Pt.of_sd (Pt.s p) (Pt.d p)))

(* --- Interval ----------------------------------------------------------- *)

let test_interval () =
  let a = Interval.make 0. 4. and b = Interval.make 6. 9. in
  check_float "gap" 2. (Interval.gap a b);
  check_float "gap sym" 2. (Interval.gap b a);
  check_float "overlap gap" 0. (Interval.gap a (Interval.make 3. 5.));
  Alcotest.(check bool) "empty" true (Interval.is_empty (Interval.make 2. 1.));
  Alcotest.(check bool)
    "inter" true
    (Interval.equal (Interval.inter a (Interval.make 2. 9.)) (Interval.make 2. 4.));
  check_float "width" 4. (Interval.width a);
  check_float "clamp low" 0. (Interval.clamp a (-3.));
  check_float "clamp high" 4. (Interval.clamp a 9.)

(* --- Octagon: construction and canonical form --------------------------- *)

let test_octagon_canonical () =
  (* Triangle x >= 0, y >= 0, x + y <= 2: the x and y upper bounds must be
     tightened to 2 by closure. *)
  let o =
    Octagon.of_bounds ~xl:0. ~xh:10. ~yl:0. ~yh:10. ~sl:Float.neg_infinity
      ~sh:2. ~dl:Float.neg_infinity ~dh:Float.infinity
  in
  match Octagon.bounds o with
  | None -> Alcotest.fail "triangle should not be empty"
  | Some b ->
    check_float "xh tightened" 2. b.xh;
    check_float "yh tightened" 2. b.yh;
    check_float "sl tightened" 0. b.sl;
    check_float "dl tightened" (-2.) b.dl;
    check_float "dh tightened" 2. b.dh

let test_octagon_empty () =
  let o =
    Octagon.of_bounds ~xl:0. ~xh:1. ~yl:0. ~yh:1. ~sl:10. ~sh:20.
      ~dl:Float.neg_infinity ~dh:Float.infinity
  in
  Alcotest.(check bool) "inconsistent bounds are empty" true (Octagon.is_empty o);
  Alcotest.(check bool) "empty is empty" true (Octagon.is_empty Octagon.empty);
  let a = Octagon.of_point (pt 0. 0.) and b = Octagon.of_point (pt 5. 5.) in
  Alcotest.(check bool) "disjoint inter" true (Octagon.is_empty (Octagon.inter a b))

let test_octagon_point () =
  let p = pt 3. 7. in
  let o = Octagon.of_point p in
  Alcotest.(check bool) "contains itself" true (Octagon.contains o p);
  Alcotest.(check bool) "is_point" true (Octagon.is_point o);
  check_float "dist to other point" 9. (Octagon.dist_pt o (pt 10. 9.));
  Alcotest.(check bool) "center" true (Pt.equal p (Octagon.center o))

let test_octagon_box () =
  let o = Octagon.box (pt 0. 0.) (pt 4. 3.) in
  Alcotest.(check bool) "contains corner" true (Octagon.contains o (pt 4. 0.));
  Alcotest.(check bool) "contains mid" true (Octagon.contains o (pt 2. 1.5));
  Alcotest.(check bool) "excludes outside" false (Octagon.contains o (pt 5. 1.));
  check_float "area" 12. (Octagon.area o);
  check_float "diameter" 7. (Octagon.diameter o);
  Alcotest.(check int) "4 vertices" 4 (List.length (Octagon.vertices o))

let test_octagon_segment () =
  let arc = Octagon.of_segment (pt 0. 4.) (pt 4. 0.) in
  Alcotest.(check bool) "midpoint on arc" true (Octagon.contains arc (pt 2. 2.));
  Alcotest.(check bool) "off-arc point" false (Octagon.contains arc (pt 2. 3.));
  check_float "arc area" 0. (Octagon.area arc);
  check_float "arc diameter" 8. (Octagon.diameter arc);
  Alcotest.check_raises "non-octilinear rejected"
    (Invalid_argument "Octagon.of_segment: (0, 0)-(5, 2) is not octilinear")
    (fun () -> ignore (Octagon.of_segment (pt 0. 0.) (pt 5. 2.)))

let test_octagon_ball () =
  let o = Octagon.ball (pt 5. 5.) 2. in
  Alcotest.(check bool) "corner" true (Octagon.contains o (pt 7. 5.));
  Alcotest.(check bool) "diag outside" false (Octagon.contains o (pt 6.5 6.5));
  check_float "ball area" 8. (Octagon.area o)

let test_octagon_dist_segments () =
  (* Two parallel horizontal segments offset vertically. *)
  let a = Octagon.of_segment (pt 0. 0.) (pt 10. 0.) in
  let b = Octagon.of_segment (pt 0. 5.) (pt 10. 5.) in
  check_float "parallel segments" 5. (Octagon.dist a b);
  (* Shifted apart horizontally: L1 distance adds the gaps. *)
  let c = Octagon.of_segment (pt 20. 7.) (pt 30. 7.) in
  check_float "diagonal offset" 17. (Octagon.dist a c);
  (* Overlapping regions have distance 0. *)
  let d = Octagon.box (pt 5. (-1.)) (pt 6. 1.) in
  check_float "overlap" 0. (Octagon.dist a d)

let test_octagon_inflate () =
  let a = Octagon.of_point (pt 0. 0.) in
  let t = Octagon.inflate 3. a in
  check_float "trr dist" 4. (Octagon.dist_pt t (pt 7. 0.));
  Alcotest.(check bool) "trr contains radius pt" true (Octagon.contains t (pt 1. 2.));
  (* Inflating by the full distance makes regions touch. *)
  let b = Octagon.of_point (pt 10. 0.) in
  let r = Octagon.dist a b in
  let meet = Octagon.inter (Octagon.inflate 4. a) (Octagon.inflate (r -. 4.) b) in
  Alcotest.(check bool) "trr intersection nonempty" false (Octagon.is_empty meet);
  Alcotest.(check bool) "meeting point" true (Octagon.contains meet (pt 4. 0.))

let test_octagon_nearest_point () =
  let o = Octagon.box (pt 0. 0.) (pt 4. 4.) in
  let p = pt 10. 2. in
  let q = Octagon.nearest_point o p in
  Alcotest.(check bool) "nearest inside" true (Octagon.contains o q);
  Alcotest.(check (float 1e-4)) "nearest dist" (Octagon.dist_pt o p)
    (Pt.dist p q);
  let inside = pt 1. 1. in
  Alcotest.(check bool) "inside point maps to itself" true
    (Pt.equal inside (Octagon.nearest_point o inside))

let test_octagon_sdr () =
  (* SDR of two points is their bounding box. *)
  let a = Octagon.of_point (pt 0. 0.) and b = Octagon.of_point (pt 6. 4.) in
  let s = Octagon.sdr a b in
  Alcotest.(check bool) "sdr contains interior staircase pt" true
    (Octagon.contains s (pt 3. 2.));
  Alcotest.(check bool) "sdr contains corner" true (Octagon.contains s (pt 6. 0.));
  Alcotest.(check bool) "sdr excludes detour" false (Octagon.contains s (pt 3. 5.));
  check_float "sdr area" 24. (Octagon.area s);
  (* Every SDR point is on a shortest path. *)
  let c = Octagon.center s in
  check_float "center splits distance" (Octagon.dist a b)
    (Octagon.dist_pt a c +. Octagon.dist_pt b c)

let test_octagon_hull () =
  let a = Octagon.of_point (pt 0. 0.) and b = Octagon.of_point (pt 4. 0.) in
  let h = Octagon.hull a b in
  Alcotest.(check bool) "hull contains mid" true (Octagon.contains h (pt 2. 0.));
  Alcotest.(check bool) "hull excludes off-line" false (Octagon.contains h (pt 2. 1.));
  let h2 = Octagon.hull_list [ a; b; Octagon.of_point (pt 2. 2.) ] in
  Alcotest.(check bool) "hull_list grows" true (Octagon.contains h2 (pt 2. 1.))

let test_octagon_translate () =
  let o = Octagon.box (pt 0. 0.) (pt 2. 2.) in
  let t = Octagon.translate (pt 10. (-5.)) o in
  Alcotest.(check bool) "translated corner" true (Octagon.contains t (pt 12. (-3.)));
  Alcotest.(check bool) "old corner gone" false (Octagon.contains t (pt 0. 0.))

(* --- qcheck properties --------------------------------------------------- *)

let coord = QCheck.Gen.float_range (-1000.) 1000.

let gen_pt = QCheck.Gen.map2 pt coord coord

(* Random octagon as the octilinear hull of 1-5 random points; the
   generating points are recorded so membership witnesses are available. *)
let gen_oct_with_pts =
  QCheck.Gen.(
    list_size (int_range 1 5) gen_pt >|= fun pts ->
    (Octagon.hull_list (List.map Octagon.of_point pts), pts))

let arb_oct_with_pts =
  QCheck.make
    ~print:(fun (o, _) -> Format.asprintf "%a" Octagon.pp o)
    gen_oct_with_pts

let arb_two_octs =
  QCheck.make
    ~print:(fun ((a, _), (b, _)) ->
      Format.asprintf "%a / %a" Octagon.pp a Octagon.pp b)
    QCheck.Gen.(pair gen_oct_with_pts gen_oct_with_pts)

let arb_oct_and_pt =
  QCheck.make
    ~print:(fun ((o, _), p) ->
      Format.asprintf "%a / %a" Octagon.pp o Pt.pp p)
    QCheck.Gen.(pair gen_oct_with_pts gen_pt)

let prop_generators_contained =
  QCheck.Test.make ~name:"hull contains generating points" ~count:300
    arb_oct_with_pts (fun (o, pts) ->
      List.for_all (Octagon.contains o) pts)

let prop_pick_point_inside =
  QCheck.Test.make ~name:"pick_point lies inside" ~count:300 arb_oct_with_pts
    (fun (o, _) -> Octagon.contains o (Octagon.pick_point o))

let prop_dist_lower_bound =
  QCheck.Test.make ~name:"dist is a lower bound on point pairs" ~count:300
    arb_two_octs (fun ((a, pas), (b, pbs)) ->
      let d = Octagon.dist a b in
      List.for_all
        (fun pa -> List.for_all (fun pb -> Pt.dist pa pb +. 1e-6 >= d) pbs)
        pas)

let prop_closest_pair_realizes_dist =
  QCheck.Test.make ~name:"closest_pair realizes dist" ~count:300 arb_two_octs
    (fun ((a, _), (b, _)) ->
      let d = Octagon.dist a b in
      let pa, pb = Octagon.closest_pair a b in
      Octagon.contains a pa && Octagon.contains b pb
      && Float.abs (Pt.dist pa pb -. d) <= 1e-4)

let prop_nearest_point_exact =
  QCheck.Test.make ~name:"nearest_point realizes dist_pt" ~count:300
    arb_oct_and_pt (fun ((o, _), p) ->
      let q = Octagon.nearest_point o p in
      Octagon.contains o q
      && Float.abs (Pt.dist p q -. Octagon.dist_pt o p) <= 1e-4)

let prop_inflate_shrinks_dist =
  QCheck.Test.make ~name:"inflating by r reduces dist by r" ~count:300
    QCheck.(
      pair arb_two_octs (QCheck.make (QCheck.Gen.float_range 0. 500.)))
    (fun (((a, _), (b, _)), r) ->
      let d = Octagon.dist a b in
      let d' = Octagon.dist (Octagon.inflate r a) b in
      Float.abs (d' -. Float.max 0. (d -. r)) <= 1e-6)

let prop_inter_sound =
  QCheck.Test.make ~name:"intersection members belong to both" ~count:300
    arb_two_octs (fun ((a, _), (b, _)) ->
      let i = Octagon.inter a b in
      if Octagon.is_empty i then Octagon.dist a b >= -.1e-6
      else
        let p = Octagon.pick_point i in
        Octagon.contains a p && Octagon.contains b p)

let prop_inter_empty_iff_positive_dist =
  QCheck.Test.make ~name:"empty intersection iff positive distance"
    ~count:300 arb_two_octs (fun ((a, _), (b, _)) ->
      let d = Octagon.dist a b in
      let i = Octagon.inter a b in
      if Octagon.is_empty i then d > -.1e-6 else d <= 1e-6)

let prop_sdr_points_on_shortest_paths =
  QCheck.Test.make ~name:"sdr vertices split the distance" ~count:200
    arb_two_octs (fun ((a, _), (b, _)) ->
      let d = Octagon.dist a b in
      let s = Octagon.sdr a b in
      (not (Octagon.is_empty s))
      && List.for_all
           (fun p ->
             Float.abs (Octagon.dist_pt a p +. Octagon.dist_pt b p -. d)
             <= 1e-4)
           (Octagon.center s :: Octagon.vertices s))

let prop_diameter =
  QCheck.Test.make ~name:"diameter bounds generating point spread" ~count:300
    arb_oct_with_pts (fun (o, pts) ->
      let dia = Octagon.diameter o in
      List.for_all
        (fun p -> List.for_all (fun q -> Pt.dist p q <= dia +. 1e-6) pts)
        pts)

let prop_vertices_inside =
  QCheck.Test.make ~name:"vertices lie inside" ~count:300 arb_oct_with_pts
    (fun (o, _) -> List.for_all (Octagon.contains o) (Octagon.vertices o))

(* Brute-force cross-check of dist_pt: sample a fine grid over the
   bounding box and compare the best sampled distance with the closed
   form.  The grid only bounds from above, so allow the grid pitch as
   slack. *)
let prop_dist_pt_brute_force =
  QCheck.Test.make ~name:"dist_pt matches brute force" ~count:100
    arb_oct_and_pt (fun ((o, _), p) ->
      let xr = Octagon.x_range o and yr = Octagon.y_range o in
      let n = 24 in
      let pitch =
        Float.max (Interval.width xr) (Interval.width yr) /. float_of_int n
      in
      let best = ref Float.infinity in
      for i = 0 to n do
        for j = 0 to n do
          let q =
            pt
              (xr.lo +. (Interval.width xr *. float_of_int i /. float_of_int n))
              (yr.lo +. (Interval.width yr *. float_of_int j /. float_of_int n))
          in
          if Octagon.contains o q then best := Float.min !best (Pt.dist p q)
        done
      done;
      let d = Octagon.dist_pt o p in
      (* closed form is a lower bound and within 2 grid pitches above *)
      d <= !best +. 1e-6 && !best <= d +. (2. *. pitch) +. 1e-6)

(* Brute-force cross-check of the set-to-set distance: sample grids over
   both octagons and compare the best sampled pair against the closed
   form, which must bound from below and sit within the combined grid
   pitch above. *)
let prop_dist_brute_force =
  QCheck.Test.make ~name:"dist matches brute force" ~count:60 arb_two_octs
    (fun ((a, _), (b, _)) ->
      let samples o =
        let xr = Octagon.x_range o and yr = Octagon.y_range o in
        let n = 12 in
        let pts = ref [] in
        for i = 0 to n do
          for j = 0 to n do
            let q =
              pt
                (xr.lo +. (Interval.width xr *. float_of_int i /. float_of_int n))
                (yr.lo +. (Interval.width yr *. float_of_int j /. float_of_int n))
            in
            if Octagon.contains o q then pts := q :: !pts
          done
        done;
        let pitch =
          Float.max (Interval.width xr) (Interval.width yr) /. float_of_int n
        in
        (!pts, pitch)
      in
      let pa, pitch_a = samples a and pb, pitch_b = samples b in
      let best = ref Float.infinity in
      List.iter
        (fun p -> List.iter (fun q -> best := Float.min !best (Pt.dist p q)) pb)
        pa;
      let d = Octagon.dist a b in
      d <= !best +. 1e-6
      && !best <= d +. (2. *. (pitch_a +. pitch_b)) +. 1e-6)

let prop_inter_commutes =
  QCheck.Test.make ~name:"intersection commutes" ~count:300 arb_two_octs
    (fun ((a, _), (b, _)) ->
      Octagon.equal (Octagon.inter a b) (Octagon.inter b a))

let prop_dist_symmetric =
  QCheck.Test.make ~name:"dist is symmetric" ~count:300 arb_two_octs
    (fun ((a, _), (b, _)) ->
      Float.abs (Octagon.dist a b -. Octagon.dist b a) <= 1e-9)

(* Set distance obeys a triangle inequality once crossing the middle set
   is paid for: d(A,C) <= d(A,B) + diam(B) + d(B,C). *)
let prop_dist_triangle =
  QCheck.Test.make ~name:"dist triangle inequality through a set" ~count:200
    QCheck.(pair arb_two_octs arb_oct_with_pts)
    (fun (((a, _), (c, _)), (b, _)) ->
      Octagon.dist a c
      <= Octagon.dist a b +. Octagon.diameter b +. Octagon.dist b c +. 1e-6)

let gen_interval =
  QCheck.Gen.(map2 (fun a b -> Interval.make (Float.min a b) (Float.max a b))
                coord coord)

let arb_three_intervals =
  QCheck.make
    ~print:(fun ((a : Interval.t), (b : Interval.t), (c : Interval.t)) ->
      Printf.sprintf "[%g,%g] [%g,%g] [%g,%g]" a.lo a.hi b.lo b.hi c.lo c.hi)
    QCheck.Gen.(triple gen_interval gen_interval gen_interval)

let prop_interval_inter_commutes =
  QCheck.Test.make ~name:"interval intersection commutes" ~count:300
    arb_three_intervals (fun (a, b, _) ->
      let i = Interval.inter a b and j = Interval.inter b a in
      (Interval.is_empty i && Interval.is_empty j) || Interval.equal i j)

let prop_interval_gap_symmetric =
  QCheck.Test.make ~name:"interval gap is symmetric" ~count:300
    arb_three_intervals (fun (a, b, _) ->
      Float.abs (Interval.gap a b -. Interval.gap b a) <= 1e-9)

let prop_interval_gap_triangle =
  QCheck.Test.make ~name:"interval gap triangle through an interval"
    ~count:300 arb_three_intervals (fun (a, b, c) ->
      Interval.gap a c
      <= Interval.gap a b +. Interval.width b +. Interval.gap b c +. 1e-9)

let prop_hull_monotone =
  QCheck.Test.make ~name:"hull contains both operands" ~count:300 arb_two_octs
    (fun ((a, pas), (b, pbs)) ->
      let h = Octagon.hull a b in
      List.for_all (Octagon.contains h) (pas @ pbs))

let prop_translate_preserves_dist =
  QCheck.Test.make ~name:"translation preserves set distance" ~count:300
    QCheck.(pair arb_two_octs (QCheck.make gen_pt))
    (fun (((a, _), (b, _)), v) ->
      let d = Octagon.dist a b in
      let d' = Octagon.dist (Octagon.translate v a) (Octagon.translate v b) in
      Float.abs (d -. d') <= 1e-6)

(* --- Grid index ---------------------------------------------------------- *)

(* [Grid_index.k_nearest]'s answer as a list, through a fresh buffer two
   slots longer than [k] whose tail must come back untouched. *)
let knn_ids g ?skip p k =
  let buf = Array.make (Int.max 0 k + 2) (-7) in
  let n = Grid_index.k_nearest g ?skip p k buf in
  if Array.exists (( <> ) (-7)) (Array.sub buf n (Array.length buf - n)) then
    failwith "k_nearest wrote past its count";
  Array.to_list (Array.sub buf 0 n)

let test_grid_basic () =
  let g = Grid_index.create ~cell:10. () in
  Grid_index.add g ~id:1 (pt 0. 0.) "a";
  Grid_index.add g ~id:2 (pt 100. 0.) "b";
  Grid_index.add g ~id:3 (pt 3. 4.) "c";
  Alcotest.(check int) "size" 3 (Grid_index.size g);
  (match Grid_index.nearest g (pt 1. 1.) with
   | Some (id, _, v) ->
     Alcotest.(check int) "nearest id" 1 id;
     Alcotest.(check string) "nearest value" "a" v
   | None -> Alcotest.fail "expected a hit");
  (match Grid_index.nearest g ~skip:(fun id -> id = 1) (pt 1. 1.) with
   | Some (id, _, _) -> Alcotest.(check int) "skip works" 3 id
   | None -> Alcotest.fail "expected a hit");
  Grid_index.remove g ~id:3 (pt 3. 4.);
  Alcotest.(check int) "size after remove" 2 (Grid_index.size g);
  Alcotest.(check (list int)) "k_nearest order" [ 1; 2 ]
    (knn_ids g (pt 1. 1.) 2);
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Grid_index.k_nearest: buffer shorter than k")
    (fun () -> ignore (Grid_index.k_nearest g (pt 1. 1.) 2 (Array.make 1 0)))

let prop_grid_matches_linear_scan =
  let gen =
    QCheck.Gen.(list_size (int_range 1 40) gen_pt >>= fun pts ->
      gen_pt >|= fun q -> (pts, q))
  in
  let arb =
    QCheck.make
      ~print:(fun (pts, q) ->
        Format.asprintf "%d pts, query %a" (List.length pts) Pt.pp q)
      gen
  in
  QCheck.Test.make ~name:"grid nearest matches linear scan" ~count:200 arb
    (fun (pts, q) ->
      let g = Grid_index.create ~cell:50. () in
      List.iteri (fun i p -> Grid_index.add g ~id:i p i) pts;
      let best_scan =
        List.fold_left
          (fun acc p ->
            match acc with
            | None -> Some (Pt.dist q p)
            | Some d -> Some (Float.min d (Pt.dist q p)))
          None pts
      in
      match (Grid_index.nearest g q, best_scan) with
      | Some (_, p, _), Some d -> Float.abs (Pt.dist q p -. d) <= 1e-9
      | None, None -> true
      | _ -> false)

(* The bounded-heap k_nearest must agree with a brute-force k-NN on
   random point sets, for every k and with skip predicates (regression
   for the former O(m·k log k) accumulator re-sort). *)
let prop_grid_k_nearest_matches_brute_force =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 120 in
      let* pts = list_repeat n gen_pt in
      let* q = gen_pt in
      let* k = int_range 1 40 in
      let* cell = oneofl [ 3.; 25.; 120. ] in
      let* with_skip = bool in
      return (pts, q, k, cell, with_skip))
  in
  let arb =
    QCheck.make
      ~print:(fun (pts, _, k, cell, skip) ->
        Printf.sprintf "%d pts, k=%d cell=%g skip=%b" (List.length pts) k cell
          skip)
      gen
  in
  QCheck.Test.make ~name:"grid k_nearest matches brute force" ~count:300 arb
    (fun (pts, q, k, cell, with_skip) ->
      let skip = if with_skip then fun id -> id mod 3 = 0 else fun _ -> false in
      let g = Grid_index.create ~cell () in
      List.iteri (fun i p -> Grid_index.add g ~id:i p i) pts;
      let got = knn_ids g ~skip q k in
      let pt_of = Array.of_list pts in
      let brute =
        List.filteri (fun i _ -> not (skip i)) pts
        |> List.map (Pt.dist q)
        |> List.sort Float.compare
      in
      let expect_n = Int.min k (List.length brute) in
      List.length got = expect_n
      && List.for_all2
           (fun id d -> Float.abs (Pt.dist q pt_of.(id) -. d) <= 1e-9)
           got
           (List.filteri (fun i _ -> i < expect_n) brute)
      (* returned entries are distinct and not skipped *)
      && List.length (List.sort_uniq compare got) = expect_n
      && List.for_all (fun id -> not (skip id)) got)

(* Churn property: a random interleaving of adds, removes and queries
   must agree with a brute-force mirror at every step — the index may
   never decay under mutation (bucket resize, cell emptying, re-adds). *)
let prop_grid_churn =
  let gen =
    QCheck.Gen.(
      let* n_ops = int_range 5 120 in
      let* ops =
        list_repeat n_ops
          (let* tag = int_range 0 9 in
           let* p = gen_pt in
           let* x = int_range 0 30 in
           return (tag, p, x))
      in
      let* cell = oneofl [ 4.; 30.; 200. ] in
      return (ops, cell))
  in
  let arb =
    QCheck.make
      ~print:(fun (ops, cell) ->
        Printf.sprintf "%d ops, cell=%g" (List.length ops) cell)
      gen
  in
  QCheck.Test.make ~name:"grid survives add/remove churn" ~count:200 arb
    (fun (ops, cell) ->
      let g = Grid_index.create ~cell () in
      let mirror : (int, Pt.t) Hashtbl.t = Hashtbl.create 64 in
      let next = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let brute q =
        Hashtbl.fold (fun id p acc -> (id, Pt.dist q p) :: acc) mirror []
        |> List.sort (fun (i1, d1) (i2, d2) ->
               match Float.compare d1 d2 with
               | 0 -> Int.compare i1 i2
               | c -> c)
      in
      List.iter
        (fun (tag, p, x) ->
          match tag with
          | 0 | 1 | 2 | 3 ->
            let id = !next in
            incr next;
            Grid_index.add g ~id p p;
            Hashtbl.replace mirror id p
          | 4 | 5 ->
            (* remove the x-th live id (mod population), if any *)
            let ids =
              Hashtbl.fold (fun id _ acc -> id :: acc) mirror []
              |> List.sort Int.compare
            in
            (match ids with
             | [] -> ()
             | _ ->
               let id = List.nth ids (x mod List.length ids) in
               let pt_id = Hashtbl.find mirror id in
               Grid_index.remove g ~id pt_id;
               Hashtbl.remove mirror id)
          | 6 ->
            check (Grid_index.size g = Hashtbl.length mirror);
            let b = brute p in
            (match (Grid_index.nearest g p, b) with
             | Some (_, q, _), (_, d) :: _ ->
               check (Float.abs (Pt.dist p q -. d) <= 1e-9)
             | None, [] -> ()
             | _ -> check false)
          | _ ->
            let k = 1 + (x mod 8) in
            let got = knn_ids g p k in
            let b = brute p in
            let expect_n = Int.min k (List.length b) in
            check (List.length got = expect_n);
            List.iteri
              (fun i id ->
                match (List.nth_opt b i, Hashtbl.find_opt mirror id) with
                | Some (_, d), Some q ->
                  check (Float.abs (Pt.dist p q -. d) <= 1e-9)
                | _ -> check false)
              got)
        ops;
      !ok)

(* The dense kernel against its executable spec ([Grid_spec], the
   nested-table index it replaced): under a random add/remove/query
   churn, every [nearest] answer must match in ids, points and values,
   every [k_nearest] answer in ids and order (the spec returns entries,
   the kernel writes ids into a buffer reused across queries, as the
   ranking loop does), and every query must add exactly the spec's work
   to the [geometry.grid.*] counters.  Points come from four families: a
   coarse lattice that lands on cell boundaries and ties distances, free
   coordinates (negative included), and far outliers beyond the dense
   extent, which live in the sparse fallback. *)
let prop_grid_matches_spec =
  let grid_counters =
    List.map
      (fun n -> Option.get (Obs.Counter.find ("geometry.grid." ^ n)))
      [ "queries"; "rings_scanned"; "cells_visited"; "entries_scanned" ]
  in
  let counts () = List.map Obs.Counter.value grid_counters in
  let gen_p cell =
    QCheck.Gen.(
      let lattice = map (fun i -> cell *. float_of_int i) (int_range (-12) 12) in
      let half = map (fun i -> cell *. 0.5 *. float_of_int i) (int_range (-20) 20) in
      (* Far in cells, yet few enough rings that the spec's full-ring
         scan stays cheap. *)
      let far = map (fun i -> cell *. (float_of_int i +. 0.3)) (oneofl [ -19; -15; 14; 18 ]) in
      let free = float_range (-12. *. cell) (12. *. cell) in
      let coord = frequency [ (3, lattice); (2, half); (3, free); (1, far) ] in
      map2 pt coord coord)
  in
  let gen =
    QCheck.Gen.(
      let* cell = oneofl [ 5.; 10.; 40. ] in
      let* extent =
        oneofl [ None; Some (pt (-60.) (-60.), pt 60. 60.); Some (pt 0. (-25.), pt 300. 10.) ]
      in
      let* n_ops = int_range 5 150 in
      let* ops =
        list_repeat n_ops
          (triple (int_range 0 11) (gen_p cell) (int_range 0 40))
      in
      return (cell, extent, ops))
  in
  let arb =
    QCheck.make
      ~print:(fun (cell, extent, ops) ->
        Printf.sprintf "cell=%g extent=%b %d ops" cell (extent <> None)
          (List.length ops))
      gen
  in
  QCheck.Test.make ~name:"dense grid matches its spec" ~count:300 arb
    (fun (cell, extent, ops) ->
      let g = Grid_index.create ?extent ~cell () in
      let s = Grid_spec.create ~cell in
      let live = ref [] and next = ref 0 and ok = ref true in
      let buf = Array.make 12 (-1) in
      let spec_work () =
        let w = s.Grid_spec.work in
        [ w.queries; w.rings; w.cells; w.entries ]
      in
      (* Runs the same query on both; answers and work must agree. *)
      let same query_g query_s =
        let c0 = counts () and w0 = spec_work () in
        let a = query_g () and b = query_s () in
        let dg = List.map2 ( - ) (counts ()) c0
        and ds = List.map2 ( - ) (spec_work ()) w0 in
        if a <> b || dg <> ds then ok := false
      in
      List.iter
        (fun (tag, p, x) ->
          let skip = if x mod 4 = 0 then fun id -> id mod 3 = 0 else fun _ -> false in
          (match tag with
          | 0 | 1 | 2 | 3 ->
            let id = !next in
            incr next;
            Grid_index.add g ~id p id;
            Grid_spec.add s ~id p id;
            live := (id, p) :: !live
          | 4 | 5 | 6 -> (
            match !live with
            | [] -> ()
            | l ->
              let id, q = List.nth l (x mod List.length l) in
              Grid_index.remove g ~id q;
              Grid_spec.remove s ~id q;
              live := List.filter (fun (i, _) -> i <> id) l)
          | 7 ->
            same
              (fun () -> Option.to_list (Grid_index.nearest g ~skip p))
              (fun () -> Option.to_list (Grid_spec.nearest s ~skip p))
          | _ ->
            let k = x mod 12 in
            same
              (fun () ->
                let n = Grid_index.k_nearest g ~skip p k buf in
                Array.to_list (Array.sub buf 0 n))
              (fun () ->
                List.map (fun (id, _, _) -> id) (Grid_spec.k_nearest s ~skip p k)));
          if Grid_index.size g <> Grid_spec.size s then ok := false)
        ops;
      !ok)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "geometry"
    [
      ( "pt-interval",
        [
          Alcotest.test_case "pt distances" `Quick test_pt_dist;
          Alcotest.test_case "intervals" `Quick test_interval;
        ] );
      ( "octagon",
        [
          Alcotest.test_case "canonical closure" `Quick test_octagon_canonical;
          Alcotest.test_case "emptiness" `Quick test_octagon_empty;
          Alcotest.test_case "point octagon" `Quick test_octagon_point;
          Alcotest.test_case "box" `Quick test_octagon_box;
          Alcotest.test_case "manhattan arc" `Quick test_octagon_segment;
          Alcotest.test_case "ball" `Quick test_octagon_ball;
          Alcotest.test_case "segment distances" `Quick test_octagon_dist_segments;
          Alcotest.test_case "inflate / trr" `Quick test_octagon_inflate;
          Alcotest.test_case "nearest point" `Quick test_octagon_nearest_point;
          Alcotest.test_case "sdr" `Quick test_octagon_sdr;
          Alcotest.test_case "hull" `Quick test_octagon_hull;
          Alcotest.test_case "translate" `Quick test_octagon_translate;
        ] );
      ( "octagon-properties",
        qsuite
          [
            prop_generators_contained;
            prop_pick_point_inside;
            prop_dist_lower_bound;
            prop_closest_pair_realizes_dist;
            prop_nearest_point_exact;
            prop_inflate_shrinks_dist;
            prop_inter_sound;
            prop_inter_empty_iff_positive_dist;
            prop_sdr_points_on_shortest_paths;
            prop_diameter;
            prop_vertices_inside;
            prop_dist_pt_brute_force;
            prop_dist_brute_force;
            prop_inter_commutes;
            prop_dist_symmetric;
            prop_dist_triangle;
            prop_hull_monotone;
            prop_translate_preserves_dist;
          ] );
      ( "interval-properties",
        qsuite
          [
            prop_interval_inter_commutes;
            prop_interval_gap_symmetric;
            prop_interval_gap_triangle;
          ] );
      ( "grid-index",
        Alcotest.test_case "basic operations" `Quick test_grid_basic
        :: qsuite
             [
               prop_grid_matches_linear_scan;
               prop_grid_k_nearest_matches_brute_force;
               prop_grid_churn;
               prop_grid_matches_spec;
             ] );
    ]
