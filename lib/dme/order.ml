module Octagon = Geometry.Octagon
module Octslab = Geometry.Octslab
module Grid_index = Geometry.Grid_index
module Pt = Geometry.Pt
module Interval = Geometry.Interval
module IntMap = Subtree.IntMap

type config = {
  multi_merge : bool;
  merge_fraction : float;
  knn : int;
  delay_order_weight : float;
}

let default =
  {
    multi_merge = true;
    merge_fraction = 0.5;
    knn = 16;
    delay_order_weight = 0.;
  }

type 'note coster = {
  session : unit -> (dist:float -> Subtree.t -> Subtree.t -> float) * (unit -> 'note);
  absorb : 'note -> unit;
}

type 'merge merger = {
  compute : id:int -> Subtree.t -> Subtree.t -> 'merge;
  install : 'merge -> Subtree.t;
}

type 'note ranking =
  | By_distance of {
      feasible : dist:float -> Subtree.t -> Subtree.t -> bool;
      penalty : float;
    }
  | By_cost of 'note coster

let of_cost cost =
  {
    session = (fun () -> ((fun ~dist:_ a b -> cost a b), fun () -> ()));
    absorb = ignore;
  }

let of_merge merge =
  {
    compute = (fun ~id a b -> (id, a, b));
    install = (fun (id, a, b) -> merge ~id a b);
  }

type stats = { rounds : int; nn_probes : int }

type round_info = {
  round : int;
  active : int;
  probes : int;
  merges : int;
  best_cost : float;
  wall_s : float;
}

let c_probes = Obs.Counter.make "dme.order.nn_probes"
(* Always 0: the frozen perfbench workload still reads this counter. *)
let _c_saved = Obs.Counter.make "dme.order.nn_probes_saved"
let c_pairs = Obs.Counter.make "dme.order.pairs_ranked"
let c_rounds = Obs.Counter.make "dme.order.rounds"

(* Per-domain probe scratch: one k-NN query's candidate ids and their
   region distances.  Safe because a probe never re-enters another probe
   on the same domain. *)
type probe_scratch = { mutable ids : int array; mutable dist : floatarray }

let probe_key =
  Domain.DLS.new_key (fun () -> { ids = [||]; dist = Float.Array.create 0 })

(* Whether the first [n] candidate distances are all >= 0 (so none is
   NaN): the precondition of the first-feasible rule. *)
let all_nonneg sc n =
  let ok = ref true in
  for k = 0 to n - 1 do
    if not (Float.Array.get sc.dist k >= 0.) then ok := false
  done;
  !ok

(* The index of the least (distance, id) among the first [n] candidates
   above index [prev]'s (all of them when [prev] is -1), or -1.  Repeated
   selection: one pass per visited candidate, and probes rarely visit a
   second. *)
let next_candidate sc n prev =
  let ids = sc.ids and dist = sc.dist in
  let m = ref (-1) in
  for k = 0 to n - 1 do
    let d = Float.Array.get dist k and id = ids.(k) in
    if
      (prev < 0
      || d > Float.Array.get dist prev
      || (d = Float.Array.get dist prev && id > ids.(prev)))
      && (!m < 0
         || d < Float.Array.get dist !m
         || (d = Float.Array.get dist !m && id < ids.(!m)))
    then m := k
  done;
  !m

(* The same unordered pair can be proposed by both endpoints with
   slightly different costs (trial orientation asymmetry); keep only
   the cheapest proposal per pair.  Input: sorted by (i, j, cost).
   Accumulator form: the ranked-pair count of a round equals the active
   subtree count, so Gen.Huge-scale instances would blow the stack under
   the former non-tail recursion. *)
let dedupe_pairs pairs =
  let rec go acc = function
    | ((_, i1, j1) as p) :: (_, i2, j2) :: rest when i1 = i2 && j1 = j2 ->
      go acc (p :: rest)
    | p :: rest -> go (p :: acc) rest
    | [] -> List.rev acc
  in
  go [] pairs

let run_ranked ?pool ?(trace = Obs.Trace.null) ?(sched = Obs.Sched.null)
    ?on_round ?leaves (inst : Clocktree.Instance.t) config
    ~(ranking : 'note ranking) ~(merger : 'merge merger) =
  (* The initial population: the instance's sink leaves by default, or an
     explicit subtree array (the clustered router's region roots).  The
     arena is indexed by subtree id, so explicit leaves must carry dense
     ids [0 .. n-1] — the same invariant sink leaves satisfy. *)
  let leaves =
    match leaves with
    | None -> Array.map Subtree.leaf inst.Clocktree.Instance.sinks
    | Some ls ->
      Array.iteri
        (fun i (s : Subtree.t) ->
          if s.id <> i then
            invalid_arg "Order.run_ranked: leaf subtree ids must be dense")
        ls;
      ls
  in
  let n = Array.length leaves in
  let tracing = Obs.Trace.enabled trace in
  (* Probe costs observed in the absorb phase (main domain): the chosen
     best cost of every executed probe. *)
  let h_cost =
    if tracing then Some (Obs.Trace.histogram trace "order.probe_cost")
    else None
  in
  (* A non-positive knn would make every k-NN query return [] and stall
     the pairing loop below; clamp rather than crash. *)
  let knn = Int.max 1 config.knn in
  let cell =
    let d = Octagon.diameter (Clocktree.Instance.bbox inst) in
    let raw = d /. Float.sqrt (float_of_int (Int.max 1 n)) in
    (* The floor must be relative to the instance's extent, not the
       absolute 1.0 layout unit it used to be: a unit-square (or any
       sub-unit) instance would collapse into a single grid cell and
       degrade every k-NN query to a full scan, making ranking cost — and
       the probe/visit counters — depend on coordinate scale.  [Eps.tol]
       absolutely and [Eps.tol * d] relatively keep the cell positive for
       degenerate (single-point) instances without distorting real
       ones. *)
    Float.max (Float.max Geometry.Eps.tol (Geometry.Eps.tol *. d)) raw
  in
  (* Arena: every structure the ranking loop reads per candidate is a
     flat array indexed by subtree id.  Ids are dense — [n] leaves plus
     at most [n - 1] merges — so [2 n] slots cover the whole run and
     nothing on the probe path chases a hashtable or boxes a float.
     [slab] mirrors each alive subtree's region bounds (Octslab.dist is
     bit-identical to Octagon.dist); [cx]/[cy] its center; [hull_hi] the
     upper end of its delay hull (the only part delay biasing reads).
     Slots of merged-away ids go stale rather than being cleared — the
     loop only ever indexes ids of currently alive subtrees. *)
  let cap_ids = Int.max 2 (2 * n) in
  let node : Subtree.t option array = Array.make cap_ids None in
  let n_active = ref 0 in
  let slab = Octslab.create cap_ids in
  let cx = Float.Array.make cap_ids Float.nan in
  let cy = Float.Array.make cap_ids Float.nan in
  let hull_hi = Float.Array.make cap_ids Float.nan in
  (* The instance bbox is the grid's dense extent: its cell count is
     O(n) for the cell above, and centers outside it stay exact. *)
  let extent =
    Option.map
      (fun (b : Octagon.bounds) -> (Pt.make b.xl b.yl, Pt.make b.xh b.yh))
      (Octagon.bounds (Clocktree.Instance.bbox inst))
  in
  let grid : Subtree.t Grid_index.t = Grid_index.create ?extent ~cell () in
  let insert (s : Subtree.t) =
    let c = Octagon.center s.region in
    node.(s.id) <- Some s;
    incr n_active;
    Octslab.set slab s.id s.region;
    Float.Array.set cx s.id c.Pt.x;
    Float.Array.set cy s.id c.Pt.y;
    if config.delay_order_weight <> 0. then
      Float.Array.set hull_hi s.id
        (IntMap.fold
           (fun _ (iv : Interval.t) acc -> Float.max acc iv.hi)
           s.delay Float.neg_infinity);
    Grid_index.add grid ~id:s.id c s
  in
  let center_of id = Pt.make (Float.Array.get cx id) (Float.Array.get cy id) in
  let delete id =
    if node.(id) <> None then begin
      Grid_index.remove grid ~id (center_of id);
      node.(id) <- None;
      decr n_active
    end
  in
  Array.iter insert leaves;
  let next_id = ref n in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let subtree id =
    match node.(id) with Some t -> t | None -> assert false
  in
  (* Writes the grid candidates of [s] into the domain's scratch [sc],
     nearest center first, their region distances beside them, and
     returns the candidate count.  Runs on worker domains during a
     parallel round: the arena, [grid] and [slab] are only read. *)
  let candidates sc (s : Subtree.t) =
    Obs.Counter.incr c_probes;
    if Array.length sc.ids < knn then begin
      sc.ids <- Array.make knn 0;
      sc.dist <- Float.Array.make knn 0.
    end;
    let c = center_of s.id in
    let skip id = id = s.id in
    let n =
      match Grid_index.k_nearest grid ~skip c knn sc.ids with
      | 0 -> (
        (* Endgame guard: with two or more active subtrees a probe must
           yield a partner.  The k-NN query can only come back empty for
           degenerate indices; fall back to the exhaustive nearest scan
           so the 2-subtree endgame can never report "no partner". *)
        match Grid_index.nearest grid ~skip c with
        | Some (id, _, _) ->
          sc.ids.(0) <- id;
          1
        | None -> 0)
      | n -> n
    in
    for k = 0 to n - 1 do
      Float.Array.set sc.dist k (Octslab.dist slab s.id sc.ids.(k))
    done;
    n
  in
  (* Cheapest merge partner of [s] among its [n] candidates under [cost]
     (grid ranking is by representative point, so probe several
     candidates and refine with the true merging cost).  The (cost,
     lowest-id) argmin makes the winner independent of candidate
     evaluation order. *)
  let fold ~cost (s : Subtree.t) sc n =
    let best = ref None in
    for k = 0 to n - 1 do
      let t = subtree sc.ids.(k) in
      let d = cost ~dist:(Float.Array.get sc.dist k) s t in
      match !best with
      | Some ((bt : Subtree.t), bd) when bd < d || (bd = d && bt.id < t.id) -> ()
      | _ -> best := Some (t, d)
    done;
    !best
  in
  (* Distance mode's first-feasible rule: the index of the winning
     candidate of [s], or -1 when [fold] over [dist] / [dist + penalty]
     must decide.  [fold] picks the least (cost, id).  Visit the
     candidates in ascending (distance, id) order and stop at the first
     feasible one, k*: when [dist k* < penalty] it is that argmin, at
     cost [dist k*].  Distances are >= 0 and rounding is monotone, so
     every infeasible candidate costs [fl (dist + penalty) >= penalty >
     dist k*], and every other feasible one has a larger (distance, id).
     The nearest candidate is feasible in practice, so a probe runs one
     feasibility test instead of one per candidate.  A NaN or negative
     distance (the argument needs >= 0, and NaN makes [fold]'s answer
     depend on candidate order), no feasible candidate or a failed
     guard leaves the answer to [fold]. *)
  let first_feasible ~feasible ~penalty (s : Subtree.t) sc n =
    let k = ref (if all_nonneg sc n then next_candidate sc n (-1) else -1) in
    let found = ref (-1) in
    while !k >= 0 do
      let d = Float.Array.get sc.dist !k in
      if not (d < penalty) then k := -1
      else if feasible ~dist:d s (subtree sc.ids.(!k)) then begin
        found := !k;
        k := -1
      end
      else k := next_candidate sc n !k
    done;
    !found
  in
  (* Deep subtrees have small delay targets; merging shallow pairs first
     (Chaturvedi-Hu) keeps depths homogeneous and avoids late merges that
     must snake to match a buried group's delay.  [hull_hi] is filled at
     insertion by the same ascending max fold [Subtree.delay_hull] runs,
     so the bias is bit-identical to recomputing the hulls here. *)
  let biased (a : Subtree.t) (b : Subtree.t) d =
    let depth_bias =
      if config.delay_order_weight = 0. then 0.
      else
        config.delay_order_weight
        *. ((Float.Array.get hull_hi a.id +. Float.Array.get hull_hi b.id)
            /. 2.)
    in
    d +. depth_bias
  in
  (* One probe: the partner of [s] at its cost and, in cost mode, the
     note of the probe's coster session, carrying whatever side results
     (e.g. freshly run trial merges) the cost function produced, to be
     absorbed on the main domain in snapshot order.  Distance mode has no
     note. *)
  let probe (s : Subtree.t) =
    (* Runs on worker domains during parallel rounds: the instant lands
       in the emitting domain's own trace buffer. *)
    if tracing then
      Obs.Trace.instant trace ~cat:"dme.order"
        ~args:[ ("subtree", Obs.Json.Int s.id) ]
        "probe";
    let sc = Domain.DLS.get probe_key in
    let n = candidates sc s in
    match ranking with
    | By_cost coster ->
      let cost, finish = coster.session () in
      let best = fold ~cost s sc n in
      (best, Some (finish ()))
    | By_distance { feasible; penalty } -> (
      match first_feasible ~feasible ~penalty s sc n with
      | -1 ->
        let cost ~dist a b =
          if feasible ~dist a b then dist else dist +. penalty
        in
        (fold ~cost s sc n, None)
      | k -> (Some (subtree sc.ids.(k), Float.Array.get sc.dist k), None))
  in
  (* Alive subtrees in ascending-id order: the id-indexed arena walk
     needs no sort. *)
  let snapshot () =
    let acc = ref [] in
    for id = !next_id - 1 downto 0 do
      match node.(id) with Some s -> acc := s :: !acc | None -> ()
    done;
    Array.of_list !acc
  in
  let rounds = ref 0 in
  let probed = ref 0 in
  let rec loop () =
    let count = !n_active in
    if count = 1 then begin
      let survivor = ref None in
      for id = 0 to !next_id - 1 do
        if !survivor = None then survivor := node.(id)
      done;
      match !survivor with Some s -> s | None -> assert false
    end
    else begin
      incr rounds;
      Obs.Counter.incr c_rounds;
      (* Wall time is read only when a round observer is installed, so
         the untraced run does not even touch the clock per round. *)
      let t0 = if on_round <> None then Obs.Timer.now () else 0. in
      (* Rank in three strictly separated phases so the routed tree is
         bit-identical for any jobs count: (1) probe every active subtree
         against the frozen grid state — in parallel chunks when a pool
         is given; (2) absorb the probes' side results on this domain in
         snapshot (ascending-id) order; (3) sort, dedupe and select a
         disjoint pair prefix, compute the selected merges — in parallel
         when a pool is given; [merger.compute] must be pure — and
         install them serially in selection order. *)
      let round_body () =
        let snap = snapshot () in
        let probes =
          let run_probes () =
            match pool with
            | Some pool ->
              Par.Pool.map_chunked pool ~sched ~label:"engine.rank" probe snap
            | None -> Array.map probe snap
          in
          if tracing then
            Obs.Trace.span trace ~cat:"dme.order"
              ~args:[ ("probes", Obs.Json.Int (Array.length snap)) ]
              "probe_phase" run_probes
          else run_probes ()
        in
        probed := !probed + Array.length snap;
        let pairs = ref [] in
        Array.iteri
          (fun k (s : Subtree.t) ->
            let best, note = probes.(k) in
            (match (ranking, note) with
             | By_cost coster, Some note -> coster.absorb note
             | _ -> ());
            match best with
            | None -> ()
            | Some ((t : Subtree.t), d) ->
              (match h_cost with
               | Some h -> Obs.Histogram.observe h d
               | None -> ());
              let i = Int.min s.Subtree.id t.id and j = Int.max s.Subtree.id t.id in
              pairs := (biased s t d, i, j) :: !pairs)
          snap;
        let pairs =
          List.sort
            (fun (c1, i1, j1) (c2, i2, j2) ->
              match Int.compare i1 i2 with
              | 0 ->
                (match Int.compare j1 j2 with
                 | 0 -> Float.compare c1 c2
                 | c -> c)
              | c -> c)
            !pairs
          |> dedupe_pairs
          |> List.sort (fun (c1, i1, j1) (c2, i2, j2) ->
                 match Float.compare c1 c2 with
                 | 0 ->
                   (match Int.compare i1 i2 with 0 -> Int.compare j1 j2 | c -> c)
                 | c -> c)
        in
        Obs.Counter.add c_pairs (List.length pairs);
        let limit =
          if config.multi_merge then
            Int.max 1
              (int_of_float (config.merge_fraction *. float_of_int count /. 2.))
          else 1
        in
        let used = Hashtbl.create 64 in
        let merged = ref 0 in
        let best_cost = ref Float.infinity in
        let commit_phase () =
          (* Selection first: which pairs merge this round depends only
             on the sorted pair list and the round-start population —
             never on any merge's result — so the (potentially parallel)
             merge computations can all run against the frozen round
             state, and installing them in selection order is
             bit-identical to the former compute-one-install-one loop.
             Ids are drawn at selection time to keep the id sequence
             independent of compute scheduling. *)
          let selected = ref [] in
          List.iter
            (fun (c, i, j) ->
              if
                !merged < limit
                && (not (Hashtbl.mem used i))
                && not (Hashtbl.mem used j)
              then begin
                match (node.(i), node.(j)) with
                | Some a, Some b ->
                  Hashtbl.replace used i ();
                  Hashtbl.replace used j ();
                  selected := (i, j, a, b, fresh_id ()) :: !selected;
                  best_cost := Float.min !best_cost c;
                  incr merged
                | _ -> ()
              end)
            pairs;
          (* Degenerate safeguard: grid candidates always yield at least one
             pair when two or more subtrees are active.  Should that ever
             fail, merge the two lowest-id survivors directly rather than
             spinning forever. *)
          if !merged = 0 then begin
            let i = ref (-1) and j = ref (-1) in
            (try
               for id = 0 to !next_id - 1 do
                 if node.(id) <> None then
                   if !i < 0 then i := id
                   else begin
                     j := id;
                     raise Exit
                   end
               done
             with Exit -> ());
            match (node.(!i), node.(!j)) with
            | Some a, Some b ->
              selected := (!i, !j, a, b, fresh_id ()) :: !selected;
              incr merged
            | _ -> assert false
          end;
          let sels = Array.of_list (List.rev !selected) in
          let computed =
            let compute (_, _, a, b, id) = merger.compute ~id a b in
            match pool with
            | Some pool when Array.length sels > 1 ->
              Par.Pool.map_chunked pool ~sched ~label:"engine.commit" compute
                sels
            | _ -> Array.map compute sels
          in
          Array.iteri
            (fun k (i, j, _, _, _) ->
              let s = merger.install computed.(k) in
              delete i;
              delete j;
              insert s)
            sels
        in
        if tracing then
          Obs.Trace.span trace ~cat:"dme.order"
            ~args:[ ("candidates", Obs.Json.Int (List.length pairs)) ]
            "commit_phase" commit_phase
        else commit_phase ();
        (Array.length snap, !merged, !best_cost)
      in
      let probes_run, merges_done, best_cost =
        if tracing then
          Obs.Trace.span trace ~cat:"dme.order"
            ~args:
              [ ("round", Obs.Json.Int !rounds); ("active", Obs.Json.Int count) ]
            "round" round_body
        else round_body ()
      in
      (match on_round with
       | None -> ()
       | Some f ->
         f
           {
             round = !rounds;
             active = count;
             probes = probes_run;
             merges = merges_done;
             best_cost;
             wall_s = Float.max 0. (Obs.Timer.now () -. t0);
           });
      loop ()
    end
  in
  let root = loop () in
  (root, { rounds = !rounds; nn_probes = !probed })

let run inst config ~cost ~merge =
  run_ranked inst config ~ranking:(By_cost (of_cost cost))
    ~merger:(of_merge merge)
