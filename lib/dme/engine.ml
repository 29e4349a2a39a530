type config = {
  multi_merge : bool;
  merge_fraction : float;
  knn : int;
  delay_order_weight : float;
  split_slack : float;
  slack_usage : float;
  width_cap : float;
  sdr_samples : int;
  cost_by_planned_wire : bool;
  jobs : int;
}

let default =
  {
    multi_merge = true;
    merge_fraction = 0.5;
    knn = 16;
    delay_order_weight = 0.;
    split_slack = 0.25;
    slack_usage = 0.3;
    width_cap = 0.7;
    sdr_samples = 9;
    cost_by_planned_wire = false;
    jobs = Par.Pool.default_jobs ();
  }

type stats = {
  rounds : int;
  same_group : int;
  cross_group : int;
  shared_one : int;
  shared_multi : int;
  planned_snake : float;
  infeasible_merges : int;
  nn_reprobes : int;
  trial_merges : int;
  gc : Obs.Gcstat.t;
}

let json_of_config (c : config) =
  Obs.Json.Obj
    [
      ("multi_merge", Obs.Json.Bool c.multi_merge);
      ("merge_fraction", Obs.Json.Float c.merge_fraction);
      ("knn", Obs.Json.Int c.knn);
      ("delay_order_weight", Obs.Json.Float c.delay_order_weight);
      ("split_slack", Obs.Json.Float c.split_slack);
      ("slack_usage", Obs.Json.Float c.slack_usage);
      ("width_cap", Obs.Json.Float c.width_cap);
      ("sdr_samples", Obs.Json.Int c.sdr_samples);
      ("cost_by_planned_wire", Obs.Json.Bool c.cost_by_planned_wire);
      ("jobs", Obs.Json.Int c.jobs);
    ]

let c_trials = Obs.Counter.make "dme.engine.trial_merges"
let c_committed = Obs.Counter.make "dme.engine.committed_merges"

(* Bottom-up merge planning only: reduce [inst]'s sinks — or an explicit
   [leaves] population, see {!Order.run_ranked} — to one subtree.  Does
   not embed and does not own the pool, so the clustered router can run
   one [plan] per region on worker domains (with [pool] absent: the pool
   is not reentrant) and a top-level [plan] over the region roots on the
   shared pool.  [stats.gc] covers the planning phase only. *)
let plan ?(config = default) ?(trace = Obs.Trace.null)
    ?(sched = Obs.Sched.null) ?pool ?leaves inst =
  let gc0 = Obs.Gcstat.sample () in
  let tracing = Obs.Trace.enabled trace in
  if tracing then
    Obs.Trace.merge_manifest trace [ ("engine_config", json_of_config config) ];
  (* Journal-only aggregates, touched exclusively under [tracing] so the
     untraced run's merge path stays allocation-free. *)
  let cum_wire = ref 0. in
  let h_extent =
    if tracing then Some (Obs.Trace.histogram trace "engine.region_extent")
    else None
  in
  let same_group = ref 0 in
  let cross_group = ref 0 in
  let shared_one = ref 0 in
  let shared_multi = ref 0 in
  let planned_snake = ref 0. in
  let infeasible = ref 0 in
  let trial_merges = ref 0 in
  let run_merge ~id a b =
    Merge.run inst ~slack_usage:config.slack_usage
      ~split_slack:config.split_slack ~width_cap:config.width_cap
      ~sdr_samples:config.sdr_samples ~id a b
  in
  (* Penalty added to an infeasible candidate's cost: big enough to
     dominate every honest cost, and proportional to the instance extent
     so a rescaled layout ranks bit-identically — adding an absolute
     constant would float-absorb small cost differences at one
     coordinate scale and preserve them at another.  A zero-extent
     instance has every honest cost 0, so any positive penalty
     separates. *)
  let infeasible_penalty =
    let d = Geometry.Octagon.diameter (Clocktree.Instance.bbox inst) in
    if d > 0. then 1e9 *. d else 1.
  in
  (* How [Order] ranks each probe's candidates.  By default by region
     distance (Octslab.dist, bit-identical to Octagon.dist on these
     regions), with an infeasible pair (mutually inconsistent
     shared-group offsets, the thesis' Instance 2) merged only as a last
     resort: Merge.committed_feasible answers feasibility bit-identically
     without building the merged subtree, and [Order] asks it only until
     the nearest feasible candidate is found.  The planned-wire ablation
     instead runs a trial merge per candidate; its session's note is the
     number of trials.  Shared state is only read here, making both safe
     on worker domains. *)
  let ranking =
    if config.cost_by_planned_wire then begin
      let session () =
        let n_trials = ref 0 in
        let cost ~dist:_ (a : Subtree.t) (b : Subtree.t) =
          incr n_trials;
          let t = run_merge ~id:(-1) a b in
          if t.feasible then t.planned_wire
          else t.planned_wire +. infeasible_penalty
        in
        (cost, fun () -> !n_trials)
      in
      let absorb n =
        trial_merges := !trial_merges + n;
        Obs.Counter.add c_trials n
      in
      Order.By_cost { session; absorb }
    end
    else
      Order.By_distance
        {
          feasible =
            (fun ~dist a b ->
              Merge.committed_feasible inst ~slack_usage:config.slack_usage
                ~dist a b);
          penalty = infeasible_penalty;
        }
  in
  (* Committed-merge execution, split so the ranking loop can run the
     selected merges of a round on worker domains: [compute] ([run_merge])
     is pure,
     while [install] applies the stats and tracing on the main domain in
     selection order. *)
  let install (result : Merge.result) =
    let id = result.subtree.Subtree.id in
    Obs.Counter.incr c_committed;
    (match result.kind with
     | Merge.Same_group -> incr same_group
     | Merge.Cross_group -> incr cross_group
     | Merge.Shared_one -> incr shared_one
     | Merge.Shared_multi -> incr shared_multi);
    planned_snake := !planned_snake +. result.snake;
    if not result.feasible then incr infeasible;
    if tracing then begin
      cum_wire := !cum_wire +. result.planned_wire;
      (match h_extent with
       | Some h ->
         Obs.Histogram.observe h
           (Geometry.Octagon.diameter result.subtree.Subtree.region)
       | None -> ());
      Obs.Trace.instant trace ~cat:"dme.engine"
        ~args:
          [
            ("id", Obs.Json.Int id);
            ( "kind",
              Obs.Json.String
                (match result.kind with
                 | Merge.Same_group -> "same_group"
                 | Merge.Cross_group -> "cross_group"
                 | Merge.Shared_one -> "shared_one"
                 | Merge.Shared_multi -> "shared_multi") );
            ("planned_wire", Obs.Json.Float result.planned_wire);
            ("feasible", Obs.Json.Bool result.feasible);
          ]
        "merge"
    end;
    result.subtree
  in
  (* [Order]'s §V.F-2 bias adds [weight × delay-hull (ps)] to candidate
     distances (layout units), so its weight is in layout units per ps.
     Exposing that unit in the config would tie the merge order to the
     instance's absolute coordinate scale — the same layout expressed in
     different units would route differently.  The config knob is
     therefore dimensionless (hull as a fraction of an unloaded
     die-diameter wire's delay, bias as a fraction of the diameter) and
     the conversion factor [diameter / die_delay] comes from the
     instance itself.  Both factors rescale exactly under a
     power-of-two change of layout unit (coordinates ×k, unit RC ÷k),
     keeping ranked costs bit-identically ordered across scales. *)
  let delay_order_weight =
    if config.delay_order_weight = 0. then 0.
    else begin
      let d = Geometry.Octagon.diameter (Clocktree.Instance.bbox inst) in
      let die_delay =
        Rc.Elmore.wire_delay inst.Clocktree.Instance.params ~len:d ~load:0.
      in
      if die_delay > 0. then config.delay_order_weight *. d /. die_delay else 0.
    end
  in
  let order_config =
    Order.
      {
        multi_merge = config.multi_merge;
        merge_fraction = config.merge_fraction;
        knn = config.knn;
        delay_order_weight;
      }
  in
  let jobs = match pool with Some p -> Par.Pool.jobs p | None -> 1 in
  (* One journal record per merge round.  The trial-merge count is
     engine-side state, so its per-round delta is computed here and
     joined with the ranking loop's own round report. *)
  let on_round =
    if not tracing then None
    else begin
      let last_trials = ref 0 in
      let last_gc = ref (Obs.Gcstat.sample ()) in
      Some
        (fun (r : Order.round_info) ->
          let d_trials = !trial_merges - !last_trials in
          last_trials := !trial_merges;
          let gc_now = Obs.Gcstat.sample () in
          let d_gc = Obs.Gcstat.diff gc_now !last_gc in
          last_gc := gc_now;
          Obs.Trace.journal trace
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.String "round");
                 ("round", Obs.Json.Int r.round);
                 ("active", Obs.Json.Int r.active);
                 ("probes", Obs.Json.Int r.probes);
                 ("merges", Obs.Json.Int r.merges);
                 ("trial_merges", Obs.Json.Int d_trials);
                 ("merge_cost", Obs.Json.Float r.best_cost);
                 ("cum_planned_wire", Obs.Json.Float !cum_wire);
                 ("wall_s", Obs.Json.Float r.wall_s);
                 ("gc", Obs.Gcstat.json d_gc);
               ]))
    end
  in
  let root, (ostats : Order.stats) =
    let body () =
      Order.run_ranked ?pool ~trace ~sched ?on_round ?leaves inst order_config
        ~ranking
        ~merger:{ Order.compute = run_merge; install }
    in
    if tracing then
      Obs.Trace.span trace ~cat:"dme.engine"
        ~args:[ ("jobs", Obs.Json.Int jobs) ]
        "engine.plan" body
    else body ()
  in
  ( root,
    {
      rounds = ostats.rounds;
      nn_reprobes = ostats.nn_probes;
      same_group = !same_group;
      cross_group = !cross_group;
      shared_one = !shared_one;
      shared_multi = !shared_multi;
      planned_snake = !planned_snake;
      infeasible_merges = !infeasible;
      trial_merges = !trial_merges;
      gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0;
    } )

let run_arena ?(config = default) ?(trace = Obs.Trace.null)
    ?(sched = Obs.Sched.null) inst =
  let gc0 = Obs.Gcstat.sample () in
  let jobs = Int.max 1 config.jobs in
  (* The pool stays alive through embedding: the top-down phase reuses
     the ranking loop's worker domains for its subtree fan-out. *)
  let arena, stats =
    Par.Pool.with_pool ~jobs (fun pool ->
        let root, stats = plan ~config ~trace ~sched ?pool inst in
        (Embed.run_arena ?pool ~trace ~sched inst root, stats))
  in
  (arena, { stats with gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0 })

let run ?config ?trace ?sched inst =
  let gc0 = Obs.Gcstat.sample () in
  let arena, stats = run_arena ?config ?trace ?sched inst in
  let routed = Clocktree.Arena.to_routed arena in
  (routed, { stats with gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0 })
