(** The complete deferred-merge engine: bottom-up merging (Fig. 6) plus
    top-down embedding.  All three routers of the library — AST-DME,
    EXT-BST and greedy-DME — are this engine run on differently grouped
    instances. *)

type config = {
  multi_merge : bool;  (** §V.F enhancement 1: batch merges per round *)
  merge_fraction : float;  (** batch size as a fraction of active subtrees *)
  knn : int;  (** nearest-neighbour candidates per query *)
  delay_order_weight : float;
      (** §V.F enhancement 2: bias merge order toward slow subtrees
          (0 = off).  Dimensionless: a subtree whose delay hull equals
          the delay of an unloaded die-diameter wire is biased by
          [weight × diameter] layout units.  Deriving the units from
          the instance keeps the merge order invariant under a change
          of layout unit (an absolute layout-units-per-ps weight would
          rank the same layout differently at different scales). *)
  split_slack : float;
      (** fraction of the skew bound a cross-group merge may spend on
          split-range delay uncertainty *)
  slack_usage : float;
      (** fraction of a group's remaining slack one constrained merge may
          consume before snaking is considered (gradual slack spending) *)
  width_cap : float;
      (** cumulative cap on any group's delay-window width as a fraction
          of the bound; reserves slack for end-game merges *)
  sdr_samples : int;  (** slices used to build shortest-distance regions *)
  cost_by_planned_wire : bool;
      (** rank merge candidates by planned wire (including snaking)
          instead of region distance; an ablation knob — distance wins
          in practice because deferring balancing cost lets group
          offsets drift.  Either way a pair with mutually inconsistent
          shared-group constraints (an Instance 2 conflict) ranks behind
          every consistent one and merges only as a last resort (see
          {!Order.ranking}) *)
  jobs : int;
      (** domains used for the per-round candidate ranking (nearest
          neighbour probes and their trial merges); 1 = fully serial.
          Routed trees and engine stats are bit-identical for any value:
          probes run against frozen round-start state, side results are
          absorbed in a fixed order on the main domain, and merges
          commit serially (see {!Order}).  The default is the
          [ASTSKEW_JOBS] environment variable, else 1
          ({!Par.Pool.default_jobs}) *)
}

val default : config

type stats = {
  rounds : int;
  same_group : int;
  cross_group : int;
  shared_one : int;
  shared_multi : int;
  planned_snake : float;  (** snaking wire committed during planning *)
  infeasible_merges : int;
      (** merges whose constraints were mutually inconsistent; their
          residual skew is fixed by {!Clocktree.Repair} *)
  nn_reprobes : int;
      (** nearest-neighbour probes executed by the ranking loop: one per
          active subtree per round *)
  trial_merges : int;
      (** trial {!Merge.run}s executed to rank candidates; only the
          [cost_by_planned_wire] ablation runs any (distance-cost ranking
          answers feasibility without building the merge) *)
  gc : Obs.Gcstat.t;
      (** GC work of the whole run (plan + embed) as seen from the
          calling domain: {!Obs.Gcstat.sample} at entry diffed against
          exit.  The allocation budget the bench gate enforces; the only
          stats field that is {e not} bit-identical across equivalent
          runs — identity oracles compare with [gc] zeroed *)
}

(** [config] as a JSON object (one field per record field), for run
    manifests and stats dumps. *)
val json_of_config : config -> Obs.Json.t

(** Bottom-up merge planning only: reduce the instance's sinks — or an
    explicit [leaves] population (see {!Order.run_ranked}: dense ids,
    delay maps against [inst]'s groups) — to a single root subtree,
    without embedding.  Unlike {!run}, [plan] does not own a pool:
    ranking parallelism comes from the caller's [pool] (absent = fully
    serial; [config.jobs] is ignored).  This is the re-entrant core the
    clustered router calls once per region from worker domains
    ({!Par.Pool} is not reentrant, so region plans pass no pool) and
    once at top level over the region roots with the shared pool.
    [stats.gc] covers planning only.  Planning is bit-identical for any
    pool size. *)
val plan :
  ?config:config ->
  ?trace:Obs.Trace.t ->
  ?sched:Obs.Sched.t ->
  ?pool:Par.Pool.t ->
  ?leaves:Subtree.t array ->
  Clocktree.Instance.t ->
  Subtree.t * stats

(** Plan and embed a clock tree for the instance.  The result is the
    pre-repair tree: callers normally pass it through
    {!Clocktree.Repair.run}.

    With [trace] enabled the run merges its config into the trace
    manifest, wraps planning in an ["engine.plan"] span, emits one
    ["merge"] instant per committed merge, feeds committed region
    extents into the ["engine.region_extent"] histogram and appends one
    journal record per merge round (probe and trial-merge counts,
    cheapest committed cost, cumulative planned wire, wall time).  The default
    {!Obs.Trace.null} emits nothing and the routed tree and stats are
    byte-identical with tracing on or off.  An enabled [sched] recorder
    ledgers the pooled ranking/commit/embed maps (phase ["engine"]);
    the same bit-identity contract applies (["sched-identity"] row of
    [Check.Oracle.invariance]). *)
val run :
  ?config:config -> ?trace:Obs.Trace.t -> ?sched:Obs.Sched.t ->
  Clocktree.Instance.t ->
  Clocktree.Tree.routed * stats

(** Plan and embed straight into a flat post-order arena — the
    arena-native pipeline's entry point ({!run} is this plus
    [Arena.to_routed]).  Same determinism contract as {!run}: the arena
    is bit-identical for any [config.jobs]. *)
val run_arena :
  ?config:config -> ?trace:Obs.Trace.t -> ?sched:Obs.Sched.t ->
  Clocktree.Instance.t ->
  Clocktree.Arena.t * stats
