(** Exact skew repair by wire snaking, on the flat post-order {!Arena}.

    Stage 1 revisits every merge node bottom-up.  For each group spanning
    both children the admissible range of the delay shift
    [x = extra_left - extra_right] is an interval; intersecting the
    intervals of all spanning groups and realizing the smallest |x| by
    lengthening one child edge enforces the intra-group bound at that
    node (classic Tsay-style balancing restricted to the groups that
    meet there).  When several spanning groups demand inconsistent
    shifts — the thesis' Instance 2 situation — a single edge cannot
    satisfy them all.

    Stage 2 therefore lifts individual sinks: leaf edges are group-pure,
    so snaking the leaf edge of every sink whose delay falls below
    [group max - bound] always converges to a feasible tree.  It runs
    only when stage 1 leaves a residual violation.

    The cycle is {e incremental}: each balance pass memoizes every
    node's downstream cap and group-interval slab, and later passes
    revisit only the dirty frontier — nodes whose own edges were
    adjusted (by balance ulp-chasing or a lift sweep) plus the nodes
    above anything that changed.  A clean node's inputs are bit-identical
    to its memo, so skipping it is exact, not approximate.  The global
    cycle finds that frontier from a worklist instead of a scan, so a
    pass costs in proportion to the nodes it changes plus one delay
    pass.  Incremental repair returns the same tree and stats bitwise
    as the from-scratch walk (guarded by the ["repair-identity"] row of
    [Check.Oracle.invariance]).

    On large instances the cycle is also {e regional}: maximal subtrees
    of at most [ceil (nodes / k)] nodes (k the same auto target as
    [Dme.Cluster.auto_clusters], so [--clustered] regions and repair
    regions coincide at scale) first run their own local
    balance/evaluate/lift fixpoints — in parallel across [Par.Pool] when
    [jobs > 1], which is safe because regions are disjoint index ranges
    and balancing node [v] reads only [v]'s subtree — and the global
    cycle then runs on the residual dirty set.  Regions depend only on
    the tree shape and [config.regions], never on the jobs count, and
    regional fixpoints accept at twice the final slack (the global cycle
    enforces the real bound), so results are independent of [jobs].

    A well-planned tree needs ~0 added wire; this pass is the hard
    guarantee, not the optimizer. *)

type config = {
  max_cycles : int;
      (** balance/lift cycle budget, per fixpoint (each regional fixpoint
          and the global cycle get this many balance passes); default
          300 *)
  jobs : int;  (** worker domains for the regional phase; default
          [Par.Pool.default_jobs ()] *)
  incremental : bool;
      (** [true] (the default) revisits only the dirty frontier: the
          regional fixpoints find it by a flag scan, the global cycle
          from worklists (a min-heap of dirty nodes for balance, one
          fused delay-and-extents pass, lifts over the pure-group
          subtrees only).  [false] runs the full-scan walk, every node
          in every pass: the specification the default must match bit
          for bit, kept for the identity oracle and for debugging *)
  regions : int option;
      (** regional-fixpoint target count: [None] derives
          [clamp 1 64 (ceil (n_sinks / 1000))] (below 2 the regional
          phase is skipped and repair is the pure global cycle);
          [Some k] forces a target, letting tests and oracles exercise
          the regional machinery on small instances *)
}

val default_config : config

type stats = {
  added_wire : float;  (** total snaking wire added by both stages *)
  adjusted_edges : int;
  conflict_nodes : int;
      (** merge nodes whose spanning groups demanded inconsistent shifts
          on their first balance visit (resolved by stage 2) *)
  lift_iterations : int;
      (** stage-2 sweeps performed (regional + global), 0 when not
          needed *)
  unresolved_groups : int;
      (** groups still violating the bound after repair; 0 in all
          supported configurations *)
  cycles : int;  (** balance passes executed (regional + global) *)
  budget_exhausted : bool;
      (** some fixpoint hit [max_cycles] before converging *)
}

(** [run_arena ?config ?trace inst a] repairs the tree in place on its
    flat arena: only the [len] column is mutated.  This is the
    arena-native pipeline's entry point — {!run} is the pointer-tree
    wrapper (flatten, repair, rebuild).  With [trace] enabled the whole
    pass is wrapped in a ["repair"] span, each global cycle emits
    ["balance_pass"] / ["lift_sweep"] instants and a ["repair_cycle"]
    journal record, the regional phase emits one ["regional_repair"]
    instant plus a ["repair_region"] journal record per region, and
    exhausting a cycle budget emits a ["budget_exhausted"] instant.

    An enabled [sched] recorder ledgers the parallel regional phase
    under ["repair.regions"]; an enabled [progress] reporter is told
    the region count, sees a completion per converged regional
    fixpoint, and gets a heartbeat tick per global cycle.  Neither
    perturbs the repair: trees and stats stay bit-identical with them
    on or off. *)
val run_arena :
  ?config:config -> ?trace:Obs.Trace.t -> ?sched:Obs.Sched.t ->
  ?progress:Obs.Progress.t -> Instance.t -> Arena.t -> stats

(** {!run_arena} on [Arena.of_routed routed], rebuilding the repaired
    pointer tree afterwards. *)
val run :
  ?config:config ->
  ?trace:Obs.Trace.t ->
  ?sched:Obs.Sched.t ->
  ?progress:Obs.Progress.t ->
  Instance.t ->
  Tree.routed ->
  Tree.routed * stats
