(** Merge ordering: nearest-neighbour selection with Edahiro-style
    multi-merge rounds (§V.F enhancement 1) and optional delay-target
    biasing (§V.F enhancement 2).

    Each round snapshots the active subtrees sorted by id, computes every
    subtree's cheapest merge partner among its [knn] grid candidates —
    in parallel chunks when a {!Par.Pool} is supplied — then sorts the
    candidate pairs by cost (deduplicating the two proposals of an
    unordered pair down to the cheaper one) and greedily merges a
    disjoint prefix.  Probing is read-only with respect to every shared
    structure and the partner choice tie-breaks on the lowest subtree id,
    so the selected merges — and hence the routed tree — are bit-identical
    for any jobs count.

    Every active subtree is re-probed every round; DESIGN.md section 10
    explains why there is no cross-round proposal cache. *)

type config = {
  multi_merge : bool;
      (** merge a batch of pairs per round instead of a single pair *)
  merge_fraction : float;
      (** fraction of active subtrees consumed per multi-merge round *)
  knn : int;  (** grid candidates examined per nearest-neighbour query *)
  delay_order_weight : float;
      (** layout units per ps: sorts deeper (slower) subtrees earlier;
          0 disables the delay-target enhancement *)
}

val default : config

(** Cost-mode merge costs.  [session] is called once per
    nearest-neighbour probe — on a worker domain during parallel rounds —
    and returns the cost function for that probe plus a finisher whose
    ['note] carries any side results the probe produced (for the DME
    engine: the number of trial merges it ran).  The cost function sees
    the pair's region distance as [~dist], the probed subtree and the
    candidate; it must not mutate shared state.  [absorb] is called for
    every probe's note on the calling domain, in ascending subtree-id
    order, before any merge of the round is committed. *)
type 'note coster = {
  session :
    unit -> (dist:float -> Subtree.t -> Subtree.t -> float) * (unit -> 'note);
  absorb : 'note -> unit;
}

(** How ranking picks each probe's partner among its [knn] grid
    candidates: the least (cost, id), for one of two costs.

    - [By_distance { feasible; penalty }] (the engine's default): a
      candidate costs its region distance, plus [penalty] when
      [feasible ~dist s t] is false for the probed subtree [s].  The
      probe visits the candidates in ascending (distance, id) order and
      stops at the first feasible one, so it usually runs one
      feasibility test; it scores all candidates only when a distance
      is NaN or negative, none is feasible or the winner's distance is
      not below [penalty].  The answer is exactly that of the full
      scoring.  [feasible] runs on worker domains during parallel
      rounds and must be pure; [penalty] should exceed every honest
      distance.
    - [By_cost coster]: every candidate is scored by the coster's
      session (the planned-wire ablation and {!run}). *)
type 'note ranking =
  | By_distance of {
      feasible : dist:float -> Subtree.t -> Subtree.t -> bool;
      penalty : float;
    }
  | By_cost of 'note coster

(** How selected merges are executed.  [compute ~id a b] builds the
    merge result; it may run on a worker domain during parallel rounds,
    so it must not mutate shared state (reading state that is frozen for
    the duration of the round's commit phase is fine).  [install] runs
    on the calling domain, in selection order, and returns the merged
    subtree the ranking loop inserts; side effects (statistics, tracing)
    belong here. *)
type 'merge merger = {
  compute : id:int -> Subtree.t -> Subtree.t -> 'merge;
  install : 'merge -> Subtree.t;
}

(** Wrap a pure, self-contained cost function (no side results).  The
    ranking loop's precomputed region distance is dropped on the
    floor — [cost] sees only the subtree pair. *)
val of_cost : (Subtree.t -> Subtree.t -> float) -> unit coster

(** Wrap a plain merge callback: computation is deferred to [install],
    so the whole merge runs on the calling domain in selection order —
    the safe default for costers with effectful merges. *)
val of_merge :
  (id:int -> Subtree.t -> Subtree.t -> Subtree.t) -> (int * Subtree.t * Subtree.t) merger

(** Ranking-loop statistics.  [nn_probes] counts executed
    nearest-neighbour probes (each ranks up to [knn] candidates): one
    per active subtree per round. *)
type stats = { rounds : int; nn_probes : int }

(** One completed merge round, as reported to the [?on_round] observer
    of {!run_ranked}: 1-based [round] index, [active] subtree count at
    the round's start, executed probe count ([probes]), merges
    committed, the cheapest committed pair's biased cost ([infinity]
    when only the degenerate fallback merge ran) and the round's wall
    time in seconds (clamped non-negative). *)
type round_info = {
  round : int;
  active : int;
  probes : int;
  merges : int;
  best_cost : float;
  wall_s : float;
}

(** [dedupe_pairs pairs] collapses adjacent entries with equal subtree-id
    pairs to the first (cheapest, given the (i, j, cost) pre-sort) one.
    Tail-recursive: safe for rounds ranking hundreds of thousands of
    pairs.  Exposed for testing. *)
val dedupe_pairs : (float * int * int) list -> (float * int * int) list

(** [run_ranked ?pool ?trace ?sched ?on_round ?leaves inst config
    ~ranking ~merger]
    reduces the sink set to one subtree, ranking candidates as
    [ranking] says, running [merger.compute] for every selected pair
    and [merger.install] on the calling domain in selection order.  With [pool], candidate probing and the selected
    merges' computations run on the pool's domains; results are
    deterministic and identical to the serial run.  With [trace]
    enabled, each round emits a span (with probe/commit phase sub-spans
    and per-probe instants) and probe costs feed the
    ["order.probe_cost"] histogram; the default {!Obs.Trace.null} skips
    every emission, keeping the untraced run allocation-free on that
    path.  An enabled [sched] recorder ledgers the pooled probe and
    commit maps under ["engine.rank"] / ["engine.commit"]; the default
    {!Obs.Sched.null} records nothing.  [on_round] is invoked after
    each round's commits with that
    round's {!round_info}.  [leaves] overrides the initial population:
    instead of the instance's sink leaves, ranking starts from the given
    subtrees (the clustered router's region roots).  Explicit leaves
    must carry dense ids [0 .. n-1] — the arena is id-indexed — and
    their delay maps must be expressed against [inst]'s groups; merge
    node ids are allocated from [n] upward.  Returns the final subtree
    and the ranking statistics. *)
val run_ranked :
  ?pool:Par.Pool.t ->
  ?trace:Obs.Trace.t ->
  ?sched:Obs.Sched.t ->
  ?on_round:(round_info -> unit) ->
  ?leaves:Subtree.t array ->
  Clocktree.Instance.t ->
  config ->
  ranking:'note ranking ->
  merger:'merge merger ->
  Subtree.t * stats

(** [run inst config ~cost ~merge] is {!run_ranked} without a pool over
    [By_cost (]{!of_cost}[ cost)]: the serial interface used by tests and simple
    callers.  [cost a b] ranks candidate pairs — typically the planned
    wire of a trial merge, so partners that merge without snaking (e.g.
    cross-group neighbours) are preferred over equally close partners
    that would require balancing wire. *)
val run :
  Clocktree.Instance.t ->
  config ->
  cost:(Subtree.t -> Subtree.t -> float) ->
  merge:(id:int -> Subtree.t -> Subtree.t -> Subtree.t) ->
  Subtree.t * stats
