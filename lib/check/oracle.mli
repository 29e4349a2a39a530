(** Differential oracles: run the library's routers and delay models
    against each other on one instance and audit every output against its
    own contract.

    - {!routers}: AST-DME, EXT-BST, greedy-DME and MMM-DME each produce a
      structurally/semantically valid tree satisfying the skew contract
      they were routed under (grouped bound for AST/MMM, fused global
      bound for EXT-BST, zero skew for greedy).  Wirelength orderings
      between routers are deliberately {e not} asserted — on grouped
      instances no router dominates another in general.
    - {!invariance}: the bit-identity contracts, one table row per knob
      that must not change the answer (see {!row_names}):
      - ["par-identity"]: AST-DME at [jobs] > 1 vs [jobs = 1] — tree,
        report, engine stats.  Default jobs [[2; 4]].
      - ["trace-identity"]: a live {!Obs.Trace} at each jobs vs the
        untraced [jobs = 1] run — tree, report, engine stats; the
        journal's per-round sums (round count, probes, trial merges)
        equal the engine's stats and the Chrome export re-parses via
        {!Obs.Json.of_string} with a non-empty [traceEvents] list.
        Default jobs [[1; 2]].
      - ["sched-identity"]: a live {!Obs.Sched} recorder plus a muted
        {!Obs.Progress} heartbeat at each jobs vs both the unrecorded
        [jobs = 1] run and the same-jobs unrecorded run — tree, report,
        engine stats; the recorded result carries an efficiency report
        (jobs within the request, serial fraction in [0, 1], phase walls
        >= parallel walls) and the unrecorded one none.  Default jobs
        [[1; 2; 4]].
      - ["cluster-identity"]: the clustered router at [clusters = 1] vs
        the flat [jobs = 1] run — tree, report, engine stats; its
        clustering detail reports one region.  Default jobs [[1; 2]].
      - ["cluster-depth-identity"]: at [clusters = 4], a forced
        [cluster_depth = 1] vs the default depth, and a forced depth 2 at
        each jobs vs [jobs = 1] — tree, report, engine stats; the depth-2
        run reports a covering region set, realized depth 2 with
        super-stitch detail, and passes the full grouped audit.  Default
        jobs [[2; 4]].
      - ["repair-identity"]: one AST plan repaired serially from scratch
        vs incrementally at [jobs = 1] and each jobs, under auto-derived
        regions and a forced 4-way split — tree, report, repair stats
        (see {!Clocktree.Repair}'s determinism contract).  Default jobs
        [[2; 4]].
      - ["evaluate-identity"]: the [jobs = 1] route's report vs the
        windowed kernels at each jobs with [regions = 4] forced, so the
        parallel path runs on oracle-sized instances — every report
        field.  Default jobs [[2; 4]].
      - ["embed-identity"]: one AST plan embedded arena-direct at each
        jobs vs the recursive reference embedder's tree flattened
        through [Arena.of_routed] — every arena column.  Default jobs
        [[1; 2; 4]].
    - {!clustered}: a genuinely clustered run ([clusters >= 2]) yields a
      covering partition and a stitched tree that passes the full audit
      under the global grouped contract.
    - {!delay_models}: Elmore and backward-Euler transient 50%-crossing
      delays agree on the routed RC tree wherever an exact relation
      exists: every sink crosses, no crossing exceeds its Elmore delay
      (Elmore is an upper bound for RC trees under step input), and
      crossings are non-decreasing from the root down (node voltages
      trail their parents' while charging).  The thesis' Chapter III
      claim — intra-group skews of the two models agree within a small
      tolerance — is additionally asserted for realistic interconnect
      parameters (default wire RC, rd >= 10 ohm, loads within 1-1000 fF);
      under adversarial RC the claim is legitimately false, which the
      fuzzer itself demonstrated.

    A raised exception anywhere becomes a finding of the oracle (or row)
    that raised it, with the violation's invariant ["exception"], so
    fuzzing surfaces crashes as ordinary failures of that oracle. *)

type finding = {
  oracle : string;  (** "ast-dme", "par-identity", "delay-models", ... *)
  violations : Audit.violation list;
}

val pp_finding : Format.formatter -> finding -> unit

(** {1 The comparator} *)

(** What two runs can be required to agree on.  [Report] is the whole
    {!Clocktree.Evaluate.report}: per-sink delays, per-group skews and
    every scalar (wirelength, snaking, delay extrema, skews).  [Engine]
    is the engine stats with [gc] zeroed — the one legitimately
    run-dependent field. *)
type field = Tree | Report | Engine | Repair | Arena

(** The comparable outputs of one run; a field a run does not produce is
    [None], and comparing it reports a violation rather than passing. *)
type observation = {
  routed : Clocktree.Tree.routed option;
  report : Clocktree.Evaluate.report option;
  engine : Dme.Engine.stats option;
  repair : Clocktree.Repair.stats option;
  arena : Clocktree.Arena.t option;
}

(** Routed tree, evaluation and engine stats of a router result. *)
val of_result : Astskew.Router.result -> observation

(** [diff fields a b] lists, in [fields] order, every difference between
    [a] and [b] on those fields; floats compare with [=], so one ulp is a
    difference.  The empty list means the two agree. *)
val diff : field list -> observation -> observation -> string list

(** [diff [Tree; Report; Engine]] of two router results: what the
    router rows of {!invariance} and the bench identity gates compare. *)
val route_diff : Astskew.Router.result -> Astskew.Router.result -> string list

(** {1 Oracles} *)

val routers : ?inject:bool -> Clocktree.Instance.t -> finding list

(** The rows of the invariance table, in table order. *)
val row_names : string list

(** [invariance ?rows inst] runs the selected rows of the invariance
    table on [inst]: each [(name, jobs)] of [rows] runs that row at that
    jobs list (default: every row at its own default jobs list, in table
    order).  Each distinct run is made once and shared by every row that
    compares it.  A row's findings are named after the row.  [plant] is
    applied to each pair's variant observation before comparing, to
    prove a row can fail (the default leaves it untouched).  Raises
    [Invalid_argument] on a name not in {!row_names}. *)
val invariance :
  ?plant:(observation -> observation) ->
  ?rows:(string * int list) list ->
  Clocktree.Instance.t ->
  finding list

(** Audit the clustered router's output: the spatial partition covers
    every sink exactly once with non-empty regions
    ({!Audit.partition_cover}), and the stitched tree passes the full
    {!Audit.run} under the {e global} [Grouped] contract — the skew
    bound holds across cluster boundaries, not merely per region.
    [clusters] defaults to [min 4 n_sinks] (at least 2, pre-clamp);
    [inject] snakes one leaf before auditing, as in {!routers}. *)
val clustered :
  ?inject:bool -> ?clusters:int -> Clocktree.Instance.t -> finding list

val delay_models : ?resolution:int -> Clocktree.Instance.t -> finding list

(** Every oracle in sequence — every invariance row at its default jobs
    list — on one shared set of runs; the empty list means the case
    passed.  [inject] deliberately snakes one leaf edge of the AST tree
    before auditing, to prove violations are caught (used by the fuzz
    self-test). *)
val all : ?inject:bool -> Clocktree.Instance.t -> finding list

(** Re-run only the oracles named in [of_run] — invariance rows at the
    jobs lists of [rows], as in {!invariance} — and report whether any
    of them fails again, e.g. to check that a shrunk instance still
    reproduces the original failure. *)
val reproduces :
  ?inject:bool ->
  ?rows:(string * int list) list ->
  of_run:finding list ->
  Clocktree.Instance.t ->
  bool
