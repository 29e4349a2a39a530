(** Exact Elmore evaluation of embedded clock trees: wirelength, per-sink
    delays, global skew and per-group skew — the quantities reported in
    the thesis' Tables I and II.

    Evaluation runs on the flat post-order {!Arena}, whose RC kernels
    are bit-identical to the {!Tree.to_rctree} + {!Rc.Rctree.elmore}
    pipeline but iterative, so arbitrarily deep (comb-shaped) trees
    evaluate without stack overflow.

    With [jobs > 1] the kernels run windowed: {!Arena.windows} subtrees
    fill in parallel and a serial spine pass stitches the gaps.  Every
    node's value is computed by the serial kernel's expression from the
    serial operands, so reports are bit-identical for any [jobs] /
    [regions] (enforced by the ["evaluate-identity"] row of
    [Check.Oracle.invariance]).  [regions]
    forces the window count; by default it derives from the sink count
    (small instances stay on the plain serial path). *)

type report = {
  wirelength : float;
  snaking : float;
  delays : float array;  (** per sink id, ps, driver included *)
  min_delay : float;
  max_delay : float;
  global_skew : float;  (** max - min over all sinks, ps *)
  group_skew : float array;  (** per-group max - min, ps *)
  max_group_skew : float;
}

(** The default acceptance slack of {!within_bound} (ps).  {!Repair.run}
    uses the same constant, so repair's convergence test and the final
    acceptance check cannot drift apart. *)
val default_slack : float

(** Per-sink Elmore delays (ps) of a routed tree, indexed by sink id. *)
val delays : ?jobs:int -> ?regions:int -> Instance.t -> Tree.routed -> float array

val run : ?jobs:int -> ?regions:int -> Instance.t -> Tree.routed -> report

(** Evaluate a tree already flattened into an arena (the arena-native
    router pipeline's representation), without re-flattening.  An
    enabled [sched] recorder ledgers the windowed kernel maps under
    ["evaluate.windows"]; recording never changes the computed report
    (["sched-identity"] row of [Check.Oracle.invariance]). *)
val report_of_arena :
  ?jobs:int -> ?regions:int -> ?sched:Obs.Sched.t ->
  Instance.t -> Arena.t -> report

(** Does the tree satisfy the instance's intra-group bound (within
    [slack], default {!default_slack} ps of numerical slack)? *)
val within_bound : ?slack:float -> Instance.t -> report -> bool

val pp_report : Format.formatter -> report -> unit
