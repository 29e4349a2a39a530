(** Flat int-indexed post-order arena over a routed tree.

    The repair/evaluate loop walks the same tree hundreds of times; the
    pointer representation ({!Tree.t}) costs an allocation-heavy rebuild
    per walk and its recursive visitors overflow the stack on degenerate
    deep trees (a 10^6-sink comb is ~2·10^6 nodes deep).  The arena
    flattens the tree once into parallel arrays in {e post order} —
    children before parents, the left subtree entirely before the right,
    the root at index [n - 1] — so every bottom-up pass is an ascending
    [for] loop, every top-down pass a descending one, and every subtree
    is the contiguous index range [[v - size v + 1, v]].

    [len.(v)] is the length of the edge {e above} node [v] (from its
    parent), with [len.(root) = source_len]; this matches the RC-tree
    orientation, where each edge is a pi segment owned by its lower
    node.  Repair mutates only [len]; {!to_routed} rebuilds a
    [Tree.routed] that is bit-identical to the input when no length
    changed (see the flatten→rebuild round-trip property in the tests).

    The Elmore kernels replicate {!Tree.to_rctree} + {!Rc.Rctree.elmore}
    operation for operation — same expressions, same association order,
    same traversal order — so their results are bit-identical to the
    list-based RC path.  This is what lets {!Evaluate} and {!Repair} run
    on the arena without perturbing any routed tree or delay by an
    ulp. *)

type t = {
  n : int;  (** node count, [2 * n_sinks - 1] *)
  n_sinks : int;
  source : Geometry.Pt.t;
  source_len : float;
  rd : float;
  params : Rc.Wire.params;
  left : int array;  (** left child index, [-1] for leaves *)
  right : int array;  (** right child index, [-1] for leaves *)
  parent : int array;  (** parent index, [-1] for the root *)
  size : int array;  (** subtree node count *)
  sink : int array;  (** sink id at leaves, [-1] at internal nodes *)
  group : int array;  (** sink group at leaves, [-1] at internal nodes *)
  scap : float array;  (** sink load cap at leaves, [0.] at internal nodes *)
  pos : Geometry.Pt.t array;  (** embedded position *)
  len : float array;  (** edge length above the node; mutated by repair *)
}

val is_leaf : t -> int -> bool

(** Iterative (explicit-stack) post-order flatten.  [params]/[rd] are
    stored for the Elmore kernels. *)
val of_routed : Rc.Wire.params -> rd:float -> Tree.routed -> t

(** Iterative rebuild of the pointer tree from the arena.  Positions,
    sink records and [source]/[source_len] round-trip exactly; edge
    lengths come from the (possibly mutated) [len] column. *)
val to_routed : t -> Tree.routed

(** Sum of [len] in ascending index order (root edge — the source wire —
    included).  Two snapshots of this sum bracket a repair phase's added
    wire deterministically. *)
val total_edge_length : t -> float

(** [downstream_rc ~into a] fills [into.(v)] with the RC downstream
    capacitance of node [v] — bit-identical to
    {!Rc.Rctree.downstream_cap} on {!Tree.to_rctree}'s output
    (right-child contribution accumulated before left).  [into] has
    length [n].  Returns the source-node value [down0]
    ([half source_len + into.(root)], the full tree load seen by the
    driver). *)
val downstream_rc : into:float array -> t -> float

(** The [down0] that {!downstream_rc} returns, read off a filled
    [down] array: half the source wire plus the root's value. *)
val source_load : down:float array -> t -> float

(** One node of {!downstream_rc}: refreshes [into.(v)] from [v]'s edge
    lengths and its children's [into] values with the full kernel's
    expression.  Lets a caller that knows which lengths changed keep a
    memo current without a full pass. *)
val downstream_rc_node : into:float array -> t -> int -> unit

(** {!downstream_rc} restricted to the contiguous subtree range
    [lo, hi] (a node and its descendants).  Fills only that window of
    [into]; no source term. *)
val downstream_rc_range : into:float array -> lo:int -> hi:int -> t -> unit

(** [elmore ~down ~down0 ~into a] fills [into.(v)] with the Elmore delay
    at node [v] given the downstream caps of {!downstream_rc} —
    bit-identical to {!Rc.Rctree.elmore}. *)
val elmore : down:float array -> down0:float -> into:float array -> t -> unit

(** The root's delay as {!elmore} computes it: the driver term from
    [down0] plus the source wire's term. *)
val root_delay : down:float array -> down0:float -> t -> float

(** {!elmore} restricted to the subtree range [lo, hi]:
    [into.(hi) <- root_delay] and descendants accumulate from it.
    With [root_delay = 0.] the window holds delays measured from the
    subtree root — exact for intra-subtree skews, which are invariant
    under the dropped constant offset. *)
val elmore_range :
  down:float array ->
  root_delay:float ->
  into:float array ->
  lo:int ->
  hi:int ->
  t ->
  unit

(** [delays_by_sink ~delay ~into a] scatters per-node delays to per-sink
    ids: [into.(sink.(v)) <- delay.(v)] for every leaf [v].  [into] has
    length [n_sinks]. *)
val delays_by_sink : delay:float array -> into:float array -> t -> unit

(** {!delays_by_sink} restricted to the index range [lo, hi]. *)
val delays_by_sink_range :
  delay:float array -> into:float array -> lo:int -> hi:int -> t -> unit

(** Evaluation windows: the disjoint maximal subtrees of at most
    [ceil (n / count)] nodes (at least 3 nodes each), as ascending
    contiguous [(lo, hi)] index ranges.  A pure function of the tree
    shape and [count] — never of a jobs count — so work split along
    these windows is bit-reproducible for any parallelism.  The root is
    always outside every window.  [count] defaults to the
    [Dme.Cluster]-style density target ([clamp 1 64 (ceil (n_sinks /
    1000))]); below 2 the result is empty.  This is the same
    decomposition the repair pass uses for its regional fixpoints. *)
val windows : ?count:int -> t -> (int * int) array

(** The spine of a window decomposition: the ascending index ranges
    outside every window (the root's range last). *)
val gaps : windows:(int * int) array -> t -> (int * int) array

(** Serial spine complement of {!downstream_rc} over a window
    decomposition: fills every node {e outside} the windows (ascending
    along the gaps; window values must already be present) with the
    exact expression of the full kernel and returns [down0]. *)
val downstream_rc_gaps :
  into:float array -> windows:(int * int) array -> t -> float

(** Serial spine complement of {!elmore}: fills every node outside the
    windows top-down (descending along the gaps), computing the root
    delay from [down0] exactly as {!elmore} does.  Must run {e before}
    the per-window passes — window roots read their parent's delay. *)
val elmore_gaps :
  down:float array ->
  down0:float ->
  into:float array ->
  windows:(int * int) array ->
  t ->
  unit

(** {!elmore_range} over one window, deriving the window root's delay
    from its parent's already-computed delay — bit-identical to the full
    descending loop restricted to [lo, hi]. *)
val elmore_window :
  down:float array -> into:float array -> lo:int -> hi:int -> t -> unit

(** {!delays_by_sink} over the gaps of a window decomposition. *)
val delays_by_sink_gaps :
  delay:float array -> into:float array -> windows:(int * int) array -> t -> unit

(** Total wirelength including the source wire; bit-identical to
    {!Tree.wirelength} of {!to_routed}. *)
val wirelength : t -> float

(** Total snaking wire; bit-identical to {!Tree.total_snaking} of
    {!to_routed}. *)
val total_snaking : t -> float
