(** Flat structure-of-arrays storage for canonical octagons.

    A slab holds 8 float bounds per slot (the {!Octagon.bounds} fields,
    in declaration order) in one contiguous [floatarray], indexed by an
    integer id.  It backs the DME merge-ranking arena: the hot kernel
    ({!dist}) reads the bounds unboxed and allocates nothing, and is
    bit-identical to its {!Octagon} counterpart — the slab is
    a storage change, never a semantic one.

    Writers are single-domain; concurrent {e reads} (parallel ranking
    probes against a frozen slab) are safe. *)

type t

(** [create slots] allocates a slab with capacity for [slots] octagons
    (at least 1).  Slots hold NaN bounds until {!set}. *)
val create : int -> t

(** Current slot capacity. *)
val slots : t -> int

(** Grow (amortized doubling) so [slot] is addressable.  Existing slots
    are preserved. *)
val ensure : t -> int -> unit

(** [set t slot o] stores the bounds of non-empty [o] at [slot], growing
    the slab as needed.  Raises [Invalid_argument] on the empty
    octagon. *)
val set : t -> int -> Octagon.t -> unit

(** Rebuild the boxed octagon stored at [slot] — bit-exact round-trip
    via {!Octagon.of_canonical_bounds}.  Slots never written hold NaN
    bounds.  Raises [Invalid_argument] when [slot] is out of range. *)
val get : t -> int -> Octagon.t

(** [dist t i j] is [Octagon.dist (get t i) (get t j)], bit for bit,
    without allocating. *)
val dist : t -> int -> int -> float
