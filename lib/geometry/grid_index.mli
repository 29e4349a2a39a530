(** Uniform-grid spatial index over representative points.

    Used by the merge-ordering stage to generate nearest-neighbour
    candidates in roughly O(1) per query.  Distances here are between the
    stored representative points (L1); callers refine candidates with
    exact region distances. *)

type 'a t

(** [create ?extent ~cell ()] builds an empty index with square cells of
    side [cell] (> 0).  The cells covering [extent] (lower-left and
    upper-right corners) are laid out densely, one slot per cell, so the
    caller sizes [cell] to keep that count O(entries); points outside it
    are indexed exactly in a sparse table.  Answers never depend on
    [extent], only their cost does. *)
val create : ?extent:Pt.t * Pt.t -> cell:float -> unit -> 'a t

(** [add t ~id p v] indexes value [v] under [id] at point [p].  An
    existing entry with the same [id] must be removed first. *)
val add : 'a t -> id:int -> Pt.t -> 'a -> unit

(** [remove t ~id p] removes the entry; [p] must be the point it was added
    at.  Unknown ids are ignored. *)
val remove : 'a t -> id:int -> Pt.t -> unit

val size : 'a t -> int

(** [nearest t ?skip p] is the entry whose point is L1-nearest to [p],
    ignoring entries for which [skip] holds.  [None] when no eligible
    entry exists. *)
val nearest : 'a t -> ?skip:(int -> bool) -> Pt.t -> (int * Pt.t * 'a) option

(** [k_nearest t ?skip p k ids] writes the ids of up to [k] eligible
    entries into [ids.(0)], [ids.(1)], ..., nearest first, and returns
    how many it wrote ([min k] eligible entries).  Order is by
    increasing L1 point distance; equally distant entries come in
    reverse visit order (ring by ring, each cell's entries in insertion
    order), the later-visited first.  The caller owns [ids] and can
    reuse it across queries: a query allocates nothing per scanned
    entry and builds no result list.  Read values or points from the
    caller's own id-indexed tables.  Raises [Invalid_argument] when
    [Array.length ids < k]. *)
val k_nearest :
  'a t -> ?skip:(int -> bool) -> Pt.t -> int -> int array -> int
