(** Named monotonic counters.

    Counters are created once at module-initialization time (they
    register themselves in a global registry) and bumped from hot paths.
    A bump is a single atomic fetch-and-add, safe to issue concurrently
    from worker domains (increments are never lost, so totals are
    scheduling-independent).  {!Report.snapshot} collects every
    registered counter.

    Hot-loop rule: {!incr} is an atomic read-modify-write on a cache
    line shared by every domain, so it is not free inside an inner loop
    and it serializes domains that bump the same counter.  An inner loop
    that may run on a worker domain counts in a local and calls {!add}
    once when it finishes (as [Geometry.Grid_index] does per query). *)

type t

(** [make name] creates and registers a counter starting at 0.  Names
    are dotted paths ("dme.engine.trial_merges"); they should be unique
    — {!find} returns the first registration. *)
val make : string -> t

val name : t -> string
val incr : t -> unit

(** [add c k] adds [k] in one atomic step: the way to publish a count
    kept in a local. *)
val add : t -> int -> unit
val value : t -> int

(** Reset to 0 (the registration is kept). *)
val reset : t -> unit

(** All registered counters, in registration order. *)
val all : unit -> t list

val find : string -> t option
