type 'a entry = { pt : Pt.t; value : 'a }

(* Query instrumentation: queries = nearest/k_nearest calls,
   rings/cells/entries = work done by the ring scans those queries run.
   A query counts in locals and publishes once: see [Obs.Counter.add]. *)
let c_queries = Obs.Counter.make "geometry.grid.queries"
let c_rings = Obs.Counter.make "geometry.grid.rings_scanned"
let c_cells = Obs.Counter.make "geometry.grid.cells_visited"
let c_entries = Obs.Counter.make "geometry.grid.entries_scanned"

(* Each cell's bucket is a pair of parallel growable arrays scanned with
   a plain for-loop.  Entries iterate in insertion order (removal shifts,
   preserving it), which fixes distance-tie arrival order in
   [k_nearest]. *)
type 'a bucket = {
  mutable ids : int array;
  mutable ents : 'a entry array;
  mutable blen : int;
}

(* Buckets hold the handful of entries sharing one grid cell, so the
   linear scans here are short. *)
let bucket_find b id =
  let rec go i = if i >= b.blen then -1 else if b.ids.(i) = id then i else go (i + 1) in
  go 0

(* Replace semantics on an existing id, like the Hashtbl it replaced. *)
let bucket_add b id e =
  match bucket_find b id with
  | i when i >= 0 -> b.ents.(i) <- e
  | _ ->
    let cap = Array.length b.ids in
    if b.blen = cap then begin
      let ids = Array.make (2 * cap) id and ents = Array.make (2 * cap) e in
      Array.blit b.ids 0 ids 0 cap;
      Array.blit b.ents 0 ents 0 cap;
      b.ids <- ids;
      b.ents <- ents
    end;
    b.ids.(b.blen) <- id;
    b.ents.(b.blen) <- e;
    b.blen <- b.blen + 1

(* Returns whether [id] was present; keeps insertion order by shifting. *)
let bucket_remove b id =
  match bucket_find b id with
  | -1 -> false
  | i ->
    for j = i to b.blen - 2 do
      b.ids.(j) <- b.ids.(j + 1);
      b.ents.(j) <- b.ents.(j + 1)
    done;
    b.blen <- b.blen - 1;
    (* Drop the stale tail reference so removed values can be collected
       while the bucket lives on. *)
    if b.blen > 0 then b.ents.(b.blen) <- b.ents.(0);
    true

(* The extent's [nx] x [ny] cells from (x0, y0) live in a dense
   column-major array (an empty cell holds the shared, never-mutated
   [empty] bucket); other cells go to an exact sparse table, consulted
   only while non-empty.  [cols] / [rows] count occupied cells per column
   / row; [xlo..yhi] are the occupied extremes, which bound a scan. *)
type 'a t = {
  cell : float;
  x0 : int; y0 : int; nx : int; ny : int;
  dense : 'a bucket array;
  sparse : (int * int, 'a bucket) Hashtbl.t;
  empty : 'a bucket;
  cols : (int, int) Hashtbl.t;
  rows : (int, int) Hashtbl.t;
  mutable xlo : int; mutable xhi : int; mutable ylo : int; mutable yhi : int;
  mutable count : int;
}

let[@inline] gx_of t (p : Pt.t) = int_of_float (Float.floor (p.x /. t.cell))
let[@inline] gy_of t (p : Pt.t) = int_of_float (Float.floor (p.y /. t.cell))

let create ?extent ~cell () =
  if cell <= 0. then invalid_arg "Grid_index.create: cell must be positive";
  let g v = int_of_float (Float.floor (v /. cell)) in
  let span a b = Float.floor (b /. cell) -. Float.floor (a /. cell) +. 1. in
  (* Sized in floats first: a non-finite extent leaves every cell sparse. *)
  let x0, y0, nx, ny =
    match extent with
    | Some ((lo : Pt.t), (hi : Pt.t))
      when let fx = span lo.x hi.x and fy = span lo.y hi.y in
           fx >= 1. && fy >= 1. && fx *. fy <= float_of_int Sys.max_array_length ->
      (g lo.x, g lo.y, g hi.x - g lo.x + 1, g hi.y - g lo.y + 1)
    | _ -> (0, 0, 0, 0)
  in
  let empty = { ids = [||]; ents = [||]; blen = 0 } in
  { cell; x0; y0; nx; ny; dense = Array.make (nx * ny) empty;
    sparse = Hashtbl.create 17; empty; cols = Hashtbl.create 257;
    rows = Hashtbl.create 257; xlo = max_int; xhi = min_int;
    ylo = max_int; yhi = min_int; count = 0 }

let[@inline] dense_slot t gx gy =
  let dx = gx - t.x0 and dy = gy - t.y0 in
  if dx >= 0 && dx < t.nx && dy >= 0 && dy < t.ny then (dx * t.ny) + dy
  else -1

let[@inline] bucket_at t gx gy =
  match dense_slot t gx gy with
  | -1 when Hashtbl.length t.sparse = 0 -> t.empty
  | -1 -> Option.value (Hashtbl.find_opt t.sparse (gx, gy)) ~default:t.empty
  | i -> t.dense.(i)

let set_bucket t gx gy b =
  match dense_slot t gx gy with
  | -1 when b == t.empty -> Hashtbl.remove t.sparse (gx, gy)
  | -1 -> Hashtbl.replace t.sparse (gx, gy) b
  | i -> t.dense.(i) <- b

(* Cell (gx, gy) takes bucket [b] as it fills ([d] = 1) or empties
   ([d] = -1): move the per-column and per-row counts and the extremes
   they bound.  Emptying an extreme column or row is rare and re-derives
   that axis in one pass. *)
let occupy t gx gy b d =
  set_bucket t gx gy b;
  let bump tbl k =
    let c = d + (match Hashtbl.find tbl k with exception Not_found -> 0 | c -> c) in
    if c = 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k c;
    c = 0
  in
  let span tbl =
    let lo = ref max_int and hi = ref min_int in
    Hashtbl.iter (fun k _ -> lo := Int.min !lo k; hi := Int.max !hi k) tbl;
    (!lo, !hi)
  in
  if d > 0 then begin
    t.xlo <- Int.min t.xlo gx; t.xhi <- Int.max t.xhi gx;
    t.ylo <- Int.min t.ylo gy; t.yhi <- Int.max t.yhi gy
  end;
  if bump t.cols gx && (gx = t.xlo || gx = t.xhi) then begin
    let lo, hi = span t.cols in t.xlo <- lo; t.xhi <- hi
  end;
  if bump t.rows gy && (gy = t.ylo || gy = t.yhi) then begin
    let lo, hi = span t.rows in t.ylo <- lo; t.yhi <- hi
  end

let add t ~id p v =
  let gx = gx_of t p and gy = gy_of t p in
  let b = bucket_at t gx gy and e = { pt = p; value = v } in
  if b == t.empty then
    occupy t gx gy { ids = Array.make 4 id; ents = Array.make 4 e; blen = 1 } 1
  else bucket_add b id e;
  t.count <- t.count + 1

let remove t ~id p =
  let gx = gx_of t p and gy = gy_of t p in
  let b = bucket_at t gx gy in
  if bucket_remove b id then begin
    t.count <- t.count - 1;
    if b.blen = 0 then occupy t gx gy t.empty (-1)
  end

let size t = t.count

(* One cell's entries, in insertion order, to [f]; returns how many.
   Cells past the occupied extremes hold nothing. *)
let visit t f gx gy =
  if gx < t.xlo || gx > t.xhi || gy < t.ylo || gy > t.yhi then 0
  else begin
    let b = bucket_at t gx gy in
    for i = 0 to b.blen - 1 do f b.ids.(i) b.ents.(i) done;
    b.blen
  end

(* Visit cells in expanding square rings around the query cell.  A hit at
   ring [r] guarantees no closer hit exists beyond ring
   [ceil (best / cell) + 1], which bounds the scan; the occupied extremes
   bound it when the stop condition never fires.  Ring r > 0 walks its
   top and bottom edges column by column, then its left and right edges
   row by row; cells past the occupied extremes hold nothing and are
   skipped, but counted.  Requires [t.count > 0]. *)
let iter_rings t (p : Pt.t) ~stop f =
  let cx = gx_of t p and cy = gy_of t p in
  let max_ring =
    Int.max (Int.max (cx - t.xlo) (t.xhi - cx))
      (Int.max (cy - t.ylo) (t.yhi - cy))
  in
  let r = ref 0 and ents = ref 0 in
  while !r <= max_ring && not (stop !r) do
    let r' = !r in
    if r' = 0 then ents := visit t f cx cy
    else begin
      for gx = Int.max (cx - r') t.xlo to Int.min (cx + r') t.xhi do
        let top = visit t f gx (cy - r') in
        ents := !ents + top + visit t f gx (cy + r')
      done;
      for gy = Int.max (cy - r' + 1) t.ylo to Int.min (cy + r' - 1) t.yhi do
        let lft = visit t f (cx - r') gy in
        ents := !ents + lft + visit t f (cx + r') gy
      done
    end;
    incr r
  done;
  Obs.Counter.add c_rings !r;
  (* Ring 0 is one cell and ring r > 0 has 8r. *)
  if !r > 0 then Obs.Counter.add c_cells (1 + (4 * !r * (!r - 1)));
  Obs.Counter.add c_entries !ents

let nearest t ?(skip = fun _ -> false) p =
  Obs.Counter.incr c_queries;
  if t.count = 0 then None
  else begin
    let best_id = ref (-1) in
    let best_pt = ref Pt.zero in
    let best_dist = ref Float.infinity in
    let best_value = ref None in
    let stop r =
      (* Cells at ring r are at least (r-1) * cell away in L-infinity,
         hence at least that far in L1. *)
      !best_id >= 0 && float_of_int (r - 1) *. t.cell > !best_dist
    in
    iter_rings t p ~stop (fun id e ->
        if not (skip id) then begin
          (* L1 distance written out: see [k_nearest]. *)
          let q = e.pt in
          let d =
            Float.abs (p.Pt.x -. q.Pt.x) +. Float.abs (p.Pt.y -. q.Pt.y)
          in
          if d < !best_dist then begin
            best_dist := d;
            best_id := id;
            best_pt := e.pt;
            best_value := Some e.value
          end
        end);
    match !best_value with
    | None -> None
    | Some v -> Some (!best_id, !best_pt, v)
  end

(* Per-domain heap scratch for [k_nearest]: a binary max-heap of the k
   best candidates seen so far, ordered by (distance, arrival), in
   parallel monomorphic arrays (distance / arrival / id).  Its root is
   the running k-th distance, which drives the ring-scan stop condition.
   The heap operations are top-level functions over this record, so a
   query builds no per-query heap closures and scanning an entry
   allocates nothing.  Safe because the scan's callbacks ([skip]) never
   re-enter the query path. *)
type heap = {
  mutable hd : float array;
  mutable hs : int array;
  mutable hid : int array;
  mutable size : int;
  mutable arrival : int;
}

let heap_key =
  Domain.DLS.new_key (fun () ->
      { hd = [||]; hs = [||]; hid = [||]; size = 0; arrival = 0 })

(* Slot [i] ranks strictly after slot [j]: farther, or as far and
   visited earlier (distance ties prefer the later-visited entry). *)
let[@inline] after h i j =
  h.hd.(i) > h.hd.(j) || (h.hd.(i) = h.hd.(j) && h.hs.(i) < h.hs.(j))

let swap h i j =
  let d = h.hd.(i) and s = h.hs.(i) and id = h.hid.(i) in
  h.hd.(i) <- h.hd.(j);
  h.hs.(i) <- h.hs.(j);
  h.hid.(i) <- h.hid.(j);
  h.hd.(j) <- d;
  h.hs.(j) <- s;
  h.hid.(j) <- id

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if after h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < h.size && after h l i then l else i in
  let m = if r < h.size && after h r m then r else m in
  if m <> i then begin
    swap h i m;
    sift_down h m
  end

let k_nearest t ?(skip = fun _ -> false) p k ids =
  if Array.length ids < k then
    invalid_arg "Grid_index.k_nearest: buffer shorter than k";
  Obs.Counter.incr c_queries;
  if t.count = 0 || k <= 0 then 0
  else begin
    let cap = Int.min k t.count in
    let h = Domain.DLS.get heap_key in
    if Array.length h.hd < cap then begin
      h.hd <- Array.make cap 0.;
      h.hs <- Array.make cap 0;
      h.hid <- Array.make cap 0
    end;
    h.size <- 0;
    h.arrival <- 0;
    (* The L1 distance is written out because a [Pt.dist] call is not
       inlined in -opaque (dev-profile) builds and would box its result
       for every scanned entry. *)
    let offer id e =
      if not (skip id) then begin
        let s = h.arrival in
        h.arrival <- s + 1;
        let q = e.pt in
        let d = Float.abs (p.Pt.x -. q.Pt.x) +. Float.abs (p.Pt.y -. q.Pt.y) in
        if h.size < cap then begin
          let i = h.size in
          h.hd.(i) <- d;
          h.hs.(i) <- s;
          h.hid.(i) <- id;
          h.size <- i + 1;
          sift_up h i
        end
        else if h.hd.(0) > d || (h.hd.(0) = d && h.hs.(0) < s) then begin
          h.hd.(0) <- d;
          h.hs.(0) <- s;
          h.hid.(0) <- id;
          sift_down h 0
        end
      end
    in
    let stop r = h.size = k && float_of_int (r - 1) *. t.cell > h.hd.(0) in
    iter_rings t p ~stop offer;
    (* Pop the heap worst-first into the buffer's tail: (distance,
       arrival) keys are unique, so this leaves the ids in ascending
       distance, later arrival first on ties, with no sort. *)
    let n = h.size in
    while h.size > 0 do
      let last = h.size - 1 in
      ids.(last) <- h.hid.(0);
      h.size <- last;
      if last > 0 then begin
        h.hd.(0) <- h.hd.(last);
        h.hs.(0) <- h.hs.(last);
        h.hid.(0) <- h.hid.(last);
        sift_down h 0
      end
    done;
    n
  end
