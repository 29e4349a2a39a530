(* Executable specification of [Geometry.Grid_index]: the nested-table
   index it replaced, kept verbatim in behaviour (cell keying, ring order,
   per-cell insertion order, (distance, arrival) ties) so property tests
   can demand identical answers and identical work counters from the
   dense kernel.  Work is counted per index in [work] instead of the
   global [geometry.grid.*] counters. *)

open Geometry

type 'a entry = { pt : Pt.t; value : 'a }

type work = {
  mutable queries : int;
  mutable rings : int;
  mutable cells : int;
  mutable entries : int;
}

(* Cells are keyed by two nested int tables (gx, then gy) rather than one
   [(int * int)]-keyed table: ring scans probe hundreds of cells per
   query, and an int key is hashed without boxing where a tuple key costs
   an allocation per probe.  Each cell's bucket is a pair of parallel
   growable arrays scanned with a plain for-loop: [Hashtbl.iter]
   allocates its internal traversal closure on every call, which at one
   call per visited occupied cell dominated the query-path allocation.
   Entries iterate in insertion order (removal shifts, preserving it),
   which fixes distance-tie arrival order in [k_nearest]. *)
type 'a bucket = {
  mutable ids : int array;
  mutable ents : 'a entry array;
  mutable blen : int;
}

let bucket_make id e =
  { ids = Array.make 4 id; ents = Array.make 4 e; blen = 1 }

(* Replace semantics on an existing id, like the Hashtbl it replaced.
   Buckets hold the handful of entries sharing one grid cell, so the
   linear scans here are short. *)
let bucket_add b id e =
  let rec find i = if i >= b.blen then -1 else if b.ids.(i) = id then i else find (i + 1) in
  match find 0 with
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
  let rec find i = if i >= b.blen then -1 else if b.ids.(i) = id then i else find (i + 1) in
  match find 0 with
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

type 'a t = {
  cell : float;
  cols : (int, (int, 'a bucket) Hashtbl.t) Hashtbl.t;
  rows : (int, int) Hashtbl.t;
      (* occupied-bucket count per gy: the ring scan's bounding box needs
         the extreme occupied row, and folding the row table is one flat
         pass where folding every column's cell table allocates a closure
         per occupied column on every query *)
  mutable count : int;
  work : work;
}

let create ~cell =
  if cell <= 0. then invalid_arg "Grid_spec.create: cell must be positive";
  {
    cell;
    cols = Hashtbl.create 257;
    rows = Hashtbl.create 257;
    count = 0;
    work = { queries = 0; rings = 0; cells = 0; entries = 0 };
  }

let incr_row t gy =
  match Hashtbl.find t.rows gy with
  | exception Not_found -> Hashtbl.replace t.rows gy 1
  | c -> Hashtbl.replace t.rows gy (c + 1)

let decr_row t gy =
  match Hashtbl.find t.rows gy with
  | exception Not_found -> ()
  | 1 -> Hashtbl.remove t.rows gy
  | c -> Hashtbl.replace t.rows gy (c - 1)

let[@inline] gx_of t (p : Pt.t) = int_of_float (Float.floor (p.x /. t.cell))
let[@inline] gy_of t (p : Pt.t) = int_of_float (Float.floor (p.y /. t.cell))

let add t ~id p v =
  let gx = gx_of t p and gy = gy_of t p in
  let col =
    match Hashtbl.find_opt t.cols gx with
    | Some c -> c
    | None ->
      let c = Hashtbl.create 17 in
      Hashtbl.add t.cols gx c;
      c
  in
  (match Hashtbl.find_opt col gy with
   | Some b -> bucket_add b id { pt = p; value = v }
   | None ->
     Hashtbl.add col gy (bucket_make id { pt = p; value = v });
     incr_row t gy);
  t.count <- t.count + 1

let remove t ~id p =
  let gx = gx_of t p and gy = gy_of t p in
  match Hashtbl.find_opt t.cols gx with
  | None -> ()
  | Some col -> (
    match Hashtbl.find_opt col gy with
    | None -> ()
    | Some b ->
      if bucket_remove b id then begin
        t.count <- t.count - 1;
        if b.blen = 0 then begin
          Hashtbl.remove col gy;
          decr_row t gy;
          if Hashtbl.length col = 0 then Hashtbl.remove t.cols gx
        end
      end)

let size t = t.count

(* Visit cells in expanding square rings around the query cell.  A hit at
   ring [r] guarantees no closer hit exists beyond ring
   [ceil (best / cell) + 1], which bounds the scan; the bounding box of
   occupied cells bounds it even when the caller's stop condition never
   fires (e.g. fewer entries than requested). *)
let iter_rings t (p : Pt.t) ~stop f =
  let cx = gx_of t p and cy = gy_of t p in
  (* max over occupied cells of max (|dx|, |dy|) equals
     max (max |dx| over occupied columns, max |dy| over occupied rows):
     each axis maximum is attained by some occupied cell, and every
     cell's Chebyshev distance is bounded by the pair.  Two flat folds
     (one closure each) replace the nested per-column fold. *)
  let max_ring =
    let mx =
      Hashtbl.fold
        (fun gx _ acc -> Int.max acc (Int.abs (gx - cx)))
        t.cols 0
    in
    Hashtbl.fold
      (fun gy _ acc -> Int.max acc (Int.abs (gy - cy)))
      t.rows mx
  in
  (* [Hashtbl.find] + [Not_found] rather than [find_opt]: misses dominate
     on the outer rings and must not allocate a [Some] per probed cell.
     Bucket entries are scanned with a for-loop — no traversal closure. *)
  let visit_col col gy =
    t.work.cells <- t.work.cells + 1;
    match Hashtbl.find col gy with
    | exception Not_found -> ()
    | b ->
      for i = 0 to b.blen - 1 do
        t.work.entries <- t.work.entries + 1;
        f b.ids.(i) b.ents.(i)
      done
  in
  let visit gx gy =
    match Hashtbl.find t.cols gx with
    | exception Not_found -> t.work.cells <- t.work.cells + 1
    | col -> visit_col col gy
  in
  let rec ring r =
    if r <= max_ring && not (stop r) then begin
      t.work.rings <- t.work.rings + 1;
      if r = 0 then visit cx cy
      else begin
        (* Walk the top and bottom edges column-major so each occupied
           column is resolved once per edge pair. *)
        for gx = cx - r to cx + r do
          match Hashtbl.find t.cols gx with
          | exception Not_found ->
            t.work.cells <- t.work.cells + 1;
            t.work.cells <- t.work.cells + 1
          | col ->
            visit_col col (cy - r);
            visit_col col (cy + r)
        done;
        for gy = cy - r + 1 to cy + r - 1 do
          visit (cx - r) gy;
          visit (cx + r) gy
        done
      end;
      ring (r + 1)
    end
  in
  ring 0

let nearest t ?(skip = fun _ -> false) p =
  t.work.queries <- t.work.queries + 1;
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

(* Per-domain heap scratch for [k_nearest].  The entry array stays
   per-call (it is polymorphic in the index's value type); the numeric
   arrays are monomorphic and reused across queries.  Safe because the
   scan's callbacks ([skip]) never re-enter the query path. *)
type knn_scratch = {
  mutable khd : float array;
  mutable khs : int array;
  mutable khid : int array;
}

let knn_scratch_key =
  Domain.DLS.new_key (fun () -> { khd = [||]; khs = [||]; khid = [||] })

let k_nearest t ?(skip = fun _ -> false) p k =
  t.work.queries <- t.work.queries + 1;
  if t.count = 0 || k <= 0 then []
  else begin
    (* Bounded selection: a binary max-heap keeps the k best candidates
       seen so far, ordered by (distance, arrival) — O(log k) per
       accepted entry instead of a full re-sort.  The heap root is the
       running k-th distance, which drives the ring-scan stop condition.
       Distance ties prefer the later-visited entry, reproducing the
       (reverse accumulation + stable sort) order of the original
       implementation bit for bit.  The heap lives in parallel scratch
       arrays (distance / arrival / id / entry) so that scanning an entry
       allocates nothing: thousands of entries are offered per query and
       only k survive. *)
    let cap = Int.min k t.count in
    let sc = Domain.DLS.get knn_scratch_key in
    if Array.length sc.khd < cap then begin
      sc.khd <- Array.make cap 0.;
      sc.khs <- Array.make cap 0;
      sc.khid <- Array.make cap 0
    end;
    let hd = sc.khd in
    let hs = sc.khs in
    let hid = sc.khid in
    (* Seeded with the first accepted entry; never read before. *)
    let hent = ref [||] in
    let size = ref 0 in
    let arrival = ref 0 in
    (* The heap order — "candidate 1 ranks strictly after candidate 2"
       iff [d1 > d2 || (d1 = d2 && s1 < s2)] — is written out at every
       comparison site: routing it through a shared helper would box two
       floats per call, and the scan compares thousands of times per
       query. *)
    let swap i j =
      let he = !hent in
      let d = hd.(i) and s = hs.(i) and id = hid.(i) and e = he.(i) in
      hd.(i) <- hd.(j);
      hs.(i) <- hs.(j);
      hid.(i) <- hid.(j);
      he.(i) <- he.(j);
      hd.(j) <- d;
      hs.(j) <- s;
      hid.(j) <- id;
      he.(j) <- e
    in
    let rec sift_up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if
          hd.(i) > hd.(parent)
          || (hd.(i) = hd.(parent) && hs.(i) < hs.(parent))
        then begin
          swap i parent;
          sift_up parent
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m =
        if l < !size && (hd.(l) > hd.(i) || (hd.(l) = hd.(i) && hs.(l) < hs.(i)))
        then l
        else i
      in
      let m =
        if r < !size && (hd.(r) > hd.(m) || (hd.(r) = hd.(m) && hs.(r) < hs.(m)))
        then r
        else m
      in
      if m <> i then begin
        swap i m;
        sift_down m
      end
    in
    (* Distance is computed inside the offer so it never crosses a
       closure boundary boxed; the L1 distance is written out because a
       [Pt.dist] call is not inlined in -opaque (dev-profile) builds and
       would box its result for every scanned entry. *)
    let offer id e =
      let s = !arrival in
      incr arrival;
      let q = e.pt in
      let d = Float.abs (p.Pt.x -. q.Pt.x) +. Float.abs (p.Pt.y -. q.Pt.y) in
      if !size < cap then begin
        if Array.length !hent = 0 then hent := Array.make cap e;
        let i = !size in
        hd.(i) <- d;
        hs.(i) <- s;
        hid.(i) <- id;
        (!hent).(i) <- e;
        incr size;
        sift_up i
      end
      else if hd.(0) > d || (hd.(0) = d && hs.(0) < s) then begin
        hd.(0) <- d;
        hs.(0) <- s;
        hid.(0) <- id;
        (!hent).(0) <- e;
        sift_down 0
      end
    in
    let stop r = !size = k && float_of_int (r - 1) *. t.cell > hd.(0) in
    iter_rings t p ~stop (fun id e -> if not (skip id) then offer id e);
    (* Pop the heap worst-first, prepending: (distance, arrival) keys are
       unique (arrival stamps are), so the pop order is the unique total
       order by descending (d, earliest-arrival-on-ties) and prepending
       yields exactly the ascending-distance, later-arrival-on-ties list
       the previous sort produced — without materialising an intermediate
       list or a sort. *)
    let entries = ref [] in
    while !size > 0 do
      let he = !hent in
      entries := (hid.(0), he.(0).pt, he.(0).value) :: !entries;
      decr size;
      let last = !size in
      if last > 0 then begin
        hd.(0) <- hd.(last);
        hs.(0) <- hs.(last);
        hid.(0) <- hid.(last);
        he.(0) <- he.(last);
        sift_down 0
      end
    done;
    !entries
  end
