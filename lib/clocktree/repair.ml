module Eps = Geometry.Eps

type config = {
  max_cycles : int;
  jobs : int;
  incremental : bool;
  regions : int option;
}

let default_config =
  {
    max_cycles = 300;
    jobs = Par.Pool.default_jobs ();
    incremental = true;
    regions = None;
  }

type stats = {
  added_wire : float;
  adjusted_edges : int;
  conflict_nodes : int;
  lift_iterations : int;
  unresolved_groups : int;
  cycles : int;
  budget_exhausted : bool;
}

let c_balance = Obs.Counter.make "clocktree.repair.balance_passes"
let c_lift = Obs.Counter.make "clocktree.repair.lift_sweeps"
let c_adjusted = Obs.Counter.make "clocktree.repair.adjusted_edges"
let c_regions = Obs.Counter.make "clocktree.repair.regions"
let c_exhausted = Obs.Counter.make "clocktree.repair.budget_exhausted"

(* --- group-interval slab store ----------------------------------------

   Balancing needs, per node, the per-group interval of sink delays
   measured from that node.  The old implementation built an IntMap per
   node per pass; the arena keeps slabs — short (gid, lo, hi) runs
   sorted by gid — in growable parallel arrays, one store per regional
   fixpoint plus one residual store, so the parallel phase never
   appends to a shared cursor.  A node's slab is the [goff, goff+glen)
   window of its store; re-balancing appends a fresh slab and rolls the
   cursor back when it is bit-identical to the memo, so clean passes
   cost no store growth and the store compacts itself when dead slabs
   dominate. *)

type store = {
  mutable sg : int array;
  mutable slo : float array;
  mutable shi : float array;
  mutable used : int;
  mutable live : int;
  spans : (int * int) array;  (** the node ranges whose slabs live here *)
}

let store_create spans cap =
  let cap = Int.max cap 8 in
  {
    sg = Array.make cap (-1);
    slo = Array.make cap 0.;
    shi = Array.make cap 0.;
    used = 0;
    live = 0;
    spans;
  }

let store_ensure s extra =
  let need = s.used + extra in
  if need > Array.length s.sg then begin
    let cap = Int.max need (2 * Array.length s.sg) in
    let sg = Array.make cap (-1) in
    let slo = Array.make cap 0. in
    let shi = Array.make cap 0. in
    Array.blit s.sg 0 sg 0 s.used;
    Array.blit s.slo 0 slo 0 s.used;
    Array.blit s.shi 0 shi 0 s.used;
    s.sg <- sg;
    s.slo <- slo;
    s.shi <- shi
  end

type state = {
  a : Arena.t;
  inst : Instance.t;
  slack : float;
  bcap : float array;  (** memoized downstream capacitance *)
  goff : int array;
  glen : int array;
  gstore : int array;
  stores : store array;
  dirty : Bytes.t;  (** must be re-balanced next pass *)
  changed : Bytes.t;  (** per-pass scratch: processed / cap-changed *)
  visited : Bytes.t;  (** balanced at least once (conflict accounting) *)
  down : float array;
  delay : float array;
  pg : int array;  (** lift: pure group, -1 when mixed *)
  md : float array;  (** lift: min deficit over subtree sinks *)
  amount : float array;
  carry : float array;
}

(* Compact a store in place once dead slabs dominate: copy its live
   slabs into [tmp], walking only the nodes that own slabs in it
   (ascending, so offsets come out as a full scan would place them),
   then back to the front.  Offsets move; values do not.  The store
   keeps its capacity and [tmp] is reused, so steady-state churn
   allocates nothing. *)
let maybe_compact st ~tmp s =
  if s.used > (2 * s.live) + 64 then begin
    tmp.used <- 0;
    store_ensure tmp s.live;
    let cur = ref 0 in
    Array.iter
      (fun (lo, hi) ->
        for v = lo to hi do
          let m = st.glen.(v) in
          if m > 0 then begin
            let off = st.goff.(v) in
            Array.blit s.sg off tmp.sg !cur m;
            Array.blit s.slo off tmp.slo !cur m;
            Array.blit s.shi off tmp.shi !cur m;
            st.goff.(v) <- !cur;
            cur := !cur + m
          end
        done)
      s.spans;
    Array.blit tmp.sg 0 s.sg 0 !cur;
    Array.blit tmp.slo 0 s.slo 0 !cur;
    Array.blit tmp.shi 0 s.shi 0 !cur;
    s.used <- !cur
  end

(* Stretch child [c]'s edge so that its delay [w] at load [cap] grows by
   [delta]; returns whether the length changed.  The skip floor is
   relative to the edge delay: at extreme RC corners delays reach ~1e9
   ps, where an absolute 1e-9 ps floor sits far below one ulp and a
   repeated pass would chase its own recomputation noise, adjusting
   edges forever.  64 ulps stays well under Evaluate.within_bound's
   acceptance slack for any delay magnitude the acceptance check can
   resolve.  An adjustment whose resulting length is bit-identical is
   dropped as the no-op it is.  Inlined so that no float is boxed. *)
let[@inline] stretch_edge st c ~cap ~w ~delta ~adjusted ~added =
  if delta <= Float.max 1e-9 (64. *. epsilon_float *. Float.abs w) then false
  else begin
    let len = st.a.Arena.len.(c) in
    let len' =
      Rc.Elmore.wire_for_delay st.a.Arena.params ~load:cap ~delay:(w +. delta)
    in
    if len' = len then false
    else begin
      added := !added +. (len' -. len);
      incr adjusted;
      st.a.Arena.len.(c) <- len';
      true
    end
  end

(* Balance one merge node: replicate the pointer-walk expressions
   operation for operation (see the old balance_pass) so the arena pass
   is bit-identical to it.  Returns whether one of the node's child
   edges was adjusted. *)
let process_internal st v ~count_conflicts ~conflicts ~adjusted ~added =
  let a = st.a in
  let params = a.Arena.params in
  let l = a.Arena.left.(v) and r = a.Arena.right.(v) in
  let cap_l = st.bcap.(l) and cap_r = st.bcap.(r) in
  let llen0 = a.Arena.len.(l) and rlen0 = a.Arena.len.(r) in
  let wl0 = Rc.Elmore.wire_delay params ~len:llen0 ~load:cap_l in
  let wr0 = Rc.Elmore.wire_delay params ~len:rlen0 ~load:cap_r in
  let ls = st.stores.(st.gstore.(l)) and rs = st.stores.(st.gstore.(r)) in
  let l_off = st.goff.(l) and l_len = st.glen.(l) in
  let r_off = st.goff.(r) and r_len = st.glen.(r) in
  (* Admissible x = delta_left - delta_right: intersect, in ascending
     group order, one interval per group spanning both children.  Exact
     max/min make the intersection order-independent; ascending order
     still mirrors the old IntMap.fold. *)
  let acc_lo = ref Float.neg_infinity and acc_hi = ref Float.infinity in
  let j = ref 0 in
  for i = 0 to l_len - 1 do
    let g = ls.sg.(l_off + i) in
    while !j < r_len && rs.sg.(r_off + !j) < g do
      incr j
    done;
    if !j < r_len && rs.sg.(r_off + !j) = g then begin
      let bound = Instance.bound_for st.inst g in
      let llo = ls.slo.(l_off + i) and lhi = ls.shi.(l_off + i) in
      let rlo = rs.slo.(r_off + !j) and rhi = rs.shi.(r_off + !j) in
      let lo = rhi +. wr0 -. bound -. (llo +. wl0) in
      let hi = bound +. rlo +. wr0 -. (lhi +. wl0) in
      acc_lo := Float.max !acc_lo lo;
      acc_hi := Float.min !acc_hi hi
    end
  done;
  let x =
    if !acc_lo > !acc_hi +. Eps.tol then begin
      if count_conflicts then incr conflicts;
      (!acc_lo +. !acc_hi) /. 2.
    end
    else Eps.clamp !acc_lo !acc_hi 0.
  in
  let delta_l = Float.max 0. x and delta_r = Float.max 0. (-.x) in
  let sl =
    stretch_edge st l ~cap:cap_l ~w:wl0 ~delta:delta_l ~adjusted ~added
  in
  let sr =
    stretch_edge st r ~cap:cap_r ~w:wr0 ~delta:delta_r ~adjusted ~added
  in
  let llen = a.Arena.len.(l) and rlen = a.Arena.len.(r) in
  let wl = if sl then wl0 +. delta_l else wl0 in
  let wr = if sr then wr0 +. delta_r else wr0 in
  st.bcap.(v) <- cap_l +. cap_r +. (params.Rc.Wire.c *. (llen +. rlen));
  (* Merged slab: shift children by their (possibly extended) edge
     delays and hull the common groups.  Append to this node's store,
     then roll back if the result matches the memo bit for bit. *)
  let vs = st.stores.(st.gstore.(v)) in
  store_ensure vs (l_len + r_len);
  (* store_ensure may have swapped the arrays; always read through the
     record fields below. *)
  let base = vs.used in
  let i = ref 0 and jj = ref 0 and out = ref base in
  while !i < l_len || !jj < r_len do
    let gl = if !i < l_len then ls.sg.(l_off + !i) else max_int in
    let gr = if !jj < r_len then rs.sg.(r_off + !jj) else max_int in
    if gl < gr then begin
      vs.sg.(!out) <- gl;
      vs.slo.(!out) <- ls.slo.(l_off + !i) +. wl;
      vs.shi.(!out) <- ls.shi.(l_off + !i) +. wl;
      incr i;
      incr out
    end
    else if gr < gl then begin
      vs.sg.(!out) <- gr;
      vs.slo.(!out) <- rs.slo.(r_off + !jj) +. wr;
      vs.shi.(!out) <- rs.shi.(r_off + !jj) +. wr;
      incr jj;
      incr out
    end
    else begin
      vs.sg.(!out) <- gl;
      vs.slo.(!out) <-
        Float.min (ls.slo.(l_off + !i) +. wl) (rs.slo.(r_off + !jj) +. wr);
      vs.shi.(!out) <-
        Float.max (ls.shi.(l_off + !i) +. wl) (rs.shi.(r_off + !jj) +. wr);
      incr i;
      incr jj;
      incr out
    end
  done;
  let m = !out - base in
  let old_off = st.goff.(v) and old_len = st.glen.(v) in
  let same =
    old_len = m
    &&
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < m do
      if
        vs.sg.(old_off + !k) <> vs.sg.(base + !k)
        || vs.slo.(old_off + !k) <> vs.slo.(base + !k)
        || vs.shi.(old_off + !k) <> vs.shi.(base + !k)
      then ok := false;
      incr k
    done;
    !ok
  in
  if same then vs.used <- base
  else begin
    vs.used <- base + m;
    vs.live <- vs.live + m - old_len;
    st.goff.(v) <- base;
    st.glen.(v) <- m
  end;
  llen <> llen0 || rlen <> rlen0

(* One balance pass over [lo, hi].  With [full] every merge node is
   processed; otherwise only the dirty frontier: nodes whose own edges
   changed since their memo (dirty) or whose children were reprocessed
   this pass (changed).  A skipped node's inputs are bit-identical to
   its memo, so skipping is exact. *)
let balance_range st ~lo ~hi ~full ~conflicts ~adjusted ~added =
  Bytes.fill st.changed lo (hi - lo + 1) '\000';
  let processed = ref 0 in
  for v = lo to hi do
    let l = st.a.Arena.left.(v) in
    if l >= 0 then begin
      let must =
        full
        || Bytes.unsafe_get st.dirty v = '\001'
        || Bytes.unsafe_get st.changed l = '\001'
        || Bytes.unsafe_get st.changed (st.a.Arena.right.(v)) = '\001'
      in
      if must then begin
        incr processed;
        let count_conflicts = Bytes.unsafe_get st.visited v = '\000' in
        if count_conflicts then Bytes.unsafe_set st.visited v '\001';
        let self =
          process_internal st v ~count_conflicts ~conflicts ~adjusted ~added
        in
        Bytes.unsafe_set st.changed v '\001';
        Bytes.unsafe_set st.dirty v (if self then '\001' else '\000')
      end
    end
  done;
  !processed

(* Lift child [c]'s edge by its snaking [amount] when that exceeds half
   the acceptance slack; returns whether the length changed. *)
let lift_edge st c ~half_slack ~adjusted ~added =
  let amt = st.amount.(c) in
  if amt > half_slack then begin
    let a = st.a in
    let len = a.Arena.len.(c) in
    let cap = st.bcap.(c) in
    let w = Rc.Elmore.wire_delay a.Arena.params ~len ~load:cap in
    let len' =
      Rc.Elmore.wire_for_delay a.Arena.params ~load:cap ~delay:(w +. amt)
    in
    if len' = len then false
    else begin
      added := !added +. (len' -. len);
      incr adjusted;
      a.Arena.len.(c) <- len';
      true
    end
  end
  else false

(* One lift sweep over [lo, hi] (stage 2): pure-group and min-deficit
   memos ascending, snaking amounts with carry descending, then the
   edge adjustments ascending with incremental cap maintenance.  Nodes
   whose edges or downstream caps change are marked dirty for the next
   balance pass. *)
let lift_range st ~lo ~hi ~target ~adjusted ~added =
  let a = st.a in
  let params = a.Arena.params in
  for v = lo to hi do
    let l = a.Arena.left.(v) in
    if l < 0 then begin
      let g = a.Arena.group.(v) in
      st.pg.(v) <- g;
      st.md.(v) <- target.(g) -. st.delay.(v)
    end
    else begin
      let r = a.Arena.right.(v) in
      st.pg.(v) <-
        (if st.pg.(l) >= 0 && st.pg.(l) = st.pg.(r) then st.pg.(l) else -1);
      st.md.(v) <- Float.min st.md.(l) st.md.(r)
    end
  done;
  st.carry.(hi) <- 0.;
  st.amount.(hi) <- 0.;
  for v = hi downto lo do
    let l = a.Arena.left.(v) in
    if l >= 0 then begin
      let r = a.Arena.right.(v) in
      let cv = st.carry.(v) in
      let al = if st.pg.(l) >= 0 then Float.max 0. (st.md.(l) -. cv) else 0. in
      st.amount.(l) <- al;
      st.carry.(l) <- cv +. al;
      let ar = if st.pg.(r) >= 0 then Float.max 0. (st.md.(r) -. cv) else 0. in
      st.amount.(r) <- ar;
      st.carry.(r) <- cv +. ar
    end
  done;
  Bytes.fill st.changed lo (hi - lo + 1) '\000';
  let half_slack = st.slack /. 2. in
  for v = lo to hi do
    let l = a.Arena.left.(v) in
    if l >= 0 then begin
      let r = a.Arena.right.(v) in
      let al = lift_edge st l ~half_slack ~adjusted ~added in
      let ar = lift_edge st r ~half_slack ~adjusted ~added in
      if
        al || ar
        || Bytes.unsafe_get st.changed l = '\001'
        || Bytes.unsafe_get st.changed r = '\001'
      then begin
        st.bcap.(v) <-
          st.bcap.(l) +. st.bcap.(r)
          +. (params.Rc.Wire.c *. (a.Arena.len.(l) +. a.Arena.len.(r)));
        Bytes.unsafe_set st.changed v '\001';
        Bytes.unsafe_set st.dirty v '\001'
      end
    end
  done

(* --- regional fixpoints ----------------------------------------------- *)

type region = { rlo : int; rhi : int; rstore : int }

type region_summary = {
  r_root : int;
  r_sinks : int;
  r_cycles : int;
  r_lifts : int;
  r_adjusted : int;
  r_conflicts : int;
  r_added : float;
  r_exhausted : bool;
}

(* Fixpoint regions: {!Arena.windows} — the maximal subtrees of at most
   [ceil (n / k)] nodes (and at least one merge node), k the auto-cluster
   density target — a pure function of the tree shape and
   [config.regions], never of the jobs count, so the decomposition (and
   with it every float) is identical for any parallelism.  Sharing the
   decomposition with the parallel evaluation kernels keeps the two
   policies provably in sync. *)
let select_regions (a : Arena.t) cfg =
  Array.mapi
    (fun i (lo, hi) -> { rlo = lo; rhi = hi; rstore = i + 1 })
    (Arena.windows ?count:cfg.regions a)

(* Local balance/evaluate/lift fixpoint on one region.  Delays are
   measured from the region root (delay 0 there): intra-region skews are
   offset-free, so balancing and lifting inside the region are exactly
   the global operations restricted to the subtree.  Acceptance uses
   twice the global slack — the local optimum can sit an ulp away from
   the global one, and the global cycle enforces the true slack
   afterwards; the looser local gate keeps re-repair a no-op.  Runs on
   worker domains: touches only this region's index range and store,
   and never the trace context. *)
let region_fixpoint st cfg (rg : region) =
  let a = st.a in
  let lo = rg.rlo and hi = rg.rhi in
  let n_groups = st.inst.Instance.n_groups in
  let glo = Array.make n_groups Float.infinity in
  let ghi = Array.make n_groups Float.neg_infinity in
  let target = Array.make n_groups Float.neg_infinity in
  let added = ref 0. and adjusted = ref 0 and conflicts = ref 0 in
  let store = st.stores.(rg.rstore) in
  let tmp = store_create [||] 8 in
  let accept_slack = 2. *. st.slack in
  let cycles = ref 0 and lifts = ref 0 in
  let exhausted = ref false in
  let continue = ref true in
  while !continue do
    maybe_compact st ~tmp store;
    Obs.Counter.incr c_balance;
    let _ : int =
      balance_range st ~lo ~hi ~full:(not cfg.incremental) ~conflicts
        ~adjusted ~added
    in
    incr cycles;
    Arena.downstream_rc_range ~into:st.down ~lo ~hi a;
    Arena.elmore_range ~down:st.down ~root_delay:0. ~into:st.delay ~lo ~hi a;
    Array.fill glo 0 n_groups Float.infinity;
    Array.fill ghi 0 n_groups Float.neg_infinity;
    for v = lo to hi do
      if a.Arena.left.(v) < 0 then begin
        let d = st.delay.(v) in
        let g = a.Arena.group.(v) in
        glo.(g) <- Float.min glo.(g) d;
        ghi.(g) <- Float.max ghi.(g) d
      end
    done;
    let ok = ref true in
    for g = 0 to n_groups - 1 do
      let w = if glo.(g) > ghi.(g) then 0. else ghi.(g) -. glo.(g) in
      if w > Instance.bound_for st.inst g +. accept_slack then ok := false
    done;
    if !ok then continue := false
    else if !cycles > cfg.max_cycles then begin
      exhausted := true;
      continue := false
    end
    else begin
      Obs.Counter.incr c_lift;
      incr lifts;
      Array.fill target 0 n_groups Float.neg_infinity;
      for v = lo to hi do
        if a.Arena.left.(v) < 0 then begin
          let g = a.Arena.group.(v) in
          target.(g) <-
            Float.max target.(g)
              (st.delay.(v) -. Instance.bound_for st.inst g)
        end
      done;
      lift_range st ~lo ~hi ~target ~adjusted ~added
    end
  done;
  {
    r_root = hi;
    r_sinks = (a.Arena.size.(hi) + 1) / 2;
    r_cycles = !cycles;
    r_lifts = !lifts;
    r_adjusted = !adjusted;
    r_conflicts = !conflicts;
    r_added = !added;
    r_exhausted = !exhausted;
  }

(* --- global cycle -----------------------------------------------------

   After the regional phase one cycle runs over the whole tree until
   every group is within bound: balance, evaluate, lift.  Two kernel
   sets implement it.  [full_scan] (config.incremental = false) walks
   every node in every step and is the specification.  [worklist] does
   the same arithmetic on the same nodes in the same order, but finds
   them without scanning:

   - balance pops the dirty frontier from an ascending min-heap and
     pushes each processed node's parent, which is exactly the set and
     order of [balance_range ~full:false]; it refreshes [down] for the
     children of processed nodes and the root, the only nodes whose
     edge lengths or subtrees changed;
   - evaluate is one descending pass that computes every delay and the
     per-group extents;
   - lift runs only over the maximal pure-group subtrees, the only
     nodes that can get a non-zero amount (a mixed node's carry is
     exactly +0), then adjusts edges and propagates [bcap] from an
     ascending heap seeded with the parents of candidates, so
     [added_wire] is summed in the same order.

   Every float is produced by the same expression from the same
   operands, so the two sets agree bit for bit (the "repair-identity"
   row of Check.Oracle.invariance). *)

(* Min-heap of node indexes.  [mark] holds each queued node's push flags
   (or-ed; '\000' when absent), so a node is queued at most once;
   [heap_pop] leaves the popped node's flags in [flags]. *)
type heap = {
  h : int array;
  mutable size : int;
  mark : Bytes.t;
  mutable flags : int;
}

let heap_push q v flag =
  let m = Char.code (Bytes.unsafe_get q.mark v) in
  if m <> 0 then Bytes.unsafe_set q.mark v (Char.unsafe_chr (m lor flag))
  else begin
    Bytes.unsafe_set q.mark v (Char.unsafe_chr flag);
    let i = ref q.size in
    q.size <- q.size + 1;
    while !i > 0 && q.h.((!i - 1) / 2) > v do
      q.h.(!i) <- q.h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    q.h.(!i) <- v
  end

let heap_pop q =
  let top = q.h.(0) in
  q.size <- q.size - 1;
  let last = q.h.(q.size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let c = (2 * !i) + 1 in
    if c >= q.size then sifting := false
    else begin
      let c = if c + 1 < q.size && q.h.(c + 1) < q.h.(c) then c + 1 else c in
      if q.h.(c) < last then begin
        q.h.(!i) <- q.h.(c);
        i := c
      end
      else sifting := false
    end
  done;
  q.h.(!i) <- last;
  q.flags <- Char.code (Bytes.unsafe_get q.mark top);
  Bytes.unsafe_set q.mark top '\000';
  top

(* Push flags, or-ed into a queued node's mark: [queued] for a plain
   push, [child_changed] when the lift must refresh the node's cap
   because a child's edge or cap moved. *)
let queued = 1
let child_changed = 2

(* The next balance pass's seeds: the internal nodes whose dirty byte is
   set, each listed once. *)
type seeds = { items : int array; mutable count : int }

let mark_dirty st sd v =
  if Bytes.unsafe_get st.dirty v = '\000' then begin
    Bytes.unsafe_set st.dirty v '\001';
    sd.items.(sd.count) <- v;
    sd.count <- sd.count + 1
  end

(* One balance pass over the seeds and, transitively, the parent of every
   processed node, in ascending order.  Returns the nodes processed. *)
let balance_worklist st q sd ~conflicts ~adjusted ~added =
  let a = st.a in
  for i = 0 to sd.count - 1 do
    heap_push q sd.items.(i) queued
  done;
  sd.count <- 0;
  let processed = ref 0 in
  while q.size > 0 do
    let v = heap_pop q in
    incr processed;
    let count_conflicts = Bytes.unsafe_get st.visited v = '\000' in
    if count_conflicts then Bytes.unsafe_set st.visited v '\001';
    let self =
      process_internal st v ~count_conflicts ~conflicts ~adjusted ~added
    in
    Arena.downstream_rc_node ~into:st.down a a.Arena.left.(v);
    Arena.downstream_rc_node ~into:st.down a a.Arena.right.(v);
    Bytes.unsafe_set st.dirty v '\000';
    if self then mark_dirty st sd v;
    let p = a.Arena.parent.(v) in
    if p >= 0 then heap_push q p queued
  done;
  Arena.downstream_rc_node ~into:st.down a (a.Arena.n - 1);
  !processed

(* Every delay, descending, each from its parent's with Arena.elmore's
   expression; every leaf's delay is folded into its group's [glo]/[ghi]
   extent. *)
let delay_extents st ~glo ~ghi =
  let a = st.a in
  let k = Rc.Wire.ps_per_ohm_ff and r = a.Arena.params.Rc.Wire.r in
  let root_delay =
    Arena.root_delay ~down:st.down
      ~down0:(Arena.source_load ~down:st.down a)
      a
  in
  for v = a.Arena.n - 1 downto 0 do
    let p = a.Arena.parent.(v) in
    let d =
      if p < 0 then root_delay
      else st.delay.(p) +. (k *. (r *. a.Arena.len.(v)) *. st.down.(v))
    in
    st.delay.(v) <- d;
    if a.Arena.left.(v) < 0 then begin
      let g = a.Arena.group.(v) in
      glo.(g) <- Float.min glo.(g) d;
      ghi.(g) <- Float.max ghi.(g) d
    end
  done

(* Roots of the maximal pure-group subtrees, ascending (each subtree is
   the range [u - size u + 1, u]); fills [st.pg] on the way.  Counted
   first so that no list is built. *)
let pure_roots st =
  let a = st.a in
  let n = a.Arena.n in
  for v = 0 to n - 1 do
    let l = a.Arena.left.(v) in
    st.pg.(v) <-
      (if l < 0 then a.Arena.group.(v)
       else if st.pg.(l) >= 0 && st.pg.(l) = st.pg.(a.Arena.right.(v)) then
         st.pg.(l)
       else -1)
  done;
  let is_root v =
    st.pg.(v) >= 0
    &&
    let p = a.Arena.parent.(v) in
    p < 0 || st.pg.(p) < 0
  in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if is_root v then incr count
  done;
  let roots = Array.make !count 0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if is_root v then begin
      roots.(!k) <- v;
      incr k
    end
  done;
  roots

(* Stage-2 amounts over the pure subtrees only, queueing the parent of
   every candidate edge.  A pure subtree's parent is mixed, and a mixed
   node's carry is exactly +0 (its amount is 0 and the root's carry is
   0), so the subtree root gets [max 0 md] and carries it on; inside,
   the expressions are [lift_range]'s. *)
let lift_pure st q ~roots ~target ~half_slack =
  let a = st.a in
  for i = 0 to Array.length roots - 1 do
    let u = roots.(i) in
    let lo = u - a.Arena.size.(u) + 1 in
    for v = lo to u do
      let l = a.Arena.left.(v) in
      st.md.(v) <-
        (if l < 0 then target.(a.Arena.group.(v)) -. st.delay.(v)
         else Float.min st.md.(l) st.md.(a.Arena.right.(v)))
    done;
    let p = a.Arena.parent.(u) in
    let au = if p < 0 then 0. else Float.max 0. st.md.(u) in
    st.amount.(u) <- au;
    st.carry.(u) <- au;
    if au > half_slack then heap_push q p queued;
    for v = u downto lo do
      let l = a.Arena.left.(v) in
      if l >= 0 then begin
        let r = a.Arena.right.(v) in
        let cv = st.carry.(v) in
        let al = Float.max 0. (st.md.(l) -. cv) in
        st.amount.(l) <- al;
        st.carry.(l) <- cv +. al;
        let ar = Float.max 0. (st.md.(r) -. cv) in
        st.amount.(r) <- ar;
        st.carry.(r) <- cv +. ar;
        if al > half_slack || ar > half_slack then
          heap_push q v queued
      end
    done
  done

(* Edge adjustments and cap propagation, ascending from the queued
   candidate parents: [lift_range]'s third loop restricted to the nodes
   where it can act. *)
let lift_worklist st q sd ~half_slack ~adjusted ~added =
  let a = st.a in
  let c = a.Arena.params.Rc.Wire.c in
  while q.size > 0 do
    let v = heap_pop q in
    let l = a.Arena.left.(v) and r = a.Arena.right.(v) in
    let al = lift_edge st l ~half_slack ~adjusted ~added in
    let ar = lift_edge st r ~half_slack ~adjusted ~added in
    if al || ar || q.flags land child_changed <> 0 then begin
      st.bcap.(v) <-
        st.bcap.(l) +. st.bcap.(r)
        +. (c *. (a.Arena.len.(l) +. a.Arena.len.(r)));
      mark_dirty st sd v;
      let p = a.Arena.parent.(v) in
      if p >= 0 then heap_push q p child_changed
    end
  done

type kernels = {
  balance : unit -> int;  (** one balance pass; returns nodes processed *)
  evaluate : glo:float array -> ghi:float array -> unit;
      (** delays; fills the per-group extents (reset by the caller) *)
  lift : ghi:float array -> unit;  (** one stage-2 sweep *)
}

let full_scan st ~conflicts ~adjusted ~added =
  let a = st.a and inst = st.inst in
  let n = a.Arena.n in
  let dsink = Array.make (Instance.n_sinks inst) 0. in
  let target = Array.make inst.Instance.n_groups Float.neg_infinity in
  {
    balance =
      (fun () ->
        balance_range st ~lo:0 ~hi:(n - 1) ~full:true ~conflicts ~adjusted
          ~added);
    evaluate =
      (fun ~glo ~ghi ->
        let down0 = Arena.downstream_rc ~into:st.down a in
        Arena.elmore ~down:st.down ~down0 ~into:st.delay a;
        Arena.delays_by_sink ~delay:st.delay ~into:dsink a;
        Array.iter
          (fun (s : Sink.t) ->
            glo.(s.group) <- Float.min glo.(s.group) dsink.(s.id);
            ghi.(s.group) <- Float.max ghi.(s.group) dsink.(s.id))
          inst.sinks);
    lift =
      (fun ~ghi:_ ->
        Array.fill target 0 (Array.length target) Float.neg_infinity;
        Array.iter
          (fun (s : Sink.t) ->
            target.(s.group) <-
              Float.max target.(s.group)
                (dsink.(s.id) -. Instance.bound_for inst s.group))
          inst.sinks;
        lift_range st ~lo:0 ~hi:(n - 1) ~target ~adjusted ~added);
  }

let worklist st ~conflicts ~adjusted ~added =
  let a = st.a and inst = st.inst in
  let n = a.Arena.n and n_groups = inst.Instance.n_groups in
  let internal = Int.max 1 ((n + 1) / 2) in
  let q =
    {
      h = Array.make internal 0;
      size = 0;
      mark = Bytes.make n '\000';
      flags = 0;
    }
  in
  let sd = { items = Array.make internal 0; count = 0 } in
  for v = 0 to n - 1 do
    if a.Arena.left.(v) >= 0 && Bytes.get st.dirty v = '\001' then begin
      sd.items.(sd.count) <- v;
      sd.count <- sd.count + 1
    end
  done;
  let roots = pure_roots st in
  let target = Array.make n_groups Float.neg_infinity in
  let half_slack = st.slack /. 2. in
  {
    balance = (fun () -> balance_worklist st q sd ~conflicts ~adjusted ~added);
    evaluate = delay_extents st;
    lift =
      (fun ~ghi ->
        (* max over sinks of (delay - bound) is (max delay) - bound:
           rounding is monotone. *)
        for g = 0 to n_groups - 1 do
          target.(g) <- ghi.(g) -. Instance.bound_for inst g
        done;
        lift_pure st q ~roots ~target ~half_slack;
        lift_worklist st q sd ~half_slack ~adjusted ~added);
  }

(* --- driver ----------------------------------------------------------- *)

let make_state (inst : Instance.t) (a : Arena.t) regions =
  let n = a.Arena.n in
  let gstore = Array.make n 0 in
  Array.iter
    (fun rg -> Array.fill gstore rg.rlo (rg.rhi - rg.rlo + 1) rg.rstore)
    regions;
  let spine =
    Arena.gaps ~windows:(Array.map (fun rg -> (rg.rlo, rg.rhi)) regions) a
  in
  let stores =
    Array.init
      (Array.length regions + 1)
      (fun i ->
        if i = 0 then
          store_create spine
            (Array.fold_left (fun m (lo, hi) -> m + hi - lo + 1) 0 spine / 2)
        else
          let rg = regions.(i - 1) in
          store_create [| (rg.rlo, rg.rhi) |] (2 * (rg.rhi - rg.rlo + 1)))
  in
  let st =
    {
      a;
      inst;
      slack = Evaluate.default_slack;
      bcap = Array.make n 0.;
      goff = Array.make n 0;
      glen = Array.make n 0;
      gstore;
      stores;
      dirty = Bytes.make n '\001';
      changed = Bytes.make n '\000';
      visited = Bytes.make n '\000';
      down = Array.make n 0.;
      delay = Array.make n 0.;
      pg = Array.make n (-1);
      md = Array.make n 0.;
      amount = Array.make n 0.;
      carry = Array.make n 0.;
    }
  in
  (* Leaf slabs are the constant point interval at delay 0; written once,
     never replaced. *)
  for v = 0 to n - 1 do
    if a.Arena.left.(v) < 0 then begin
      st.bcap.(v) <- a.Arena.scap.(v);
      let s = stores.(gstore.(v)) in
      store_ensure s 1;
      s.sg.(s.used) <- a.Arena.group.(v);
      s.slo.(s.used) <- 0.;
      s.shi.(s.used) <- 0.;
      st.goff.(v) <- s.used;
      st.glen.(v) <- 1;
      s.used <- s.used + 1;
      s.live <- s.live + 1
    end
  done;
  st

(* In-place repair of an already-flattened tree: the arena's [len]
   column is mutated; everything else is read-only.  This is the
   arena-native router pipeline's entry point — no pointer tree is built
   or consumed. *)
let run_arena ?(config = default_config) ?(trace = Obs.Trace.null)
    ?(sched = Obs.Sched.null) ?(progress = Obs.Progress.null)
    (inst : Instance.t) (a : Arena.t) =
  let tracing = Obs.Trace.enabled trace in
  let slack = Evaluate.default_slack in
  let go () =
    let regions = select_regions a config in
    let st = make_state inst a regions in
    (* Phase 1: regional fixpoints, in parallel when jobs > 1.  Regions
       are disjoint index ranges with disjoint stores, so workers never
       write the same word; summaries are folded in region index order,
       keeping every accumulated float deterministic for any jobs. *)
    if Array.length regions > 0 then
      Obs.Progress.add_regions progress ~depth:0 (Array.length regions);
    let fixpoint r =
      let s = region_fixpoint st config r in
      Obs.Progress.region_done progress ~depth:0;
      s
    in
    let summaries =
      if config.jobs <= 1 || Array.length regions < 2 then
        Array.map fixpoint regions
      else
        Par.Pool.with_pool ~jobs:config.jobs (fun pool ->
            match pool with
            | None -> Array.map fixpoint regions
            | Some p ->
              Par.Pool.map_chunked p ~sched ~label:"repair.regions" ~chunk:1
                fixpoint regions)
    in
    Obs.Counter.add c_regions (Array.length summaries);
    let added = ref 0. and adjusted = ref 0 and conflicts = ref 0 in
    let cycles = ref 0 and lifts = ref 0 in
    let exhausted = ref false in
    Array.iter
      (fun s ->
        added := !added +. s.r_added;
        adjusted := !adjusted + s.r_adjusted;
        conflicts := !conflicts + s.r_conflicts;
        cycles := !cycles + s.r_cycles;
        lifts := !lifts + s.r_lifts;
        if s.r_exhausted then exhausted := true)
      summaries;
    if tracing && Array.length summaries > 0 then begin
      Obs.Trace.instant trace ~cat:"clocktree.repair"
        ~args:[ ("regions", Obs.Json.Int (Array.length summaries)) ]
        "regional_repair";
      Array.iter
        (fun s ->
          Obs.Trace.journal trace
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.String "repair_region");
                 ("root", Obs.Json.Int s.r_root);
                 ("sinks", Obs.Json.Int s.r_sinks);
                 ("cycles", Obs.Json.Int s.r_cycles);
                 ("lifts", Obs.Json.Int s.r_lifts);
                 ("adjusted", Obs.Json.Int s.r_adjusted);
                 ("exhausted", Obs.Json.Bool s.r_exhausted);
               ]))
        summaries
    end;
    if !exhausted then Obs.Counter.incr c_exhausted;
    (* Phase 2: the global cycle over the residual dirty set (all of the
       tree on the first pass when no regional phase ran — every node
       starts dirty). *)
    let k =
      if config.incremental then
        worklist st ~conflicts ~adjusted ~added
      else full_scan st ~conflicts ~adjusted ~added
    in
    let glo = Array.make inst.Instance.n_groups Float.infinity in
    let ghi = Array.make inst.Instance.n_groups Float.neg_infinity in
    let tmp = store_create [||] 8 in
    let iter = ref 0 in
    let finished = ref false in
    let g_lifts = ref 0 and unresolved = ref 0 in
    while not !finished do
      Obs.Progress.tick progress;
      Array.iter (maybe_compact st ~tmp) st.stores;
      Obs.Counter.incr c_balance;
      if tracing then
        Obs.Trace.instant trace ~cat:"clocktree.repair"
          ~args:[ ("cycle", Obs.Json.Int !iter) ]
          "balance_pass";
      let processed = k.balance () in
      incr cycles;
      Array.fill glo 0 (Array.length glo) Float.infinity;
      Array.fill ghi 0 (Array.length ghi) Float.neg_infinity;
      k.evaluate ~glo ~ghi;
      let within = ref true in
      for g = 0 to Array.length glo - 1 do
        let w = if glo.(g) > ghi.(g) then 0. else ghi.(g) -. glo.(g) in
        if w > Instance.bound_for inst g +. slack then within := false
      done;
      if tracing then
        Obs.Trace.journal trace
          (Obs.Json.Obj
             [
               ("type", Obs.Json.String "repair_cycle");
               ("cycle", Obs.Json.Int !iter);
               ("processed", Obs.Json.Int processed);
               ("adjusted", Obs.Json.Int !adjusted);
               ("added_wire", Obs.Json.Float !added);
               ("within", Obs.Json.Bool !within);
             ]);
      if !within then finished := true
      else if !iter >= config.max_cycles then begin
        for g = 0 to Array.length glo - 1 do
          let w = if glo.(g) > ghi.(g) then 0. else ghi.(g) -. glo.(g) in
          if w > Instance.bound_for inst g +. slack then incr unresolved
        done;
        exhausted := true;
        Obs.Counter.incr c_exhausted;
        if tracing then
          Obs.Trace.instant trace ~cat:"clocktree.repair"
            ~args:[ ("cycle", Obs.Json.Int !iter) ]
            "budget_exhausted";
        finished := true
      end
      else begin
        Obs.Counter.incr c_lift;
        if tracing then
          Obs.Trace.instant trace ~cat:"clocktree.repair"
            ~args:
              [
                ("cycle", Obs.Json.Int !iter);
                ("added_wire", Obs.Json.Float !added);
              ]
            "lift_sweep";
        k.lift ~ghi;
        incr g_lifts;
        incr iter
      end
    done;
    Obs.Counter.add c_adjusted !adjusted;
    {
      added_wire = !added;
      adjusted_edges = !adjusted;
      conflict_nodes = !conflicts;
      lift_iterations = !lifts + !g_lifts;
      unresolved_groups = !unresolved;
      cycles = !cycles;
      budget_exhausted = !exhausted;
    }
  in
  if tracing then Obs.Trace.span trace ~cat:"clocktree.repair" "repair" go
  else go ()

let run ?config ?trace ?sched ?progress (inst : Instance.t) (r : Tree.routed)
    =
  let a = Arena.of_routed inst.params ~rd:inst.rd r in
  let stats = run_arena ?config ?trace ?sched ?progress inst a in
  (Arena.to_routed a, stats)
