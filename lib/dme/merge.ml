module IntMap = Subtree.IntMap
module Interval = Geometry.Interval
module Octagon = Geometry.Octagon
module Eps = Geometry.Eps

type kind = Same_group | Cross_group | Shared_one | Shared_multi

type result = {
  subtree : Subtree.t;
  kind : kind;
  planned_wire : float;
  snake : float;
  feasible : bool;
}

let classify (a : Subtree.t) (b : Subtree.t) shared =
  match shared with
  | [] -> Cross_group
  | [ _ ] ->
    if IntMap.cardinal a.delay = 1 && IntMap.cardinal b.delay = 1 then
      Same_group
    else Shared_one
  | _ :: _ :: _ -> Shared_multi

let mid_pref (a : Subtree.t) (b : Subtree.t) =
  Interval.mid (Subtree.delay_hull b) -. Interval.mid (Subtree.delay_hull a)

(* Merging region with float-fuzz fallbacks: widen slightly if the exact
   intersection degenerates, and as a last resort use the point of [a]'s
   boundary nearest to [b]. *)
let merge_region (a : Octagon.t) ea (b : Octagon.t) eb =
  let attempt extra =
    Octagon.inter (Octagon.inflate (ea +. extra) a) (Octagon.inflate (eb +. extra) b)
  in
  let r = attempt 0. in
  if not (Octagon.is_empty r) then r
  else begin
    let r = attempt (4. *. Eps.tol) in
    if not (Octagon.is_empty r) then r
    else Octagon.of_point (fst (Octagon.closest_pair a b))
  end

(* Shared-group merge (steps 4, 6 and 7 of Fig. 6): commit wire lengths
   satisfying every shared group's skew constraint; snaking covers
   imbalance beyond the slack. *)
let merge_committed (inst : Clocktree.Instance.t) ~slack_usage ~id kind shared
    (a : Subtree.t) (b : Subtree.t) =
  let params = inst.params in
  let dist = Octagon.dist a.region b.region in
  let cons_with effective_bound =
    List.map
      (fun g ->
        let ia = IntMap.find g a.delay and ib = IntMap.find g b.delay in
        let wmax = Float.max (Interval.width ia) (Interval.width ib) in
        Rc.Balance.
          {
            a = { lo = ia.Interval.lo; hi = ia.Interval.hi };
            b = { lo = ib.Interval.lo; hi = ib.Interval.hi };
            bound = effective_bound (Clocktree.Instance.bound_for inst g) wmax;
          })
      shared
  in
  (* Spending the whole skew slack at the first opportunity drifts group
     windows to their limits and forces later merges to snake; so first
     plan against windows that only grow by [slack_usage] of the
     remaining slack, and fall back to the full bound before paying
     snaking wire. *)
  let strict =
    cons_with (fun group_bound wmax ->
        wmax +. (slack_usage *. (group_bound -. wmax)))
  in
  let pref = mid_pref a b in
  let plan =
    Rc.Balance.plan params ~dist ~cap_a:a.cap ~cap_b:b.cap ~cons:strict ~pref
  in
  let plan =
    if plan.snake > 0. || not plan.feasible then
      Rc.Balance.plan params ~dist ~cap_a:a.cap ~cap_b:b.cap
        ~cons:(cons_with (fun group_bound _ -> group_bound))
        ~pref
    else plan
  in
  let region = merge_region a.region plan.ea b.region plan.eb in
  let shifted_a = IntMap.map (Interval.shift plan.wa) a.delay in
  let shifted_b = IntMap.map (Interval.shift plan.wb) b.delay in
  let delay =
    IntMap.union (fun _ ia ib -> Some (Interval.hull ia ib)) shifted_a shifted_b
  in
  let wire = plan.ea +. plan.eb in
  let subtree =
    Subtree.
      {
        id;
        region;
        cap = a.cap +. b.cap +. (params.c *. wire);
        delay;
        n_sinks = a.n_sinks + b.n_sinks;
        build = Merge { left = a; right = b; lengths = Committed { ea = plan.ea; eb = plan.eb } };
      }
  in
  { subtree; kind; planned_wire = wire; snake = plan.snake; feasible = plan.feasible }

(* Cross-group merge (step 5 of Fig. 6): the merging region is the
   shortest-distance region between the child regions.  The admissible
   split range [l, h] around the delay-balanced split is chosen so the
   delay uncertainty it adds stays within [split_slack]·bound and within
   each group's remaining slack. *)
let merge_cross (inst : Clocktree.Instance.t) ~split_slack ~width_cap
    ~sdr_samples ~id (a : Subtree.t) (b : Subtree.t) =
  let params = inst.params in
  let dist = Octagon.dist a.region b.region in
  (* The tightest group bound present on either side limits how much
     split-range uncertainty one merge may introduce. *)
  let min_bound =
    let fold (t : Subtree.t) acc =
      IntMap.fold
        (fun g _ acc -> Float.min acc (Clocktree.Instance.bound_for inst g))
        t.delay acc
    in
    fold a (fold b Float.infinity)
  in
  let plan =
    Rc.Balance.plan params ~allow_snake:false ~dist ~cap_a:a.cap ~cap_b:b.cap
      ~cons:[] ~pref:(mid_pref a b)
  in
  let l, h =
    if dist <= Eps.tol then (0., 0.)
    else begin
      (* Widening consumes skew slack; keep every group's window below
         width_cap·bound so the end-game merges retain room to balance. *)
      let budget side_subtree =
        let slack =
          Subtree.min_slack_by
            ~bound_of:(fun g ->
              width_cap *. Clocktree.Instance.bound_for inst g)
            side_subtree
        in
        Float.max 0. (Float.min (split_slack *. min_bound) slack)
      in
      let omega_a = budget a and omega_b = budget b in
      let stretch cap w omega =
        (* wire lengths whose delay is w ± omega/2 *)
        let lo =
          if w -. (omega /. 2.) <= 0. then 0.
          else Rc.Elmore.wire_for_delay params ~load:cap ~delay:(w -. (omega /. 2.))
        in
        let hi = Rc.Elmore.wire_for_delay params ~load:cap ~delay:(w +. (omega /. 2.)) in
        (lo, hi)
      in
      let la, ha = stretch a.cap plan.wa omega_a in
      let lb, hb = stretch b.cap plan.wb omega_b in
      let l = Float.max 0. (Float.max la (dist -. hb)) in
      let h = Float.min dist (Float.min ha (dist -. lb)) in
      if l > h then (plan.ea, plan.ea) else (l, h)
    end
  in
  let region =
    if dist <= Eps.tol then
      let r = Octagon.inter a.region b.region in
      if Octagon.is_empty r then Octagon.of_point (fst (Octagon.closest_pair a.region b.region))
      else r
    else begin
      let sdr = Octagon.sdr ~samples:sdr_samples a.region b.region in
      let r =
        Octagon.inter sdr
          (Octagon.inter
             (Octagon.inflate h a.region)
             (Octagon.inflate (dist -. l) b.region))
      in
      if Octagon.is_empty r then merge_region a.region plan.ea b.region plan.eb
      else r
    end
  in
  (* Delay bookkeeping is nominal: a split merge shifts every group of a
     side by the same (uncertain) wire delay, so group widths are
     invariant; positions are recorded as if the balanced split [ea]
     realizes.  The deviation of an actual embedding is at most
     w(h) - w(l) <= split_slack·bound per split merge, and the repair
     pass removes whatever accumulates. *)
  let shifted_a = IntMap.map (Interval.shift plan.wa) a.delay in
  let shifted_b = IntMap.map (Interval.shift plan.wb) b.delay in
  let delay =
    IntMap.union
      (fun _ ia ib -> Some (Interval.hull ia ib) (* unreachable: disjoint groups *))
      shifted_a shifted_b
  in
  let subtree =
    Subtree.
      {
        id;
        region;
        cap = a.cap +. b.cap +. (params.c *. dist);
        delay;
        n_sinks = a.n_sinks + b.n_sinks;
        build =
          Merge
            {
              left = a;
              right = b;
              lengths = Split { total = dist; split_lo = l; split_hi = h };
            };
      }
  in
  { subtree; kind = Cross_group; planned_wire = dist; snake = 0.; feasible = true }

(* Would [run] report this pair feasible?  Answered without building the
   merged subtree, region or delay map.  Under distance-cost ranking it
   is the trial merge's only cost-relevant output; the ranking loop asks
   it of a probe's candidates nearest first and stops at the first
   feasible one (Order's first-feasible rule), so a probe usually asks
   once.

   Why this is exact, case by case against [merge_committed]:
   - [Rc.Balance.plan] computes [feasible] from the constraint list
     alone: the fold of [cons_x_interval] windows is non-empty.  Folding
     [Interval.inter] is a running [Float.max] of the lows and
     [Float.min] of the highs — exact and order-insensitive for the
     finite windows committed merges produce — so one ascending pass
     over the shared groups reproduces it bit for bit.
   - The strict plan survives (its [feasible] becomes the result) iff it
     is feasible {e and} snake-free.  Snake is zero iff the chosen [x]
     lies in the detour-free range [[x_min, x_max]]: inside the range
     [ea + eb = dist] exactly (the balance split is clamped to
     [[0, dist]]), outside it the wire stretch is strictly positive.
     For a feasible plan [x] is clamped into
     [wanted ∩ [x_min, x_max]] whenever that is non-empty, so
     snake-freedom is exactly the non-emptiness of that intersection —
     the preference point never matters.
   - Otherwise the result is the full-bound plan's [feasible]: the
     full-window fold.

   The group walk must mirror [shared_groups] (ascending ids) feeding
   [cons_with]; [IntMap.find] + [Not_found] and manually inlined
   [Interval.width] keep the walk allocation-free. *)
(* Per-domain scratch for [committed_feasible]: the window bounds live in
   a flat float scratch ([Float.Array] stores are unboxed where a
   [float ref] boxes every update), and the group visitor is built once
   per domain so [IntMap.iter] is handed a pre-existing closure instead
   of allocating one per candidate pair.  [slack_usage] rides in the
   float scratch (slot 4) because a mutable float field of a mixed
   record would box on every write.  Safe because the visitor never
   re-enters [committed_feasible]. *)
type cf_scratch = {
  cfw : floatarray;
      (* 0 = strict lo, 1 = strict hi, 2 = full lo, 3 = full hi,
         4 = slack_usage *)
  mutable cf_other : Interval.t IntMap.t;
  mutable cf_inst : Clocktree.Instance.t option;
  mutable cf_any : bool;
}

let cf_key =
  Domain.DLS.new_key (fun () ->
      let cf =
        {
          cfw = Float.Array.create 5;
          cf_other = IntMap.empty;
          cf_inst = None;
          cf_any = false;
        }
      in
      let visit g (ia : Interval.t) =
        match IntMap.find g cf.cf_other with
        | exception Not_found -> ()
        | ib ->
          cf.cf_any <- true;
          let inst =
            match cf.cf_inst with Some i -> i | None -> assert false
          in
          let w = cf.cfw in
          let bound = Clocktree.Instance.bound_for inst g in
          let slack_usage = Float.Array.unsafe_get w 4 in
          (* Interval.width, inlined: Float.max 0. (hi -. lo). *)
          let wa = Float.max 0. (ia.Interval.hi -. ia.Interval.lo) in
          let wb = Float.max 0. (ib.Interval.hi -. ib.Interval.lo) in
          let wmax = Float.max wa wb in
          let strict_bound = wmax +. (slack_usage *. (bound -. wmax)) in
          (* cons_x_interval, inlined for each bound choice. *)
          Float.Array.unsafe_set w 0
            (Float.max (Float.Array.unsafe_get w 0)
               (ib.Interval.hi -. ia.Interval.lo -. strict_bound));
          Float.Array.unsafe_set w 1
            (Float.min (Float.Array.unsafe_get w 1)
               (strict_bound +. ib.Interval.lo -. ia.Interval.hi));
          Float.Array.unsafe_set w 2
            (Float.max (Float.Array.unsafe_get w 2)
               (ib.Interval.hi -. ia.Interval.lo -. bound));
          Float.Array.unsafe_set w 3
            (Float.min (Float.Array.unsafe_get w 3)
               (bound +. ib.Interval.lo -. ia.Interval.hi))
      in
      (cf, visit))

let committed_feasible (inst : Clocktree.Instance.t) ~slack_usage ~dist
    (a : Subtree.t) (b : Subtree.t) =
  let cf, visit = Domain.DLS.get cf_key in
  let w = cf.cfw in
  Float.Array.unsafe_set w 0 Float.neg_infinity;
  Float.Array.unsafe_set w 1 Float.infinity;
  Float.Array.unsafe_set w 2 Float.neg_infinity;
  Float.Array.unsafe_set w 3 Float.infinity;
  Float.Array.unsafe_set w 4 slack_usage;
  cf.cf_other <- b.delay;
  (match cf.cf_inst with
  | Some i when i == inst -> ()
  | _ -> cf.cf_inst <- Some inst);
  cf.cf_any <- false;
  IntMap.iter visit a.delay;
  cf.cf_other <- IntMap.empty;
  if not cf.cf_any then true (* merge_cross: always feasible *)
  else begin
    let slo = Float.Array.unsafe_get w 0
    and shi = Float.Array.unsafe_get w 1
    and flo = Float.Array.unsafe_get w 2
    and fhi = Float.Array.unsafe_get w 3 in
    if
      (* strict plan feasible... *)
      not (slo > shi +. Eps.tol)
      && begin
           (* ...and snake-free: wanted ∩ [x_min, x_max] non-empty. *)
           let params = inst.params in
           let x_min = -.Rc.Elmore.wire_delay params ~len:dist ~load:b.cap in
           let x_max = Rc.Elmore.wire_delay params ~len:dist ~load:a.cap in
           not (Float.max slo x_min > Float.min shi x_max +. Eps.tol)
         end
    then true
    else not (flo > fhi +. Eps.tol)
  end

let run inst ?(slack_usage = 0.3) ~split_slack ~width_cap ~sdr_samples ~id a b =
  let shared = Subtree.shared_groups a b in
  match classify a b shared with
  | Cross_group -> merge_cross inst ~split_slack ~width_cap ~sdr_samples ~id a b
  | kind -> merge_committed inst ~slack_usage ~id kind shared a b

let pp_kind ppf = function
  | Same_group -> Format.pp_print_string ppf "same-group"
  | Cross_group -> Format.pp_print_string ppf "cross-group"
  | Shared_one -> Format.pp_print_string ppf "shared-one"
  | Shared_multi -> Format.pp_print_string ppf "shared-multi"
