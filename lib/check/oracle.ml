module Instance = Clocktree.Instance
module Sink = Clocktree.Sink
module Tree = Clocktree.Tree
module Arena = Clocktree.Arena
module Evaluate = Clocktree.Evaluate
module Repair = Clocktree.Repair
module Router = Astskew.Router

type finding = { oracle : string; violations : Audit.violation list }

let pp_finding ppf f =
  Format.fprintf ppf "@[<v 2>%s:@ %a@]" f.oracle
    (Format.pp_print_list Audit.pp_violation)
    f.violations

(* A crash stays the finding of the oracle that crashed, so shrinking
   chases it under that name and never mistakes another oracle's crash
   for it. *)
let guard oracle f =
  match f () with
  | [] -> []
  | violations -> [ { oracle; violations } ]
  | exception exn ->
    [
      {
        oracle;
        violations =
          [
            { Audit.invariant = "exception"; detail = Printexc.to_string exn };
          ];
      };
    ]

(* --- the invariance comparator ------------------------------------------- *)

type field = Tree | Report | Engine | Repair | Arena

type observation = {
  routed : Tree.routed option;
  report : Evaluate.report option;
  engine : Dme.Engine.stats option;
  repair : Repair.stats option;
  arena : Arena.t option;
}

let nothing =
  { routed = None; report = None; engine = None; repair = None; arena = None }

let of_result (r : Router.result) =
  {
    nothing with
    routed = Some r.routed;
    report = Some r.evaluation;
    engine = Some r.engine;
  }

let diff fields a b =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let both name get f =
    match (get a, get b) with
    | Some x, Some y -> f x y
    | _ -> add "%s not observed on both sides" name
  in
  let scalar name x y = if x <> y then add "%s: %.17g vs %.17g" name x y in
  let column name pp xs ys =
    if Array.length xs <> Array.length ys then
      add "%s: %d vs %d entries" name (Array.length xs) (Array.length ys)
    else
      Array.iteri
        (fun i x ->
          if x <> ys.(i) then add "%s %d: %s vs %s" name i (pp x) (pp ys.(i)))
        xs
  in
  let fl = Printf.sprintf "%.17g" in
  let compare_field = function
    | Tree ->
      both "tree"
        (fun o -> o.routed)
        (fun x y ->
          if not (Audit.tree_equal x y) then add "trees differ structurally")
    | Report ->
      both "report"
        (fun o -> o.report)
        (fun (x : Evaluate.report) (y : Evaluate.report) ->
          scalar "wirelength" x.wirelength y.wirelength;
          scalar "snaking" x.snaking y.snaking;
          scalar "min_delay" x.min_delay y.min_delay;
          scalar "max_delay" x.max_delay y.max_delay;
          scalar "global_skew" x.global_skew y.global_skew;
          scalar "max_group_skew" x.max_group_skew y.max_group_skew;
          column "sink delay" fl x.delays y.delays;
          column "group skew" fl x.group_skew y.group_skew)
    | Engine ->
      (* gc is the one run-dependent field (observation itself
         allocates); every other counter must agree exactly. *)
      both "engine stats"
        (fun o -> o.engine)
        (fun (x : Dme.Engine.stats) (y : Dme.Engine.stats) ->
          if { x with gc = Obs.Gcstat.zero } <> { y with gc = Obs.Gcstat.zero }
          then
            add
              "engine stats differ (gc zeroed): rounds %d vs %d, probes %d vs \
               %d, trial merges %d vs %d"
              x.rounds y.rounds x.nn_reprobes y.nn_reprobes x.trial_merges
              y.trial_merges)
    | Repair ->
      both "repair stats"
        (fun o -> o.repair)
        (fun (x : Repair.stats) (y : Repair.stats) ->
          if x <> y then
            add
              "repair stats differ: added_wire %.17g vs %.17g, adjusted %d vs \
               %d, cycles %d vs %d, lifts %d vs %d"
              x.added_wire y.added_wire x.adjusted_edges y.adjusted_edges
              x.cycles y.cycles x.lift_iterations y.lift_iterations)
    | Arena ->
      both "arena"
        (fun o -> o.arena)
        (fun (x : Arena.t) (y : Arena.t) ->
          if x.n <> y.n then add "arena has %d nodes vs %d" x.n y.n
          else begin
            scalar "source_len" x.source_len y.source_len;
            let int = string_of_int in
            column "left" int x.left y.left;
            column "right" int x.right y.right;
            column "parent" int x.parent y.parent;
            column "size" int x.size y.size;
            column "sink" int x.sink y.sink;
            column "group" int x.group y.group;
            column "scap" fl x.scap y.scap;
            column "len" fl x.len y.len;
            column "pos"
              (fun (p : Geometry.Pt.t) ->
                Printf.sprintf "(%.17g, %.17g)" p.Geometry.Pt.x p.Geometry.Pt.y)
              x.pos y.pos
          end)
  in
  List.iter compare_field fields;
  List.rev !out

let route_fields = [ Tree; Report; Engine ]
let route_diff a b = diff route_fields (of_result a) (of_result b)

(* --- runs, each made once per session ------------------------------------ *)

(* Everything a row compares: the AST router under each knob, and the
   repair / evaluation / embedding kernels against their serial specs. *)
type run =
  | Route of { jobs : int; clusters : int option; depth : int option }
  | Traced of int  (** a live {!Obs.Trace} *)
  | Recorded of int  (** a live {!Obs.Sched} and a muted {!Obs.Progress} *)
  | Repaired of { regions : int option; incremental : bool; jobs : int }
  | Windowed of int  (** the flat jobs=1 tree re-evaluated, 4 regions *)
  | Reference_embed
  | Direct_embed of int

type entry = {
  obs : observation;
  result : Router.result option;
  trace : Obs.Trace.t;
}

(* A session memoizes every run (or the exception it raised) on one
   instance, so rows and oracles sharing a route make it once and each
   reports a shared crash under its own name. *)
type session = {
  inst : Instance.t;
  runs : (run, (entry, exn) result) Hashtbl.t;
  plan : Dme.Subtree.t Lazy.t;  (** the AST merge plan, for embedding *)
  unrepaired : Tree.routed Lazy.t;  (** AST plan + embed, for repair *)
}

let session inst =
  let config = Router.ast_default_config in
  {
    inst;
    runs = Hashtbl.create 16;
    plan = lazy (fst (Dme.Engine.plan ~config inst));
    unrepaired = lazy (fst (Dme.Engine.run ~config inst));
  }

let flat jobs = Route { jobs; clusters = None; depth = None }
let clustered_run ?depth ~jobs k = Route { jobs; clusters = Some k; depth }

(* [Router.ast_dme inst] resolves to exactly this jobs count. *)
let default_jobs = Router.ast_default_config.Dme.Engine.jobs

let rec observe s run =
  match Hashtbl.find_opt s.runs run with
  | Some r -> Result.fold ~ok:Fun.id ~error:raise r
  | None ->
    let r = try Ok (compute s run) with exn -> Error exn in
    Hashtbl.replace s.runs run r;
    Result.fold ~ok:Fun.id ~error:raise r

and compute s run =
  let inst = s.inst in
  let routed ?(trace = Obs.Trace.null) r =
    { obs = of_result r; result = Some r; trace }
  in
  let observed obs = { obs; result = None; trace = Obs.Trace.null } in
  let arena_of t = Arena.of_routed inst.params ~rd:inst.rd t in
  match run with
  | Route { jobs; clusters = None; _ } -> routed (Router.ast_dme ~jobs inst)
  | Route { jobs; clusters = Some clusters; depth } ->
    routed
      (Router.ast_dme ~jobs ~clustered:true ~clusters ?cluster_depth:depth
         inst)
  | Traced jobs ->
    let trace = Obs.Trace.create () in
    routed ~trace (Router.ast_dme ~jobs ~trace inst)
  | Recorded jobs ->
    let sched = Obs.Sched.create () in
    (* The heartbeat rides along muted: it must be as inert as the
       recorder, and this is the one place that proves it. *)
    let devnull = open_out "/dev/null" in
    let progress = Obs.Progress.create ~out:devnull () in
    routed
      (Fun.protect
         ~finally:(fun () -> close_out devnull)
         (fun () -> Router.ast_dme ~jobs ~sched ~progress inst))
  | Repaired { regions; incremental; jobs } ->
    let config = { Repair.default_config with jobs; incremental; regions } in
    let t, stats = Repair.run ~config inst (Lazy.force s.unrepaired) in
    observed
      {
        nothing with
        routed = Some t;
        report = Some (Evaluate.run inst t);
        repair = Some stats;
      }
  | Windowed jobs ->
    let a = arena_of (Option.get (observe s (flat 1)).result).routed in
    observed
      {
        nothing with
        report = Some (Evaluate.report_of_arena ~jobs ~regions:4 inst a);
      }
  | Reference_embed ->
    let t = Dme.Embed.run_reference inst (Lazy.force s.plan) in
    observed { nothing with arena = Some (arena_of t) }
  | Direct_embed jobs ->
    let a =
      Par.Pool.with_pool ~jobs (fun pool ->
          Dme.Embed.run_arena ?pool inst (Lazy.force s.plan))
    in
    observed { nothing with arena = Some a }

let result s run = Option.get (observe s run).result

(* --- the invariance table ------------------------------------------------ *)

(* A row: a name, its default jobs list, the fields that must agree,
   the (label, base, variant) pairs it compares at a jobs list, and a
   post-check for what is not a comparison. *)
type row = {
  name : string;
  jobs : int list;
  fields : field list;
  pairs : int list -> (string * run * run) list;
  post : session -> int list -> Audit.violation list;
}

let row ?(post = fun _ _ -> []) name jobs fields pairs =
  { name; jobs; fields; pairs; post }

let violations name details =
  List.map (fun detail -> { Audit.invariant = name; detail }) details

let per_job pairs jobs =
  List.concat_map
    (fun j ->
      List.map
        (fun (what, base, variant) ->
          (Printf.sprintf "jobs=%d%s" j what, base, variant))
        (pairs j))
    jobs

(* A post-check run at each jobs count; [check s j add] reports
   through [add]. *)
let each_job name check s jobs =
  List.concat_map
    (fun j ->
      let out = ref [] in
      check s j (fun detail ->
          out := Printf.sprintf "jobs=%d %s" j detail :: !out);
      violations name (List.rev !out))
    jobs

(* The journal is the trace's accounting ledger: its per-round records
   must sum exactly to the engine's aggregate stats, and the Chrome
   export must re-parse with events in it. *)
let trace_check s j add =
  let e = observe s (Traced j) in
  let engine = (Option.get e.result).engine in
  let rounds =
    List.filter_map
      (function
        | Obs.Json.Obj fields
          when List.assoc_opt "type" fields = Some (Obs.Json.String "round") ->
          Some fields
        | _ -> None)
      (Obs.Trace.journal_records e.trace)
  in
  let check key counted =
    let sum =
      List.fold_left
        (fun acc fields ->
          match List.assoc_opt key fields with
          | Some (Obs.Json.Int i) -> acc + i
          | _ -> acc)
        0 rounds
    in
    if sum <> counted then
      add (Printf.sprintf "journal %s %d <> engine %d" key sum counted)
  in
  if List.length rounds <> engine.rounds then
    add
      (Printf.sprintf "journal has %d round records, engine ran %d rounds"
         (List.length rounds) engine.rounds);
  check "probes" engine.nn_reprobes;
  check "trial_merges" engine.trial_merges;
  let chrome = Obs.Json.to_string (Obs.Trace.to_chrome e.trace) in
  match Obs.Json.of_string chrome with
  | Obs.Json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Obs.Json.List []) -> add "chrome export has no events"
    | Some (Obs.Json.List _) -> ()
    | _ -> add "chrome export lacks traceEvents")
  | _ -> add "chrome export is not a JSON object"
  | exception Obs.Json.Parse_error _ -> add "chrome export does not re-parse"

(* The recorded run carries a sane efficiency report, the unrecorded one
   none. *)
let sched_check s j add =
  (match (result s (Recorded j)).sched with
  | None -> add "recorded run yields no efficiency report"
  | Some rep ->
    (* The report records the widest pool a map actually ran on; tiny
       instances legitimately clamp below the request, so the bound is
       one-sided. *)
    if rep.jobs < 1 || rep.jobs > j then
      add (Printf.sprintf "report claims jobs=%d" rep.jobs);
    if not (rep.serial_fraction >= 0. && rep.serial_fraction <= 1.) then
      add
        (Printf.sprintf "serial fraction %.17g outside [0,1]"
           rep.serial_fraction);
    if rep.wall_s < rep.par_wall_s then
      add
        (Printf.sprintf "phase walls %.17g < parallel walls %.17g" rep.wall_s
           rep.par_wall_s));
  if (result s (flat j)).sched <> None then
    add "unrecorded run yields an efficiency report"

let cluster_check s j add =
  match (result s (clustered_run ~jobs:j 1)).clustering with
  | Some d when d.n_clusters = 1 -> ()
  | Some d -> add (Printf.sprintf "clusters=1 reports %d clusters" d.n_clusters)
  | None -> add "clustered run reports no clustering detail"

(* k = 4 is the smallest cluster count whose depth-2 hierarchy is
   non-degenerate (fan-out 2 over two levels). *)
let depth_k = 4

(* A forced depth-2 hierarchy is honestly reported in the clustering
   detail and its stitched tree passes the full grouped audit. *)
let depth_check s _ =
  let inst = s.inst in
  let d2 = result s (clustered_run ~jobs:1 ~depth:2 depth_k) in
  let n = Instance.n_sinks inst in
  let kr = Int.min depth_k (Int.max 1 n) in
  let bad fmt = Printf.ksprintf Option.some fmt in
  let details =
    match d2.clustering with
    | None -> [ "depth=2 run reports no clustering detail" ]
    | Some d ->
      let covered =
        Array.fold_left
          (fun acc (c : Dme.Cluster.cluster_stats) -> acc + c.n_sinks)
          0 d.per_cluster
      in
      List.filter_map Fun.id
        [
          (if d.n_clusters <> kr then
             bad "depth=2 reports %d clusters, expected %d" d.n_clusters kr
           else None);
          (if kr = depth_k && d.depth <> 2 then
             bad "depth=2 realized depth %d" d.depth
           else None);
          (if kr = depth_k && Array.length d.super = 0 then
             bad "depth=2 reports no super-stitch plans"
           else None);
          (if covered <> n then
             bad "depth=2 regions cover %d sinks of %d" covered n
           else None);
        ]
  in
  violations "cluster-depth-identity" details
  @ Audit.run Audit.Grouped inst d2.routed d2.evaluation

let rows =
  [
    (* Parallel cost ranking is deterministic. *)
    row "par-identity" [ 2; 4 ] route_fields
      (per_job (fun j -> [ ("", flat 1, flat j) ]));
    (* Structured tracing is semantically inert. *)
    row "trace-identity" [ 1; 2 ] route_fields
      (per_job (fun j -> [ ("", flat 1, Traced j) ]))
      ~post:(each_job "trace-identity" trace_check);
    (* The flight recorder and the progress heartbeat observe scheduling
       without steering it. *)
    row "sched-identity" [ 1; 2; 4 ] route_fields
      (per_job (fun j ->
           [
             (" recorded vs jobs=1", flat 1, Recorded j);
             (" recorded vs unrecorded", flat j, Recorded j);
           ]))
      ~post:(each_job "sched-identity" sched_check);
    (* A single region is the flat router: partitioning, re-indexing and
       the one-root stitch are invisible. *)
    row "cluster-identity" [ 1; 2 ] route_fields
      (per_job (fun j ->
           [ (" clusters=1 vs flat", flat 1, clustered_run ~jobs:j 1) ]))
      ~post:(each_job "cluster-identity" cluster_check);
    (* Forced depth 1 is what the default depth resolves to at k = 4, and
       a forced depth-2 hierarchy is jobs-invariant. *)
    row "cluster-depth-identity" [ 2; 4 ] route_fields
      (fun jobs ->
        let d2 j = clustered_run ~jobs:j ~depth:2 depth_k in
        ( "depth=1 vs auto",
          clustered_run ~jobs:1 depth_k,
          clustered_run ~jobs:1 ~depth:1 depth_k )
        :: per_job (fun j -> [ (" depth=2 vs jobs=1", d2 1, d2 j) ]) jobs)
      ~post:depth_check;
    (* Incremental, regional and parallel repair reproduce the serial
       from-scratch pass, with regions auto-derived (the pure global
       cycle on small instances) and forced 4-way (the regional
       fixpoints on every case). *)
    row "repair-identity" [ 2; 4 ] [ Tree; Report; Repair ] (fun jobs ->
        List.concat_map
          (fun (family, regions) ->
            let run incremental jobs =
              Repaired { regions; incremental; jobs }
            in
            per_job
              (fun j -> [ (" incremental " ^ family, run false 1, run true j) ])
              (1 :: jobs))
          [ ("auto-regions", None); ("forced-regions", Some 4) ]);
    (* The windowed kernels reproduce the router's serial report. *)
    row "evaluate-identity" [ 2; 4 ] [ Report ]
      (per_job (fun j -> [ (" windowed", flat 1, Windowed j) ]));
    (* Arena-direct embedding fills every column exactly as flattening
       the recursive reference embedder's tree does. *)
    row "embed-identity" [ 1; 2; 4 ] [ Arena ]
      (per_job (fun j -> [ (" direct", Reference_embed, Direct_embed j) ]));
  ]

let row_names = List.map (fun r -> r.name) rows
let default_rows = List.map (fun r -> (r.name, r.jobs)) rows

let run_rows ?(plant = Fun.id) s selection =
  List.concat_map
    (fun (name, jobs) ->
      let row =
        match List.find_opt (fun r -> r.name = name) rows with
        | Some r -> r
        | None -> invalid_arg ("Oracle.invariance: no row " ^ name)
      in
      guard name (fun () ->
          List.concat_map
            (fun (label, base, variant) ->
              (* A pair of one run (depth 2 at jobs 1 vs jobs 1) compares
                 two executions of it: run-to-run determinism. *)
              let v =
                if variant = base then compute s variant else observe s variant
              in
              diff row.fields (observe s base).obs (plant v.obs)
              |> List.map (fun d -> label ^ ": " ^ d)
              |> violations name)
            (row.pairs jobs)
          @ row.post s jobs))
    selection

let invariance ?plant ?(rows = default_rows) inst =
  run_rows ?plant (session inst) rows

(* --- deliberate fault injection ------------------------------------------ *)

(* Snake the leaf edge of one sink that shares a group with another sink:
   the extra wire delays that sink past its group's bound, so a correct
   auditor must flag [within-bound].  Singleton groups cannot violate an
   intra-group bound, so if every group is a singleton the tree is
   returned unchanged. *)
let inject_skew_violation (inst : Instance.t) (r : Tree.routed) =
  let sizes = Instance.group_sizes inst in
  let victim =
    Array.to_seq inst.sinks
    |> Seq.filter (fun (s : Sink.t) -> sizes.(s.group) >= 2)
    |> Seq.uncons
    |> Option.map fst
  in
  match victim with
  | None -> r
  | Some victim ->
    let delta = Instance.bound_for inst victim.group +. 25. in
    let snake len load =
      let w = Rc.Elmore.wire_delay inst.params ~len ~load in
      Rc.Elmore.wire_for_delay inst.params ~load ~delay:(w +. delta)
    in
    let rec go = function
      | Tree.Leaf _ as t -> t
      | Tree.Node n ->
        let llen =
          match n.left with
          | Tree.Leaf s when s.id = victim.id -> snake n.llen s.cap
          | _ -> n.llen
        in
        let rlen =
          match n.right with
          | Tree.Leaf s when s.id = victim.id -> snake n.rlen s.cap
          | _ -> n.rlen
        in
        Tree.Node { n with left = go n.left; right = go n.right; llen; rlen }
    in
    { r with tree = go r.tree }

(* The routed tree and report an audit sees, snaked first under [inject]. *)
let audited ~inject inst (r : Router.result) =
  if inject then
    let routed = inject_skew_violation inst r.routed in
    (routed, Evaluate.run inst routed)
  else (r.routed, r.evaluation)

(* --- router contracts ---------------------------------------------------- *)

let min_bound (inst : Instance.t) =
  List.init inst.n_groups (Instance.bound_for inst)
  |> List.fold_left Float.min Float.infinity

let routers_in ~inject ~only s =
  let inst = s.inst in
  let audit oracle contract route =
    if not (only oracle) then []
    else
      guard oracle (fun () ->
          let routed, report =
            audited ~inject:(inject && contract = Audit.Grouped) inst (route ())
          in
          Audit.run contract inst routed report)
  in
  audit "ast-dme" Audit.Grouped (fun () -> result s (flat default_jobs))
  @ audit "ext-bst" (Audit.Global (min_bound inst)) (fun () ->
        Router.ext_bst inst)
  @ audit "greedy-dme" (Audit.Global 0.) (fun () -> Router.greedy_dme inst)
  @ audit "mmm-dme" Audit.Grouped (fun () -> Router.mmm_dme inst)

let routers ?(inject = false) inst =
  routers_in ~inject ~only:(fun _ -> true) (session inst)

(* --- clustered routing --------------------------------------------------- *)

let clustered_in ~inject ?clusters s =
  let inst = s.inst in
  let k =
    match clusters with
    | Some k -> k
    | None -> Int.max 2 (Int.min 4 (Instance.n_sinks inst))
  in
  guard "clustered" (fun () ->
      let part =
        Audit.partition_cover inst (Dme.Cluster.partition inst ~clusters:k)
      in
      (* Under [inject] the victim's group is spread over regions by the
         spatial partition, so the snaked leaf violates the bound across a
         cluster boundary — the auditor must still see it: the skew
         contract is global to the stitched tree, not per region. *)
      let routed, report =
        audited ~inject inst (result s (clustered_run ~jobs:default_jobs k))
      in
      part @ Audit.run Audit.Grouped inst routed report)

let clustered ?(inject = false) ?clusters inst =
  clustered_in ~inject ?clusters (session inst)

(* --- Elmore vs transient ------------------------------------------------- *)

let delay_models_in ?(resolution = 300) s =
  let inst = s.inst in
  guard "delay-models" (fun () ->
      let r = result s (flat default_jobs) in
      let rct, sink_index =
        Tree.to_rctree inst.params ~rd:inst.rd ~n_sinks:(Instance.n_sinks inst)
          r.routed
      in
      let elmore = Rc.Rctree.elmore rct in
      let sim = Rc.Transient.step_response_auto ~resolution rct in
      let max_elmore = Array.fold_left Float.max 0. elmore in
      (* Discretization slack: the simulator reports crossings on a grid
         of pitch max_elmore / resolution. *)
      let dt = max_elmore /. float_of_int resolution in
      let slack = (3. *. dt) +. 1e-9 in
      let out = ref [] in
      let add invariant fmt =
        Printf.ksprintf
          (fun detail -> out := { Audit.invariant; detail } :: !out)
          fmt
      in
      Array.iteri
        (fun sink idx ->
          let te = elmore.(idx) in
          let tt = sim.crossing.(idx) in
          if Float.is_nan tt then
            add "transient-crossed" "sink %d never reached 50%%" sink
          else if tt > te +. slack then
            (* Elmore bounds the 50% crossing from above (Gupta et al.);
               no useful universal lower bound exists — resistance
               shielding can push the true crossing to a tiny fraction of
               the Elmore estimate. *)
            add "elmore-upper-bound"
              "sink %d: transient %.6g ps exceeds Elmore %.6g ps" sink tt te)
        sink_index;
      (* Charging an RC tree from the root, every node's voltage trails
         its parent's, so 50% crossings are non-decreasing downstream. *)
      for i = 1 to Rc.Rctree.size rct - 1 do
        let p = Rc.Rctree.parent rct i in
        let tp = sim.crossing.(p) and ti = sim.crossing.(i) in
        if Float.is_finite tp && Float.is_finite ti && ti < tp -. slack then
          add "crossing-monotone"
            "node %d crosses at %.6g ps before its parent %d at %.6g ps" i ti
            p tp
      done;
      (* Chapter III: intra-group skews agree between the models far more
         tightly than absolute delays do.  The claim is about realistic
         interconnect; under adversarial electrical parameters (near-zero
         driver resistance, fF-to-pF load spreads) higher-order effects
         legitimately skew Elmore-balanced trees, so the check is gated
         to the envelope the thesis speaks to. *)
      let realistic =
        inst.params = Rc.Wire.default
        && inst.rd >= 10.
        && Array.for_all
             (fun (s : Sink.t) -> s.cap >= 1. && s.cap <= 1000.)
             inst.sinks
      in
      if !out = [] && realistic then begin
        let skews delays =
          let lo = Array.make inst.n_groups Float.infinity in
          let hi = Array.make inst.n_groups Float.neg_infinity in
          Array.iter
            (fun (s : Sink.t) ->
              lo.(s.group) <- Float.min lo.(s.group) delays.(s.id);
              hi.(s.group) <- Float.max hi.(s.group) delays.(s.id))
            inst.sinks;
          Array.init inst.n_groups (fun g -> Float.max 0. (hi.(g) -. lo.(g)))
        in
        let per_sink arr = Array.map (fun i -> arr.(i)) sink_index in
        let sk_e = skews (per_sink elmore) in
        let sk_t = skews (per_sink sim.crossing) in
        Array.iteri
          (fun g se ->
            let st = sk_t.(g) in
            let tol = (0.25 *. Float.max se st) +. (6. *. dt) +. 1e-9 in
            if Float.abs (se -. st) > tol then
              add "skew-agreement"
                "group %d: Elmore skew %.6g ps vs transient %.6g ps" g se st)
          sk_e
      end;
      List.rev !out)

let delay_models ?resolution inst = delay_models_in ?resolution (session inst)

(* --- the whole battery --------------------------------------------------- *)

(* Every oracle whose name passes [only], on one session: a route any
   two of them share is made once. *)
let select ?(inject = false) ?(rows = default_rows) ~only inst =
  let s = session inst in
  routers_in ~inject ~only s
  @ run_rows s (List.filter (fun (name, _) -> only name) rows)
  @ (if only "clustered" then clustered_in ~inject s else [])
  @ if only "delay-models" then delay_models_in s else []

let all ?inject inst = select ?inject ~only:(fun _ -> true) inst

let reproduces ?inject ?rows ~of_run inst =
  let names = List.map (fun f -> f.oracle) of_run in
  let only name = List.mem name names in
  List.exists (fun f -> only f.oracle) (select ?inject ?rows ~only inst)
