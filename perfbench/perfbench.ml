(* Benchmark worker: routes one named workload from a seed and prints one
   JSON line of raw samples for run.py to summarize.

     perfbench.exe setup  WORKLOAD SEED
     perfbench.exe e2e    WORKLOAD SEED SECONDS JOBS [baseline]
     perfbench.exe layers WORKLOAD SEED JOBS SPANS_FILE

   [setup] times parsing the instance text.  [e2e] times whole Router
   calls from outside, tracing off.  [layers] rebuilds the same route from
   the public layer calls, times each call with the benchmark's own spans,
   reads Obs.Counter deltas, and fails unless the composed route is
   bit-identical to the router's.  Each invocation is a fresh process, so
   Gc's top_heap_words belongs to one workload only. *)

module Instance = Clocktree.Instance
module Evaluate = Clocktree.Evaluate
module Repair = Clocktree.Repair
module Arena = Clocktree.Arena
module Router = Astskew.Router
module Audit = Check.Audit
module J = Obs.Json

(* --- workloads ----------------------------------------------------------- *)

type workload = {
  spec : Workload.Circuits.spec;
  scheme : Workload.Partition.scheme;
  clustered : bool;
  baseline : bool;  (** also route EXT-BST for wl_reduction_pct *)
}

(* Die side grows as sqrt n so sink density matches r1-r5, as in
   [bench scale]. *)
let synthetic n =
  Workload.Circuits.
    {
      name = Printf.sprintf "s%dk" (n / 1000);
      n_sinks = n;
      die = 2000. *. sqrt (float_of_int n);
    }

let workload = function
  | "table2-r5" ->
      {
        spec = Option.get (Workload.Circuits.find "r5");
        scheme = Workload.Partition.Intermingled;
        clustered = false;
        baseline = true;
      }
  | "s100k-intermingled" ->
      {
        spec = synthetic 100_000;
        scheme = Workload.Partition.Intermingled;
        clustered = true;
        baseline = false;
      }
  | "s30k-boxed" ->
      {
        spec = synthetic 30_000;
        scheme = Workload.Partition.Clustered;
        clustered = true;
        baseline = false;
      }
  | w -> failwith (Printf.sprintf "unknown workload %S" w)

(* Table II's setting: 8 sink groups under a 10 ps intra-group bound. *)
let instance_text w ~seed =
  Workload.Circuits.instance ~seed:(Int64.of_int seed) w.spec ~n_groups:8
    ~scheme:w.scheme ~bound:10. ()
  |> Clocktree.Io.to_string

let parse text =
  match Clocktree.Io.of_string text with
  | Ok inst -> inst
  | Error e -> failwith ("generated instance does not parse: " ^ e)

(* --- helpers ------------------------------------------------------------- *)

let now = Obs.Timer.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Repeat [f] at least [min_reps] times and until [min_s] seconds have
   passed (at most [max_reps]); returns each call's duration. *)
let repeat ~min_reps ~max_reps ~min_s f =
  let t0 = now () in
  let rec go acc k =
    if k >= max_reps || (k >= min_reps && now () -. t0 >= min_s) then
      List.rev acc
    else go (snd (timed f) :: acc) (k + 1)
  in
  go [] 0

let floats xs = J.List (List.map (fun x -> J.Float x) xs)

(* Failed checks are collected with the route they belong to, never
   raised past the caller; a route with any failed check counts once in
   failed_routes. *)
let failures = ref []

let fail route fmt =
  Printf.ksprintf (fun s -> failures := (route, s) :: !failures) fmt

let failure_fields () =
  let routes = List.sort_uniq String.compare (List.map fst !failures) in
  [
    ("failed_routes", J.Int (List.length routes));
    ( "failures",
      J.List (List.rev_map (fun (r, s) -> J.String (r ^ ": " ^ s)) !failures) );
  ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_report (a : Evaluate.report) (b : Evaluate.report) =
  same_bits a.wirelength b.wirelength
  && Array.length a.delays = Array.length b.delays
  && Array.for_all2 same_bits a.delays b.delays

(* A route fails if it fails the audit of its contract, exhausts the
   repair budget or leaves a group unresolved. *)
let check ~label contract inst routed report (repair : Repair.stats) =
  (match Audit.run contract inst routed report with
   | [] -> ()
   | v :: _ ->
       fail label "audit %s: %s" v.Audit.invariant v.Audit.detail);
  if repair.budget_exhausted then fail label "repair budget exhausted";
  if repair.unresolved_groups > 0 then
    fail label "%d unresolved groups" repair.unresolved_groups

let check_route ~label contract inst (r : Router.result) =
  check ~label contract inst r.routed r.evaluation r.repair

let min_bound (inst : Instance.t) =
  List.init inst.n_groups (Instance.bound_for inst)
  |> List.fold_left Float.min Float.infinity

(* The paper's Table II comparison: wirelength reduction (%) of an
   AST-DME result against EXT-BST on the same instance. *)
let reduction_vs_ext_bst ~jobs inst (r : Router.result) =
  match Router.ext_bst ~jobs inst with
  | exception e ->
      fail "ext_bst" "raised %s" (Printexc.to_string e);
      None
  | b ->
      check_route ~label:"ext_bst" (Audit.Global (min_bound inst)) inst b;
      Some (100. *. Router.reduction ~baseline:b r)

let ast_dme w ~jobs inst = Router.ast_dme ~jobs ~clustered:w.clustered inst

let print_result fields = print_endline (J.to_string (J.Obj fields))

(* --- e2e: whole routes, tracing off --------------------------------------- *)

let e2e name ~seed ~seconds ~jobs ~baseline =
  let w = workload name in
  (* The router only ever sees the instance parsed from its text. *)
  let inst = parse (instance_text w ~seed) in
  let attempted = ref 0 in
  let reference = ref None in
  let route ~jobs =
    incr attempted;
    let label = Printf.sprintf "ast_dme jobs=%d route %d" jobs !attempted in
    match timed (fun () -> ast_dme w ~jobs inst) with
    | exception e ->
        fail label "raised %s" (Printexc.to_string e);
        None
    | r, dt ->
        check_route ~label Audit.Grouped inst r;
        (* The determinism contract: every route of the instance, at any
           jobs count, gives the same tree, bit for bit. *)
        (match !reference with
         | None -> reference := Some r
         | Some (r0 : Router.result) ->
             if not (same_report r0.evaluation r.evaluation) then
               fail label "wirelength/delays differ from the first route");
        Some dt
  in
  (* Timed routes alternate between nproc and 1 job until [seconds] have
     passed, at least two of each.  The first route grows the heap from
     nothing, as in a fresh `astroute route` process.  The high-water
     mark is sampled right after it, so it covers parsing plus one route
     and does not drift with the number of routes that follow. *)
  let par = ref [] and serial = ref [] and top_heap_words = ref 0 in
  let add l = function Some dt -> l := dt :: !l | None -> () in
  let t0 = now () and pairs = ref 0 in
  while !pairs < 2 || now () -. t0 < seconds do
    incr pairs;
    add par (route ~jobs);
    if !pairs = 1 then top_heap_words := Obs.Gcstat.top_heap_words ();
    add serial (route ~jobs:1)
  done;
  let reduction =
    match !reference with
    | Some r when baseline && w.baseline ->
        incr attempted;
        Option.fold ~none:[]
          ~some:(fun pct -> [ ("wl_reduction_pct", J.Float pct) ])
          (reduction_vs_ext_bst ~jobs inst r)
    | _ -> []
  in
  let wirelength =
    match !reference with
    | Some r -> [ ("wirelength", J.Float r.evaluation.wirelength) ]
    | None -> []
  in
  print_result
    ([
       ("jobs", J.Int jobs);
       ("domains", J.Int (Domain.recommended_domain_count ()));
       ("route_s", floats (List.rev !par));
       ("route_serial_s", floats (List.rev !serial));
       ("top_heap_words", J.Int !top_heap_words);
       ("word_bytes", J.Int (Sys.word_size / 8));
       ("attempted", J.Int !attempted);
     ]
    @ failure_fields () @ wirelength @ reduction)

(* --- setup: parsing the instance text ------------------------------------ *)

(* Set-up is the `astroute route -f` path: parse the instance text. *)
let setup name ~seed =
  let text = instance_text (workload name) ~seed in
  print_result
    [ ("setup_s", floats (repeat ~min_reps:5 ~max_reps:200 ~min_s:0.3 (fun () -> parse text))) ]

(* --- spans ---------------------------------------------------------------- *)

(* The benchmark's own span log: name, start, end, parent and the id of
   the route a span belongs to.  Kept in memory, written when the run
   ends. *)
type span = {
  id : int;
  name : string;
  route : int;
  parent : int;  (** -1 at top level *)
  t0 : float;
  t1 : float;
}

let spans = ref []
let open_spans = ref []
let next_span = ref 0

let span ~route name f =
  let id = !next_span in
  incr next_span;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let t0 = now () in
  let close () =
    open_spans := List.tl !open_spans;
    spans := { id; name; route; parent; t0; t1 = now () } :: !spans
  in
  Fun.protect ~finally:close f

let dur s = s.t1 -. s.t0

let find_span ~route name =
  List.find (fun s -> s.route = route && s.name = name) !spans

(* Zero when the layer was not called on its own in this route. *)
let span_s ~route name =
  match find_span ~route name with s -> dur s | exception Not_found -> 0.

let write_spans path =
  let epoch = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans in
  let json s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("name", J.String s.name);
        ("route", J.Int s.route);
        ("parent", J.Int s.parent);
        ("start_s", J.Float (s.t0 -. epoch));
        ("end_s", J.Float (s.t1 -. epoch));
      ]
  in
  J.write_file path
    (J.List (List.map json (List.sort (fun a b -> compare a.id b.id) !spans)))

(* --- layers: the route rebuilt from public calls, traced ------------------ *)

let counters () =
  List.map (fun c -> (Obs.Counter.name c, Obs.Counter.value c)) (Obs.Counter.all ())

type composed = {
  report : Evaluate.report;
  repair : Repair.stats;
  clustering : Dme.Cluster.stats option;
  plan_counters : string -> int;  (** counter delta over the planning layer *)
  plan_gc : Obs.Gcstat.t;  (** allocation of the planning layer *)
  gc : Obs.Gcstat.t;  (** allocation of the whole route *)
}

(* One route composed from the layers Router.ast_dme calls, each call in
   its own span.  The repair budget copies the router's default; a drift
   shows up as a failed identity check. *)
let compose w ~route ~jobs inst =
  let config = { Router.ast_default_config with jobs } in
  let repair_config =
    {
      Repair.default_config with
      jobs;
      max_cycles =
        Int.max Repair.default_config.max_cycles (Instance.n_sinks inst / 250);
    }
  in
  let span name f = span ~route name f in
  let plan_counters = ref (fun _ -> 0) and plan_gc = ref Obs.Gcstat.zero in
  (* Counter deltas and allocation of the planning layer; at jobs 1 all
     of its allocation happens on this domain. *)
  let plan_layer f =
    let c0 = counters () and g0 = Obs.Gcstat.sample () in
    let v = f () in
    plan_gc := Obs.Gcstat.diff (Obs.Gcstat.sample ()) g0;
    let c1 = counters () in
    (plan_counters := fun name -> List.assoc name c1 - List.assoc name c0);
    v
  in
  let gc0 = Obs.Gcstat.sample () in
  let report, repair, clustering, routed =
    span "route" (fun () ->
        let arena, clustering =
          if w.clustered then
            let arena, _, detail =
              span "cluster" (fun () ->
                  plan_layer (fun () -> Dme.Cluster.run_arena ~config inst))
            in
            (arena, Some detail)
          else begin
            (* Engine.run_arena's pool, held through planning and
               embedding. *)
            let pool =
              if jobs > 1 then
                Some (span "par.pool_create" (fun () -> Par.Pool.create ~jobs ()))
              else None
            in
            let root, _ =
              span "engine.plan" (fun () ->
                  plan_layer (fun () -> Dme.Engine.plan ~config ?pool inst))
            in
            let arena =
              span "embed" (fun () -> Dme.Embed.run_arena ?pool inst root)
            in
            Option.iter
              (fun p -> span "par.pool_shutdown" (fun () -> Par.Pool.shutdown p))
              pool;
            (arena, None)
          end
        in
        let repair =
          span "repair" (fun () -> Repair.run_arena ~config:repair_config inst arena)
        in
        let report =
          span "evaluate" (fun () -> Evaluate.report_of_arena ~jobs inst arena)
        in
        let routed = span "arena.to_routed" (fun () -> Arena.to_routed arena) in
        (report, repair, clustering, routed))
  in
  let gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0 in
  span "audit" (fun () ->
      check
        ~label:(Printf.sprintf "composed jobs=%d" jobs)
        Audit.Grouped inst routed report repair);
  {
    report;
    repair;
    clustering;
    plan_counters = !plan_counters;
    plan_gc = !plan_gc;
    gc;
  }

let layers name ~seed ~jobs ~spans_file =
  let w = workload name in
  let text = instance_text w ~seed in
  let parse_s = repeat ~min_reps:5 ~max_reps:200 ~min_s:0.5 (fun () -> parse text) in
  let inst = parse text in
  let pool_start =
    repeat ~min_reps:20 ~max_reps:200 ~min_s:0.2 (fun () ->
        Par.Pool.shutdown (Par.Pool.create ~jobs ()))
  in
  (* Reference: the router itself, untraced, repeated on small workloads
     so trace.overhead_pct compares against a median. *)
  let routes = ref [] in
  let route_s =
    median
      (repeat ~min_reps:1 ~max_reps:5 ~min_s:1. (fun () ->
           routes := ast_dme w ~jobs inst :: !routes))
  in
  List.iteri
    (fun k r ->
      check_route ~label:(Printf.sprintf "ast_dme route %d" k) Audit.Grouped inst r)
    !routes;
  let reference = List.hd !routes in
  (* Layer-composition identity: the per-layer numbers describe the
     program users run only if the composed route is the router's route,
     bit for bit. *)
  let composed ~route ~jobs =
    let c = compose w ~route ~jobs inst in
    if not (same_report reference.evaluation c.report) then
      fail
        (Printf.sprintf "composed jobs=%d" jobs)
        "wirelength/delays differ from Router.ast_dme";
    c
  in
  let par = composed ~route:1 ~jobs in
  let serial = composed ~route:2 ~jobs:1 in
  let reduction =
    if w.baseline then
      Option.value ~default:0. (reduction_vs_ext_bst ~jobs inst reference)
    else 0.
  in
  let d = par.plan_counters in
  let probes = d "dme.order.nn_probes" in
  let queries = d "geometry.grid.queries" in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let root = find_span ~route:1 "route" in
  let attributed =
    List.fold_left
      (fun acc s -> if s.parent = root.id then acc +. dur s else acc)
      0. !spans
  in
  let region_walls =
    match par.clustering with
    | None -> []
    | Some c ->
        Array.to_list
          (Array.map (fun (r : Dme.Cluster.cluster_stats) -> r.wall_s) c.per_cluster)
  in
  let cl f = match par.clustering with Some c -> f c | None -> 0 in
  let f x = J.Float x and i x = J.Int x in
  let repair = par.repair in
  let metrics =
    [
      ("wirelength", f par.report.wirelength);
      ("wl_reduction_pct", f reduction);
      ("io.parse_s", f (median parse_s));
      ("io.bytes", i (String.length text));
      ("par.pool_start_s", f (median pool_start));
      ("engine.plan_s", f (span_s ~route:1 "engine.plan"));
      ("engine.plan_serial_s", f (span_s ~route:2 "engine.plan"));
      ("engine.rounds", i (d "dme.order.rounds"));
      ("engine.nn_probes", i probes);
      ("engine.nn_probes_saved", i (d "dme.order.nn_probes_saved"));
      ("engine.committed_merges", i (d "dme.engine.committed_merges"));
      ("engine.trial_merges", i (d "dme.engine.trial_merges"));
      ( "engine.minor_words_per_probe",
        f (serial.plan_gc.minor_words /. float_of_int (max 1 probes)) );
      ("order.pairs_ranked", i (d "dme.order.pairs_ranked"));
      ("order.useful_ratio", f (ratio (d "dme.engine.committed_merges") probes));
      ("grid.queries", i queries);
      ("grid.cells_per_query", f (ratio (d "geometry.grid.cells_visited") queries));
      ("grid.entries_per_query", f (ratio (d "geometry.grid.entries_scanned") queries));
      ("cluster.wall_s", f (span_s ~route:1 "cluster"));
      ("cluster.serial_s", f (span_s ~route:2 "cluster"));
      ("cluster.regions", i (cl (fun c -> c.n_clusters)));
      ("cluster.depth", i (cl (fun c -> c.depth)));
      ("cluster.region_wall_max_s", f (List.fold_left Float.max 0. region_walls));
      ("cluster.region_wall_p50_s", f (median region_walls));
      ("cluster.region_wall_sum_s", f (List.fold_left ( +. ) 0. region_walls));
      ("embed.wall_s", f (span_s ~route:1 "embed"));
      ("embed.serial_s", f (span_s ~route:2 "embed"));
      ("evaluate.wall_s", f (span_s ~route:1 "evaluate"));
      ("evaluate.serial_s", f (span_s ~route:2 "evaluate"));
      ("arena.to_routed_s", f (span_s ~route:1 "arena.to_routed"));
      ("audit.wall_s", f (span_s ~route:1 "audit"));
      ("repair.wall_s", f (span_s ~route:1 "repair"));
      ("repair.serial_s", f (span_s ~route:2 "repair"));
      ("repair.cycles", i repair.cycles);
      ("repair.lift_iterations", i repair.lift_iterations);
      ("repair.adjusted_edges", i repair.adjusted_edges);
      ("repair.conflict_nodes", i repair.conflict_nodes);
      ("repair.added_wire_pct", f (100. *. repair.added_wire /. par.report.wirelength));
      ("gc.minor_words", f par.gc.minor_words);
      ("gc.major_words", f par.gc.major_words);
      ("gc.major_collections", i par.gc.major_collections);
      ("route.unattributed_s", f (dur root -. attributed));
      ("trace.overhead_pct", f (100. *. (dur root -. route_s) /. route_s));
    ]
  in
  write_spans spans_file;
  print_result
    ([
       ("jobs", J.Int jobs);
       ("domains", J.Int (Domain.recommended_domain_count ()));
       ("attempted", J.Int (List.length !routes + if w.baseline then 3 else 2));
       ("metrics", J.Obj metrics);
     ]
    @ failure_fields ())

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "e2e" :: w :: seed :: seconds :: jobs :: ([] | [ "baseline" ] as rest) ->
      e2e w ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
        ~jobs:(int_of_string jobs) ~baseline:(rest <> [])
  | [ "setup"; w; seed ] -> setup w ~seed:(int_of_string seed)
  | [ "layers"; w; seed; jobs; spans_file ] ->
      layers w ~seed:(int_of_string seed) ~jobs:(int_of_string jobs) ~spans_file
  | _ ->
      prerr_endline
        "usage: perfbench.exe setup WORKLOAD SEED\n\
        \       perfbench.exe e2e WORKLOAD SEED SECONDS JOBS [baseline]\n\
        \       perfbench.exe layers WORKLOAD SEED JOBS SPANS_FILE";
      exit 2
