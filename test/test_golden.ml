(* Golden routes: absolute router outputs, pinned bit for bit.

   Every other identity check in the suite is relative (one variant
   against another), so a change that shifts every variant the same way
   would pass them all.  This file pins the routed wirelength as its
   IEEE-754 bit pattern and the per-sink Elmore delays as an MD5 digest
   over their bit patterns, for the r1-r3 Table II setup (8 intermingled
   groups, 10 ps bound) flat at jobs 1 and 2, a clustered r3 run, the
   EXT-BST and greedy-DME baselines on r1, the planned-wire ablation
   (the only configuration that runs trial merges) and one generated
   case per [Check.Gen] regime.

   A legitimate change of routing behaviour must update the table below
   deliberately; a refactor must leave it untouched.  On a mismatch the
   failure message prints the values the code now produces. *)

let digest_delays (delays : float array) =
  let b = Buffer.create (8 * Array.length delays) in
  Array.iter (fun d -> Buffer.add_int64_le b (Int64.bits_of_float d)) delays;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fingerprint (r : Astskew.Router.result) =
  ( Int64.bits_of_float r.evaluation.wirelength,
    digest_delays r.evaluation.delays )

let circuit name =
  match Workload.Circuits.find name with
  | Some spec ->
    Workload.Circuits.instance spec ~n_groups:8
      ~scheme:Workload.Partition.Intermingled ~bound:10. ()
  | None -> invalid_arg name

let gen regime =
  (Check.Gen.case ~regime ~seed:1L ~index:0 ()).Check.Gen.instance

(* Each case: a name and a thunk producing the routed result. *)
let cases =
  List.concat_map
    (fun c ->
      List.map
        (fun jobs ->
          ( Printf.sprintf "%s jobs %d" c jobs,
            fun () -> Astskew.Router.ast_dme ~jobs (circuit c) ))
        [ 1; 2 ])
    [ "r1"; "r2"; "r3" ]
  @ [
      ( "r3 clustered 8",
        fun () ->
          Astskew.Router.ast_dme ~jobs:2 ~clustered:true ~clusters:8
            (circuit "r3") );
      ("r1 ext-bst", fun () -> Astskew.Router.ext_bst ~jobs:1 (circuit "r1"));
      ( "r1 greedy-dme",
        fun () -> Astskew.Router.greedy_dme ~jobs:1 (circuit "r1") );
    ]
  @ List.map
      (fun (c, jobs) ->
        ( Printf.sprintf "%s planned-wire jobs %d" c jobs,
          fun () ->
            Astskew.Router.ast_dme ~jobs
              ~config:
                { Astskew.Router.ast_default_config with
                  cost_by_planned_wire = true }
              (circuit c) ))
      [ ("r1", 1); ("r2", 2) ]
  @ [
      ( "r1 ext-bst planned-wire jobs 2",
        fun () ->
          Astskew.Router.ext_bst ~jobs:2
            ~config:{ Dme.Engine.default with cost_by_planned_wire = true }
            (circuit "r1") );
    ]
  @ List.map
      (fun regime ->
        ( "gen " ^ Check.Gen.regime_to_string regime,
          fun () -> Astskew.Router.ast_dme ~jobs:1 (gen regime) ))
      (Array.to_list Check.Gen.all_regimes @ [ Check.Gen.Huge; Check.Gen.Banked ])

(* name -> (wirelength bits, delay digest).  Captured once from the
   router; never regenerate them to make a refactor pass. *)
let golden : (string * (int64 * string)) list =
  [
    ("r1 jobs 1", (4696367285111179058L, "83b7c3a30a3419e87caa917a896b6154"));
    ("r1 jobs 2", (4696367285111179058L, "83b7c3a30a3419e87caa917a896b6154"));
    ("r2 jobs 1", (4701378985334678503L, "13f2465bb1297d09161518bbacc6f7f3"));
    ("r2 jobs 2", (4701378985334678503L, "13f2465bb1297d09161518bbacc6f7f3"));
    ("r3 jobs 1", (4702628879396793332L, "47f96313173ebd0f5805c8b9fedf6713"));
    ("r3 jobs 2", (4702628879396793332L, "47f96313173ebd0f5805c8b9fedf6713"));
    ("r3 clustered 8", (4702856640530851019L, "f62f5d8965876e7f6fc700f32cdd6f1e"));
    ("r1 ext-bst", (4697363926072057238L, "9124e07c1af15f69f9918c61561da167"));
    ("r1 greedy-dme", (4697101752143388885L, "424a05183fd15cfc67da8be5eaf1cd19"));
    ("r1 planned-wire jobs 1", (4696367285111179058L, "83b7c3a30a3419e87caa917a896b6154"));
    ("r2 planned-wire jobs 2", (4701378985334678503L, "13f2465bb1297d09161518bbacc6f7f3"));
    ("r1 ext-bst planned-wire jobs 2", (4697014586968249084L, "e1adb871ccf4aa32f2fb01fa80afe9bf"));
    ("gen uniform", (4682530241228765906L, "ac65d8e5914908ba479935d948fe3209"));
    ("gen intermingled", (4682143232176944621L, "15647ae790239ee9d611de359129b935"));
    ("gen clustered", (4682207285179637143L, "2427233647158b3c82cf8d168976bbbb"));
    ("gen collinear", (4672371290901154810L, "b5662fffa461f60582f094522543dfa7"));
    ("gen duplicates", (4666098551938532849L, "a2998fe9d195739b2d5cb2c1719d8aaa"));
    ("gen tiny-groups", (4679619485728674394L, "f2054df72c996457809c711072bcd34f"));
    ("gen extreme-rc", (4671189187453291548L, "c99358d353cf47bcabbdc686419fc776"));
    ("gen zero-bound", (4679905769111164004L, "929b56313ff8f511da7fe3999eb8a0d2"));
    ("gen normalized", (4618220807668135921L, "5382da632ac0b4ff657c3b36f48ae1ea"));
    ("gen huge", (4705207084103167669L, "e82a8de83644cf69f830657863bcc506"));
    ("gen banked", (4703866841139891272L, "1f74471916209c2d10284c5c02ba3566"));
  ]

let check_case (name, route) =
  let wl, dg = fingerprint (route ()) in
  match List.assoc_opt name golden with
  | None ->
    Alcotest.failf "no golden value for %S: (%LdL, %S)" name wl dg
  | Some (wl', dg') ->
    if wl <> wl' || dg <> dg' then
      Alcotest.failf "%s: got (%LdL, %S), golden (%LdL, %S)" name wl dg wl'
        dg'

let () =
  Alcotest.run "golden"
    [
      ( "routes",
        List.map
          (fun ((name, _) as c) ->
            Alcotest.test_case name `Quick (fun () -> check_case c))
          cases );
    ]
