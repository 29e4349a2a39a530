type failure = {
  case : Gen.case;
  findings : Oracle.finding list;
  shrunk : Clocktree.Instance.t;
  shrunk_findings : Oracle.finding list;
}

type summary = {
  seed : int64;
  cases : int;
  scaled_cases : int;
  passed : int;
  failures : failure list;
  elapsed_s : float;
}

(* Run [oracles] on the case and shrink a failure, re-running only the
   oracles its findings name ([rows]: the jobs lists [oracles] ran its
   invariance rows at). *)
let check_with ?inject ?rows oracles (case : Gen.case) =
  match oracles case.instance with
  | [] -> None
  | findings ->
    let fails = Oracle.reproduces ?inject ?rows ~of_run:findings in
    let shrunk = Shrink.run ~fails case.instance in
    Some { case; findings; shrunk; shrunk_findings = oracles shrunk }

let check ?inject case = check_with ?inject (Oracle.all ?inject) case

(* Scaled cases run a row selection, each row at its own jobs list: the
   full battery would take minutes per instance of thousands of sinks.
   Huge stresses the ranking, repair, windowed-evaluation and recorder
   paths: par-identity checks jobs 2 and 4 against the serial run,
   repair-identity at this size auto-derives multiple regions (so the
   regional fixpoints meet the serial from-scratch pass on every case),
   and sched-identity at jobs 2 proves the flight recorder inert exactly
   where its ledgers are busiest.  Banked targets the clustered path:
   clusters=1 must equal flat at jobs 2 (region scheduling rides along),
   a forced depth-2 hierarchy must be jobs-invariant and audit-clean,
   and a genuinely clustered run must pass the full audit under the
   global grouped contract. *)
let scaled_rows (regime : Gen.regime) =
  match regime with
  | Gen.Huge ->
    [
      ("par-identity", [ 2; 4 ]);
      ("repair-identity", [ 2 ]);
      ("evaluate-identity", [ 2 ]);
      ("sched-identity", [ 2 ]);
    ]
  | Gen.Banked ->
    [ ("cluster-identity", [ 2 ]); ("cluster-depth-identity", [ 2 ]) ]
  | _ -> assert false

let scaled_oracles (regime : Gen.regime) inst =
  Oracle.invariance ~rows:(scaled_rows regime) inst
  @ if regime = Gen.Banked then Oracle.clustered inst else []

let check_scaled (case : Gen.case) =
  check_with ~rows:(scaled_rows case.regime) (scaled_oracles case.regime) case

let run ?inject ?(progress = fun _ -> ()) ~cases ~seed () =
  let t0 = Obs.Timer.now () in
  let failures = ref [] in
  for index = 0 to cases - 1 do
    let case = Gen.case ~seed ~index () in
    progress case;
    match check ?inject case with
    | None -> ()
    | Some failure -> failures := failure :: !failures
  done;
  (* One benchmark-scale case per 25 ordinary ones, at indices just past
     the ordinary range so repros stay addressable as (seed, index,
     regime).  Even slots run Huge against the ranking-path identity
     oracles, odd slots run Banked against the clustered-routing
     oracles. *)
  let scaled_cases = cases / 25 in
  for k = 0 to scaled_cases - 1 do
    let regime = if k mod 2 = 0 then Gen.Huge else Gen.Banked in
    let case = Gen.case ~regime ~seed ~index:(cases + k) () in
    progress case;
    match check_scaled case with
    | None -> ()
    | Some failure -> failures := failure :: !failures
  done;
  let failures = List.rev !failures in
  {
    seed;
    cases;
    scaled_cases;
    passed = cases + scaled_cases - List.length failures;
    failures;
    elapsed_s = Obs.Timer.now () -. t0;
  }

let replay ?inject ?regime ~seed ~case () =
  let c = Gen.case ?regime ~seed ~index:case () in
  match c.regime with
  | Gen.Huge | Gen.Banked -> scaled_oracles c.regime c.instance
  | _ -> Oracle.all ?inject c.instance

let ok s = s.failures = []

let json_of_failure f =
  let open Obs.Json in
  let violations vs =
    List
      (List.map
         (fun (v : Audit.violation) ->
           Obj
             [ ("invariant", String v.invariant); ("detail", String v.detail) ])
         vs)
  in
  let findings fs =
    List
      (List.map
         (fun (x : Oracle.finding) ->
           Obj
             [ ("oracle", String x.oracle); ("violations", violations x.violations) ])
         fs)
  in
  Obj
    [
      ("case", Int f.case.index);
      ("regime", String (Gen.regime_to_string f.case.regime));
      ("n_sinks", Int (Clocktree.Instance.n_sinks f.case.instance));
      ("findings", findings f.findings);
      ("shrunk_sinks", Int (Clocktree.Instance.n_sinks f.shrunk));
      ("shrunk_findings", findings f.shrunk_findings);
    ]

let json_of_summary s =
  let open Obs.Json in
  Obj
    [
      ("seed", String (Int64.to_string s.seed));
      ("cases", Int s.cases);
      ("scaled_cases", Int s.scaled_cases);
      ("passed", Int s.passed);
      ("failed", Int (List.length s.failures));
      ("elapsed_s", Float s.elapsed_s);
      ("failures", List (List.map json_of_failure s.failures));
    ]

let repro_text f =
  let b = Buffer.create 1024 in
  Printf.bprintf b "# fuzz failure: seed %Ld case %d regime %s\n"
    f.case.seed f.case.index
    (Gen.regime_to_string f.case.regime);
  Printf.bprintf b "# replay: Check.replay%s ~seed:%LdL ~case:%d ()\n"
    (match f.case.regime with
     | Gen.Huge -> " ~regime:Check.Gen.Huge"
     | Gen.Banked -> " ~regime:Check.Gen.Banked"
     | _ -> "")
    f.case.seed f.case.index;
  List.iter
    (fun (x : Oracle.finding) ->
      List.iter
        (fun (v : Audit.violation) ->
          Printf.bprintf b "# %s / %s: %s\n" x.oracle v.invariant v.detail)
        x.violations)
    f.shrunk_findings;
  Buffer.add_string b (Clocktree.Io.to_string f.shrunk);
  Buffer.contents b
