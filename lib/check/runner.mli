(** The fuzz driver: generate, audit, shrink, summarise.

    [run ~cases ~seed ()] replays cases [0 .. cases-1] of the
    deterministic stream identified by [seed], runs every oracle on each
    instance, and greedily shrinks any failure to a minimal repro.  It
    then appends [cases / 25] benchmark-scale cases (indices
    [cases ..]): even slots are {!Gen.Huge} checked against the
    ["par-identity"] (jobs 2 and 4), ["repair-identity"],
    ["evaluate-identity"] and ["sched-identity"] (jobs 2) rows of
    {!Oracle.invariance}, odd slots are {!Gen.Banked} checked against
    the ["cluster-identity"] and ["cluster-depth-identity"] rows (jobs 2)
    and {!Oracle.clustered} — the full battery is far too slow at
    thousands of sinks.  Shrinking, on either path, re-runs only the
    oracles named in the original findings ({!Oracle.reproduces}), so
    it chases that failure and no other.  The summary is printable as
    JSON ({!json_of_summary}); a failing case's shrunk instance is
    serialised with {!Clocktree.Io} so it can be frozen as a regression
    test ({!repro_text}).

    [replay ~seed ~case ()] re-runs a single printed case — the entry
    point to paste from a failing CI log.  Pass [~regime:Gen.Huge] (or
    [~regime:Gen.Banked]) to replay a scaled case with the reduced
    oracle set matching the original check. *)

type failure = {
  case : Gen.case;
  findings : Oracle.finding list;  (** on the original instance *)
  shrunk : Clocktree.Instance.t;
  shrunk_findings : Oracle.finding list;  (** on the shrunk instance *)
}

type summary = {
  seed : int64;
  cases : int;  (** ordinary cases (regimes cycled by index) *)
  scaled_cases : int;
      (** appended benchmark-scale cases ({!Gen.Huge} / {!Gen.Banked}) *)
  passed : int;
  failures : failure list;
  elapsed_s : float;
}

val run :
  ?inject:bool ->
  ?progress:(Gen.case -> unit) ->
  cases:int ->
  seed:int64 ->
  unit ->
  summary

val replay :
  ?inject:bool ->
  ?regime:Gen.regime ->
  seed:int64 ->
  case:int ->
  unit ->
  Oracle.finding list

val ok : summary -> bool
val json_of_summary : summary -> Obs.Json.t

(** Io text of the shrunk instance, prefixed with comment lines recording
    the seed, case index, regime and violated invariants. *)
val repro_text : failure -> string
