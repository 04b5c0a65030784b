(* The two-sided certificate: no violation with ≤ b nodes, a shrunk and
   replayable violation with b + 1.  The shrink predicate keeps the
   above-bound admissibility cap, so minimization can never cheat by
   escaping the searched class. *)

module Json = Csm_obs.Json
module Strategy = Csm_core.Strategy

type bound_report = {
  bound : Oracle.bound;
  instance : Oracle.instance;
  at_candidates : int;
  at_exhausted : bool;
  safety_holds_at_bound : bool;
  above_candidates : int;
  witness : Trace.t option;
  witness_found_above_bound : bool;
  replay_ok : bool;
}

type report = {
  schedule : Search.schedule;
  budget : int;
  seed : int;
  bounds : bound_report list;
  safety_holds_at_bound : bool;
  witness_found_above_bound : bool;
  replay_ok : bool;
}

let certify_bound ~schedule ~budget ~seed bound =
  let instance = Oracle.instance_for bound ~seed in
  let b = instance.Oracle.b in
  let at =
    Search.search ~bound ~instance ~max_nodes:b ~budget ~schedule ~seed ()
  in
  let above =
    Search.search ~stop_at_first:true ~bound ~instance ~max_nodes:(b + 1)
      ~budget ~schedule ~seed ()
  in
  let witness =
    match above.Search.witnesses with
    | [] -> None
    | (strat, _) :: _ ->
      let still_fails s =
        Strategy.size s <= b + 1
        && List.for_all
             (fun i -> i >= 0 && i < instance.Oracle.n)
             (Strategy.byz_nodes s)
        &&
        match (Oracle.check bound instance s).Oracle.verdict with
        | Oracle.Violation _ -> true
        | Oracle.Safe -> false
      in
      let minimal, shrink_steps = Shrink.shrink ~still_fails strat in
      (* record the minimal strategy's own violation, not the seed
         witness's — replay checks kind AND detail *)
      (match (Oracle.check bound instance minimal).Oracle.verdict with
      | Oracle.Violation { kind; detail } ->
        Some
          {
            Trace.bound;
            instance;
            strategy = minimal;
            kind;
            detail;
            search =
              {
                Trace.schedule;
                budget;
                seed;
                candidates = above.Search.candidates;
                shrink_steps;
              };
          }
      | Oracle.Safe -> None)
  in
  let replay_ok =
    match witness with
    | None -> false
    | Some t -> (
      (* round-trip through the canonical bytes, then replay *)
      match Trace.of_json (Json.parse (Trace.to_string t)) with
      | Error _ -> false
      | Ok t' ->
        String.equal (Trace.to_string t') (Trace.to_string t)
        && (match Trace.replay t' with Ok () -> true | Error _ -> false))
  in
  {
    bound;
    instance;
    at_candidates = at.Search.candidates;
    at_exhausted = at.Search.exhausted;
    safety_holds_at_bound = at.Search.witnesses = [];
    above_candidates = above.Search.candidates;
    witness;
    witness_found_above_bound = witness <> None;
    replay_ok;
  }

let all ?(bounds = Oracle.certified_bounds) ~schedule ~budget ~seed () =
  let reports =
    List.map (fun b -> certify_bound ~schedule ~budget ~seed b) bounds
  in
  {
    schedule;
    budget;
    seed;
    bounds = reports;
    safety_holds_at_bound =
      List.for_all (fun (r : bound_report) -> r.safety_holds_at_bound) reports;
    witness_found_above_bound =
      List.for_all
        (fun (r : bound_report) -> r.witness_found_above_bound)
        reports;
    replay_ok = List.for_all (fun (r : bound_report) -> r.replay_ok) reports;
  }

let bound_report_to_json r =
  let i = r.instance in
  Json.Obj
    [
      ("bound", Json.Str (Oracle.bound_name r.bound));
      ("inequality", Json.Str (Oracle.bound_inequality r.bound));
      ( "instance",
        Json.Obj
          [
            ("n", Json.Int i.Oracle.n);
            ("k", Json.Int i.Oracle.k);
            ("d", Json.Int i.Oracle.d);
            ("b", Json.Int i.Oracle.b);
            ("rounds", Json.Int i.Oracle.rounds);
            ("seed", Json.Int i.Oracle.seed);
          ] );
      ("at_bound_candidates", Json.Int r.at_candidates);
      ("at_bound_exhausted", Json.Bool r.at_exhausted);
      ("safety_holds_at_bound", Json.Bool r.safety_holds_at_bound);
      ("above_bound_candidates", Json.Int r.above_candidates);
      ("witness_found_above_bound", Json.Bool r.witness_found_above_bound);
      ("replay_ok", Json.Bool r.replay_ok);
      ( "witness",
        match r.witness with
        | None -> Json.Null
        | Some t ->
          Json.Obj
            [
              ("strategy", Json.Str (Strategy.name t.Trace.strategy));
              ("nodes", Json.Int (Strategy.size t.Trace.strategy));
              ("kind", Json.Str (Oracle.violation_kind_name t.Trace.kind));
              ("detail", Json.Str t.Trace.detail);
              ("shrink_steps", Json.Int t.Trace.search.Trace.shrink_steps);
            ] );
    ]

let report_to_json r =
  Json.Obj
    [
      ("schedule", Json.Str (Search.schedule_name r.schedule));
      ("budget", Json.Int r.budget);
      ("seed", Json.Int r.seed);
      ("bounds", Json.List (List.map bound_report_to_json r.bounds));
      ("safety_holds_at_bound", Json.Bool r.safety_holds_at_bound);
      ("witness_found_above_bound", Json.Bool r.witness_found_above_bound);
      ("replay_ok", Json.Bool r.replay_ok);
    ]
