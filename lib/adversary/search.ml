(* Exploration schedules over the strategy DSL.  All state (dedup cache,
   elites, rng) lives inside the [search] call — the module holds no
   mutable state, so concurrent searches cannot interfere and replays
   are exact. *)

module Metric = Csm_obs.Metric
module Tel = Csm_obs.Telemetry
module Strategy = Csm_core.Strategy

type schedule = Exhaustive | Random | Greedy

let schedule_name = function
  | Exhaustive -> "exhaustive"
  | Random -> "random"
  | Greedy -> "greedy"

let schedule_of_name = function
  | "exhaustive" -> Ok Exhaustive
  | "random" -> Ok Random
  | "greedy" -> Ok Greedy
  | s ->
    Error
      (Printf.sprintf
         "unknown schedule %S (expected exhaustive, random or greedy)" s)

type outcome = {
  candidates : int;
  witnesses : (Strategy.t * Oracle.result) list;
  exhausted : bool;
}

(* Greedy tuning: a small population refined a few survivors at a time.
   Constants, not knobs — the budget is the only dial. *)
let population = 16
let elites = 4
let mutations_per_elite = 4

let search ?(stop_at_first = false) ~bound ~instance ~max_nodes ~budget
    ~schedule ~seed () =
  let n = instance.Oracle.n in
  let rounds_total = instance.Oracle.rounds in
  let seen = Hashtbl.create 64 in
  let candidates = ref 0 in
  let witnesses = ref [] in
  let admissible strat =
    Strategy.size strat <= max_nodes
    && List.for_all (fun i -> i >= 0 && i < n) (Strategy.byz_nodes strat)
  in
  (* evaluate once per canonical key; returns the result when the
     candidate was fresh and admissible *)
  let eval strat =
    if not (admissible strat) then None
    else begin
      let key = Strategy.key strat in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        incr candidates;
        if Metric.enabled () then
          Metric.inc
            (Tel.adversary_candidates ~bound:(Oracle.bound_name bound)
               ~schedule:(schedule_name schedule));
        let result = Oracle.check bound instance strat in
        (match result.Oracle.verdict with
        | Oracle.Safe -> ()
        | Oracle.Violation { kind; _ } ->
          witnesses := (strat, result) :: !witnesses;
          if Metric.enabled () then
            Metric.inc
              (Tel.adversary_violations ~bound:(Oracle.bound_name bound)
                 ~kind:(Oracle.violation_kind_name kind)));
        Some result
      end
    end
  in
  let done_ () =
    !candidates >= budget || (stop_at_first && !witnesses <> [])
  in
  let exhausted = ref false in
  (match schedule with
  | Exhaustive ->
    let rec walk seq =
      if done_ () then ()
      else
        match Seq.uncons seq with
        | None -> exhausted := true
        | Some (strat, rest) ->
          ignore (eval strat);
          walk rest
    in
    walk (Strategy.enumerate ~n ~rounds_total ~max_nodes)
  | Random ->
    let rng = Csm_rng.create seed in
    (* bound draws, not just evaluations: a small space must not spin
       once every strategy has been seen *)
    let draws = ref 0 in
    while (not (done_ ())) && !draws < budget * 4 do
      incr draws;
      ignore (eval (Strategy.random rng ~n ~rounds_total ~max_nodes))
    done
  | Greedy ->
    let rng = Csm_rng.create seed in
    let scored = ref [] in
    let consider strat =
      match eval strat with
      | None -> ()
      | Some r -> scored := (r.Oracle.signal, strat) :: !scored
    in
    for _ = 1 to population do
      if not (done_ ()) then
        consider (Strategy.random rng ~n ~rounds_total ~max_nodes)
    done;
    let stalls = ref 0 in
    while (not (done_ ())) && !stalls < 8 do
      let before = !candidates in
      let ranked =
        List.stable_sort (fun (a, _) (b, _) -> Float.compare b a) !scored
      in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: tl -> x :: take (k - 1) tl
      in
      let elite = take elites ranked in
      List.iter
        (fun (_, strat) ->
          for _ = 1 to mutations_per_elite do
            if not (done_ ()) then
              consider (Strategy.mutate rng ~n ~rounds_total ~max_nodes strat)
          done)
        elite;
      (* keep exploring when mutation stops finding fresh candidates *)
      if not (done_ ()) then
        consider (Strategy.random rng ~n ~rounds_total ~max_nodes);
      if !candidates = before then incr stalls else stalls := 0
    done);
  {
    candidates = !candidates;
    witnesses = List.rev !witnesses;
    exhausted = !exhausted;
  }
