(* Greedy first-accepting shrink.  The move order encodes "simpler":
   dropping a whole node beats dropping a step beats simplifying an
   action beats flattening a schedule beats zeroing a seed — so the
   fixpoint is the structurally smallest strategy that still violates
   the oracle. *)

module Metric = Csm_obs.Metric
module Tel = Csm_obs.Telemetry

open Csm_core.Strategy

(* one-step-simpler variants of an action, preferred first *)
let simpler_actions = function
  | Silence [] -> []
  | Silence _ -> [ Silence [] ]
  | Shift 1 -> [ Silence [] ]
  | Shift _ -> [ Shift 1 ]
  | Coord { index = _; delta = 1 } -> [ Shift 1 ]
  | Coord { index; delta = _ } -> [ Coord { index; delta = 1 }; Shift 1 ]
  | Codeword { seed = 0 } -> [ Shift 1 ]
  | Codeword { seed = _ } -> [ Codeword { seed = 0 }; Shift 1 ]
  | Garbage { seed = 0 } -> [ Codeword { seed = 0 }; Shift 1 ]
  | Garbage { seed = _ } -> [ Garbage { seed = 0 } ]
  | Equivocate { seed = 0 } -> [ Garbage { seed = 0 } ]
  | Equivocate { seed = _ } -> [ Equivocate { seed = 0 } ]

let simpler_rounds = function
  | Always -> []
  | Only [ 0 ] -> [ Always ]
  | Only [ _ ] -> [ Only [ 0 ]; Always ]
  | Only (r :: _) -> [ Only [ r ] ]
  | Only [] -> []
  | From r -> [ Always; Only [ r ] ]
  | Until _ -> [ Always; Only [ 0 ] ]
  | Every { period = _; phase } -> [ Always; Only [ phase ] ]

let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l
let remove_nth l i = List.filteri (fun j _ -> j <> i) l

let candidates t =
  let plans = t.plans in
  let with_plans ps = make ps in
  let drop_plan =
    if List.length plans <= 1 then []
    else List.mapi (fun i _ -> with_plans (remove_nth plans i)) plans
  in
  let drop_step =
    List.concat
      (List.mapi
         (fun i p ->
           if List.length p.steps <= 1 then []
           else
             List.mapi
               (fun j _ ->
                 with_plans
                   (replace_nth plans i { p with steps = remove_nth p.steps j }))
               p.steps)
         plans)
  in
  let edit_step f =
    List.concat
      (List.mapi
         (fun i p ->
           List.concat
             (List.mapi
                (fun j s ->
                  List.map
                    (fun s' ->
                      with_plans
                        (replace_nth plans i
                           { p with steps = replace_nth p.steps j s' }))
                    (f s))
                p.steps))
         plans)
  in
  let simplify_act =
    edit_step (fun s ->
        List.map (fun act -> { s with act }) (simpler_actions s.act))
  in
  let simplify_rounds =
    edit_step (fun s ->
        List.map (fun rounds -> { s with rounds }) (simpler_rounds s.rounds))
  in
  drop_plan @ drop_step @ simplify_act @ simplify_rounds

let max_accepted = 64
let max_checks = 512

let shrink ~still_fails t =
  let checks = ref 0 in
  let steps = ref 0 in
  let current = ref t in
  let progress = ref true in
  while !progress && !steps < max_accepted && !checks < max_checks do
    progress := false;
    let key0 = key !current in
    let rec try_moves = function
      | [] -> ()
      | c :: rest ->
        if !checks >= max_checks then ()
        else if String.equal (key c) key0 then try_moves rest
        else begin
          incr checks;
          if still_fails c then begin
            current := c;
            incr steps;
            progress := true;
            if Metric.enabled () then Metric.inc Tel.adversary_shrink_steps
          end
          else try_moves rest
        end
    in
    try_moves (candidates !current)
  done;
  (!current, !steps)
