(* Straggler-tolerance experiment.

   CSM inherits the latency benefit of coded computing: a node can decode
   a round as soon as m_min = d(K−1) + 2b + 1 of the N results arrive —
   the remaining N − m_min responses are pure slack.  Replication-style
   execution must instead wait for specific responders.

   We run the simulated execution phase under a heavy-tailed latency
   distribution (base Δ plus an exponential-ish tail on a random subset
   of "straggler" links) and compare the honest decode-completion time
   with early decoding ON vs OFF, sweeping the straggler count. *)

module F = Csm_field.Fp.Default
module P = Csm_core.Protocol.Make (F)
module E = P.E
module M = E.M
module Params = Csm_core.Params
module Net = Csm_sim.Net

type point = {
  n : int;
  stragglers : int;  (* slow nodes this run *)
  slack : int;  (* N - m_min: stragglers CSM can ignore *)
  t_wait_all : float;  (* mean honest decode time, early_decode = false *)
  t_early : float;  (* mean honest decode time, early_decode = true *)
  correct : bool;  (* early decoding still produced correct results *)
}

(* Latency: Δ on fast links; straggler *senders* add a long tail. *)
let straggler_latency rng ~delta ~stragglers ~tail n : Net.latency =
  let slow = Array.make n false in
  Array.iter (fun i -> slow.(i) <- true) (Csm_rng.sample rng ~n ~k:stragglers);
  fun ~src ~dst:_ ~now:_ ->
    if slow.(src) then delta + 1 + Csm_rng.int rng tail else delta

let mean l =
  match l with
  | [] -> nan
  | _ -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let run_point ~seed ~n ~k ~d ~b ~stragglers ~tail =
  Csm_obs.Span.with_ ~name:"stragglers.point"
    ~attrs:
      [ ("n", string_of_int n); ("stragglers", string_of_int stragglers) ]
    (fun () ->
  let machine = M.degree_machine d in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let rng = Csm_rng.create seed in
  let init =
    Array.init k (fun _ ->
        Array.init machine.M.state_dim (fun _ -> F.random rng))
  in
  let commands =
    Array.init k (fun _ ->
        Array.init machine.M.input_dim (fun _ -> F.random rng))
  in
  let delta = 10 in
  let measure ~early =
    let engine = E.create ~machine ~params ~init in
    let cfg =
      { (P.default_config params) with P.delta = delta + tail + 2; early_decode = early }
      (* with early decode OFF the node must wait the worst-case bound,
         which under stragglers is delta + tail *)
    in
    let rng' = Csm_rng.create (seed + 7) in
    let latency = straggler_latency rng' ~delta ~stragglers ~tail n in
    let times = Array.make n max_int in
    let per_node =
      P.execution_phase ~latency_override:latency ~decode_times:times cfg
        engine ~round:0 ~commands Csm_core.Strategy.honest
    in
    let honest_times =
      List.filteri (fun i _ -> times.(i) < max_int) (Array.to_list times)
    in
    (if Csm_obs.Metric.enabled () then
       let h = Csm_obs.Telemetry.straggler_wait ~early in
       List.iter
         (fun t -> Csm_obs.Metric.observe h (float_of_int t))
         honest_times);
    let all_decoded = Array.for_all (fun d -> d <> None) per_node in
    (* verify correctness against the uncoded reference *)
    let next_ref, out_ref = M.run_fleet machine ~states:init ~commands in
    let correct =
      all_decoded
      && Array.for_all
           (function
             | Some (dec : E.decoded) ->
               let veq a b = Array.for_all2 F.equal a b in
               Array.for_all2 veq dec.E.next_states next_ref
               && Array.for_all2 veq dec.E.outputs out_ref
             | None -> false)
           per_node
    in
    (mean honest_times, correct)
  in
  let t_wait_all, ok1 = measure ~early:false in
  let t_early, ok2 = measure ~early:true in
  let engine = E.create ~machine ~params ~init in
  {
    n;
    stragglers;
    slack = n - E.min_results engine;
    t_wait_all;
    t_early;
    correct = ok1 && ok2;
  })

(* Sweep straggler counts through the slack and beyond it: within the
   slack early decoding completes at the fast-link latency; beyond it
   the decoder must wait for stragglers and the latency cliff appears
   (results stay correct throughout — only timing degrades). *)
let sweep ?(seed = 0x57A6) ?(n = 16) ?(k = 3) ?(d = 2) ?(b = 2) ?(tail = 200)
    () =
  let machine_slack = n - (Params.composite_degree ~k ~d + (2 * b) + 1) in
  let top = min (n - 1) (machine_slack + 3) in
  List.map
    (fun s -> run_point ~seed:(seed + s) ~n ~k ~d ~b ~stragglers:s ~tail)
    (List.init (top + 1) (fun i -> i))

let pp_point ppf p =
  Format.fprintf ppf
    "N=%-4d stragglers=%-3d (slack=%d)  wait-all=%-8.1f early=%-8.1f speedup=%.1fx correct=%b"
    p.n p.stragglers p.slack p.t_wait_all p.t_early
    (p.t_wait_all /. p.t_early)
    p.correct
