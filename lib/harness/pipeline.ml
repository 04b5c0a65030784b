(* Pipelining experiment (Section 2.2 remark).

   The paper's throughput metric ignores the consensus phase because
   "the consensus phase of later rounds can be performed in parallel
   with the execution phase of the current round".  We validate that
   modeling assumption: measure the simulated duration of each phase,
   then compare the makespan of R rounds executed sequentially
   (consensus_t ; execution_t ; consensus_{t+1} ; ...) against the
   two-stage pipeline (consensus_{t+1} ∥ execution_t), using the
   standard pipeline recurrence:

     finish_c(0)   = c₀
     finish_c(t)   = finish_c(t−1) + c_t          (consensus instances
                                                    serialized on their
                                                    own lane)
     start_e(t)    = max(finish_c(t), finish_e(t−1))
     finish_e(t)   = start_e(t) + e_t

   If execution dominates (e ≥ c), pipelined makespan → c₀ + Σ e_t and
   per-round throughput is execution-bound, which is exactly what the
   paper's λ measures. *)

module F = Csm_field.Fp.Default
module P = Csm_core.Protocol.Make (F)
module E = P.E
module M = E.M
module Params = Csm_core.Params
module DS = Csm_consensus.Dolev_strong
module Net = Csm_sim.Net

type result = {
  rounds : int;
  consensus_time : int;  (* per-round, simulated ticks *)
  execution_time : int;
  sequential_makespan : int;
  pipelined_makespan : int;
  speedup : float;
}

(* Measure one consensus instance's duration on the simulator. *)
let measure_consensus cfg =
  let p = cfg.P.params in
  let ds_cfg =
    {
      DS.n = p.Params.n;
      f = p.Params.b;
      leader = 0;
      delta = cfg.P.delta;
      instance = "pipeline-measure";
      keyring = cfg.P.keyring;
    }
  in
  let { DS.stats; _ } = DS.run ds_cfg ~proposal:"w" () in
  stats.Net.end_time

(* Measure one execution phase's duration (time of the last honest
   decode). *)
let measure_execution cfg engine ~commands =
  let n = cfg.P.params.Params.n in
  let times = Array.make n 0 in
  ignore
    (P.execution_phase ~decode_times:times cfg engine ~round:0 ~commands
       Csm_core.Strategy.honest);
  Array.fold_left max 0 times

let run ?(rounds = 10) ?(n = 11) ?(k = 3) ?(d = 2) ?(b = 2) () =
  let machine = M.degree_machine d in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let rng = Csm_rng.create 0x919E in
  let init =
    Array.init k (fun _ ->
        Array.init machine.M.state_dim (fun _ -> F.random rng))
  in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in
  let commands =
    Array.init k (fun _ ->
        Array.init machine.M.input_dim (fun _ -> F.random rng))
  in
  let c = measure_consensus cfg in
  let e = measure_execution cfg engine ~commands in
  let sequential = rounds * (c + e) in
  (* pipeline recurrence with constant per-round phases *)
  let finish_c = Array.make rounds 0 in
  let finish_e = Array.make rounds 0 in
  for t = 0 to rounds - 1 do
    finish_c.(t) <- (if t = 0 then c else finish_c.(t - 1) + c);
    let start_e =
      max finish_c.(t) (if t = 0 then 0 else finish_e.(t - 1))
    in
    finish_e.(t) <- start_e + e
  done;
  let pipelined = finish_e.(rounds - 1) in
  {
    rounds;
    consensus_time = c;
    execution_time = e;
    sequential_makespan = sequential;
    pipelined_makespan = pipelined;
    speedup = float_of_int sequential /. float_of_int pipelined;
  }

let pp ppf r =
  Format.fprintf ppf
    "rounds=%d  consensus=%d ticks  execution=%d ticks  sequential=%d  pipelined=%d  speedup=%.2fx"
    r.rounds r.consensus_time r.execution_time r.sequential_makespan
    r.pipelined_makespan r.speedup
