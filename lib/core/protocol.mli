(** The full networked CSM protocol: consensus phase (Dolev–Strong or
    PBFT) + coded execution phase over the simulator, with client-side
    output delivery (Figure 1 / Section 2.1 of the paper).  Execution is
    the {!Replica} core the socket runtime runs, driven here by
    [Csm_sim.Net] ({!replica}); delivery is {!Replica.vote}.

    The adversary is a {!Strategy.t}.  A node with a plan is Byzantine,
    and its plan's active step in a round acts in every phase: a
    Dolev–Strong leader with any non-[Silence] action equivocates (every
    other Byzantine node is silent in consensus, and all are under
    PBFT); in execution each destination receives
    {!Engine.Make.corrupt_result}'s vector; at client delivery each
    per-machine output goes through the same interpreter with the client
    as observer [n], so a silence toward it withholds the output. *)

module Field_intf = Csm_field.Field_intf
module Auth = Csm_crypto.Auth

module Make (F : Field_intf.S) : sig
  module E : module type of Engine.Make (F)
  module W : module type of Wire.Make (F)

  type config = {
    params : Params.t;
    delta : int;
    keyring : Auth.keyring;
    pbft_base_timeout : int;
    gst : int;
    pre_gst_delay : int;
    early_decode : bool;
        (** sync mode: decode at d(K−1)+2b+1 results instead of waiting Δ
            (straggler tolerance) *)
  }

  val default_config : Params.t -> config

  type consensus_outcome =
    | Agreed of F.t array array
    | Skipped
    | Disagreement

  type sim_msg = int * F.t Replica.msg  (** (round, message) *)

  val size : F.t Replica.msg -> int
  (** The simulator's sizer: the wire size of the frame a node sends
      for the message, so simulated byte counts equal socket bytes. *)

  val replica :
    ?scope:Csm_metrics.Scope.t ->
    ?agreed:F.t array ->
    ?timer:int ->
    E.t ->
    node:int ->
    quorum:int option ->
    round:int ->
    finish:(sim_msg Csm_sim.Net.api -> round:int -> E.decoded option -> unit) ->
    sim_msg Csm_sim.Net.behavior
  (** Node [node] as a [Net] behaviour around its {!Replica} core
      ([quorum] as in {!Replica.Make.create}).  [agreed] starts [round]
      from gᵢ computed on agreed commands, else it waits for a
      [Command]; [timer] arms a Timeout that many ticks after init.
      Sends go to peers 0..n−1, one [api.send] each.  A round's end
      hands its decode ([None]: failed) to [finish], then the core
      moves on. *)

  val execution_phase :
    ?scope:Csm_metrics.Scope.t ->
    ?latency_override:Csm_sim.Net.latency ->
    ?decode_times:int array ->
    config ->
    E.t ->
    round:int ->
    commands:F.t array array ->
    Strategy.t ->
    E.decoded option array
  (** Per-node decode results after the simulated execution phase
      (Byzantine slots are [None]); [round] selects the strategy's
      active steps.  Honest nodes run {!replica}, decoding at N − b
      results (partial sync), at the Δ+1 timer (sync) or at
      {!E.min_results} ([early_decode]).  [decode_times.(i)] receives
      the simulation time at which honest node [i] decoded.  When tracing is enabled the phase emits
      "exec.phase" with "exec.encode", "exec.compute" and
      "exec.deliver" sub-spans. *)

  type round_outcome = {
    round : int;
    consensus : consensus_outcome;
    executed : bool;
    honest_agree : bool;
    decoded : E.decoded option;
    delivered : F.t array option array;
  }

  val run_round :
    ?scope:Csm_metrics.Scope.t ->
    ?validate:(string -> bool) ->
    config ->
    E.t ->
    round:int ->
    commands:F.t array array ->
    Strategy.t ->
    round_outcome
  (** [validate] is applied by honest nodes to the agreed wire value
      (the Validity property); rejection skips the round consistently. *)

  val run :
    ?scope:Csm_metrics.Scope.t ->
    ?progress:(round_outcome -> unit) ->
    config ->
    E.t ->
    workload:(int -> F.t array array) ->
    rounds:int ->
    Strategy.t ->
    round_outcome list
  (** [progress] is invoked after each round completes (live tickers /
      logging); it does not affect the protocol. *)

  type submission = { client : int; command : F.t array }

  type delivery = {
    d_round : int;
    d_machine : int;
    d_client : int;  (** -1 for noop slots *)
    d_output : F.t array option;
  }

  type client_run = {
    outcomes : round_outcome list;
    deliveries : delivery list;
    leftover : int;
  }

  val noop_command : int -> F.t array

  val run_with_clients :
    ?scope:Csm_metrics.Scope.t ->
    config ->
    E.t ->
    submissions:(int -> submission list array) ->
    rounds:int ->
    Strategy.t ->
    client_run
  (** Full client layer: per-round per-machine submissions enter shared
      pools; leaders propose pool heads; honest nodes enforce Validity;
      executed commands are dequeued with outputs attributed to their
      submitting clients. *)
end
