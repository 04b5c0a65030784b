(* The full networked CSM protocol (Figure 1): consensus phase + coded
   execution phase over the discrete-event simulator, with client-side
   output delivery.

   Synchronous rounds:
     1. consensus on the round's command vector via Dolev–Strong signed
        broadcast, leader rotating per round (a Byzantine leader can at
        worst force ⊥, skipping its round);
     2. every node computes gᵢ on its coded state and broadcasts it;
        Byzantine nodes may send different corrupted vectors to
        different peers (equivocation) or withhold;
     3. after Δ each node decodes the N results (up to b wrong) and
        sends each machine's output to the submitting client;
     4. a client accepts an output on b+1 matching responses.

   Partially synchronous rounds use PBFT for consensus, and a node
   starts decoding as soon as N − b results have arrived (it cannot
   distinguish a withholding fault from a slow link). *)

module Field_intf = Csm_field.Field_intf
module Net = Csm_sim.Net
module Auth = Csm_crypto.Auth
module DS = Csm_consensus.Dolev_strong
module Pbft = Csm_consensus.Pbft
module Pool = Csm_parallel.Pool
module Scope = Csm_metrics.Scope
module Span = Csm_obs.Span
module Metric = Csm_obs.Metric
module Tel = Csm_obs.Telemetry
module Event = Csm_obs.Event

module Make (F : Field_intf.S) = struct
  module E = Engine.Make (F)
  module W = Wire.Make (F)

  type config = {
    params : Params.t;
    delta : int;  (* synchronous bound *)
    keyring : Auth.keyring;
    pbft_base_timeout : int;
    gst : int;  (* partial sync: global stabilization time *)
    pre_gst_delay : int;  (* adversarial delay before GST *)
    early_decode : bool;
        (* sync mode: decode as soon as d(K-1)+2b+1 results arrive
           instead of waiting the full Δ — the straggler-tolerance win
           of coded computing *)
  }

  let default_config params =
    {
      params;
      delta = 10;
      keyring = Auth.create_keyring (Csm_rng.create 0xC0DE) ~n:params.Params.n;
      pbft_base_timeout = 2000;
      gst = 0;
      pre_gst_delay = 0;
      early_decode = false;
    }

  (* The phase rule, stated once.  A node is Byzantine when the
     strategy gives it a plan; its plan's active step decides what it
     does in a round ([None]: it follows the protocol that round).
     - Dolev–Strong consensus: a Byzantine leader whose action is
       anything but [Silence] equivocates; every other Byzantine node is
       silent.
     - PBFT consensus: Byzantine nodes are silent.
     - Execution: each destination gets {!E.corrupt_result}'s vector.
     - Client delivery: each per-machine output goes through the same
       interpreter, the client being observer [n] (the cluster's client
       endpoint); a silence toward it withholds the output. *)
  let byzantine adv i = List.mem i (Strategy.byz_nodes adv)

  (* What Byzantine node [node] sends [observer] in [round] in place of
     its correct vector [v]. *)
  let sent engine adv ~node ~round ~observer v =
    match Strategy.action_at adv ~node ~round with
    | None -> Some v
    | Some act -> E.corrupt_result engine act ~node ~round ~observer v

  (* ----- Consensus phase ----- *)

  type consensus_outcome =
    | Agreed of F.t array array
    | Skipped  (* honest nodes agreed on ⊥ *)
    | Disagreement  (* protocol violation: honest nodes split *)

  (* The honest nodes' common decision [s].  Validity (Section 2.1):
     honest nodes accept only proposals drawn from commands actually
     submitted by clients; a fabricated proposal is consistently
     rejected and the round skipped. *)
  let agreed ~validate p ~commands s =
    let dim = match commands with [||] -> 0 | _ -> Array.length commands.(0) in
    if not (validate s) then Skipped
    else
      match W.decode_commands ~k:p.Params.k ~dim s with
      | Some cmds -> Agreed cmds
      | None -> Skipped

  let consensus_sync ?(validate = fun _ -> true) cfg ~round ~leader ~commands
      adv =
    let p = cfg.params in
    let ds_cfg =
      {
        DS.n = p.Params.n;
        f = p.Params.b;
        leader;
        delta = cfg.delta;
        instance = Printf.sprintf "csm-round-%d" round;
        keyring = cfg.keyring;
      }
    in
    let proposal = W.encode_commands commands in
    let byz i =
      if not (byzantine adv i) then None
      else
        match Strategy.action_at adv ~node:i ~round with
        | Some (Strategy.Silence _) | None -> Some Net.silent
        | Some _ when i = leader ->
          (* propose two different command vectors *)
          let alt =
            Array.map (Array.map (fun v -> F.add v F.one)) commands
          in
          Some
            (DS.equivocating_leader ds_cfg ~me:i ~value_a:proposal
               ~value_b:(W.encode_commands alt))
        | Some _ -> Some Net.silent
    in
    let { DS.decisions; _ } = DS.run ds_cfg ~proposal ~byzantine:byz () in
    let honest =
      List.filter_map
        (fun i -> if byzantine adv i then None else Some decisions.(i))
        (List.init p.Params.n (fun i -> i))
    in
    match honest with
    | [] -> Skipped
    | first :: rest ->
      if not (List.for_all (DS.decision_eq first) rest) then Disagreement
      else begin
        match first with
        | DS.Bot -> Skipped
        | DS.Decided s -> agreed ~validate p ~commands s
      end

  let consensus_partial_sync ?(validate = fun _ -> true) cfg ~round ~commands
      adv =
    let p = cfg.params in
    let pbft_cfg =
      {
        Pbft.n = p.Params.n;
        f = p.Params.b;
        base_timeout = cfg.pbft_base_timeout;
        instance = Printf.sprintf "csm-round-%d" round;
        keyring = cfg.keyring;
      }
    in
    let proposal = W.encode_commands commands in
    let latency =
      Net.partial_sync ~gst:cfg.gst ~delta:cfg.delta
        ~pre:(fun ~src:_ ~dst:_ ~now:_ -> cfg.pre_gst_delay)
    in
    let { Pbft.decisions; _ } =
      Pbft.run pbft_cfg
        ~proposals:(fun _ -> Some proposal)
        ~byzantine:(fun i ->
          if byzantine adv i then Some Net.silent else None)
        ~latency ~max_time:5_000_000 ()
    in
    let honest =
      List.filter_map
        (fun i -> if byzantine adv i then None else decisions.(i))
        (List.init p.Params.n (fun i -> i))
    in
    match honest with
    | [] -> Skipped
    | first :: rest ->
      if not (List.for_all (fun d -> String.equal d first) rest) then
        Disagreement
      else agreed ~validate p ~commands first

  (* ----- Execution phase ----- *)

  type exec_msg = Result of F.t array

  (* Run the execution phase on the simulator.  Returns per-honest-node
     decoded results (which must agree) and the raw per-node messages the
     clients would receive.  Optionally records each honest node's decode
     completion time into [decode_times]. *)
  let execution_phase ?(scope = Scope.null)
      ?(latency_override : Net.latency option)
      ?(decode_times : int array option) cfg (engine : E.t) ~round ~commands
      adv =
    Span.with_ ~ops:scope.Scope.ops ~name:"exec.phase" (fun () ->
    let p = cfg.params in
    let n = p.Params.n and b = p.Params.b in
    let decoded : E.decoded option array = Array.make n None in
    let decode_attempted = Array.make n false in
    let sync = p.Params.network = Params.Sync in
    let threshold =
      if not sync then n - b
      else if cfg.early_decode then E.min_results engine
      else n
    in
    (* Steps 1–2 of every node (encode the agreed commands, run the step
       function on the coded state) are independent of the network
       schedule, so compute them up front across the domain pool; the
       simulated init hooks then just read their slot.  Honest and
       Byzantine nodes compute the same gᵢ — the adversary corrupts
       per-destination messages, not the computation. *)
    let coded_commands =
      Span.with_ ~ops:scope.Scope.ops ~name:"exec.encode" (fun () ->
          Pool.parallel_init n (fun i ->
              E.node_encode_command ~scope engine ~node:i ~commands))
    in
    let computed =
      Span.with_ ~ops:scope.Scope.ops ~name:"exec.compute" (fun () ->
          Pool.parallel_init n (fun i ->
              E.node_compute ~scope engine ~node:i
                ~coded_command:coded_commands.(i)))
    in
    let behaviors =
      Array.init n (fun i ->
          let received : (int * F.t array) list ref = ref [] in
          let my_g = ref [||] in
          let try_decode now =
            if not decode_attempted.(i) then begin
              decode_attempted.(i) <- true;
              (* the engine's default decoder (optimistic fast path), the
                 same one the socket runtime's nodes run *)
              decoded.(i) <- E.decode_results ~scope engine !received;
              match decode_times with
              | Some times -> times.(i) <- now
              | None -> ()
            end
          in
          if byzantine adv i then
            {
              Net.init =
                (fun api ->
                  let g = computed.(i) in
                  for dst = 0 to n - 1 do
                    if dst <> i then
                      match sent engine adv ~node:i ~round ~observer:dst g with
                      | Some g' -> api.Net.send dst (Result g')
                      | None -> ()
                  done);
              on_message = (fun _ ~sender:_ _ -> ());
              on_timer = (fun _ _ -> ());
            }
          else
            {
              Net.init =
                (fun api ->
                  let g = computed.(i) in
                  my_g := g;
                  received := [ (i, g) ];
                  api.Net.broadcast (Result g);
                  if sync then
                    api.Net.set_timer ~delay:(cfg.delta + 1) ~tag:0);
              on_message =
                (fun api ~sender (Result g) ->
                  if not (List.mem_assoc sender !received) then begin
                    received := (sender, g) :: !received;
                    if
                      ((not sync) || cfg.early_decode)
                      && List.length !received >= threshold
                    then try_decode (api.Net.now ())
                  end);
              on_timer =
                (fun api tag -> if tag = 0 then try_decode (api.Net.now ()));
            })
    in
    let latency =
      match latency_override with
      | Some l -> l
      | None ->
        if sync then Net.sync ~delta:cfg.delta
        else
          Net.partial_sync ~gst:cfg.gst ~delta:cfg.delta
            ~pre:(fun ~src:_ ~dst:_ ~now:_ -> cfg.pre_gst_delay)
    in
    let stats =
      Span.with_ ~ops:scope.Scope.ops ~name:"exec.deliver" (fun () ->
          Net.run ~latency
            (* real wire bytes: a Result frame carrying the binary
               vector encoding of gᵢ — the socket transport sends
               exactly this many bytes *)
            ~size:(fun (Result g) ->
              Csm_wire.Frame.encoded_size
                ~payload_bytes:(W.vector_bytes ~dim:(Array.length g)))
            behaviors)
    in
    Tel.record_per_node ~layer:"execution" ~sent:stats.Net.sent_by
      ~received:stats.Net.received_by ~bytes_sent:stats.Net.bytes_sent_by
      ~bytes_received:stats.Net.bytes_received_by;
    decoded)

  (* Client vote: first value with ≥ threshold matches. *)
  let vote ~threshold responses =
    let eq a b =
      Array.length a = Array.length b
      && (let ok = ref true in
          Array.iteri (fun i x -> if not (F.equal x b.(i)) then ok := false) a;
          !ok)
    in
    let rec go groups = function
      | [] -> None
      | r :: rest -> (
        let groups =
          match List.find_opt (fun (v, _) -> eq v r) groups with
          | Some (v, c) ->
            (v, c + 1) :: List.filter (fun (v', _) -> not (eq v' v)) groups
          | None -> (r, 1) :: groups
        in
        match List.find_opt (fun (_, c) -> c >= threshold) groups with
        | Some (v, _) -> Some v
        | None -> go groups rest)
    in
    go [] responses

  type round_outcome = {
    round : int;
    consensus : consensus_outcome;
    executed : bool;  (* decoding succeeded at the honest nodes *)
    honest_agree : bool;  (* all honest decoders produced identical results *)
    decoded : E.decoded option;
    delivered : F.t array option array;  (* per-machine client decisions *)
  }

  (* Round-level health signals: outcome counters, the per-node
     suspicion gauge fed by the decoder's error locations (counted once
     per round, from the honest nodes' agreed decode — not once per
     decoder, which would multiply by n − b), and warn/error events for
     anomalous rounds. *)
  let record_round_outcome (o : round_outcome) =
    if Metric.enabled () then begin
      let result =
        match o.consensus with
        | Disagreement -> "disagreement"
        | Skipped -> "skipped"
        | Agreed _ -> if o.executed then "executed" else "decode_failed"
      in
      Metric.inc (Tel.rounds_total ~result);
      match o.decoded with
      | Some d ->
        List.iter
          (fun node ->
            Metric.inc (Tel.decode_errors ~node);
            Metric.add (Tel.node_suspicion ~node) 1.0)
          d.E.error_nodes
      | None -> ()
    end;
    let round_attr = ("round", string_of_int o.round) in
    (match o.consensus with
    | Disagreement ->
      Event.emit ~attrs:[ round_attr ] Event.Error "consensus.disagreement"
    | Skipped -> Event.emit ~attrs:[ round_attr ] Event.Warn "round.skipped"
    | Agreed _ ->
      if not o.executed then
        Event.emit ~attrs:[ round_attr ] Event.Error "round.decode_failed"
      else begin
        if not o.honest_agree then
          Event.emit ~attrs:[ round_attr ] Event.Error "round.honest_split";
        match o.decoded with
        | Some d when d.E.error_nodes <> [] ->
          Event.emit
            ~attrs:
              [
                round_attr;
                ( "nodes",
                  String.concat ","
                    (List.map string_of_int d.E.error_nodes) );
              ]
            Event.Warn "decode.errors_corrected"
        | _ -> Event.emit ~attrs:[ round_attr ] Event.Debug "round.executed"
      end)

  let run_round ?(scope = Scope.null) ?validate cfg (engine : E.t) ~round
      ~commands adv : round_outcome =
    let outcome =
      Metric.time Tel.round_latency (fun () ->
    Span.with_ ~ops:scope.Scope.ops
      ~attrs:[ ("round", string_of_int round) ]
      ~name:"protocol.round"
      (fun () ->
    let p = cfg.params in
    let n = p.Params.n and b = p.Params.b in
    let leader = round mod n in
    let consensus =
      match p.Params.network with
      | Params.Sync ->
        Span.with_ ~name:"consensus.dolev_strong" (fun () ->
            consensus_sync ?validate cfg ~round ~leader ~commands adv)
      | Params.Partial_sync ->
        Span.with_ ~name:"consensus.pbft" (fun () ->
            consensus_partial_sync ?validate cfg ~round ~commands adv)
    in
    match consensus with
    | Skipped | Disagreement ->
      {
        round;
        consensus;
        executed = false;
        honest_agree = true;
        decoded = None;
        delivered = Array.make p.Params.k None;
      }
    | Agreed commands ->
      let per_node = execution_phase ~scope cfg engine ~round ~commands adv in
      (* all honest nodes must decode identically *)
      let honest_results =
        List.filter_map
          (fun i -> if byzantine adv i then None else per_node.(i))
          (List.init n (fun i -> i))
      in
      let equal_decoded (a : E.decoded) (b : E.decoded) =
        let veq x y =
          Array.for_all2 (fun u v -> F.equal u v) x y
        in
        Array.for_all2 veq a.E.next_states b.E.next_states
        && Array.for_all2 veq a.E.outputs b.E.outputs
      in
      let honest_agree =
        match honest_results with
        | [] -> true
        | first :: rest -> List.for_all (equal_decoded first) rest
      in
      let decoded =
        match honest_results with first :: _ -> Some first | [] -> None
      in
      (match decoded with
      | Some d ->
        (* every node updates its coded state from the decoded states *)
        Span.with_ ~ops:scope.Scope.ops ~name:"exec.reencode" (fun () ->
            for i = 0 to n - 1 do
              E.node_update_state ~scope engine ~node:i
                ~next_states:d.E.next_states
            done);
        engine.E.round_index <- engine.E.round_index + 1
      | None -> ());
      (* client delivery: each node sends Ŷ_k; byz nodes lie or
         withhold *)
      let delivered =
        match decoded with
        | None -> Array.make p.Params.k None
        | Some d ->
          Array.init p.Params.k (fun m ->
              let responses =
                List.filter_map
                  (fun i ->
                    if byzantine adv i then
                      sent engine adv ~node:i ~round ~observer:n
                        d.E.outputs.(m)
                    else Some d.E.outputs.(m))
                  (List.init n (fun i -> i))
              in
              vote ~threshold:(b + 1) responses)
      in
      {
        round;
        consensus;
        executed = decoded <> None;
        honest_agree;
        decoded;
        delivered;
      }))
    in
    record_round_outcome outcome;
    outcome

  let run ?(scope = Scope.null) ?progress cfg engine ~workload ~rounds adv =
    List.init rounds (fun r ->
        let commands = workload r in
        let outcome = run_round ~scope cfg engine ~round:r ~commands adv in
        (match progress with Some f -> f outcome | None -> ());
        outcome)

  (* ----- Client layer: submission pools, validity, liveness -----

     Clients broadcast their commands to every node (Section 2.1), so
     all honest nodes share a consistent view of the per-machine command
     pools.  Each round the leader proposes the pool heads (a zero
     "noop" for empty pools); honest nodes validate the agreed proposal
     against the pool — the Validity property — and executed commands
     are dequeued and their outputs attributed to the submitting
     client. *)

  type submission = { client : int; command : F.t array }

  type delivery = {
    d_round : int;
    d_machine : int;
    d_client : int;  (* -1 for noop rounds *)
    d_output : F.t array option;  (* the voted client decision *)
  }

  type client_run = {
    outcomes : round_outcome list;
    deliveries : delivery list;
    leftover : int;  (* submissions still queued at the end *)
  }

  let noop_command dim = Array.make dim F.zero

  let run_with_clients ?(scope = Scope.null) cfg (engine : E.t)
      ~(submissions : int -> submission list array) ~rounds adv : client_run =
    let p = cfg.params in
    let k = p.Params.k in
    let dim = engine.E.machine.E.M.input_dim in
    let pools : submission Queue.t array = Array.init k (fun _ -> Queue.create ()) in
    let deliveries = ref [] in
    let outcomes = ref [] in
    for r = 0 to rounds - 1 do
      (* clients submit (broadcast) this round's commands *)
      let incoming = submissions r in
      if Array.length incoming <> k then
        invalid_arg "run_with_clients: submissions arity";
      Array.iteri
        (fun m subs -> List.iter (fun s -> Queue.push s pools.(m)) subs)
        incoming;
      (* the proposal: pool heads (noop for empty pools) *)
      let heads =
        Array.init k (fun m ->
            if Queue.is_empty pools.(m) then None else Some (Queue.peek pools.(m)))
      in
      let commands =
        Array.map
          (function Some s -> s.command | None -> noop_command dim)
          heads
      in
      (* validity: the agreed value must be exactly the pool heads *)
      let expected = W.encode_commands commands in
      let validate s = String.equal s expected in
      let outcome = run_round ~scope ~validate cfg engine ~round:r ~commands adv in
      outcomes := outcome :: !outcomes;
      if outcome.executed then begin
        (* dequeue executed commands, attribute outputs to clients *)
        Array.iteri
          (fun m head ->
            let client =
              match head with
              | Some s ->
                ignore (Queue.pop pools.(m));
                s.client
              | None -> -1
            in
            deliveries :=
              {
                d_round = r;
                d_machine = m;
                d_client = client;
                d_output = outcome.delivered.(m);
              }
              :: !deliveries)
          heads
      end
    done;
    {
      outcomes = List.rev !outcomes;
      deliveries = List.rev !deliveries;
      leftover = Array.fold_left (fun acc q -> acc + Queue.length q) 0 pools;
    }
end
