(* The per-process CSM node runtime: a transport driver around the
   {!Csm_core.Replica} core.  It holds the node's coded state S̃ᵢ in a
   local engine, validates every inbound frame with the total binary
   decoders (a malformed one counts one frame error and is dropped,
   never raised), feeds the valid ones to the core, and turns the
   core's outputs into frames: Commit and Result to the peers, Output
   (decoded Ŷ then Ŝ) to the client, endpoint [n].  Each stage waits
   in [recv] for at most the [deadline], then feeds the core a
   Timeout, so silent peers cannot stall a round; the core's window
   rule keeps at most two live round slots.

   The runtime's own faults ([Drop]/[Delay]/[Corrupt]) apply to the
   frames it *sends* — that is how the cluster driver turns a node
   Byzantine at the transport layer. *)

module Field_intf = Csm_field.Field_intf
module Frame = Csm_wire.Frame
module Params = Csm_core.Params
module Replica = Csm_core.Replica
module Clock = Csm_obs.Clock
module Flight = Csm_obs.Flight
module Agg = Csm_obs.Agg
module Span = Csm_obs.Span
module Metric = Csm_obs.Metric
module Tel = Csm_obs.Telemetry
module Event = Csm_obs.Event

type lie_spec = {
  l_offset : int;
  l_coord : int option;
  l_period : int;
  l_from : int;
}

let lie_default = { l_offset = 1; l_coord = None; l_period = 1; l_from = 0 }

let lie_spec_eq (a : lie_spec) b = a = b

let lie_active l ~round =
  round >= l.l_from && (round - l.l_from) mod max 1 l.l_period = 0

(* The lie as an adversary action, for [Engine.corrupt_result]. *)
let lie_action l =
  match l.l_coord with
  | None -> Csm_core.Strategy.Shift l.l_offset
  | Some c -> Csm_core.Strategy.Coord { index = c; delta = l.l_offset }

type fault =
  | Honest
  | Drop  (** withhold every protocol frame *)
  | Delay of float  (** send protocol frames late by this many seconds *)
  | Corrupt  (** mangle every protocol payload (detectably malformed) *)
  | Lie of lie_spec
      (** ship a well-formed but wrong Result vector — the undetectable-
          at-intake Byzantine case only the Reed–Solomon decode catches
          (and attributes, feeding the suspicion gauge); the spec
          parameterizes the perturbation (offset, optional single
          coordinate) and its round schedule (period/first round) *)

let fault_name = function
  | Honest -> "honest"
  | Drop -> "drop"
  | Delay _ -> "delay"
  | Corrupt -> "corrupt"
  | Lie l when lie_spec_eq l lie_default -> "lie"
  | Lie l ->
    Printf.sprintf "lie(o=%d,c=%s,p=%d,f=%d)" l.l_offset
      (match l.l_coord with None -> "*" | Some c -> string_of_int c)
      l.l_period l.l_from

(* Sent by a [Drop] node: nothing.  A [Corrupt] node's frames arrive but
   fail payload validation, so they add to frame errors, not to the
   protocol state.  [Delay] frames arrive late but intact; a [Lie]
   node's frames validate everywhere — only the decode unmasks them. *)
let delivers = function
  | Honest | Delay _ | Lie _ -> true
  | Drop | Corrupt -> false

let delivering ~n faults =
  let count = ref 0 in
  for i = 0 to n - 1 do
    match List.assoc_opt i faults with
    | Some f when not (delivers f) -> ()
    | _ -> incr count
  done;
  !count

(* Trace mode: promote an outbound frame to wire v2 carrying [trace]
   and a fresh HLC send stamp. *)
let stamp ~trace frame =
  {
    frame with
    Frame.version = Frame.ext_version;
    ext = Some { Frame.trace_id = trace; hlc = Clock.to_wire (Clock.now ()) };
  }

let record_send flight ~trace ~dst (frame : Frame.t) =
  let hlc, trace =
    match frame.Frame.ext with
    | Some e -> (Clock.of_wire e.Frame.hlc, e.Frame.trace_id)
    | None -> (Clock.now (), trace)
  in
  Flight.record flight ~trace
    ~attrs:
      [ ("dst", string_of_int dst); ("frame", Frame.kind_name frame.Frame.kind) ]
    ~hlc ~round:frame.Frame.round "send"

(* The HLC receive rule: fold the sender's stamp in before anything
   else, so the local clock is causally after the send.  Returns the
   receive stamp and the frame's trace id. *)
let observe (fr : Frame.t) =
  match fr.Frame.ext with
  | Some e -> (Clock.observe (Clock.of_wire e.Frame.hlc), e.Frame.trace_id)
  | None -> (Clock.now (), 0L)

let record_recv flight ~hlc ~trace ?reason ~round (fr : Frame.t) event =
  Flight.record flight ~trace
    ~attrs:
      (("src", string_of_int fr.Frame.sender)
      :: ("frame", Frame.kind_name fr.Frame.kind)
      :: Option.to_list (Option.map (fun r -> ("reason", r)) reason))
    ~hlc ~round event

module Make (F : Field_intf.S) = struct
  module W = Csm_core.Wire.Make (F)
  module R = Replica.Make (F)
  module E = R.E
  module M = E.M

  (* Field meanings: node.mli. *)
  type config = {
    node : int;
    params : Params.t;
    machine : M.t;
    init : F.t array array;
    rounds : int;
    fault : fault;
    faults : (int * fault) list;
    deadline : float;
    trace : bool;
    telemetry : bool;
    stream : float option;
    scope : Agg.scope;
  }

  (* Mangle a payload so every total decoder rejects it: flip a byte and
     drop the last one — the fixed-width decoders check exact length,
     the self-describing ones check exact consumption. *)
  let corrupt_payload p =
    if String.length p = 0 then "\x00"
    else begin
      let b = Bytes.of_string (String.sub p 0 (String.length p - 1)) in
      if Bytes.length b > 0 then
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      Bytes.to_string b
    end

  (* The frame carrying a core message. *)
  let frame ~sender ~round m =
    let kind =
      match m with
      | Replica.Command _ -> Frame.Command
      | Replica.Commit _ -> Frame.Commit
      | Replica.Result _ -> Frame.Result
      | Replica.Output _ -> Frame.Output
    in
    Frame.make ~kind ~sender ~round (R.payload m)

  type inbox = {
    engine : E.t;  (* the node's coded state S̃ᵢ *)
    core : R.t;  (* the round's protocol state *)
    traces : (int, int64) Hashtbl.t;
        (* live round → causal trace id, adopted from the round's first
           valid extended frame (the client's Command); a round's entry
           goes when the round ends *)
    flight : Flight.t;  (* this node's always-on black box *)
    mutable shutdown : bool;
    (* streaming-delta emitter state (config.stream = Some _) *)
    mutable st_seq : int;  (* deltas emitted so far *)
    mutable st_next : float;  (* wall time the next delta is due *)
    mutable st_last_event : int;  (* newest event seq already shipped *)
    st_sent : (string, Metric.view) Hashtbl.t;
        (* family name → view as last shipped, for changed-family
           detection (views are immutable snapshots; structural
           equality is exact) *)
  }

  let make_inbox cfg =
    let engine =
      E.create ~machine:cfg.machine ~params:cfg.params ~init:cfg.init
    in
    (* the quorum: nodes whose protocol frames will actually arrive
       (and validate), this one included *)
    let quorum = Some (delivering ~n:cfg.params.Params.n cfg.faults) in
    {
      engine;
      core = R.create engine ~node:cfg.node ~quorum ~round:0;
      traces = Hashtbl.create 2;
      flight = Flight.create ~node:cfg.node ();
      shutdown = false;
      st_seq = 0;
      st_next = 0.0;
      st_last_event = 0;
      st_sent = Hashtbl.create 32;
    }

  let trace_of inbox round =
    Option.value ~default:0L (Hashtbl.find_opt inbox.traces round)

  let stamp cfg inbox frame =
    if cfg.trace then stamp ~trace:(trace_of inbox frame.Frame.round) frame
    else frame

  (* Send one protocol frame to every peer or to the client under the
     node's own fault: a [Drop] node withholds, a [Corrupt] one mangles
     the payload, a [Delay] one sleeps once per broadcast, so every
     frame leaves the delay late.  A [Lie] node's machinery is honest —
     its lie is in the Result payload itself ([act]). *)
  let send_protocol cfg inbox (tr : Transport.t) ~dst frame =
    let frame =
      match cfg.fault with
      | Corrupt ->
        { frame with Frame.payload = corrupt_payload frame.Frame.payload }
      | _ -> frame
    in
    let send dst =
      let frame = stamp cfg inbox frame in
      record_send inbox.flight ~trace:(trace_of inbox frame.Frame.round) ~dst
        frame;
      tr.Transport.send ~dst frame
    in
    let n = cfg.params.Params.n in
    (match cfg.fault with Delay t -> Thread.delay t | _ -> ());
    match (cfg.fault, dst) with
    | Drop, _ -> ()
    | _, `Client -> send n
    | _, `Peers ->
      for j = 0 to n - 1 do
        if j <> cfg.node then send j
      done

  (* In-flight telemetry: at most every [interval] seconds, ship a
     csm-node-telemetry/2 delta straight to the client.  Values are
     cumulative and frames carry a per-source sequence number, so the
     client's merge is idempotent — a duplicated, reordered or lost
     frame can never corrupt the live aggregates.  Non-full frames
     carry only the families that changed since the last emission; a
     full registry snapshot goes out first and every tenth emission so
     a late-joining scraper converges.  Like Stats, these are control
     frames exempt from the node's fault — the live view needs even a
     Byzantine node's health (the client validates the contents,
     totally). *)
  let maybe_stream cfg (tr : Transport.t) inbox =
    match cfg.stream with
    | None -> ()
    | Some interval ->
      let now = Unix.gettimeofday () in
      if now >= inbox.st_next then begin
        inbox.st_next <- now +. interval;
        if Metric.enabled () then begin
          Tel.sample_runtime ();
          Metric.set
            (Tel.hlc_skew ~node:cfg.node)
            (Clock.skew_seconds (Clock.peek ()))
        end;
        let seq = inbox.st_seq + 1 in
        inbox.st_seq <- seq;
        let full = seq = 1 || seq mod 10 = 0 in
        let families = Metric.families () in
        let views =
          if full then families
          else
            List.filter
              (fun (v : Metric.view) ->
                match Hashtbl.find_opt inbox.st_sent v.Metric.name with
                | Some prev -> prev <> v
                | None -> true)
              families
        in
        List.iter
          (fun (v : Metric.view) ->
            Hashtbl.replace inbox.st_sent v.Metric.name v)
          views;
        let events = Event.since inbox.st_last_event in
        List.iter
          (fun (e : Event.t) ->
            if e.Event.seq > inbox.st_last_event then
              inbox.st_last_event <- e.Event.seq)
          events;
        tr.Transport.send ~dst:cfg.params.Params.n
          (stamp cfg inbox
             (Frame.make ~kind:Frame.Telemetry ~sender:cfg.node ~round:seq
                (Agg.delta_payload ~node:cfg.node ~scope:cfg.scope ~seq ~full
                   ~views ~events ())))
      end

  (* An adversary-chosen round number keys the core's slots: left
     unvalidated, a forged stream of distinct rounds grows protocol
     state without bound.  Rounds are dense — 0..rounds-1 for protocol
     frames, with [rounds] itself serving as the shutdown/stats epoch —
     so a total decoder bounds the key space to rounds+1 values, and
     the core's window rule bounds the live slots to two. *)
  let decode_round ~rounds r = if r >= 0 && r <= rounds then Some r else None

  (* A wire sender index that names a protocol peer of this node. *)
  let decode_peer cfg s =
    if s >= 0 && s < cfg.params.Params.n && s <> cfg.node then Some s else None

  (* Act on the core's outputs for its current round. *)
  let act cfg (tr : Transport.t) inbox outs =
    let me = cfg.node in
    let r = R.round inbox.core in
    List.iter
      (function
        | R.Phase name ->
          if Metric.enabled () then Metric.inc (Tel.node_phases ~phase:name);
          Flight.record inbox.flight ~trace:(trace_of inbox r)
            ~attrs:[ ("phase", name) ]
            ~hlc:(Clock.now ()) ~round:r "phase"
        | R.Send m ->
          (* a [Lie] node ships a well-formed but wrong gᵢ while the core
             keeps the honest one: only the peers' decode catches it *)
          let m =
            match (m, cfg.fault) with
            | Replica.Result g, Lie l when lie_active l ~round:r ->
              Replica.Result
                (Option.value ~default:g
                   (E.corrupt_result inbox.engine (lie_action l) ~node:me
                      ~round:r ~observer:me g))
            | _ -> m
          in
          send_protocol cfg inbox tr ~dst:`Peers (frame ~sender:me ~round:r m)
        | R.Decoded d ->
          (* attribute corrected error locations: the suspicion gauge
             is the decoder's erasure hint and the live alert signal *)
          if Metric.enabled () then begin
            List.iter
              (fun j ->
                Metric.inc (Tel.decode_errors ~node:j);
                Metric.add (Tel.node_suspicion ~node:j) 1.0)
              d.E.error_nodes;
            Metric.inc ~by:cfg.params.Params.k
              (Tel.commands_committed ~node:me)
          end;
          (* ship the decoded outputs + next states to the client, then
             advance our own coded state *)
          send_protocol cfg inbox tr ~dst:`Client
            (frame ~sender:me ~round:r
               (Replica.Output (Array.append d.E.outputs d.E.next_states)));
          E.node_update_state inbox.engine ~node:me ~next_states:d.E.next_states
        | R.Failed | R.Bad_round -> ())
      outs

  (* Intake-time validation: bound the round and decode the payload
     with the total decoders the moment the frame arrives, so a
     malformed frame is counted and dropped exactly once no matter when
     it arrives.  A valid frame goes to the core, whose window rule
     drops one for a finished round and answers [Bad_round] for one
     more than a round ahead — no honest peer gets there, since the
     client keeps one round outstanding and waits for every delivering
     node's Output. *)
  let dispatch cfg (tr : Transport.t) inbox (fr : Frame.t) =
    let n = cfg.params.Params.n in
    let k = cfg.params.Params.k in
    let sender = fr.Frame.sender in
    let hlc, trace = observe fr in
    let record ?reason ~round event =
      record_recv inbox.flight ~hlc ~trace ?reason ~round fr event
    in
    let record_bad ~round reason =
      Transport.record_error tr;
      record ~reason ~round "error"
    in
    (* a valid protocol message: the core's input *)
    let feed ~round msg =
      let live = round >= R.round inbox.core in
      match R.receive inbox.core ~round ~sender msg with
      | [ R.Bad_round ] -> record_bad ~round "bad-round"
      | outs ->
        record ~round "recv";
        if live && trace <> 0L && not (Hashtbl.mem inbox.traces round) then
          Hashtbl.replace inbox.traces round trace;
        if outs <> [] then act cfg tr inbox outs
    in
    match decode_round ~rounds:cfg.rounds fr.Frame.round with
    | None ->
      (* the flight entry logs the forged value, but nothing keys on it *)
      record_bad ~round:fr.Frame.round "bad-round"
    | Some round -> (
      let p = fr.Frame.payload in
      let valid decoded msg =
        match decoded with
        | Some v -> feed ~round (msg v)
        | None -> record_bad ~round "bad-payload"
      in
      let commands () = W.decode_commands_bin ~k ~dim:cfg.machine.M.input_dim p in
      let dim = cfg.machine.M.state_dim + cfg.machine.M.output_dim in
      match (fr.Frame.kind, decode_peer cfg sender) with
      | Frame.Command, _ when sender = n ->
        valid (commands ()) (fun cs -> Replica.Command (p, cs))
      | Frame.Commit, Some _ -> valid (commands ()) (fun _ -> Replica.Commit p)
      | Frame.Result, Some _ ->
        valid (W.decode_vector_bin ~dim p) (fun g -> Replica.Result g)
      | Frame.Shutdown, _ when sender = n ->
        record ~round "recv";
        inbox.shutdown <- true
      | _ ->
        (* unexpected kind/sender combination: malformed at the
           protocol level, counted like any other bad frame *)
        record_bad ~round "unexpected-kind")

  (* One blocking [recv] for the time left to [limit], or only until
     the streaming emitter's next delta is due — waits are where a node
     spends its wall time, so this is what keeps deltas flowing even
     while a round stalls on a straggler. *)
  let recv_until cfg (tr : Transport.t) inbox ~limit ~now =
    let until =
      match cfg.stream with
      | Some _ -> Float.min limit inbox.st_next
      | None -> limit
    in
    Option.iter (dispatch cfg tr inbox) (tr.Transport.recv ~timeout:(until -. now))

  (* Drive the core's current round to its end.  Each stage waits at
     most [cfg.deadline]; when that passes, or the client has shut the
     node down, the core gets a Timeout, so silent peers cannot stall a
     round. *)
  let run_round cfg (tr : Transport.t) inbox =
    let core = inbox.core in
    let rec loop stage limit =
      maybe_stream cfg tr inbox;
      match R.stage core with
      | Replica.Done -> ()
      | _ ->
        let now = Unix.gettimeofday () in
        if inbox.shutdown || now >= limit then
          act cfg tr inbox (R.timeout core)
        else recv_until cfg tr inbox ~limit ~now;
        let stage' = R.stage core in
        loop stage'
          (if stage' = stage then limit
           else Unix.gettimeofday () +. cfg.deadline)
    in
    loop (R.stage core) (Unix.gettimeofday () +. cfg.deadline)

  (* Binary stats payload: five big-endian u64 counters. *)
  let stats_payload (s : Transport.stats) =
    let b = Bytes.create 40 in
    List.iteri
      (fun i v -> Bytes.set_int64_be b (8 * i) (Int64.of_int v))
      [
        s.Transport.frames_sent;
        s.Transport.frames_received;
        s.Transport.bytes_sent;
        s.Transport.bytes_received;
        s.Transport.frame_errors;
      ];
    Bytes.to_string b

  let decode_stats_payload p =
    if String.length p <> 40 then None
    else begin
      let v i = Int64.to_int (String.get_int64_be p (8 * i)) in
      let ok = ref true in
      for i = 0 to 4 do
        if v i < 0 then ok := false
      done;
      if not !ok then None
      else
        Some
          {
            Transport.frames_sent = v 0;
            frames_received = v 1;
            bytes_sent = v 2;
            bytes_received = v 3;
            frame_errors = v 4;
          }
    end

  (* ---- entry point: run all rounds, then answer the shutdown ---- *)

  let run cfg (tr : Transport.t) =
    if cfg.trace then Span.enable ();
    let inbox = make_inbox cfg in
    let n = cfg.params.Params.n in
    let node_attr = [ ("node", string_of_int cfg.node) ] in
    for r = 0 to cfg.rounds - 1 do
      if not inbox.shutdown then begin
        let t0 = Unix.gettimeofday () in
        Span.with_ ~name:"node.round"
          ~attrs:(("round", string_of_int r) :: node_attr)
          (fun () ->
            if r > 0 then act cfg tr inbox (R.advance inbox.core);
            run_round cfg tr inbox);
        if Metric.enabled () then begin
          Metric.observe Tel.round_latency (Unix.gettimeofday () -. t0);
          Metric.set
            (Tel.node_retained_rounds ~node:cfg.node)
            (float_of_int (R.live_rounds inbox.core))
        end;
        Hashtbl.remove inbox.traces r
      end
    done;
    (* flush the emitter so the final cumulative values are on the wire
       before the shutdown handshake *)
    if cfg.stream <> None then begin
      inbox.st_next <- 0.0;
      maybe_stream cfg tr inbox
    end;
    (* wait for the client's shutdown, reply with our counters (control
       frames are exempt from the node's fault: the driver needs them) *)
    let limit = Unix.gettimeofday () +. cfg.deadline in
    let rec await () =
      maybe_stream cfg tr inbox;
      let now = Unix.gettimeofday () in
      if (not inbox.shutdown) && now < limit then begin
        recv_until cfg tr inbox ~limit ~now;
        await ()
      end
    in
    await ();
    let snap = Transport.snapshot tr in
    tr.Transport.send ~dst:n
      (Frame.make ~kind:Frame.Stats ~sender:cfg.node ~round:cfg.rounds
         (stats_payload snap));
    (* telemetry rides after the Stats reply so the counters above never
       include it; like Stats, it is a control frame exempt from the
       node's fault — the aggregator needs even a Byzantine node's
       bundle (its contents are validated, totally, on the client) *)
    if cfg.telemetry then begin
      if Metric.enabled () then
        Metric.set
          (Tel.hlc_skew ~node:cfg.node)
          (Clock.skew_seconds (Clock.peek ()));
      tr.Transport.send ~dst:n
        (stamp cfg inbox
           (Frame.make ~kind:Frame.Telemetry ~sender:cfg.node ~round:cfg.rounds
              (Agg.bundle_payload ~node:cfg.node ~flight:inbox.flight ())))
    end;
    tr.Transport.close ()
end
