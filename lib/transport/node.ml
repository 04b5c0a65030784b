(* The per-process CSM node runtime: one node of the cluster, holding
   its own coded state S̃ᵢ inside a local engine instance and speaking
   the Frame wire protocol over an abstract {!Transport.t}.

   Round structure (client is endpoint [n]):

     Command (client → all)   the round's K command vectors
     Commit  (node → nodes)   echo of the command payload; a round
                              proceeds once b+1 endorsements of the
                              node's own view arrive (self included)
     compute                  X̃ᵢ = encode(commands), gᵢ = f(S̃ᵢ, X̃ᵢ)
     Result  (node → nodes)   gᵢ, binary vector payload
     decode                   Reed–Solomon decode of the collected gⱼ
     Output  (node → client)  decoded Ŷ rows then next-state Ŝ rows
     re-encode                S̃ᵢ(t+1) from the decoded next states

   Every inbound payload is validated at intake with the total binary
   decoders — a truncated or corrupted body counts one transport frame
   error and is dropped, so a Byzantine peer can lie (the code corrects
   lies) or babble garbage (dropped and counted) but never crash or
   wedge the node; every wait blocks in [recv] for at most the
   [deadline], so silent peers cannot stall a round either.

   Node state is bounded: one slot per live round, deleted when the
   round ends.  The window rule keeps at most two live: a valid frame
   for a finished round is dropped, and one more than one round ahead
   of the node is counted as a [bad-round] frame error.

   The runtime's own faults ([Drop]/[Delay]/[Corrupt]) apply to the
   frames it *sends* — that is how the cluster driver turns a node
   Byzantine at the transport layer. *)

module Field_intf = Csm_field.Field_intf
module Frame = Csm_wire.Frame
module Params = Csm_core.Params
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

let lie_spec_eq a b =
  a.l_offset = b.l_offset
  && (match (a.l_coord, b.l_coord) with
     | None, None -> true
     | Some x, Some y -> x = y
     | _ -> false)
  && a.l_period = b.l_period && a.l_from = b.l_from

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

module Make (F : Field_intf.S) = struct
  module W = Csm_core.Wire.Make (F)
  module E = Csm_core.Engine.Make (F)
  module M = E.M

  type config = {
    node : int;
    params : Params.t;
    machine : M.t;
    init : F.t array array;  (* the K initial states, shared by all *)
    rounds : int;
    fault : fault;
    faults : (int * fault) list;  (* the whole cluster's fault map *)
    deadline : float;  (* per-wait upper bound, seconds *)
    trace : bool;  (* stamp frame-v2 trace extensions + merge HLC *)
    telemetry : bool;  (* ship a Telemetry bundle after the Stats reply *)
    stream : float option;
        (* emit a csm-node-telemetry/2 delta frame to the client at
           most this often (seconds) while running; None = end-of-run
           telemetry only *)
    scope : Agg.scope;
        (* what this runtime's registry snapshots describe: [Process]
           when node threads share the process registry (loopback),
           [Node] when this process owns it (forked modes) *)
  }

  (* Peers whose protocol frames will actually arrive (and validate). *)
  let expected_peers cfg =
    let n = cfg.params.Params.n in
    let dead i =
      match List.assoc_opt i cfg.faults with
      | Some f -> not (delivers f)
      | None -> false
    in
    n - List.length (List.filter dead (List.init n (fun i -> i)))

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

  (* ---- per-round slots: validated protocol state, filled by [dispatch] ---- *)

  (* Everything the node knows about one live round.  The arrays are
     indexed by sender; the counters are what the round's waits read. *)
  type slot = {
    mutable command : (string * F.t array array) option;
        (* the client's payload and its decoded commands *)
    commits : string option array;  (* peer → echoed command payload *)
    mutable n_commits : int;
    results : F.t array option array;  (* peer → gⱼ (own entry included) *)
    mutable n_results : int;
    mutable trace_id : int64;
        (* causal trace id, adopted from the first valid extended frame
           of the round (the client's Command); 0L until then *)
  }

  type inbox = {
    slots : (int, slot) Hashtbl.t;
        (* live rounds only: the running one and the next (window rule
           in [dispatch]); a round's slot goes when [run_round] returns *)
    mutable round : int;  (* the round being run; [rounds] once done *)
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

  let make_inbox ~node () =
    {
      slots = Hashtbl.create 4;
      round = 0;
      flight = Flight.create ~node ();
      shutdown = false;
      st_seq = 0;
      st_next = 0.0;
      st_last_event = 0;
      st_sent = Hashtbl.create 32;
    }

  let slot_for cfg inbox round =
    match Hashtbl.find_opt inbox.slots round with
    | Some s -> s
    | None ->
      let n = cfg.params.Params.n in
      let s =
        {
          command = None;
          commits = Array.make n None;
          n_commits = 0;
          results = Array.make n None;
          n_results = 0;
          trace_id = 0L;
        }
      in
      Hashtbl.replace inbox.slots round s;
      s

  let trace_of inbox round =
    match Hashtbl.find_opt inbox.slots round with
    | Some s -> s.trace_id
    | None -> 0L

  (* Stamp an outbound protocol frame (trace mode): promote it to
     wire v2 carrying the round's trace id and a fresh HLC send stamp. *)
  let stamp cfg inbox frame =
    if not cfg.trace then frame
    else
      {
        frame with
        Frame.version = Frame.ext_version;
        ext =
          Some
            {
              Frame.trace_id = trace_of inbox frame.Frame.round;
              hlc = Clock.to_wire (Clock.now ());
            };
      }

  let record_send inbox ~dst (frame : Frame.t) =
    let hlc, trace =
      match frame.Frame.ext with
      | Some e -> (Clock.of_wire e.Frame.hlc, e.Frame.trace_id)
      | None -> (Clock.now (), trace_of inbox frame.Frame.round)
    in
    Flight.record inbox.flight ~trace
      ~attrs:
        [
          ("dst", string_of_int dst);
          ("frame", Frame.kind_name frame.Frame.kind);
        ]
      ~hlc ~round:frame.Frame.round "send"

  let send_protocol cfg inbox (tr : Transport.t) ~dst frame =
    let frame = stamp cfg inbox frame in
    match cfg.fault with
    | Honest | Lie _ ->
      (* a Lie node's *protocol machinery* is honest — the lie is
         injected into the Result payload itself, in run_round *)
      record_send inbox ~dst frame;
      tr.Transport.send ~dst frame
    | Drop -> ()
    | Delay t ->
      Thread.delay t;
      record_send inbox ~dst frame;
      tr.Transport.send ~dst frame
    | Corrupt ->
      record_send inbox ~dst frame;
      tr.Transport.send ~dst
        { frame with Frame.payload = corrupt_payload frame.Frame.payload }

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

  (* An adversary-chosen round number keys the slot table: left
     unvalidated, a forged stream of distinct rounds grows protocol
     state without bound.  Rounds are dense — 0..rounds-1 for protocol
     frames, with [rounds] itself serving as the shutdown/stats epoch —
     so a total decoder bounds the key space to rounds+1 values, and
     the window rule in [dispatch] bounds the live slots to two. *)
  let decode_round ~rounds r = if r >= 0 && r <= rounds then Some r else None

  (* A wire sender index that names a protocol peer of this node. *)
  let decode_peer cfg s =
    if s >= 0 && s < cfg.params.Params.n && s <> cfg.node then Some s else None

  (* Intake-time validation: bound the round and decode the payload
     with the total decoders the moment the frame arrives, so a
     malformed frame is counted and dropped exactly once no matter when
     it arrives.  A valid frame then meets the window rule: one for a
     finished round is dropped silently; one more than a round ahead of
     the node is a [bad-round] error — no honest peer gets there, since
     the client keeps one round outstanding and waits for every
     delivering node's Output. *)
  let dispatch cfg (tr : Transport.t) inbox (fr : Frame.t) =
    let n = cfg.params.Params.n in
    let k = cfg.params.Params.k in
    let sender = fr.Frame.sender in
    (* HLC receive rule: fold the sender's stamp in before anything
       else, so the local clock (and the flight entry below) is already
       causally after the send *)
    let rx_hlc, rx_trace =
      match fr.Frame.ext with
      | Some e -> (Clock.observe (Clock.of_wire e.Frame.hlc), e.Frame.trace_id)
      | None -> (Clock.now (), 0L)
    in
    let record_recv ~round () =
      Flight.record inbox.flight ~trace:rx_trace
        ~attrs:
          [
            ("src", string_of_int sender);
            ("frame", Frame.kind_name fr.Frame.kind);
          ]
        ~hlc:rx_hlc ~round "recv"
    in
    let record_bad ~round reason =
      Transport.record_error tr;
      Flight.record inbox.flight ~trace:rx_trace
        ~attrs:
          [
            ("src", string_of_int sender);
            ("frame", Frame.kind_name fr.Frame.kind);
            ("reason", reason);
          ]
        ~hlc:rx_hlc ~round "error"
    in
    (* a valid protocol frame: keep it in its round's slot if live *)
    let accept ~round store =
      if round > inbox.round + 1 then record_bad ~round "bad-round"
      else begin
        record_recv ~round ();
        if round >= inbox.round then begin
          let s = slot_for cfg inbox round in
          if rx_trace <> 0L && s.trace_id = 0L then s.trace_id <- rx_trace;
          store s
        end
      end
    in
    match decode_round ~rounds:cfg.rounds fr.Frame.round with
    | None ->
      (* the flight entry logs the forged value, but nothing keys on it *)
      record_bad ~round:fr.Frame.round "bad-round"
    | Some round -> (
      let decode_commands = W.decode_commands_bin ~k ~dim:cfg.machine.M.input_dim in
      match (fr.Frame.kind, decode_peer cfg sender) with
      | Frame.Command, _ when sender = n -> (
        match decode_commands fr.Frame.payload with
        | Some cs ->
          accept ~round (fun s ->
              if Option.is_none s.command then
                s.command <- Some (fr.Frame.payload, cs))
        | None -> record_bad ~round "bad-payload")
      | Frame.Commit, Some j -> (
        match decode_commands fr.Frame.payload with
        | Some _ ->
          accept ~round (fun s ->
              if Option.is_none s.commits.(j) then begin
                s.commits.(j) <- Some fr.Frame.payload;
                s.n_commits <- s.n_commits + 1
              end)
        | None -> record_bad ~round "bad-payload")
      | Frame.Result, Some j -> (
        let dim = cfg.machine.M.state_dim + cfg.machine.M.output_dim in
        match W.decode_vector_bin ~dim fr.Frame.payload with
        | Some g ->
          accept ~round (fun s ->
              if Option.is_none s.results.(j) then begin
                s.results.(j) <- Some g;
                s.n_results <- s.n_results + 1
              end)
        | None -> record_bad ~round "bad-payload")
      | Frame.Shutdown, _ when sender = n ->
        record_recv ~round ();
        inbox.shutdown <- true
      | _ ->
        (* unexpected kind/sender combination: malformed at the
           protocol level, counted like any other bad frame *)
        record_bad ~round "unexpected-kind")

  (* Dispatch arriving frames until [cond] holds, the node shuts down
     or [cfg.deadline] passes.  Each [recv] blocks for the time left,
     or only until the streaming emitter's next delta is due — waits
     are where a node spends its wall time, so this is what keeps
     deltas flowing even while a round stalls on a straggler. *)
  let wait_until cfg (tr : Transport.t) inbox cond =
    let limit = Unix.gettimeofday () +. cfg.deadline in
    let rec loop () =
      maybe_stream cfg tr inbox;
      if cond () then true
      else begin
        let now = Unix.gettimeofday () in
        if inbox.shutdown || now >= limit then false
        else begin
          let until =
            match cfg.stream with
            | Some _ -> Float.min limit inbox.st_next
            | None -> limit
          in
          Option.iter (dispatch cfg tr inbox)
            (tr.Transport.recv ~timeout:(until -. now));
          loop ()
        end
      end
    in
    loop ()

  (* ---- one protocol round ---- *)

  let phase inbox ~round name =
    if Metric.enabled () then Metric.inc (Tel.node_phases ~phase:name);
    Flight.record inbox.flight ~trace:(trace_of inbox round)
      ~attrs:[ ("phase", name) ]
      ~hlc:(Clock.now ()) ~round "phase"

  let run_round cfg (tr : Transport.t) engine inbox r =
    let n = cfg.params.Params.n in
    let b = cfg.params.Params.b in
    let me = cfg.node in
    let slot = slot_for cfg inbox r in
    (* 1. the round's commands, from the client *)
    ignore (wait_until cfg tr inbox (fun () -> Option.is_some slot.command));
    match slot.command with
    | None -> false
    | Some (cmd_payload, commands) ->
      phase inbox ~round:r "commands";
      (* 2. commit: echo the command payload to every peer, then wait
         for the peers expected to deliver; proceed on b+1 matching
         endorsements (self included) *)
      let commit = Frame.make ~kind:Frame.Commit ~sender:me ~round:r cmd_payload in
      for j = 0 to n - 1 do
        if j <> me then send_protocol cfg inbox tr ~dst:j commit
      done;
      let expected_commits = expected_peers cfg - 1 (* peers, sans self *) in
      ignore
        (wait_until cfg tr inbox (fun () -> slot.n_commits >= expected_commits));
      let matching =
        Array.fold_left
          (fun acc p ->
            match p with
            | Some p when String.equal p cmd_payload -> acc + 1
            | _ -> acc)
          1 slot.commits
      in
      if matching < b + 1 then false
      else begin
      phase inbox ~round:r "committed";
      (* 3. compute gᵢ over the committed commands *)
      let coded_command = E.node_encode_command engine ~node:me ~commands in
      let g = E.node_compute engine ~node:me ~coded_command in
      phase inbox ~round:r "computed";
      (* 4. broadcast the result, keep our own.  A [Lie] node ships a
         well-formed but wrong vector (the engine's adversary
         interpreter applies its lie, on the spec's round schedule)
         while keeping the honest gᵢ locally — intake validation passes
         everywhere and only the peers' Reed–Solomon decode catches and
         attributes the lie *)
      let broadcast_g =
        match cfg.fault with
        | Lie l when lie_active l ~round:r ->
          Option.value ~default:g
            (E.corrupt_result engine (lie_action l) ~node:me ~round:r
               ~observer:me g)
        | _ -> g
      in
      let result =
        Frame.make ~kind:Frame.Result ~sender:me ~round:r
          (W.encode_vector_bin broadcast_g)
      in
      for j = 0 to n - 1 do
        if j <> me then send_protocol cfg inbox tr ~dst:j result
      done;
      slot.results.(me) <- Some g;
      slot.n_results <- slot.n_results + 1;
      (* 5. collect and decode *)
      let expected_results = expected_peers cfg in
      ignore
        (wait_until cfg tr inbox (fun () -> slot.n_results >= expected_results));
      let received =
        List.filter_map
          (fun j -> Option.map (fun g -> (j, g)) slot.results.(j))
          (List.init n Fun.id)
      in
      (* the engine's default decoder: optimistic verify-first fast
         path, with Gao + suspicion-guided erasures as fallback *)
      match E.decode_results engine received with
      | None ->
        phase inbox ~round:r "decode-failed";
        false
      | Some d ->
        phase inbox ~round:r "decoded";
        (* attribute decoder-corrected error locations, like the
           simulator protocol does: the suspicion gauge is both the
           erasure hint for later decodes and the live alert signal *)
        if Metric.enabled () then begin
          List.iter
            (fun j ->
              Metric.inc (Tel.decode_errors ~node:j);
              Metric.add (Tel.node_suspicion ~node:j) 1.0)
            d.E.error_nodes;
          Metric.inc ~by:cfg.params.Params.k
            (Tel.commands_committed ~node:me)
        end;
        (* 6. ship the decoded outputs + next states to the client *)
        let payload =
          W.encode_matrix_bin (Array.append d.E.outputs d.E.next_states)
        in
        send_protocol cfg inbox tr ~dst:n
          (Frame.make ~kind:Frame.Output ~sender:me ~round:r payload);
        (* 7. advance our own coded state *)
        E.node_update_state engine ~node:me ~next_states:d.E.next_states;
        true
      end

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
    let engine =
      E.create ~machine:cfg.machine ~params:cfg.params ~init:cfg.init
    in
    let inbox = make_inbox ~node:cfg.node () in
    let n = cfg.params.Params.n in
    let node_attr = [ ("node", string_of_int cfg.node) ] in
    for r = 0 to cfg.rounds - 1 do
      if not inbox.shutdown then begin
        inbox.round <- r;
        let t0 = Unix.gettimeofday () in
        ignore
          (Span.with_ ~name:"node.round"
             ~attrs:(("round", string_of_int r) :: node_attr)
             (fun () -> run_round cfg tr engine inbox r));
        if Metric.enabled () then begin
          Metric.observe Tel.round_latency (Unix.gettimeofday () -. t0);
          Metric.set
            (Tel.node_retained_rounds ~node:cfg.node)
            (float_of_int (Hashtbl.length inbox.slots))
        end;
        Hashtbl.remove inbox.slots r
      end
    done;
    inbox.round <- cfg.rounds;
    (* flush the emitter so the final cumulative values are on the wire
       before the shutdown handshake *)
    if cfg.stream <> None then begin
      inbox.st_next <- 0.0;
      maybe_stream cfg tr inbox
    end;
    (* wait for the client's shutdown, reply with our counters (control
       frames are exempt from the node's fault: the driver needs them) *)
    ignore (wait_until cfg tr inbox (fun () -> inbox.shutdown));
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
