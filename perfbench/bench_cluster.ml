(* One benchmark trial: a cluster of real node runtimes
   ([Csm_transport.Node.Make(F).run] over [Loopback] threads or forked
   [Socket] processes) driven for a fixed number of rounds by a
   closed-loop, single-threaded client with one round outstanding.

   The client mirrors [Cluster.Make(F).client_run] frame for frame (the
   self-test holds it to that): broadcast the round's Command, collect
   validated Outputs until every expected one is in or the deadline
   passes, vote.  On top it stamps each round: Command broadcast, the
   (b+1)-th matching Output (the commit, which stops the latency clock),
   first and last Output.  Round 0 is warm-up: it pays for socket
   connects and the cold Reed–Solomon fast-path context, and is counted
   in set-up time, not in the latency samples.

   A traced trial measures each layer from outside, through public
   functions only: every endpoint's [Transport.t] is wrapped (time in
   [send]/[recv], polls, per-frame stamps), each [Node.run] call is
   timed, and afterwards the trial's rounds are replayed through the
   per-node [Engine] calls and the frame/payload codecs.  Spans live in
   preallocated arrays indexed by (round, kind, peer), so tracing adds
   nothing to the heap the retention census measures. *)

module F = Csm_field.Fp.Default
module Params = Csm_core.Params
module Frame = Csm_wire.Frame
module Transport = Csm_transport.Transport
module Loopback = Csm_transport.Loopback
module Socket = Csm_transport.Socket
module Node = Csm_transport.Node
module Cluster = Csm_transport.Cluster
module Pool = Csm_parallel.Pool
module Ledger = Csm_metrics.Ledger
module Scope = Csm_metrics.Scope
module C = Cluster.Make (F)
module N = C.N
module W = C.W
module E = C.E
module CF = Csm_field.Counted.Make (F)
module CE = Csm_core.Engine.Make (CF)

type mode = Loop | Sock

type workload = {
  name : string;
  mode : mode;
  n : int;
  k : int;
  d : int;
  b : int;
  faults : (int * Node.fault) list;
  rounds : int;  (** per trial, warm-up round included *)
}

(* Trial lengths are fixed rounds, not a duration: today's runtime
   retains every round, so its per-round cost grows with run length and
   a duration-bound trial would charge a faster program for the extra
   rounds it reached. *)
let workloads =
  [
    (* The reference config: 32 frames and a tiny code per round, so poll
       latency and per-round node bookkeeping dominate; the engine is
       under 5% of a round. *)
    {
      name = "loop-n4";
      mode = Loop;
      n = 4;
      k = 2;
      d = 1;
      b = 1;
      faults = [];
      rounds = 300;
    };
    (* Wide and faulty: ~450 all-to-all frames per round, 16 polling
       threads on one domain, inbox scans that grow with rounds × N, and
       an RS error correction (plus an erasure) at every node every
       round — the one workload where the engine is a visible share. *)
    {
      name = "loop-n16-byz";
      mode = Loop;
      n = 16;
      k = 4;
      d = 2;
      b = 3;
      faults = [ (1, Node.Lie Node.lie_default); (2, Node.Drop) ];
      rounds = 100;
    };
    (* The production transport: forked nodes over Unix-domain sockets,
       byte-stream framing, per-peer sender and reader threads, syscalls
       and process switches; no decoder error path. *)
    {
      name = "sock-n8";
      mode = Sock;
      n = 8;
      k = 2;
      d = 2;
      b = 1;
      faults = [];
      rounds = 200;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Per-wait bound, as csm_cluster uses. *)
let deadline = 5.0

let cluster_config ?(dir = "") wl ~seed ~rounds =
  {
    C.params = Params.make ~network:Params.Sync ~n:wl.n ~k:wl.k ~d:wl.d ~b:wl.b;
    rounds;
    seed;
    mode = (match wl.mode with Loop -> Cluster.Loopback | Sock -> Cluster.Uds dir);
    faults = wl.faults;
    deadline;
    trace = false;
    telemetry = false;
    stream = None;
    live = None;
  }

let fault_of wl i =
  match List.assoc_opt i wl.faults with Some f -> f | None -> Node.Honest

let delivering wl =
  List.filter (fun i -> Node.delivers (fault_of wl i)) (List.init wl.n Fun.id)

(* As [Cluster]'s private node_config, with tracing and telemetry off. *)
let node_config (cfg : C.config) wl i =
  {
    N.node = i;
    params = cfg.C.params;
    machine = C.machine cfg;
    init = C.initial_states cfg;
    rounds = cfg.C.rounds;
    fault = fault_of wl i;
    faults = wl.faults;
    deadline;
    trace = false;
    telemetry = false;
    stream = None;
    scope = (match wl.mode with Loop -> Csm_obs.Agg.Process | Sock -> Csm_obs.Agg.Node);
  }

let now = Unix.gettimeofday

(* ---- bench-side spans, one record per endpoint ---- *)

let kind_index = function
  | Frame.Command -> 0
  | Frame.Commit -> 1
  | Frame.Result -> 2
  | Frame.Output -> 3
  | Frame.Stats | Frame.Shutdown | Frame.Telemetry -> -1

let protocol_kinds = 4

(* [acc] slots *)
let a_recv = 0
let a_send = 1
let a_wall = 2
let a_bench = 3  (* bench work inside a wrapper (the heap census) *)
let a_seg_start = 4
let a_seg_recv = 5
let a_seg_send = 6

type node_trace = {
  id : int;
  eps : int;  (** endpoints: n nodes plus the client *)
  acc : float array;
  mutable recv_calls : int;
  mutable recv_empty : int;
  mutable live_words0 : int;
  mutable live_words : int;  (** -1 until the census ran *)
  seg_self : float array;
      (** per round: self time of the stretch ending at this node's
          Output send; nan when the node sent none *)
  sent : float array;  (** send-call stamp per (round, kind, dst) *)
  recvd : float array;  (** recv-return stamp per (round, kind, sender) *)
}

let create_trace ~id ~eps ~rounds =
  let slots = rounds * protocol_kinds * eps in
  {
    id;
    eps;
    acc = Array.make 7 0.0;
    recv_calls = 0;
    recv_empty = 0;
    live_words0 = 0;
    live_words = -1;
    seg_self = Array.make rounds Float.nan;
    sent = Array.make slots Float.nan;
    recvd = Array.make slots Float.nan;
  }

let slot nt ~round ~kind ~peer = (((round * protocol_kinds) + kind) * nt.eps) + peer

let stamp nt arr (fr : Frame.t) ~peer t =
  let kind = kind_index fr.Frame.kind in
  let rounds = Array.length nt.seg_self in
  if kind >= 0 && fr.Frame.round >= 0 && fr.Frame.round < rounds && peer >= 0
     && peer < nt.eps
  then arr.(slot nt ~round:fr.Frame.round ~kind ~peer) <- t

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Wrap an endpoint: time every [send]/[recv], count polls, stamp
   protocol frames, and close a per-round self-time stretch at each
   Output the node sends.  With [census], the first Shutdown frame
   delivered triggers a live-heap census (its cost is booked to
   [a_bench] and kept out of the node's wall time). *)
let wrap nt ~census (tr : Transport.t) =
  let a = nt.acc in
  let send ~dst (fr : Frame.t) =
    let t0 = now () in
    tr.Transport.send ~dst fr;
    let t1 = now () in
    let dt = t1 -. t0 in
    a.(a_send) <- a.(a_send) +. dt;
    a.(a_seg_send) <- a.(a_seg_send) +. dt;
    stamp nt nt.sent fr ~peer:dst t0;
    let r = fr.Frame.round in
    if Frame.kind_eq fr.Frame.kind Frame.Output && r >= 0
       && r < Array.length nt.seg_self
    then begin
      nt.seg_self.(r) <-
        t1 -. a.(a_seg_start) -. a.(a_seg_recv) -. a.(a_seg_send);
      a.(a_seg_start) <- t1;
      a.(a_seg_recv) <- 0.0;
      a.(a_seg_send) <- 0.0
    end
  in
  let recv ~timeout =
    let t0 = now () in
    let got = tr.Transport.recv ~timeout in
    let t1 = now () in
    let dt = t1 -. t0 in
    a.(a_recv) <- a.(a_recv) +. dt;
    a.(a_seg_recv) <- a.(a_seg_recv) +. dt;
    nt.recv_calls <- nt.recv_calls + 1;
    (match got with
    | None -> nt.recv_empty <- nt.recv_empty + 1
    | Some fr ->
      stamp nt nt.recvd fr ~peer:fr.Frame.sender t1;
      if census && nt.live_words < 0 && Frame.kind_eq fr.Frame.kind Frame.Shutdown
      then begin
        nt.live_words <- live_words ();
        a.(a_bench) <- a.(a_bench) +. (now () -. t1)
      end);
    got
  in
  { tr with Transport.send; recv }

(* Run one node under its wrapper and time the [Node.run] call. *)
let run_traced_node nt cfg tr =
  let t0 = now () in
  nt.acc.(a_seg_start) <- t0;
  N.run cfg tr;
  nt.acc.(a_wall) <- now () -. t0

(* ---- the client ---- *)

type client_out = {
  ledger : string option array;
  outputs_received : int array;
  stats : Transport.stats option array;  (** n nodes, then the client *)
  sent_at : float array;  (** Command broadcast start *)
  accept_at : float array;  (** (b+1)-th matching Output; nan if none *)
  first_out : float array;  (** first validated Output; nan if none *)
  last_out : float array;
  done_at : float array;  (** all expected Outputs in, or the deadline *)
}

let client_run ?(before_shutdown = ignore) (cfg : C.config) wl (tr : Transport.t) =
  let n = wl.n and b = wl.b and k = wl.k in
  let rounds = cfg.C.rounds in
  let rng = Csm_rng.create cfg.C.seed in
  let expected_outputs = List.length (delivering wl) in
  let nan () = Array.make rounds Float.nan in
  let ledger = Array.make rounds None in
  let outputs_received = Array.make rounds 0 in
  let sent_at = nan () and accept_at = nan () and first_out = nan ()
  and last_out = nan () and done_at = nan () in
  let in_range s = s >= 0 && s < n in
  for r = 0 to rounds - 1 do
    let commands = C.workload rng ~k r in
    let cmd =
      Frame.make ~kind:Frame.Command ~sender:n ~round:r
        (W.encode_commands_bin commands)
    in
    sent_at.(r) <- now ();
    for i = 0 to n - 1 do
      tr.Transport.send ~dst:i cmd
    done;
    let got : (int, string) Hashtbl.t = Hashtbl.create 16 in
    let matching p = Hashtbl.fold (fun _ q c -> if q = p then c + 1 else c) got 0 in
    let limit = now () +. cfg.C.deadline in
    let rec collect () =
      if Hashtbl.length got < expected_outputs && now () < limit then begin
        (match tr.Transport.recv ~timeout:0.05 with
        | Some fr
          when Frame.kind_eq fr.Frame.kind Frame.Output
               && fr.Frame.round = r && in_range fr.Frame.sender -> (
          match W.decode_matrix_bin fr.Frame.payload with
          | Some _ ->
            let t = now () in
            if Float.is_nan first_out.(r) then first_out.(r) <- t;
            last_out.(r) <- t;
            Hashtbl.replace got fr.Frame.sender fr.Frame.payload;
            if Float.is_nan accept_at.(r) && matching fr.Frame.payload >= b + 1
            then accept_at.(r) <- t
          | None -> Transport.record_error tr)
        | Some fr when Frame.kind_eq fr.Frame.kind Frame.Stats -> ()
        | Some fr
          when Frame.kind_eq fr.Frame.kind Frame.Telemetry
               && in_range fr.Frame.sender ->
          ()
        | Some _ -> Transport.record_error tr
        | None -> ());
        collect ()
      end
    in
    collect ();
    done_at.(r) <- now ();
    outputs_received.(r) <- Hashtbl.length got;
    let tally : (string, int) Hashtbl.t = Hashtbl.create 4 in
    Hashtbl.iter
      (fun _ p ->
        Hashtbl.replace tally p (1 + Option.value ~default:0 (Hashtbl.find_opt tally p)))
      got;
    Hashtbl.iter
      (fun p c -> if c >= b + 1 && Option.is_none ledger.(r) then ledger.(r) <- Some p)
      tally
  done;
  before_shutdown ();
  let bye = Frame.make ~kind:Frame.Shutdown ~sender:n ~round:rounds "" in
  for i = 0 to n - 1 do
    tr.Transport.send ~dst:i bye
  done;
  let stats : Transport.stats option array = Array.make (n + 1) None in
  let limit = now () +. cfg.C.deadline in
  let have_all () = Array.for_all Option.is_some (Array.sub stats 0 n) in
  let rec gather () =
    if (not (have_all ())) && now () < limit then begin
      (match tr.Transport.recv ~timeout:0.05 with
      | Some fr
        when Frame.kind_eq fr.Frame.kind Frame.Stats && in_range fr.Frame.sender
        -> (
        match N.decode_stats_payload fr.Frame.payload with
        | Some s -> stats.(fr.Frame.sender) <- Some s
        | None -> Transport.record_error tr)
      | Some _ | None -> ());
      gather ()
    end
  in
  gather ();
  {
    ledger;
    outputs_received;
    stats;
    sent_at;
    accept_at;
    first_out;
    last_out;
    done_at;
  }

(* ---- one trial ---- *)

type trial = {
  wl : workload;
  seed : int;
  rounds : int;
  out : client_out;
  reference : string array;
  setup_s : float;  (** first endpoint created / node forked → round 0 accepted *)
  cpu_s : float;  (** user+sys of this process and its reaped node children *)
  peak_rss_kb : int;
  traces : node_trace array;  (** traced: the n nodes, then the client *)
  heap_words : float;  (** traced: retained live words per node per round *)
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let vm_hwm_kb path =
  try
    In_channel.with_open_text path (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0

let run_loopback cfg wl ~traced =
  let n = wl.n in
  let eps = n + 1 in
  let traces =
    if traced then Array.init eps (fun id -> create_trace ~id ~eps ~rounds:cfg.C.rounds)
    else [||]
  in
  let live0 = if traced then live_words () else 0 in
  let live1 = ref 0 in
  let cpu0 = cpu () in
  let t_setup = now () in
  let net = Loopback.create ~endpoints:eps in
  let endpoint i =
    let tr = Loopback.endpoint net ~id:i in
    if traced then wrap traces.(i) ~census:false tr else tr
  in
  let out =
    Pool.with_domain_limit 1 (fun () ->
        let threads =
          List.init n (fun i ->
              Thread.create
                (fun () ->
                  let cfg = node_config cfg wl i in
                  try
                    if traced then run_traced_node traces.(i) cfg (endpoint i)
                    else N.run cfg (endpoint i)
                  with _ -> ())
                ())
        in
        let client = endpoint n in
        let before_shutdown () = if traced then live1 := live_words () in
        let out = client_run ~before_shutdown cfg wl client in
        List.iter Thread.join threads;
        out.stats.(n) <- Some (Transport.snapshot client);
        client.Transport.close ();
        out)
  in
  let cpu_s = cpu () -. cpu0 in
  let heap_words =
    float_of_int (!live1 - live0) /. float_of_int (n * cfg.C.rounds)
  in
  (out, t_setup, cpu_s, vm_hwm_kb "/proc/self/status", traces, heap_words)

let trace_file dir i = Filename.concat dir (Printf.sprintf "trace-%d.bin" i)

(* Forked nodes, as [Cluster.run_socket]: fork before this process
   starts any thread or domain; children pin the pool to one domain. *)
let run_socket cfg wl ~dir ~traced =
  let n = wl.n in
  let eps = n + 1 in
  let addr = Socket.Uds dir in
  let cpu0 = cpu () in
  let t_setup = now () in
  let pids =
    List.init n (fun i ->
        match Unix.fork () with
        | 0 ->
          let code =
            try
              Pool.set_domains 1;
              let tr = Socket.endpoint ~addr ~id:i ~endpoints:eps in
              let ncfg = node_config cfg wl i in
              if traced then begin
                let nt = create_trace ~id:i ~eps ~rounds:cfg.C.rounds in
                nt.live_words0 <- live_words ();
                run_traced_node nt ncfg (wrap nt ~census:true tr);
                Out_channel.with_open_bin (trace_file dir i) (fun oc ->
                    Marshal.to_channel oc nt [])
              end
              else N.run ncfg tr;
              0
            with _ -> 1
          in
          Unix._exit code
        | pid -> pid)
  in
  let client_trace = if traced then [| create_trace ~id:n ~eps ~rounds:cfg.C.rounds |] else [||] in
  let client =
    let tr = Socket.endpoint ~addr ~id:n ~endpoints:eps in
    if traced then wrap client_trace.(0) ~census:false tr else tr
  in
  let rss = ref 0 in
  let before_shutdown () =
    List.iter
      (fun pid -> rss := max !rss (vm_hwm_kb (Printf.sprintf "/proc/%d/status" pid)))
      pids
  in
  let out = client_run ~before_shutdown cfg wl client in
  out.stats.(n) <- Some (Transport.snapshot client);
  client.Transport.close ();
  let reap pid =
    let limit = now () +. deadline +. 2.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if now () >= limit then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Thread.delay 0.002;
          wait ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  in
  List.iter reap pids;
  let cpu_s = cpu () -. cpu0 in
  let traces, heap_words =
    if not traced then ([||], Float.nan)
    else begin
      let nodes =
        Array.init n (fun i ->
            let path = trace_file dir i in
            let nt =
              try In_channel.with_open_bin path (fun ic -> (Marshal.from_channel ic : node_trace))
              with Sys_error _ | End_of_file | Failure _ ->
                failwith (Printf.sprintf "node %d left no trace" i)
            in
            (try Sys.remove path with Sys_error _ -> ());
            nt)
      in
      let words =
        Array.fold_left (fun s nt -> s + (nt.live_words - nt.live_words0)) 0 nodes
      in
      ( Array.append nodes client_trace,
        float_of_int words /. float_of_int (n * cfg.C.rounds) )
    end
  in
  (out, t_setup, cpu_s, !rss, traces, heap_words)

let run ?(dir = ".perfbench-run") ?rounds (wl : workload) ~seed ~traced =
  let rounds = Option.value rounds ~default:wl.rounds in
  let cfg = cluster_config ~dir wl ~seed ~rounds in
  let out, t_setup, cpu_s, peak_rss_kb, traces, heap_words =
    match wl.mode with
    | Loop -> run_loopback cfg wl ~traced
    | Sock ->
      (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Fun.protect
        ~finally:(fun () ->
          for i = 0 to wl.n do
            try Sys.remove (Filename.concat dir (Printf.sprintf "ep-%d.sock" i))
            with Sys_error _ -> ()
          done;
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        (fun () -> run_socket cfg wl ~dir ~traced)
  in
  (* After any forks, and on one domain: a multi-domain decode can race
     on the field's lazily computed generator (CamlinternalLazy.Undefined)
     when nothing in this process has forced it yet. *)
  let reference = Pool.with_domain_limit 1 (fun () -> C.reference_ledger cfg) in
  {
    wl;
    seed;
    rounds;
    out;
    reference;
    setup_s = out.accept_at.(0) -. t_setup;
    cpu_s;
    peak_rss_kb;
    traces;
    heap_words;
  }

(* ---- verdicts ---- *)

let round_ok t r =
  match t.out.ledger.(r) with
  | Some p -> String.equal p t.reference.(r) && not (Float.is_nan t.out.accept_at.(r))
  | None -> false

let failed_rounds t =
  List.filter (fun r -> not (round_ok t r)) (List.init t.rounds Fun.id)

let mismatched_rounds t =
  List.filter
    (fun r ->
      match t.out.ledger.(r) with
      | Some p -> not (String.equal p t.reference.(r))
      | None -> false)
    (List.init t.rounds Fun.id)

(* Timed rounds are 1 .. rounds-1, from round 1's Command broadcast to
   the client moving past the last round. *)
let timed_seconds t =
  if t.rounds < 2 then 0.0 else t.out.done_at.(t.rounds - 1) -. t.out.sent_at.(1)

let timed_accepted t =
  List.length (List.filter (round_ok t) (List.init (t.rounds - 1) (fun r -> r + 1)))

(* Commit latency per timed round; a failed round is [infinity], so it
   misses any limit. *)
let latencies_ms t =
  List.init (t.rounds - 1) (fun i ->
      let r = i + 1 in
      if round_ok t r then 1000.0 *. (t.out.accept_at.(r) -. t.out.sent_at.(r))
      else Float.infinity)

let output_spreads_ms t =
  List.filter_map
    (fun r ->
      if Float.is_nan t.out.first_out.(r) then None
      else Some (1000.0 *. (t.out.last_out.(r) -. t.out.first_out.(r))))
    (List.init (t.rounds - 1) (fun i -> i + 1))

let stats_sum t f =
  Array.fold_left
    (fun s -> function Some st -> s + f st | None -> s)
    0 t.out.stats

let frames_sent t = stats_sum t (fun s -> s.Transport.frames_sent)
let bytes_sent t = stats_sum t (fun s -> s.Transport.bytes_sent)
let frame_errors t = stats_sum t (fun s -> s.Transport.frame_errors)

(* Nearest-rank quantile of the finite-or-infinite samples. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let i = int_of_float (Float.ceil (q *. float_of_int (Array.length a))) - 1 in
    a.(max 0 (min (Array.length a - 1) i))

(* ---- per-layer split of a traced trial ---- *)

let nodes_of t = Array.sub t.traces 0 t.wl.n

let self_s nt =
  nt.acc.(a_wall) -. nt.acc.(a_bench) -. nt.acc.(a_recv) -. nt.acc.(a_send)

(* recv + send + self = Node.run wall time holds by definition of self;
   what can fail is its premise: the wrapper time must fit inside the
   timed call (self ≥ 0), and the per-round stretches, which partition
   part of the call, must not add up to more self time than the whole. *)
let identity_violations t =
  let eps = 1e-6 in
  List.filter_map
    (fun nt ->
      let self = self_s nt in
      let seg =
        Array.fold_left
          (fun s x -> if Float.is_nan x then s else s +. x)
          0.0 nt.seg_self
      in
      let wall = nt.acc.(a_wall) -. nt.acc.(a_bench) in
      let sum = nt.acc.(a_recv) +. nt.acc.(a_send) +. self in
      if nt.acc.(a_wall) <= 0.0 || self < -.eps || seg > self +. eps
         || Float.abs (sum -. wall) > eps
      then Some nt.id
      else None)
    (Array.to_list (nodes_of t))

(* Delivery lag: the send wrapper's stamp at the sender to the recv
   wrapper's return at the receiver, matched on (sender, dst, round,
   kind).  Socket nodes share the host's wall clock. *)
let delivery_lags_us t =
  let lags = ref [] in
  Array.iter
    (fun (dst : node_trace) ->
      for round = 0 to t.rounds - 1 do
        for kind = 0 to protocol_kinds - 1 do
          for sender = 0 to dst.eps - 1 do
            let rx = dst.recvd.(slot dst ~round ~kind ~peer:sender) in
            if not (Float.is_nan rx) then begin
              let src = t.traces.(sender) in
              let tx = src.sent.(slot src ~round ~kind ~peer:dst.id) in
              if not (Float.is_nan tx) then lags := (1e6 *. (rx -. tx)) :: !lags
            end
          done
        done
      done)
    t.traces;
  !lags

(* Self time in the last quarter of rounds over the first quarter
   (warm-up round excluded), over the nodes that send Outputs. *)
let late_early_ratio t =
  let q = max 1 ((t.rounds - 1) / 4) in
  let sum lo hi =
    Array.fold_left
      (fun s nt ->
        let acc = ref s in
        for r = lo to hi - 1 do
          if not (Float.is_nan nt.seg_self.(r)) then acc := !acc +. nt.seg_self.(r)
        done;
        !acc)
      0.0 (nodes_of t)
  in
  sum (t.rounds - q) t.rounds /. sum 1 (1 + q)

(* Replay the trial's rounds through the per-node engine calls, with the
   workload's faults applied to the result vectors as the receivers see
   them: a liar's vector perturbed per its spec, a withholder's missing.
   Per node per round: every node's encode/compute/update (averaged over
   the n nodes) and one decode (all receivers decode the same set). *)
let perturb wl ~node ~round g =
  match fault_of wl node with
  | Node.Lie l when Node.lie_active l ~round -> (
    let off = F.of_int l.Node.l_offset in
    match l.Node.l_coord with
    | None -> Array.map (fun x -> F.add x off) g
    | Some c ->
      let g' = Array.copy g in
      if c >= 0 && c < Array.length g' then g'.(c) <- F.add g'.(c) off;
      g')
  | _ -> g

type engine_split = {
  encode_us : float;
  compute_us : float;
  decode_us : float;
  update_us : float;
  frames : (Frame.t * int) list;  (** one round's frame mix, with counts *)
}

let engine_replay t =
  let wl = t.wl in
  let cfg = cluster_config wl ~seed:t.seed ~rounds:t.rounds in
  let e = E.create ~machine:(C.machine cfg) ~params:cfg.C.params ~init:(C.initial_states cfg) in
  let rng = Csm_rng.create t.seed in
  let senders = delivering wl in
  let n = wl.n in
  let enc = ref 0.0 and comp = ref 0.0 and dec = ref 0.0 and upd = ref 0.0 in
  let frames = ref [] in
  Pool.with_domain_limit 1 (fun () ->
      for r = 0 to t.rounds - 1 do
        let commands = C.workload rng ~k:wl.k r in
        let t0 = now () in
        let coded = Array.init n (fun i -> E.node_encode_command e ~node:i ~commands) in
        let t1 = now () in
        let g = Array.init n (fun i -> E.node_compute e ~node:i ~coded_command:coded.(i)) in
        let t2 = now () in
        let received = List.map (fun j -> (j, perturb wl ~node:j ~round:r g.(j))) senders in
        let d =
          match E.decode_results e received with
          | Some d -> d
          | None -> failwith "replay: decode failed"
        in
        let t3 = now () in
        for i = 0 to n - 1 do
          E.node_update_state e ~node:i ~next_states:d.E.next_states
        done;
        let t4 = now () in
        enc := !enc +. (t1 -. t0);
        comp := !comp +. (t2 -. t1);
        dec := !dec +. (t3 -. t2);
        upd := !upd +. (t4 -. t3);
        if r = t.rounds - 1 then begin
          let cmd = W.encode_commands_bin commands in
          let m = List.length senders in
          let fr kind sender payload = Frame.make ~kind ~sender ~round:r payload in
          frames :=
            [
              (fr Frame.Command n cmd, n);
              (fr Frame.Commit 0 cmd, m * (n - 1));
              (fr Frame.Result 0 (W.encode_vector_bin g.(0)), m * (n - 1));
              ( fr Frame.Output 0
                  (W.encode_matrix_bin (Array.append d.E.outputs d.E.next_states)),
                m );
            ]
        end
      done);
  let per_node x = 1e6 *. x /. float_of_int (n * t.rounds) in
  {
    encode_us = per_node !enc;
    compute_us = per_node !comp;
    decode_us = 1e6 *. !dec /. float_of_int t.rounds;
    update_us = per_node !upd;
    frames = !frames;
  }

(* Exact field operations of the decode, through a counting engine. *)
let decode_field_ops t =
  let wl = t.wl in
  let cfg = cluster_config wl ~seed:t.seed ~rounds:t.rounds in
  let ledger = Ledger.create () in
  let scope = Scope.of_ledger (module CF) ledger in
  let e =
    CE.create ~machine:(CE.M.degree_machine wl.d) ~params:cfg.C.params
      ~init:(C.initial_states cfg)
  in
  let rng = Csm_rng.create t.seed in
  let senders = delivering wl in
  Pool.with_domain_limit 1 (fun () ->
      for r = 0 to t.rounds - 1 do
        let commands = C.workload rng ~k:wl.k r in
        let g =
          Array.init wl.n (fun i ->
              CE.node_compute e ~node:i
                ~coded_command:(CE.node_encode_command e ~node:i ~commands))
        in
        let received = List.map (fun j -> (j, perturb wl ~node:j ~round:r g.(j))) senders in
        match CE.decode_results ~scope e received with
        | Some d ->
          for i = 0 to wl.n - 1 do
            CE.node_update_state e ~node:i ~next_states:d.CE.next_states
          done
        | None -> failwith "replay: decode failed"
      done);
  let a, m, i = Ledger.op_totals ledger in
  float_of_int (a + m + i) /. float_of_int t.rounds

(* Mean time per frame of [f] over one round's frame mix, repeated for
   at least [budget] seconds. *)
let time_per_frame ?(budget = 0.02) mix f =
  let items = List.concat_map (fun (x, c) -> List.init c (fun _ -> x)) mix in
  let count = List.length items in
  let t0 = now () in
  let reps = ref 0 in
  while now () -. t0 < budget do
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
    incr reps
  done;
  1e9 *. (now () -. t0) /. float_of_int (!reps * count)

let wire_costs t (split : engine_split) =
  let wl = t.wl in
  let m = C.machine (cluster_config wl ~seed:t.seed ~rounds:1) in
  let rdim = m.C.M.state_dim + m.C.M.output_dim in
  let mix = split.frames in
  let encoded = List.map (fun (fr, c) -> ((fr, Frame.encode fr), c)) mix in
  let enc = time_per_frame mix (fun fr -> Frame.encode fr) in
  let dec = time_per_frame encoded (fun (_, s) -> Frame.decode s) in
  let payload (fr : Frame.t) =
    match fr.Frame.kind with
    | Frame.Command | Frame.Commit ->
      Option.is_some (W.decode_commands_bin ~k:wl.k ~dim:m.C.M.input_dim fr.Frame.payload)
    | Frame.Result -> Option.is_some (W.decode_vector_bin ~dim:rdim fr.Frame.payload)
    | Frame.Output -> Option.is_some (W.decode_matrix_bin fr.Frame.payload)
    | Frame.Stats | Frame.Shutdown | Frame.Telemetry -> false
  in
  let pay = time_per_frame mix payload in
  (enc, dec, pay)

let layer_metrics t =
  let nodes = nodes_of t in
  let sum f = Array.fold_left (fun s nt -> s +. f nt) 0.0 nodes in
  let node_rounds = float_of_int (t.wl.n * t.rounds) in
  let per_round_ms f = 1000.0 *. sum f /. node_rounds in
  let calls = sum (fun nt -> float_of_int nt.recv_calls) in
  let cmds = float_of_int (t.wl.k * t.rounds) in
  let lags = delivery_lags_us t in
  let self_ms = per_round_ms self_s in
  let split = engine_replay t in
  let engine_ms =
    (split.encode_us +. split.compute_us +. split.decode_us +. split.update_us) /. 1000.0
  in
  let enc_ns, dec_ns, pay_ns = wire_costs t split in
  [
    ("transport.recv_calls_per_round", calls /. node_rounds);
    ("transport.recv_empty_ratio", sum (fun nt -> float_of_int nt.recv_empty) /. calls);
    ("transport.recv_wait_ms_per_round", per_round_ms (fun nt -> nt.acc.(a_recv)));
    ("transport.send_ms_per_round", per_round_ms (fun nt -> nt.acc.(a_send)));
    ("transport.delivery_lag_p50_us", quantile lags 0.5);
    ("transport.delivery_lag_p90_us", quantile lags 0.9);
    ("transport.frames_per_cmd", float_of_int (frames_sent t) /. cmds);
    ("transport.bytes_per_cmd", float_of_int (bytes_sent t) /. cmds);
    ("transport.frame_errors", float_of_int (frame_errors t));
    ("node.run_ms_per_round", per_round_ms (fun nt -> nt.acc.(a_wall) -. nt.acc.(a_bench)));
    ("node.self_ms_per_round", self_ms);
    ("node.unattributed_self_ms_per_round", self_ms -. engine_ms);
    ("node.self_late_early_ratio", late_early_ratio t);
    ("node.heap_words_per_round", t.heap_words);
    ("node.output_spread_p50_ms", quantile (output_spreads_ms t) 0.5);
    ("engine.encode_us_per_round", split.encode_us);
    ("engine.compute_us_per_round", split.compute_us);
    ("engine.decode_us_per_round", split.decode_us);
    ("engine.update_us_per_round", split.update_us);
    ("engine.decode_field_ops_per_round", decode_field_ops t);
    ("engine.share_of_node_self", engine_ms /. self_ms);
    ("wire.frame_encode_ns", enc_ns);
    ("wire.frame_decode_ns", dec_ns);
    ("wire.payload_decode_ns", pay_ns);
  ]
