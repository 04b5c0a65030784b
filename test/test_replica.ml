(* The replica core: the cluster's commit → execute → decode round run
   inside the simulator against the real runtime's reference ledger,
   and its round-keyed state held to the window, once-per-sender and
   quorum rules over random input sequences. *)

module F = Csm_field.Fp.Default
module Params = Csm_core.Params
module Replica = Csm_core.Replica
module R = Replica.Make (F)
module P = Csm_core.Protocol.Make (F)
module E = P.E
module W = Csm_core.Wire.Make (F)
module Net = Csm_sim.Net
module Node = Csm_transport.Node
module C = Csm_transport.Cluster.Make (F)

(* ----- the cluster round, simulated ----- *)

(* loop-n16-byz's shape: node 1 lies, node 2 is silent. *)
let cluster_cfg =
  {
    C.params = Params.make ~network:Params.Sync ~n:16 ~k:4 ~d:2 ~b:3;
    rounds = 20;
    seed = 1;
    mode = Csm_transport.Cluster.Loopback;
    faults = [ (1, Node.Lie Node.lie_default); (2, Node.Drop) ];
    deadline = 10.0;
    trace = false;
    telemetry = false;
    stream = None;
    live = None;
  }

(* Nodes 0..n−1 run the replica core through [Protocol.replica] with
   the cluster node's quorum (every node but the silent one delivers);
   node 1's Results go through [Engine.corrupt_result] shifted by 1, as
   a [Node.lie_default] node's do.  Endpoint n is the client: it sends
   each round's Command, collects the delivering nodes' Outputs and
   votes on their payload bytes. *)
let simulate () =
  let p = cluster_cfg.C.params in
  let n = p.Params.n and b = p.Params.b and k = p.Params.k in
  let rounds = cluster_cfg.C.rounds in
  let engine =
    E.create
      ~machine:(E.M.degree_machine p.Params.d)
      ~params:p ~init:(C.initial_states cluster_cfg)
  in
  let delivering = n - 1 in
  let corrected = ref 0 in
  (* node 1's sends, as a Lie node ships them *)
  let lie (b : P.sim_msg Net.behavior) =
    let wrap api =
      let send dst = function
        | round, Replica.Result g ->
          Option.iter
            (fun g -> api.Net.send dst (round, Replica.Result g))
            (E.corrupt_result engine (Csm_core.Strategy.Shift 1) ~node:1
               ~round ~observer:dst g)
        | m -> api.Net.send dst m
      in
      { api with Net.send }
    in
    {
      Net.init = (fun api -> b.Net.init (wrap api));
      on_message = (fun api ~sender m -> b.Net.on_message (wrap api) ~sender m);
      on_timer = (fun api tag -> b.Net.on_timer (wrap api) tag);
    }
  in
  let node i =
    if i = 2 then Net.silent
    else
      (if i = 1 then lie else Fun.id)
      @@ P.replica engine ~node:i ~quorum:(Some delivering) ~round:0
        ~finish:(fun api ~round d ->
          Option.iter
            (fun (d : E.decoded) ->
              if List.mem 1 d.E.error_nodes then incr corrected;
              api.Net.send n
                (round, Replica.Output (Array.append d.E.outputs d.E.next_states));
              E.node_update_state engine ~node:i ~next_states:d.E.next_states)
            d)
  in
  let rng = Csm_rng.create cluster_cfg.C.seed in
  let ledger = Array.make rounds None in
  let got = Array.make n None in
  let command api r =
    let cs = C.workload rng ~k r in
    let payload = W.encode_commands_bin cs in
    for i = 0 to n - 1 do
      api.Net.send i (r, Replica.Command (payload, cs))
    done
  in
  let client =
    {
      Net.silent with
      init = (fun api -> command api 0);
      on_message =
        (fun api ~sender (r, msg) ->
          match msg with
          | Replica.Output rows when Option.is_none got.(sender) ->
            got.(sender) <- Some (W.encode_matrix_bin rows);
            let outs = List.filter_map Fun.id (Array.to_list got) in
            if List.length outs = delivering then begin
              ledger.(r) <-
                Replica.vote ~equal:String.equal ~threshold:(b + 1) outs;
              Array.fill got 0 n None;
              if r + 1 < rounds then command api (r + 1)
            end
          | _ -> ());
    }
  in
  let stats =
    Net.run ~latency:(Net.sync ~delta:1)
      ~size:(fun (_, m) -> P.size m)
      (Array.init (n + 1) (fun i -> if i = n then client else node i))
  in
  (ledger, stats, !corrected)

let cluster_round_in_sim () =
  let reference = C.reference_ledger cluster_cfg in
  let ledger, stats, corrected = simulate () in
  (* every node but the liar and the silent one corrects node 1 *)
  Alcotest.(check int) "decodes that corrected node 1"
    ((cluster_cfg.C.params.Params.n - 2) * cluster_cfg.C.rounds)
    corrected;
  Array.iteri
    (fun r expect ->
      Alcotest.(check (option string))
        (Printf.sprintf "round %d voted payload" r)
        (Some expect) ledger.(r))
    reference;
  let ledger', stats', _ = simulate () in
  Alcotest.(check (array (option string))) "same ledger twice" ledger ledger';
  Alcotest.(check bool) "same Net.stats twice" true (stats = stats')

(* ----- random input sequences ----- *)

let n = 5
let params = Params.make ~network:Params.Sync ~n ~k:2 ~d:1 ~b:1
let me = 0

let commands c =
  Array.init params.Params.k (fun m -> [| F.of_int ((10 * c) + m + 1) |])

(* One fuzz step, from four small ints: a message (Command, Commit or
   Result, for the previous, current, next or next-but-one round, from
   any sender, self and the client included), a Timeout or the
   driver's advance. *)
type action =
  | Receive of { round : int; sender : int; msg : F.t Replica.msg }
  | Timeout
  | Advance

let action ~cur (tag, round, sender, choice) =
  let round = max 0 (cur - 1 + (round mod 4)) and sender = sender mod (n + 1) in
  let msg m = Receive { round; sender; msg = m } in
  match tag mod 8 with
  | 0 ->
    let cs = commands (choice mod 2) in
    msg (Replica.Command (W.encode_commands_bin cs, cs))
  | 1 | 2 -> msg (Replica.Commit (W.encode_commands_bin (commands (choice mod 2))))
  | 3 | 4 | 5 -> msg (Replica.Result [| F.of_int choice; F.of_int (choice / 3) |])
  | 6 -> Timeout
  | _ -> Advance

let phase name = List.exists (function R.Phase p -> p = name | _ -> false)

(* After every input: at most two round slots live, and a stage that
   ends without a Timeout has its quorum — counting each peer once (a
   model of distinct senders fed while the round was live) plus the
   node itself. *)
let replica_invariants =
  QCheck.Test.make ~name:"replica: window, once per sender, quorum" ~count:300
    QCheck.(
      pair (int_bound (n + 1))
        (list_of_size Gen.(0 -- 60) (quad small_nat small_nat small_nat small_nat)))
    (fun (q, steps) ->
      let quorum = if q > n then None else Some (max 1 q) in
      let engine =
        E.create ~machine:(E.M.degree_machine 1) ~params
          ~init:[| [| F.of_int 3 |]; [| F.of_int 4 |] |]
      in
      let t = R.create engine ~node:me ~quorum ~round:0 in
      let commits = Hashtbl.create 8 and results = Hashtbl.create 8 in
      let distinct tbl r = List.length (List.sort_uniq Int.compare (Hashtbl.find_all tbl r)) in
      let has_quorum c = match quorum with Some q -> c >= q | None -> false in
      List.for_all
        (fun step ->
          let cur = R.round t in
          let timeout, outs =
            match action ~cur step with
            | Advance -> (false, R.advance t)
            | Timeout -> (true, R.timeout t)
            | Receive { round; sender; msg } ->
              if round >= cur && round <= cur + 1 && sender <> me && sender < n
              then (
                match msg with
                | Replica.Commit _ -> Hashtbl.add commits round sender
                | Replica.Result _ -> Hashtbl.add results round sender
                | _ -> ());
              (false, R.receive t ~round ~sender msg)
          in
          let r = R.round t in
          let decoded = phase "decoded" outs || phase "decode-failed" outs in
          let committed =
            phase "committed" outs
            || (List.exists (function R.Failed -> true | _ -> false) outs
               && not decoded)
          in
          let live_ok = R.live_rounds t <= 2 in
          let commit_ok = timeout || (not committed) || has_quorum (distinct commits r + 1) in
          let decode_ok =
            timeout || (not decoded) || has_quorum (distinct results r + 1)
          in
          if not (live_ok && commit_ok && decode_ok) then
            QCheck.Test.fail_reportf "round %d: live=%b commit=%b decode=%b" r
              live_ok commit_ok decode_ok;
          true)
        steps)

let suites =
  [
    ( "replica",
      [
        Alcotest.test_case "cluster round in the simulator = reference ledger"
          `Quick cluster_round_in_sim;
        QCheck_alcotest.to_alcotest ~long:false replica_invariants;
      ] );
  ]
