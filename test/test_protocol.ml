(* End-to-end networked CSM: consensus + coded execution + client
   delivery over the simulator, under passive, lying, equivocating and
   withholding adversaries, in both network models.  This realizes the
   Figure-1/Figure-2 scenarios of the paper. *)

open Csm_field
open Csm_core
module F = Fp.Default
module P = Protocol.Make (F)
module E = P.E
module M = E.M

let rng = Csm_rng.create 0xE2E
let fi = F.of_int

let machine = M.bank ()

let setup ?(network = Params.Sync) ?(k = 3) ?(b = 2) () =
  let d = M.degree machine in
  let c = match network with Params.Sync -> 2 | Params.Partial_sync -> 3 in
  let n = Params.composite_degree ~k ~d + (c * b) + 1 in
  let params = Params.make ~network ~n ~k ~d ~b in
  let init = Array.init k (fun i -> [| fi (1000 * (i + 1)) |]) in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in
  (cfg, engine, init)

let workload k r = Array.init k (fun m -> [| fi ((10 * r) + m + 1) |])

(* Reference trajectory for comparison. *)
let reference init ~k ~rounds =
  let states = ref (Array.map Array.copy init) in
  List.init rounds (fun r ->
      let next, outs = M.run_fleet machine ~states:!states ~commands:(workload k r) in
      states := next;
      outs)

let check_outcomes ?(expect_all_rounds = true) outcomes refs k b_liars =
  List.iteri
    (fun r (o : P.round_outcome) ->
      if expect_all_rounds then begin
        Alcotest.(check bool)
          (Printf.sprintf "round %d executed" r)
          true o.P.executed;
        Alcotest.(check bool) "honest agree" true o.P.honest_agree;
        let expected = List.nth refs r in
        Array.iteri
          (fun m out ->
            match out with
            | None -> Alcotest.failf "round %d machine %d undelivered" r m
            | Some y ->
              if not (F.equal y.(0) expected.(m).(0)) then
                Alcotest.failf "round %d machine %d wrong output" r m)
          o.P.delivered
      end)
    outcomes;
  ignore k;
  ignore b_liars

let honest_run_sync () =
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:4 Strategy.honest
  in
  check_outcomes outcomes (reference init ~k ~rounds:4) k []

let lying_sync () =
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let b = cfg.P.params.Params.b in
  (* liars chosen away from early leaders so no round is skipped *)
  let liars = List.init b (fun i -> cfg.P.params.Params.n - 1 - i) in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:4
      Strategy.(uniform liars (Shift 1))
  in
  check_outcomes outcomes (reference init ~k ~rounds:4) k liars

let equivocating_execution_sync () =
  (* byz nodes send different g to different peers; honest nodes must
     still decode identically (Remark after Table 2) *)
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let b = cfg.P.params.Params.b in
  let liars = List.init b (fun i -> cfg.P.params.Params.n - 1 - i) in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:3
      Strategy.(uniform liars (Equivocate { seed = 0xE9 }))
  in
  check_outcomes outcomes (reference init ~k ~rounds:3) k liars

let byzantine_leader_round_skipped () =
  (* round 0's leader (node 0) is Byzantine and equivocates: honest nodes
     decide ⊥ and skip; round 1 has an honest leader and proceeds *)
  let cfg, engine, _init = setup () in
  let k = cfg.P.params.Params.k in
  let adv = Strategy.(uniform [ 0 ] (Shift 1)) in
  let outcomes = P.run cfg engine ~workload:(workload k) ~rounds:2 adv in
  let r0 = List.nth outcomes 0 and r1 = List.nth outcomes 1 in
  Alcotest.(check bool) "round 0 skipped" true (r0.P.consensus = P.Skipped);
  Alcotest.(check bool) "round 0 not executed" false r0.P.executed;
  Alcotest.(check bool) "round 1 executed" true r1.P.executed

let withholding_partial_sync () =
  let cfg, engine, init = setup ~network:Params.Partial_sync () in
  let k = cfg.P.params.Params.k in
  let b = cfg.P.params.Params.b in
  let liars = List.init b (fun i -> cfg.P.params.Params.n - 1 - i) in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:3
      Strategy.(uniform liars (Silence []))
  in
  check_outcomes outcomes (reference init ~k ~rounds:3) k liars

let lying_partial_sync () =
  let cfg, engine, init = setup ~network:Params.Partial_sync () in
  let k = cfg.P.params.Params.k in
  let b = cfg.P.params.Params.b in
  let liars = List.init b (fun i -> cfg.P.params.Params.n - 1 - i) in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:3
      Strategy.(uniform liars (Shift 1))
  in
  check_outcomes outcomes (reference init ~k ~rounds:3) k liars

let partial_sync_with_slow_network () =
  (* adversarial delays before GST: liveness resumes after *)
  let cfg, engine, init = setup ~network:Params.Partial_sync ~k:2 ~b:1 () in
  let cfg = { cfg with P.gst = 500; pre_gst_delay = 100_000 } in
  let k = cfg.P.params.Params.k in
  let outcomes =
    P.run cfg engine ~workload:(workload k) ~rounds:2 Strategy.honest
  in
  check_outcomes outcomes (reference init ~k ~rounds:2) k []

let figure2_scenario () =
  (* The paper's Figure 2: K=2 machines, N=3 nodes, node 2 malicious.
     N=3, K=2, d=1 gives d(K-1)=1, so sync decoding tolerates
     2b+1 <= 2 -> b=0: Figure 2's parameters only illustrate the flow,
     so we run its faithful "next size up": N=5 tolerates b=1. *)
  let k = 2 and d = 1 and b = 1 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  Alcotest.(check int) "n" 4 n;
  let n = max n 5 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = [| [| fi 10 |]; [| fi 20 |] |] in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in
  (* node 2 equivocates in consensus when leader and lies in execution *)
  let adv = Strategy.(uniform [ 2 ] (Shift 1)) in
  let outcomes = P.run cfg engine ~workload:(workload k) ~rounds:3 adv in
  List.iteri
    (fun r (o : P.round_outcome) ->
      if r mod n <> 2 then begin
        Alcotest.(check bool) "executed" true o.P.executed;
        (* the liar is exposed by decoding *)
        match o.P.decoded with
        | Some d ->
          Alcotest.(check bool) "node 2 in error set" true
            (List.mem 2 d.E.error_nodes)
        | None -> Alcotest.fail "no decode"
      end)
    outcomes

let storage_stays_coded () =
  (* after protocol rounds the engine's coded states match the reference *)
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let rounds = 3 in
  ignore (P.run cfg engine ~workload:(workload k) ~rounds Strategy.honest);
  let states = ref (Array.map Array.copy init) in
  for r = 0 to rounds - 1 do
    let next, _ = M.run_fleet machine ~states:!states ~commands:(workload k r) in
    states := next
  done;
  Alcotest.(check bool) "coded states consistent" true
    (E.consistent_with engine ~states:!states)

let wire_roundtrip () =
  let module W = P.W in
  for _ = 1 to 50 do
    let k = 1 + Csm_rng.int rng 5 in
    let dim = 1 + Csm_rng.int rng 4 in
    let cmds = Array.init k (fun _ -> Array.init dim (fun _ -> F.random rng)) in
    match W.decode_commands ~k ~dim (W.encode_commands cmds) with
    | None -> Alcotest.fail "wire roundtrip failed"
    | Some back ->
      Array.iteri
        (fun i v ->
          Array.iteri
            (fun j x ->
              if not (F.equal x back.(i).(j)) then Alcotest.fail "wire value")
            v)
        cmds
  done;
  (* malformed rejected *)
  Alcotest.(check bool) "bad arity" true
    (P.W.decode_commands ~k:2 ~dim:1 "1" = None);
  Alcotest.(check bool) "bad int" true
    (P.W.decode_commands ~k:1 ~dim:1 "xyz" = None)

(* Differential testing: the networked protocol and the pure engine,
   fed identical commands, must produce identical per-round outputs and
   end in identical coded states (the network layer adds no semantics). *)
let protocol_vs_engine_differential =
  QCheck.Test.make ~name:"protocol = engine (differential)" ~count:10
    (QCheck.make (QCheck.Gen.return ()))
    (fun () ->
      let k = 2 + Csm_rng.int rng 2 in
      let b = 1 + Csm_rng.int rng 2 in
      let d = M.degree machine in
      let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
      let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
      let init = Array.init k (fun _ -> [| F.random rng |]) in
      let rounds = 3 in
      let cmds =
        Array.init rounds (fun _ ->
            Array.init k (fun _ -> [| F.random rng |]))
      in
      (* networked run *)
      let e1 = E.create ~machine ~params ~init in
      let cfg = P.default_config params in
      let outcomes =
        P.run cfg e1 ~workload:(fun r -> cmds.(r)) ~rounds Strategy.honest
      in
      (* pure engine run *)
      let e2 = E.create ~machine ~params ~init in
      let ok = ref true in
      List.iteri
        (fun r (o : P.round_outcome) ->
          let report =
            E.round e2 ~commands:cmds.(r) ~byzantine:(fun _ -> false) ()
          in
          match (o.P.decoded, report.E.decoded) with
          | Some a, Some b' ->
            for m = 0 to k - 1 do
              if not (F.equal a.E.outputs.(m).(0) b'.E.outputs.(m).(0)) then
                ok := false
            done
          | _ -> ok := false)
        outcomes;
      (* identical final coded states *)
      Array.iteri
        (fun i v ->
          Array.iteri
            (fun j x ->
              if not (F.equal x e2.E.coded_states.(i).(j)) then ok := false)
            v)
        e1.E.coded_states;
      !ok)

(* The protocol under searched adversaries: heterogeneous, scheduled
   Strategy.random plans over at most b nodes.  No round may split the
   honest nodes; executed rounds decode identically at every honest node
   and match the uncoded reference (stepped on the agreed commands of
   the executed rounds only) with the right outputs delivered; and a
   round whose leader has no plan always executes. *)
let protocol_under_strategies network =
  let name =
    match network with
    | Params.Sync -> "sync"
    | Params.Partial_sync -> "partial sync"
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "protocol safe under random strategies (%s)" name)
    ~count:25
    QCheck.(make ~print:string_of_int Gen.(int_bound 0xFFFFFF))
    (fun seed ->
      let k = 2 and b = 2 and rounds = 4 in
      let cfg, engine, init = setup ~network ~k ~b () in
      let n = cfg.P.params.Params.n in
      let strat =
        Strategy.random (Csm_rng.create seed) ~n ~rounds_total:rounds
          ~max_nodes:b
      in
      let outcomes = P.run cfg engine ~workload:(workload k) ~rounds strat in
      let states = ref (Array.map Array.copy init) in
      let veq a b' = Array.for_all2 F.equal a b' in
      List.iter
        (fun (o : P.round_outcome) ->
          let fail what =
            QCheck.Test.fail_reportf "%s: round %d %s" (Strategy.name strat)
              o.P.round what
          in
          let leader_honest =
            not (List.mem (o.P.round mod n) (Strategy.byz_nodes strat))
          in
          match (o.P.consensus, o.P.decoded) with
          | P.Disagreement, _ -> fail "honest nodes disagreed"
          | P.Agreed commands, Some d ->
            if not o.P.honest_agree then fail "honest decoders split";
            let next, outs = M.run_fleet machine ~states:!states ~commands in
            states := next;
            if not (Array.for_all2 veq d.E.next_states next) then
              fail "decoded states differ from the reference";
            Array.iteri
              (fun m out ->
                match out with
                | Some y when veq y outs.(m) -> ()
                | _ -> fail (Printf.sprintf "machine %d delivery wrong" m))
              o.P.delivered
          | (P.Agreed _ | P.Skipped), _ ->
            if leader_honest then fail "skipped under an honest leader")
        outcomes;
      true)

(* csm_run's --adversary and --network are closed enums: a typo is a
   usage error (exit 124), not a silent passive or synchronous run *)
let run_cli_enums () =
  let exe =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
      "csm_run.exe"
  in
  let run args =
    Sys.command
      (Printf.sprintf "CSM_TICKER=0 %s %s > /dev/null 2>&1" (Filename.quote exe)
         args)
  in
  Alcotest.(check int) "bad --adversary" 124 (run "--adversary lyin");
  Alcotest.(check int) "bad --network" 124 (run "--network partal");
  Alcotest.(check int) "valid names run" 0
    (run "--adversary withhold --network partial --rounds 1")

let suites =
  [
    ( "protocol:e2e",
      [
        Alcotest.test_case "honest run (sync)" `Quick honest_run_sync;
        Alcotest.test_case "lying adversary (sync)" `Quick lying_sync;
        Alcotest.test_case "equivocating execution (sync)" `Quick
          equivocating_execution_sync;
        Alcotest.test_case "byzantine leader: round skipped, next recovers"
          `Quick byzantine_leader_round_skipped;
        Alcotest.test_case "withholding (partial sync)" `Quick
          withholding_partial_sync;
        Alcotest.test_case "lying (partial sync)" `Quick lying_partial_sync;
        Alcotest.test_case "pre-GST adversarial delays" `Quick
          partial_sync_with_slow_network;
        Alcotest.test_case "figure-2 scenario" `Quick figure2_scenario;
        Alcotest.test_case "coded storage stays consistent" `Quick
          storage_stays_coded;
        Alcotest.test_case "wire roundtrip" `Quick wire_roundtrip;
        Alcotest.test_case "csm_run rejects unknown enum values" `Quick
          run_cli_enums;
        QCheck_alcotest.to_alcotest ~long:false protocol_vs_engine_differential;
        QCheck_alcotest.to_alcotest ~long:false
          (protocol_under_strategies Params.Sync);
        QCheck_alcotest.to_alcotest ~long:false
          (protocol_under_strategies Params.Partial_sync);
      ] );
  ]
