(* Client layer: Validity (only submitted commands execute), Liveness
   (all submitted commands eventually execute), output attribution, and
   rejection of fabricated proposals. *)

open Csm_field
open Csm_core
module F = Fp.Default
module P = Protocol.Make (F)
module E = P.E
module M = E.M

let fi = F.of_int
let machine = M.bank ()

let setup ?(k = 2) ?(b = 1) () =
  let d = M.degree machine in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = Array.init k (fun i -> [| fi (100 * (i + 1)) |]) in
  let engine = E.create ~machine ~params ~init in
  (P.default_config params, engine, init)

(* Three clients interleave deposits to two machines over several
   rounds; every submission must execute exactly once, in order, with
   the right output delivered. *)
let liveness_and_attribution () =
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  (* round r: client (r mod 3) submits (r+1) to machine 0; machine 1
     gets a submission only on even rounds *)
  let submissions r =
    Array.init k (fun m ->
        if m = 0 then [ { P.client = r mod 3; command = [| fi (r + 1) |] } ]
        else if r mod 2 = 0 then
          [ { P.client = 10 + (r mod 2); command = [| fi (10 * (r + 1)) |] } ]
        else [])
  in
  let rounds = 6 in
  let run = P.run_with_clients cfg engine ~submissions ~rounds Strategy.honest in
  Alcotest.(check int) "no leftovers" 0 run.P.leftover;
  (* all rounds executed *)
  Alcotest.(check int) "all executed" rounds
    (List.length (List.filter (fun o -> o.P.executed) run.P.outcomes));
  (* machine-0 deliveries: client r mod 3 got balance 100 + sum(1..r+1) *)
  let bal = ref 100 in
  List.iteri
    (fun r (d : P.delivery) ->
      Alcotest.(check int) "client id" (r mod 3) d.P.d_client;
      bal := !bal + r + 1;
      match d.P.d_output with
      | Some y -> Alcotest.(check int) "balance" !bal (F.to_int y.(0))
      | None -> Alcotest.fail "no delivery")
    (List.filter (fun d -> d.P.d_machine = 0) run.P.deliveries);
  (* machine 1 executed noops on odd rounds: state advanced only by the
     even-round submissions *)
  let m1 =
    List.filter
      (fun (d : P.delivery) -> d.P.d_machine = 1 && d.P.d_client >= 0)
      run.P.deliveries
  in
  Alcotest.(check int) "m1 executed submissions" 3 (List.length m1);
  ignore init

(* A Byzantine leader proposing a fabricated command vector (not in the
   pool) is rejected by honest validation: the round is skipped, the
   pool is intact, and the command executes under the next leader. *)
let fabricated_proposal_rejected () =
  let cfg, engine, _ = setup () in
  let k = cfg.P.params.Params.k in
  (* node 0 (leader of round 0) proposes corrupted commands *)
  let adv = Strategy.(uniform [ 0 ] (Shift 1)) in
  let submissions r =
    Array.init k (fun m ->
        if r = 0 then [ { P.client = 1; command = [| fi (m + 5) |] } ] else [])
  in
  let run = P.run_with_clients cfg engine ~submissions ~rounds:2 adv in
  let o0 = List.nth run.P.outcomes 0 and o1 = List.nth run.P.outcomes 1 in
  Alcotest.(check bool) "round 0 skipped" false o0.P.executed;
  Alcotest.(check bool) "round 1 executed" true o1.P.executed;
  Alcotest.(check int) "commands eventually executed" 0 run.P.leftover;
  (* the round-1 deliveries carry the round-0 submissions *)
  List.iter
    (fun (d : P.delivery) ->
      Alcotest.(check int) "submitting client" 1 d.P.d_client)
    run.P.deliveries

(* Validity even when the fabricated proposal is well-formed wire data:
   an honest node must reject any value not matching the pool heads. *)
let validate_hook_applied () =
  let cfg, engine, _ = setup () in
  let k = cfg.P.params.Params.k in
  let commands = Array.init k (fun m -> [| fi (m + 1) |]) in
  (* validation that rejects everything: consensus decides, execution
     must still be skipped *)
  let outcome =
    P.run_round ~validate:(fun _ -> false) cfg engine ~round:1 ~commands
      Strategy.honest
  in
  Alcotest.(check bool) "skipped" true (outcome.P.consensus = P.Skipped);
  Alcotest.(check bool) "not executed" false outcome.P.executed

(* Noop rounds advance machines by zero: state unchanged. *)
let noop_rounds_preserve_state () =
  let cfg, engine, init = setup () in
  let k = cfg.P.params.Params.k in
  let submissions _ = Array.init k (fun _ -> []) in
  let run =
    P.run_with_clients cfg engine ~submissions ~rounds:3 Strategy.honest
  in
  Alcotest.(check int) "all executed" 3
    (List.length (List.filter (fun o -> o.P.executed) run.P.outcomes));
  (* bank with deposit 0: balance unchanged *)
  Alcotest.(check bool) "state preserved" true
    (E.consistent_with engine ~states:init)

(* The client layer composes with the partially synchronous stack too:
   PBFT consensus, withholding faults, pools and attribution. *)
let clients_partial_sync () =
  let k = 2 and b = 1 in
  let d = M.degree machine in
  let n = Params.composite_degree ~k ~d + (3 * b) + 1 in
  let params = Params.make ~network:Params.Partial_sync ~n ~k ~d ~b in
  let init = Array.init k (fun i -> [| fi (100 * (i + 1)) |]) in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in
  let adv = Strategy.(uniform [ n - 1 ] (Silence [])) in
  let submissions r =
    Array.init k (fun m ->
        [ { P.client = (10 * m) + r; command = [| fi (r + m + 1) |] } ])
  in
  let run = P.run_with_clients cfg engine ~submissions ~rounds:3 adv in
  Alcotest.(check int) "no leftovers" 0 run.P.leftover;
  List.iter
    (fun (d : P.delivery) ->
      match d.P.d_output with
      | Some _ -> ()
      | None -> Alcotest.fail "partial-sync delivery missing")
    run.P.deliveries;
  Alcotest.(check int) "deliveries" (3 * k) (List.length run.P.deliveries)

let suites =
  [
    ( "protocol:clients",
      [
        Alcotest.test_case "liveness + attribution" `Quick
          liveness_and_attribution;
        Alcotest.test_case "fabricated proposal rejected (validity)" `Quick
          fabricated_proposal_rejected;
        Alcotest.test_case "validate hook applied" `Quick validate_hook_applied;
        Alcotest.test_case "noop rounds preserve state" `Quick
          noop_rounds_preserve_state;
        Alcotest.test_case "client layer under partial sync" `Quick
          clients_partial_sync;
      ] );
  ]
