(* A two-asset exchange over the full networked CSM stack, including the
   client layer: clients submit trades to per-market pools, the rotating
   leader proposes pool heads, honest nodes enforce Validity, coded
   execution corrects Byzantine nodes, and each client gets its fill
   receipt with b+1 matching votes.

   The machine is the quadratic pair market (state = two reserves,
   trades add with a quadratic slippage cross-term) — a degree-2
   multivariate machine exercising multi-dimensional states end to end.

   Run with:  dune exec examples/exchange.exe *)

module F = Csm_field.Fp.Default
module Params = Csm_core.Params
module P = Csm_core.Protocol.Make (F)
module E = P.E
module M = E.M

let fi = F.of_int

let () =
  let machine = M.pair_market () in
  let d = M.degree machine in
  let k = 2 (* two trading pairs *) and b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  Format.printf "exchange: %d markets on %d nodes, %d byzantine@." k n b;
  Format.printf "machine: %a@.@." M.pp machine;

  let init =
    [| [| fi 1000; fi 2000 |]; [| fi 5000; fi 500 |] |]
  in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in
  let liars = [ n - 1; n - 2 ] in
  let adv = Csm_core.Strategy.(uniform liars (Shift 1)) in

  (* trades: (client, market, amount_a, amount_b); market 1 is quiet on
     odd rounds *)
  let submissions r =
    Array.init k (fun m ->
        if m = 0 then
          [ { P.client = 100 + r; command = [| fi (r + 1); fi (2 * (r + 1)) |] } ]
        else if r mod 2 = 0 then
          [ { P.client = 200 + r; command = [| fi 3; fi 1 |] } ]
        else [])
  in
  let rounds = 6 in
  let run = P.run_with_clients cfg engine ~submissions ~rounds adv in

  List.iter
    (fun (o : P.round_outcome) ->
      Format.printf "round %d: %s%s@." o.P.round
        (match o.P.consensus with
        | P.Agreed _ -> "agreed"
        | P.Skipped -> "skipped (byzantine leader)"
        | P.Disagreement -> "DISAGREEMENT!")
        (if o.P.executed then ", executed" else ""))
    run.P.outcomes;

  Format.printf "@.fills delivered to clients:@.";
  List.iter
    (fun (dv : P.delivery) ->
      if dv.P.d_client >= 0 then
        match dv.P.d_output with
        | Some y ->
          Format.printf "  client %d (market %d, round %d): reserves -> (%s, %s)@."
            dv.P.d_client dv.P.d_machine dv.P.d_round (F.to_string y.(0))
            (F.to_string y.(1))
        | None -> Format.printf "  client %d: NO QUORUM@." dv.P.d_client)
    run.P.deliveries;

  Format.printf "@.%d submissions left in the pools (liveness: 0 expected if no round was skipped,@."
    run.P.leftover;
  Format.printf "a skipped round's trades execute under the next leader)@."
