(* Aggregated test runner: each test_*.ml module exports [suites]. *)

let () =
  Alcotest.run "csm"
    (List.concat
       [
         Test_rng.suites;
         Test_mvpoly.suites;
         Test_machine.suites;
         Test_csm_core.suites;
         Test_sim.suites;
         Test_consensus.suites;
         Test_smr.suites;
         Test_intermix.suites;
         Test_protocol.suites;
         Test_extensions.suites;
         Test_clients.suites;
         Test_chain.suites;
         Test_replica.suites;
         Test_circuit.suites;
         Test_metrics.suites;
         Test_field.suites;
         Test_poly.suites;
         Test_linalg.suites;
         Test_rs.suites;
         Test_parallel.suites;
         Test_obs.suites;
         Test_gate.suites;
         Test_transport.suites;
         Test_adversary.suites;
         Test_lint.suites;
       ])
