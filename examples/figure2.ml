(* Figure 2 of the paper, realized end to end: K = 2 state machines,
   a malicious node 2 that (a) equivocates in the consensus phase and
   (b) sends erroneous computation results in the execution phase.

   Figure 2 draws N = 3 for illustration; N = 3 has no error-correction
   slack (2b+1 <= N - d(K-1) forces b = 0), so we run the smallest
   fault-tolerant instantiation N = 5, b = 1 and let node 2 mount both
   attacks.  The consensus protocol (Dolev-Strong) neutralizes the
   split view, and Reed-Solomon decoding corrects the bad result.

   Run with:  dune exec examples/figure2.exe *)

module F = Csm_field.Fp.Default
module Params = Csm_core.Params
module P = Csm_core.Protocol.Make (F)
module E = P.E
module M = E.M

let fi = F.of_int

let () =
  let machine = M.bank () in
  let k = 2 and b = 1 and d = 1 in
  let n = 5 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = [| [| fi 10 |]; [| fi 20 |] |] in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in

  (* node 2: equivocates whenever it leads the consensus phase, and adds
     +1 to every coordinate of its execution-phase result *)
  let adv = Csm_core.Strategy.(uniform [ 2 ] (Shift 1)) in

  Format.printf "Figure 2 scenario: K=2 machines, N=%d nodes, node 2 malicious@." n;
  Format.printf "initial balances: S_1 = 10, S_2 = 20@.@.";

  let workload r = [| [| fi (r + 1) |]; [| fi (10 * (r + 1)) |] |] in
  let outcomes = P.run cfg engine ~workload ~rounds:5 adv in

  List.iter
    (fun (o : P.round_outcome) ->
      let leader = o.P.round mod n in
      Format.printf "round %d (leader = node %d):@." o.P.round leader;
      (match o.P.consensus with
      | P.Agreed _ -> Format.printf "  consensus phase: agreed on commands@."
      | P.Skipped ->
        Format.printf
          "  consensus phase: node %d equivocated -> all honest nodes saw ⊥,@."
          leader;
        Format.printf "  round skipped consistently (Figure 2(a) attack defeated)@."
      | P.Disagreement -> Format.printf "  CONSENSUS VIOLATION (bug!)@.");
      if o.P.executed then begin
        (match o.P.decoded with
        | Some dec ->
          Format.printf
            "  execution phase: node 2's erroneous g_2 corrected by RS decoding%s@."
            (if List.mem 2 dec.E.error_nodes then " (error located at node 2)"
             else "");
          Array.iteri
            (fun m y ->
              Format.printf "    machine %d output %s delivered to client@." m
                (F.to_string y.(0)))
            dec.E.outputs
        | None -> ())
      end;
      Format.printf "@.")
    outcomes;

  let executed = List.filter (fun o -> o.P.executed) outcomes in
  Format.printf
    "%d/5 rounds executed (the round led by node 2 was skipped; liveness@."
    (List.length executed);
  Format.printf "resumes with the next honest leader — node 2 never caused@.";
  Format.printf "an inconsistency or a wrong client output)@."
