(* Chained (multi-slot) PBFT: per-slot agreement and validity, pipelining
   speedup, independence of slots under crashed leaders, and randomized
   fuzzing of both consensus protocols under random Byzantine subsets. *)

module Auth = Csm_crypto.Auth
module Net = Csm_sim.Net
module Chain = Csm_consensus.Chain
module Pbft = Csm_consensus.Pbft
module DS = Csm_consensus.Dolev_strong

let keyring n seed = Auth.create_keyring (Csm_rng.create seed) ~n

let chain_config ?(n = 7) ?(f = 2) ?(slots = 8) () =
  {
    Chain.n;
    f;
    slots;
    base_timeout = 2000;
    instance = "chain-test";
    keyring = keyring n 0xC4A1;
  }

let value node slot = Printf.sprintf "v-%d-%d" node slot

let check_slot_agreement cfg decisions ~honest ~slot ~expect =
  let decided =
    List.filter_map (fun i -> decisions.(i).(slot)) honest
  in
  Alcotest.(check int)
    (Printf.sprintf "slot %d: all honest decided" slot)
    (List.length honest) (List.length decided);
  match decided with
  | [] -> Alcotest.fail "nobody decided"
  | v :: rest ->
    List.iter (fun v' -> Alcotest.(check string) "agreement" v v') rest;
    (match expect with
    | Some e -> Alcotest.(check string) "validity" e v
    | None -> ());
    ignore cfg

let all_slots_decide () =
  let cfg = chain_config () in
  let { Chain.decisions; _ } =
    Chain.run cfg ~proposals:(fun node slot -> Some (value node slot)) ()
  in
  for slot = 0 to cfg.Chain.slots - 1 do
    check_slot_agreement cfg decisions
      ~honest:(List.init cfg.Chain.n (fun i -> i))
      ~slot
      ~expect:(Some (value 0 slot))
  done

let pipelining_speedup () =
  (* S slots in one simulation must finish far faster than S sequential
     single-slot runs *)
  let slots = 8 in
  let cfg = chain_config ~slots () in
  let { Chain.stats = chain_stats; decisions } =
    Chain.run cfg ~proposals:(fun node slot -> Some (value node slot)) ()
  in
  (* sanity: everything decided *)
  for slot = 0 to slots - 1 do
    check_slot_agreement cfg decisions
      ~honest:(List.init cfg.Chain.n (fun i -> i))
      ~slot ~expect:None
  done;
  let single = Pbft.run (Chain.slot_config cfg 0) ~proposals:(fun _ -> Some "v") () in
  (* happy-path chains idle until the view-0 timers fire at base_timeout;
     decision traffic itself finishes much earlier.  Compare decision
     completion: the chain's last *message* event is bounded by a small
     multiple of the single-slot message time (not slots ×). *)
  let chain_time = chain_stats.Net.end_time in
  let single_time = single.Pbft.stats.Net.end_time in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined %d <= %d x %d slots" chain_time single_time slots)
    true
    (chain_time < slots * single_time)

let slots_independent_under_crashed_leader () =
  (* node 0 crashed: it leads view 0 of EVERY slot, so every slot view
     changes to leader 1 — all slots still decide (val of node 1) *)
  let cfg = chain_config ~slots:5 () in
  let { Chain.decisions; _ } =
    Chain.run cfg
      ~proposals:(fun node slot -> Some (value node slot))
      ~byzantine:(fun i -> if i = 0 then Some Net.silent else None)
      ()
  in
  for slot = 0 to cfg.Chain.slots - 1 do
    check_slot_agreement cfg decisions
      ~honest:(List.init (cfg.Chain.n - 1) (fun i -> i + 1))
      ~slot
      ~expect:(Some (value 1 slot))
  done

let chain_under_partial_sync () =
  let cfg = chain_config ~slots:4 () in
  let latency =
    Net.partial_sync ~gst:15_000 ~delta:10
      ~pre:(fun ~src:_ ~dst:_ ~now:_ -> 500_000)
  in
  let { Chain.decisions; _ } =
    Chain.run cfg ~latency ~max_time:5_000_000
      ~proposals:(fun node slot -> Some (value node slot))
      ()
  in
  for slot = 0 to cfg.Chain.slots - 1 do
    check_slot_agreement cfg decisions
      ~honest:(List.init cfg.Chain.n (fun i -> i))
      ~slot ~expect:None
  done

(* ----- randomized consensus fuzzing ----- *)

(* Random Byzantine subsets (within bounds) with random strategies:
   agreement must hold among honest nodes in every sampled scenario. *)
let fuzz_dolev_strong () =
  let rng = Csm_rng.create 0xF02 in
  for trial = 1 to 25 do
    let n = 4 + Csm_rng.int rng 6 in
    let f = Csm_rng.int rng (n - 1) in
    let cfg =
      {
        DS.n;
        f;
        leader = 0;
        delta = 10;
        instance = Printf.sprintf "fuzz-%d" trial;
        keyring = keyring n (trial * 31);
      }
    in
    let byz = Array.init n (fun _ -> Csm_rng.int rng n < f) in
    byz.(0) <- Csm_rng.bool rng && f > 0;
    let nbyz = Array.fold_left (fun a b -> if b then a + 1 else a) 0 byz in
    if nbyz <= f then begin
      let strategy i : DS.msg Net.behavior option =
        if not byz.(i) then None
        else if i = 0 then
          Some
            (DS.equivocating_leader cfg ~me:0 ~value_a:"A" ~value_b:"B")
        else Some Net.silent
      in
      let { DS.decisions; _ } = DS.run cfg ~proposal:"P" ~byzantine:strategy () in
      let honest =
        List.filter_map
          (fun i -> if byz.(i) then None else Some decisions.(i))
          (List.init n (fun i -> i))
      in
      match honest with
      | [] -> ()
      | first :: rest ->
        List.iter
          (fun d ->
            if d <> first then
              Alcotest.failf "DS fuzz trial %d: disagreement" trial)
          rest
    end
  done

let fuzz_pbft () =
  let rng = Csm_rng.create 0xF03 in
  for trial = 1 to 12 do
    let f = 1 + Csm_rng.int rng 2 in
    let n = (3 * f) + 1 in
    let cfg =
      {
        Pbft.n;
        f;
        base_timeout = 2000;
        instance = Printf.sprintf "fuzzp-%d" trial;
        keyring = keyring n (trial * 53);
      }
    in
    (* random f nodes silent *)
    let bad = Csm_rng.sample rng ~n ~k:f in
    let byz i = if Array.mem i bad then Some Net.silent else None in
    let { Pbft.decisions; _ } =
      Pbft.run cfg
        ~proposals:(fun i -> Some (Printf.sprintf "p%d" i))
        ~byzantine:byz ()
    in
    let honest =
      List.filter_map
        (fun i -> if Array.mem i bad then None else decisions.(i))
        (List.init n (fun i -> i))
    in
    (match honest with
    | [] -> Alcotest.failf "PBFT fuzz trial %d: no honest decisions" trial
    | first :: rest ->
      List.iter
        (fun d ->
          if not (String.equal d first) then
            Alcotest.failf "PBFT fuzz trial %d: disagreement" trial)
        rest);
    if List.length honest <> n - f then
      Alcotest.failf "PBFT fuzz trial %d: liveness (%d/%d decided)" trial
        (List.length honest) (n - f)
  done

let suites =
  [
    ( "consensus:chain",
      [
        Alcotest.test_case "all slots decide with agreement" `Quick
          all_slots_decide;
        Alcotest.test_case "pipelining speedup" `Quick pipelining_speedup;
        Alcotest.test_case "crashed leader: every slot view-changes" `Quick
          slots_independent_under_crashed_leader;
        Alcotest.test_case "chain under partial sync" `Quick
          chain_under_partial_sync;
      ] );
    ( "consensus:fuzz",
      [
        Alcotest.test_case "dolev-strong random adversaries" `Quick
          fuzz_dolev_strong;
        Alcotest.test_case "pbft random crash subsets" `Quick fuzz_pbft;
      ] );
  ]
