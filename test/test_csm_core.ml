(* CSM core: parameter calculus (Theorems 1–2, Table 2), coded states
   (Section 5.1), and the coded execution engine (Section 5.2) against
   the uncoded ground truth under Byzantine corruption and withholding. *)

open Csm_field
open Csm_core
module F = Fp.Default
module E = Engine.Make (F)
module M = E.M
module C = Coding.Make (F)

let rng = Csm_rng.create 0xC5E
let fi = F.of_int

(* ----- Params ----- *)

let params_formulas () =
  (* sync: K <= (N - 2b - 1)/d + 1 *)
  Alcotest.(check int) "sync n=16 b=2 d=1" 12
    (Params.max_machines ~network:Params.Sync ~n:16 ~b:2 ~d:1);
  Alcotest.(check int) "sync n=16 b=2 d=2" 6
    (Params.max_machines ~network:Params.Sync ~n:16 ~b:2 ~d:2);
  Alcotest.(check int) "partial n=16 b=2 d=1" 10
    (Params.max_machines ~network:Params.Partial_sync ~n:16 ~b:2 ~d:1);
  (* K can never exceed N *)
  Alcotest.(check int) "capped at n" 8
    (Params.max_machines ~network:Params.Sync ~n:8 ~b:0 ~d:1);
  (* infeasible => 0 *)
  Alcotest.(check int) "infeasible" 0
    (Params.max_machines ~network:Params.Sync ~n:4 ~b:2 ~d:1)

let params_duality () =
  (* max_faults and max_machines are inverse bounds *)
  List.iter
    (fun network ->
      for n = 4 to 40 do
        for d = 1 to 3 do
          for b = 0 to n / 3 do
            let k = Params.max_machines ~network ~n ~b ~d in
            if k >= 1 then begin
              let b' = Params.max_faults ~network ~n ~k ~d in
              if b' < b then
                Alcotest.failf "duality violated n=%d d=%d b=%d k=%d b'=%d" n
                  d b k b'
            end
          done
        done
      done)
    [ Params.Sync; Params.Partial_sync ]

let params_table2 () =
  let p = Params.make ~network:Params.Sync ~n:20 ~k:5 ~d:2 ~b:5 in
  (* 2*5+1 = 11 <= 20 - 2*4 = 12 *)
  Alcotest.(check bool) "decoding" true (Params.decoding_ok p);
  Alcotest.(check bool) "consensus" true (Params.consensus_ok p);
  Alcotest.(check bool) "delivery" true (Params.output_delivery_ok p);
  (* b = 6 must break decoding: 13 > 12 *)
  Alcotest.(check bool) "boundary" false
    (Params.decoding_ok { p with Params.b = 6 });
  (* partial sync tighter: 3b+1 <= n - d(k-1) -> b <= (12-1)/3 = 3 *)
  Alcotest.(check int) "partial max_faults" 3
    (Params.max_faults ~network:Params.Partial_sync ~n:20 ~k:5 ~d:2)

let params_theorem_scaling () =
  (* Theorem 1: K_max = Θ(N) for fixed μ, d *)
  let mu = 1.0 /. 4.0 and d = 2 in
  let k64 = Params.theorem_k_max ~network:Params.Sync ~n:64 ~mu ~d in
  let k128 = Params.theorem_k_max ~network:Params.Sync ~n:128 ~mu ~d in
  let k256 = Params.theorem_k_max ~network:Params.Sync ~n:256 ~mu ~d in
  (* linear growth: doubling N roughly doubles K *)
  Alcotest.(check bool) "k128 ~ 2*k64" true (abs (k128 - (2 * k64)) <= 2);
  Alcotest.(check bool) "k256 ~ 2*k128" true (abs (k256 - (2 * k128)) <= 2);
  (* closed form check: floor((1-2μ)N/d + 1 - 1/d) *)
  let expect n =
    int_of_float
      (floor (((1.0 -. (2.0 *. mu)) *. float_of_int n /. float_of_int d) +. 1.0 -. (1.0 /. float_of_int d)))
  in
  Alcotest.(check int) "closed form 64" (expect 64) k64;
  Alcotest.(check int) "closed form 128" (expect 128) k128

(* ----- Coding ----- *)

let coding_matches_interpolant () =
  for _ = 1 to 20 do
    let k = 1 + Csm_rng.int rng 6 in
    let n = k + Csm_rng.int rng 12 in
    let c = C.create ~n ~k in
    let values = Array.init k (fun _ -> F.random rng) in
    let coded = C.encode_scalars c values in
    Array.iteri
      (fun i x ->
        (* coded state = u(α_i) *)
        if not (F.equal x (C.interpolant_at c values c.C.alphas.(i))) then
          Alcotest.fail "coded scalar <> u(alpha)";
        if not (F.equal x (C.encode_scalar_at c ~node:i values)) then
          Alcotest.fail "per-node encode mismatch")
      coded;
    (* interpolant recovers originals at ω *)
    Array.iteri
      (fun k' w ->
        if not (F.equal values.(k') (C.interpolant_at c values w)) then
          Alcotest.fail "u(omega_k) <> S_k")
      c.C.omegas
  done

let coding_fast_matches () =
  for _ = 1 to 15 do
    let k = 1 + Csm_rng.int rng 6 in
    let n = k + 1 + Csm_rng.int rng 12 in
    let c = C.create ~n ~k in
    let dim = 1 + Csm_rng.int rng 3 in
    let vectors =
      Array.init k (fun _ -> Array.init dim (fun _ -> F.random rng))
    in
    let a = C.encode_vectors c vectors in
    let b = C.encode_vectors_fast c vectors in
    Array.iteri
      (fun i v ->
        Array.iteri
          (fun j x ->
            if not (F.equal x b.(i).(j)) then
              Alcotest.fail "fast vector encoding mismatch")
          v)
      a
  done

let coding_identity_when_k1 () =
  (* K = 1: every node stores the state itself coded as constant poly *)
  let c = C.create ~n:5 ~k:1 in
  let coded = C.encode_scalars c [| fi 42 |] in
  Array.iter
    (fun x -> Alcotest.(check int) "constant" 42 (F.to_int x))
    coded

(* ----- Engine ----- *)

let machines =
  [
    ("bank", M.bank ());
    ("interest", M.interest_market ());
    ("cubic", M.cubic_accumulator ());
    ("pair", M.pair_market ());
  ]

let random_states machine k =
  Array.init k (fun _ ->
      Array.init machine.M.state_dim (fun _ -> F.random rng))

let random_commands machine k =
  Array.init k (fun _ ->
      Array.init machine.M.input_dim (fun _ -> F.random rng))

(* Multi-round coded execution with b Byzantine nodes must match the
   uncoded fleet exactly, for every example machine. *)
let coded_matches_uncoded () =
  List.iter
    (fun (name, machine) ->
      let d = M.degree machine in
      let k = 3 in
      let b = 2 in
      let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
      let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
      let init = random_states machine k in
      let engine = E.create ~machine ~params ~init in
      let byz = Array.init n (fun i -> i < b) in
      (* shuffle byzantine positions *)
      Csm_rng.shuffle rng byz;
      let reference = ref (Array.map Array.copy init) in
      for round = 1 to 5 do
        let commands = random_commands machine k in
        let report =
          E.round engine ~commands ~byzantine:(fun i -> byz.(i)) ()
        in
        let next_ref, out_ref =
          M.run_fleet machine ~states:!reference ~commands
        in
        reference := next_ref;
        match report.E.decoded with
        | None -> Alcotest.failf "%s: decode failed at round %d" name round
        | Some dec ->
          for k' = 0 to k - 1 do
            Array.iteri
              (fun j v ->
                if not (F.equal v next_ref.(k').(j)) then
                  Alcotest.failf "%s: state mismatch" name)
              dec.E.next_states.(k');
            Array.iteri
              (fun j v ->
                if not (F.equal v out_ref.(k').(j)) then
                  Alcotest.failf "%s: output mismatch" name)
              dec.E.outputs.(k')
          done;
          (* coded storage stays consistent with the reference states *)
          if not (E.consistent_with engine ~states:!reference) then
            Alcotest.failf "%s: coded states diverged" name
      done)
    machines

(* Byzantine nodes are identified in error_nodes when they actually lie. *)
let error_nodes_identified () =
  let machine = M.bank () in
  let k = 2 and d = 1 and b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let engine = E.create ~machine ~params ~init:(random_states machine k) in
  let liars = [ 1; 3 ] in
  let report =
    E.round engine
      ~commands:(random_commands machine k)
      ~byzantine:(fun i -> List.mem i liars)
      ()
  in
  match report.E.decoded with
  | None -> Alcotest.fail "decode failed"
  | Some dec -> Alcotest.(check (list int)) "liars found" liars dec.E.error_nodes

(* Boundary: with b = max_faults the round succeeds; with one more
   corrupted node and an adversarial corruption, unique decoding fails
   (reported as None) — matching Table 2 exactly. *)
let boundary_faults () =
  let machine = M.interest_market () in
  let d = M.degree machine in
  let k = 3 in
  let n = 14 in
  let b = Params.max_faults ~network:Params.Sync ~n ~k ~d in
  Alcotest.(check bool) "b >= 1" true (b >= 1);
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = random_states machine k in
  (* success at b *)
  let engine = E.create ~machine ~params ~init in
  let commands = random_commands machine k in
  let report = E.round engine ~commands ~byzantine:(fun i -> i < b) () in
  Alcotest.(check bool) "succeeds at b" true (report.E.decoded <> None);
  (* failure possible at b+1: corrupt b+1 nodes with random garbage;
     decoding must not return a *wrong* answer silently: either it fails,
     or (with negligible probability for random garbage) ... we assert
     failure for this deterministic seed. *)
  let engine2 = E.create ~machine ~params ~init in
  let report2 =
    E.round engine2 ~commands
      ~byzantine:(fun i -> i <= b)
      ~corruption:(fun ~node:_ g -> Array.map (fun _ -> F.random rng) g)
      ()
  in
  Alcotest.(check bool) "fails beyond b" true (report2.E.decoded = None)

(* Partial synchrony: b nodes withhold entirely, a further... no — the
   same b nodes may either withhold or lie; test the worst split allowed:
   b withholding + b lying requires 2b <= b_tolerated... The paper's model:
   up to b faulty; some subset withholds, the rest lie.  We test all
   splits w + l = b. *)
let partial_sync_splits () =
  let machine = M.bank () in
  let d = 1 and k = 3 in
  let b = 2 in
  let n = Params.composite_degree ~k ~d + (3 * b) + 1 in
  let params = Params.make ~network:Params.Partial_sync ~n ~k ~d ~b in
  for lying = 0 to b do
    (* the remaining b - lying faulty nodes withhold *)
    let init = random_states machine k in
    let engine = E.create ~machine ~params ~init in
    let commands = random_commands machine k in
    (* nodes 0..lying-1 lie; nodes lying..b-1 withhold *)
    let report =
      E.round engine ~commands
        ~byzantine:(fun i -> i < lying)
        ~withheld:(fun i -> i >= lying && i < b)
        ()
    in
    (match report.E.decoded with
    | None -> Alcotest.failf "partial sync failed (lying=%d)" lying
    | Some dec ->
      let next_ref, _ = M.run_fleet machine ~states:init ~commands in
      for k' = 0 to k - 1 do
        if not (F.equal dec.E.next_states.(k').(0) next_ref.(k').(0)) then
          Alcotest.fail "partial sync wrong state"
      done)
  done

(* Storage efficiency: a coded state is exactly state_dim field elements,
   so γ = K·state_dim / state_dim = K. *)
let storage_efficiency () =
  let machine = M.pair_market () in
  let k = 3 and d = 2 in
  let n = 12 in
  let b = Params.max_faults ~network:Params.Sync ~n ~k ~d in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let engine = E.create ~machine ~params ~init:(random_states machine k) in
  Alcotest.(check int) "per-node storage" machine.M.state_dim
    (E.storage_per_node engine);
  Alcotest.(check int) "gamma = K" k (Params.storage_efficiency params)

(* Both decoders drive the engine identically. *)
let engine_decoder_agnostic () =
  let machine = M.interest_market () in
  let k = 3 and d = 2 in
  let b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init = random_states machine k in
  let commands = random_commands machine k in
  let run algorithm =
    let e = E.create ~machine ~params ~init in
    E.round e ~algorithm ~commands ~byzantine:(fun i -> i < b) ()
  in
  let a = run E.RS.Gao and b' = run E.RS.Optimistic in
  match (a.E.decoded, b'.E.decoded) with
  | Some da, Some db ->
    for k' = 0 to k - 1 do
      if not (F.equal da.E.next_states.(k').(0) db.E.next_states.(k').(0))
      then Alcotest.fail "decoders disagree in engine"
    done
  | _ -> Alcotest.fail "engine decode failed"

(* The Boolean machine path: CSM over GF(2^10) executing the majority
   register, coded, under faults. *)
let boolean_machine_coded () =
  let module G = Gf2m.Gf1024 in
  let module EG = Engine.Make (G) in
  let module BM = Csm_machine.Boolean_machine.Make (G) in
  let machine = BM.majority_register () in
  let d = BM.M.degree machine in
  let k = 2 in
  let b = 1 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let r = Csm_rng.create 31 in
  let init =
    Array.init k (fun _ -> BM.embed_bits [| Csm_rng.bool r |])
  in
  let engine = EG.create ~machine ~params ~init in
  let states = ref (Array.map Array.copy init) in
  for _round = 1 to 4 do
    let commands =
      Array.init k (fun _ ->
          BM.embed_bits [| Csm_rng.bool r; Csm_rng.bool r |])
    in
    let report =
      EG.round engine ~commands ~byzantine:(fun i -> i = 0) ()
    in
    let next_ref, _ = BM.M.run_fleet machine ~states:!states ~commands in
    states := next_ref;
    match report.EG.decoded with
    | None -> Alcotest.fail "boolean coded round failed"
    | Some dec ->
      for k' = 0 to k - 1 do
        if not (G.equal dec.EG.next_states.(k').(0) next_ref.(k').(0)) then
          Alcotest.fail "boolean coded state mismatch"
      done
  done

(* Property: for RANDOM polynomial machines, random parameters within the
   Table-2 bound, random Byzantine sets and random corruptions, multi-round
   coded execution equals the uncoded fleet. *)
let qcheck_engine_random_machines =
  QCheck.Test.make ~name:"coded = uncoded on random machines" ~count:40
    (QCheck.make (QCheck.Gen.return ()))
    (fun () ->
      let d = 1 + Csm_rng.int rng 3 in
      let state_dim = 1 + Csm_rng.int rng 2 in
      let input_dim = 1 + Csm_rng.int rng 2 in
      let output_dim = 1 + Csm_rng.int rng 2 in
      let machine =
        M.random rng ~state_dim ~input_dim ~output_dim ~degree:d ~terms:3
      in
      let d = M.degree machine in
      let k = 1 + Csm_rng.int rng 3 in
      let b = Csm_rng.int rng 3 in
      let n = Params.composite_degree ~k ~d + (2 * b) + 1 + Csm_rng.int rng 4 in
      let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
      let init =
        Array.init k (fun _ ->
            Array.init state_dim (fun _ -> F.random rng))
      in
      let engine = E.create ~machine ~params ~init in
      let byz = Array.init n (fun i -> i < b) in
      Csm_rng.shuffle rng byz;
      let states = ref (Array.map Array.copy init) in
      let ok = ref true in
      for _ = 1 to 3 do
        let commands =
          Array.init k (fun _ ->
              Array.init input_dim (fun _ -> F.random rng))
        in
        let report =
          E.round engine ~commands
            ~byzantine:(fun i -> byz.(i))
            ~corruption:(fun ~node:_ g -> Array.map (fun _ -> F.random rng) g)
            ()
        in
        let next_ref, out_ref = M.run_fleet machine ~states:!states ~commands in
        states := next_ref;
        match report.E.decoded with
        | None -> ok := false
        | Some dec ->
          let veq a b = Array.for_all2 F.equal a b in
          if
            not
              (Array.for_all2 veq dec.E.next_states next_ref
              && Array.for_all2 veq dec.E.outputs out_ref)
          then ok := false
      done;
      !ok)

(* The register-bank machine (realistic KV workload) through coded
   execution: K banks, random writes, liars corrected every round. *)
let register_bank_coded () =
  let slots = 2 in
  let machine = M.register_bank ~slots in
  let d = M.degree machine in
  let k = 2 and b = 1 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let init =
    Array.init k (fun bank ->
        Array.init slots (fun i -> fi ((100 * bank) + i)))
  in
  let engine = E.create ~machine ~params ~init in
  let states = ref (Array.map Array.copy init) in
  for round = 1 to 6 do
    let commands =
      Array.init k (fun bank ->
          M.register_write ~slots
            ~slot:(Csm_rng.int rng slots)
            (fi ((round * 10) + bank)))
    in
    let report = E.round engine ~commands ~byzantine:(fun i -> i = 2) () in
    let next_ref, out_ref = M.run_fleet machine ~states:!states ~commands in
    states := next_ref;
    match report.E.decoded with
    | None -> Alcotest.fail "register bank round failed"
    | Some dec ->
      for m = 0 to k - 1 do
        Array.iteri
          (fun j v ->
            if not (F.equal v next_ref.(m).(j)) then
              Alcotest.fail "register bank state mismatch")
          dec.E.next_states.(m);
        if not (F.equal dec.E.outputs.(m).(0) out_ref.(m).(0)) then
          Alcotest.fail "register bank output mismatch"
      done
  done

(* Field genericity: the engine over the Mersenne prime (no radix-2 NTT
   support: Karatsuba + schoolbook fallbacks throughout) behaves
   identically. *)
let engine_over_mersenne () =
  let module FM = Fp.Mersenne31 in
  let module EM = Engine.Make (FM) in
  let machine = EM.M.interest_market () in
  let d = EM.M.degree machine in
  let k = 3 and b = 2 in
  let n = Params.composite_degree ~k ~d + (2 * b) + 1 in
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
  let r = Csm_rng.create 88 in
  let init = Array.init k (fun _ -> [| FM.random r |]) in
  let engine = EM.create ~machine ~params ~init in
  let states = ref (Array.map Array.copy init) in
  for _ = 1 to 3 do
    let commands = Array.init k (fun _ -> [| FM.random r |]) in
    let report = EM.round engine ~commands ~byzantine:(fun i -> i < b) () in
    let next_ref, _ = EM.M.run_fleet machine ~states:!states ~commands in
    states := next_ref;
    match report.EM.decoded with
    | None -> Alcotest.fail "mersenne decode failed"
    | Some dec ->
      for m = 0 to k - 1 do
        if not (FM.equal dec.EM.next_states.(m).(0) next_ref.(m).(0)) then
          Alcotest.fail "mersenne state mismatch"
      done
  done

(* Tightness of the security bound: colluding liars who report values of
   a CONSISTENT alternative codeword h+δ (δ a polynomial of degree ≤
   d(K−1)).  With c colluders and decoding radius e = ⌊(N−kdim)/2⌋:
     c ≤ e            -> the true h is decoded (attack corrected);
     e < c < N−e      -> no codeword within radius: decoding fails loudly;
     c ≥ N−e          -> the adversary's codeword is certified (security
                         genuinely collapses past the IT limit).
   This shows the Table-2 bound is exactly tight, not just sufficient. *)
let collusion_tightness () =
  let machine = M.bank () in
  let d = 1 and k = 3 in
  let n = 12 in
  let kdim = Params.composite_degree ~k ~d + 1 in
  let e = (n - kdim) / 2 in
  let b_params = Params.max_faults ~network:Params.Sync ~n ~k ~d in
  Alcotest.(check int) "radius = param bound" b_params e;
  let params = Params.make ~network:Params.Sync ~n ~k ~d ~b:b_params in
  let init = random_states machine k in
  let commands = random_commands machine k in
  (* δ(z) = z^{kdim-1} + 1, same degree family as h *)
  let run colluders =
    let engine = E.create ~machine ~params ~init in
    let delta_at alpha = F.add (F.pow alpha (kdim - 1)) F.one in
    let corruption ~node (g : F.t array) =
      let alpha = engine.E.coding.E.Coding.alphas.(node) in
      Array.map (fun v -> F.add v (delta_at alpha)) g
    in
    let report =
      E.round engine ~commands ~byzantine:(fun i -> i < colluders) ~corruption ()
    in
    report.E.decoded
  in
  (* regime 1: within radius -> corrected *)
  (match run e with
  | Some dec ->
    let next_ref, _ = M.run_fleet machine ~states:init ~commands in
    if not (F.equal dec.E.next_states.(0).(0) next_ref.(0).(0)) then
      Alcotest.fail "within radius: wrong decode"
  | None -> Alcotest.fail "within radius: decode failed");
  (* regime 2: between the radii -> loud failure *)
  let mid = e + 1 in
  if mid < n - e then begin
    match run mid with
    | None -> ()
    | Some _ -> Alcotest.fail "mid regime: should not certify any codeword"
  end;
  (* regime 3: overwhelming collusion -> adversary codeword certified *)
  (match run (n - e) with
  | Some dec ->
    let next_ref, _ = M.run_fleet machine ~states:init ~commands in
    if F.equal dec.E.next_states.(0).(0) next_ref.(0).(0) then
      Alcotest.fail "overwhelming collusion: decode should be the forged one"
  | None -> Alcotest.fail "overwhelming collusion: forged codeword certified")

let suites =
  [
    ( "csm:params",
      [
        Alcotest.test_case "closed-form K bounds" `Quick params_formulas;
        Alcotest.test_case "max_faults/max_machines duality" `Quick
          params_duality;
        Alcotest.test_case "table 2 feasibility" `Quick params_table2;
        Alcotest.test_case "theorem 1 linear scaling" `Quick
          params_theorem_scaling;
      ] );
    ( "csm:coding",
      [
        Alcotest.test_case "coded scalar = u(alpha)" `Quick
          coding_matches_interpolant;
        Alcotest.test_case "fast vector encoding" `Quick coding_fast_matches;
        Alcotest.test_case "K=1 degenerate" `Quick coding_identity_when_k1;
      ] );
    ( "csm:engine",
      [
        Alcotest.test_case "coded = uncoded under faults (all machines)"
          `Quick coded_matches_uncoded;
        Alcotest.test_case "liars identified" `Quick error_nodes_identified;
        Alcotest.test_case "table-2 fault boundary" `Quick boundary_faults;
        Alcotest.test_case "partial-sync withhold/lie splits" `Quick
          partial_sync_splits;
        Alcotest.test_case "storage efficiency = K" `Quick storage_efficiency;
        Alcotest.test_case "decoder agnostic" `Quick engine_decoder_agnostic;
        Alcotest.test_case "boolean machine coded over GF(2^10)" `Quick
          boolean_machine_coded;
        Alcotest.test_case "register bank coded (KV workload)" `Quick
          register_bank_coded;
        Alcotest.test_case "collusion tightness (3 regimes)" `Quick
          collusion_tightness;
        Alcotest.test_case "engine over Mersenne31 (no NTT)" `Quick
          engine_over_mersenne;
        QCheck_alcotest.to_alcotest ~long:false qcheck_engine_random_machines;
      ] );
  ]
