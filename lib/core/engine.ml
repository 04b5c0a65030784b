(* The coded execution engine (Section 5.2), network-free.

   One round:
     1. every node i forms its coded command X̃ᵢ = Σₖ c_{ik} Xₖ (O(K) per
        coordinate);
     2. node i computes gᵢ = f(S̃ᵢ, X̃ᵢ) ∈ F^{state_dim + output_dim} —
        coordinate j of gᵢ is the evaluation at αᵢ of the univariate
        polynomial h_j(z) = f_j(u_t(z), v_t(z)) of degree ≤ d(K−1);
     3. Byzantine nodes report arbitrary vectors; withheld vectors model
        the partially synchronous setting;
     4. decoding: per coordinate, Reed–Solomon decode the received
        (αᵢ, gᵢ[j]) pairs with dimension d(K−1)+1, then evaluate the
        recovered h_j at ω₁..ω_K and split into next states and outputs;
     5. every node re-encodes its coded state from the decoded next
        states: S̃ᵢ(t+1) = Σₖ c_{ik} Ŝₖ(t+1).

   The engine is deterministic and exposes each phase separately so the
   network protocol driver, the INTERMIX delegation layer, and the
   measurement harnesses can reuse the same verified pieces. *)

module Field_intf = Csm_field.Field_intf
module Scope = Csm_metrics.Scope
module Pool = Csm_parallel.Pool
module Span = Csm_obs.Span

module Make (F : Field_intf.S) = struct
  module Coding = Coding.Make (F)
  module M = Csm_machine.Machine.Make (F)
  module RS = Csm_rs.Reed_solomon.Make (F)

  type t = {
    machine : M.t;
    params : Params.t;
    coding : Coding.t;
    mutable coded_states : F.t array array;  (* n × state_dim *)
    mutable round_index : int;
    mutable rs_ctx : (F.t array * RS.fast_ctx) option;
        (* optimistic-decode precomputation, keyed by the received-point
           set it was prepared for; reused while the same nodes report
           (the common case round after round — Remark 4) *)
  }

  let result_dim t = t.machine.M.state_dim + t.machine.M.output_dim

  let create ~machine ~params ~init =
    let open Params in
    if Array.length init <> params.k then
      invalid_arg "Engine.create: need K initial states";
    if M.degree machine > params.d then
      invalid_arg "Engine.create: machine degree exceeds params.d";
    if not (valid params) then invalid_arg "Engine.create: infeasible params";
    let coding = Coding.create ~n:params.n ~k:params.k in
    {
      machine;
      params;
      coding;
      coded_states = Coding.encode_vectors coding init;
      round_index = 0;
      rs_ctx = None;
    }

  let coded_state t ~node = t.coded_states.(node)

  (* Step 1 (per node). *)
  let node_encode_command ?(scope = Scope.null) t ~node ~commands =
    Scope.node scope node (fun () ->
        Coding.encode_vector_at t.coding ~node commands)

  (* Step 2 (per node): gᵢ = f(S̃ᵢ, X̃ᵢ), next-state part first. *)
  let node_compute ?(scope = Scope.null) t ~node ~coded_command =
    Scope.node scope node (fun () ->
        let s', y =
          M.step t.machine ~state:t.coded_states.(node) ~input:coded_command
        in
        Array.append s' y)

  type decoded = {
    next_states : F.t array array;  (* k × state_dim *)
    outputs : F.t array array;  (* k × output_dim *)
    error_nodes : int list;  (* nodes whose reported results were wrong *)
  }

  (* Suspected-Byzantine positions in a received-result list, from the
     accumulated csm_node_suspicion gauge (error locations attributed by
     earlier decodes).  Feeds the optimistic decoder's erasure-assisted
     last resort; empty when metrics are off — suspicion only ever
     *adds* decoding power beyond the plain error radius, so honest
     results are identical either way. *)
  let suspect_positions (recv : (int * F.t array) array) =
    let module Metric = Csm_obs.Metric in
    let module Tel = Csm_obs.Telemetry in
    if not (Metric.enabled ()) then []
    else begin
      let sus = ref [] in
      Array.iteri
        (fun idx (node, _) ->
          if Metric.gauge_value (Tel.node_suspicion ~node) > 0.0 then
            sus := idx :: !sus)
        recv;
      List.rev !sus
    end

  (* Step 4: decode from the received results ((node, vector) pairs;
     missing nodes model withholding).  Attributed to [role].

     The algorithm defaults to [RS.Optimistic], which shares one
     [RS.fast_ctx] across all coordinates and rounds, cached on the
     engine and rebuilt only when the set of reporting nodes changes.

     The [dim] coordinates are independent Reed–Solomon instances, so
     they decode across the domain pool (chunk 1: one decode is the
     grain).  Every coordinate writes disjoint slots of [next_states] /
     [outputs] and its own error list, merged sequentially afterwards —
     the decoded record is bit-identical for any domain count.  All
     coordinates are decoded even after one fails, keeping the work (and
     the operation counts) independent of scheduling. *)
  let decode_results ?(scope = Scope.null) ?(role = "decoder")
      ?(algorithm = RS.Optimistic) t (received : (int * F.t array) list) :
      decoded option =
    Span.with_ ~ops:scope.Scope.ops ~name:"engine.decode" (fun () ->
    scope.Scope.run ~role (fun () ->
        let dim = result_dim t in
        let kdim = Params.code_dimension ~k:t.params.Params.k ~d:t.params.Params.d in
        let sd = t.machine.M.state_dim in
        let recv = Array.of_list received in
        let xs =
          Array.map (fun (node, _) -> t.coding.Coding.alphas.(node)) recv
        in
        let xs_equal a b =
          Array.length a = Array.length b
          && (let ok = ref true in
              Array.iteri
                (fun i x -> if not (F.equal x b.(i)) then ok := false)
                a;
              !ok)
        in
        let ctx =
          match algorithm with
          | RS.Optimistic when Array.length xs >= kdim -> (
            match t.rs_ctx with
            | Some (pxs, c) when xs_equal pxs xs -> Some c
            | _ ->
              let c = RS.prepare_fast ~k:kdim xs in
              t.rs_ctx <- Some (xs, c);
              Some c)
          | _ -> None
        in
        let suspects = suspect_positions recv in
        let next_states =
          Array.init t.params.Params.k (fun _ -> Array.make sd F.zero)
        in
        let outputs =
          Array.init t.params.Params.k (fun _ ->
              Array.make t.machine.M.output_dim F.zero)
        in
        let coord_ok = Array.make dim true in
        let coord_errors = Array.make dim [] in
        Pool.parallel_for ~chunk:1 dim (fun j ->
            let pairs =
              Array.init (Array.length recv) (fun i ->
                  (xs.(i), (snd recv.(i)).(j)))
            in
            match RS.decode ~algorithm ?ctx ~suspects ~k:kdim pairs with
            | None -> coord_ok.(j) <- false
            | Some d ->
              (* error positions (indices into [received]) *)
              coord_errors.(j) <- d.RS.errors;
              (* evaluate h_j at each ω *)
              Array.iteri
                (fun k v ->
                  if j < sd then next_states.(k).(j) <- v
                  else outputs.(k).(j - sd) <- v)
                (Coding.eval_at_omegas t.coding d.RS.poly));
        if Array.for_all (fun x -> x) coord_ok then begin
          let errors = ref [] in
          Array.iter
            (fun idxs ->
              List.iter
                (fun idx ->
                  let node, _ = recv.(idx) in
                  if not (List.mem node !errors) then errors := node :: !errors)
                idxs)
            coord_errors;
          Some
            { next_states; outputs; error_nodes = List.sort Int.compare !errors }
        end
        else None))

  (* Step 5 (per node): re-encode the coded state. *)
  let node_update_state ?(scope = Scope.null) t ~node ~next_states =
    Scope.node scope node (fun () ->
        t.coded_states.(node) <-
          Coding.encode_vector_at t.coding ~node next_states)

  type corruption = node:int -> F.t array -> F.t array

  let default_corruption : corruption =
   fun ~node:_ g -> Array.map (fun v -> F.add v F.one) g

  (* The adversary interpreter: the vector node [node], following [act]
     in [round], sends [observer] in place of its correct vector [v];
     [None] when the action withholds from that observer.  Codeword is
     the colluding attack: one δ(z) of degree < code_dimension, seeded
     per round and shared by every colluder, evaluated at the liar's own
     point — the consistent fake that makes the Table-2 bound exactly
     tight.  The seed arithmetic is part of the committed adversary
     fixtures' replay contract. *)
  let corrupt_result t (act : Strategy.action) ~node ~round ~observer v =
    if Strategy.silent_toward act ~observer then None
    else
      Some
        (match act with
        | Strategy.Silence _ -> v
        | Strategy.Shift c -> Array.map (fun x -> F.add x (F.of_int c)) v
        | Strategy.Coord { index; delta } ->
          let v' = Array.copy v in
          if index >= 0 && index < Array.length v' then
            v'.(index) <- F.add v'.(index) (F.of_int delta);
          v'
        | Strategy.Codeword { seed } ->
          let kdim =
            Params.code_dimension ~k:t.params.Params.k ~d:t.params.Params.d
          in
          let drng = Csm_rng.create (seed + (round * 7919)) in
          let coeffs = Array.init kdim (fun _ -> F.random drng) in
          let alpha = t.coding.Coding.alphas.(node) in
          let dv = ref F.zero in
          for j = kdim - 1 downto 0 do
            dv := F.add (F.mul !dv alpha) coeffs.(j)
          done;
          Array.map (fun x -> F.add x !dv) v
        | Strategy.Garbage { seed } ->
          let grng = Csm_rng.create (seed + (round * 7919) + (node * 131)) in
          Array.map (fun _ -> F.random grng) v
        | Strategy.Equivocate { seed } ->
          let grng =
            Csm_rng.create
              (seed + (round * 7919) + (node * 131) + ((observer + 1) * 8161))
          in
          Array.map (fun _ -> F.random grng) v)

  type round_report = {
    decoded : decoded option;  (* None = decoding failed (too many faults) *)
    computed : F.t array array;  (* raw gᵢ as reported (post-corruption) *)
  }

  (* A full decentralized round.  [byzantine] nodes report corrupted
     vectors; [withheld] nodes report nothing (partial sync).  Honest
     decoding is attributed to [decode_role] (callers measuring per-node
     decode cost run it once per node; honest nodes reconstruct identical
     polynomials).  On success the engine advances every node's coded
     state (Byzantine nodes' storage doesn't matter: their future lies
     are arbitrary anyway). *)
  let round ?(scope = Scope.null) ?algorithm
      ?(corruption = default_corruption) ?(withheld = fun _ -> false)
      ?(decode_role = "decoder") t ~commands ~byzantine () : round_report =
    let n = t.params.Params.n in
    if Array.length commands <> t.params.Params.k then
      invalid_arg "Engine.round: need K commands";
    Span.with_ ~ops:scope.Scope.ops ~name:"engine.round" (fun () ->
    (* steps 1–2 at every node: the N per-node encodes (and then the N
       computes) are independent, so each phase fans out across the
       domain pool under its own span.  The [corruption] callback is
       user code (it may be stateful, e.g. an RNG), so it is applied
       sequentially afterwards in node order — exactly the schedule the
       sequential engine used. *)
    let coded_commands =
      Span.with_ ~ops:scope.Scope.ops ~name:"engine.encode" (fun () ->
          Pool.parallel_init n (fun i ->
              node_encode_command ~scope t ~node:i ~commands))
    in
    let computed =
      Span.with_ ~ops:scope.Scope.ops ~name:"engine.compute" (fun () ->
          Pool.parallel_init n (fun i ->
              node_compute ~scope t ~node:i
                ~coded_command:coded_commands.(i)))
    in
    Array.iteri
      (fun i g -> if byzantine i then computed.(i) <- corruption ~node:i g)
      computed;
    (* step 3–4: collect non-withheld results, decode *)
    let received =
      List.filter_map
        (fun i -> if withheld i then None else Some (i, computed.(i)))
        (List.init n (fun i -> i))
    in
    let decoded = decode_results ~scope ~role:decode_role ?algorithm t received in
    (* step 5: per-node re-encodes are independent (each writes its own
       coded-state slot) *)
    (match decoded with
    | Some d ->
      Span.with_ ~ops:scope.Scope.ops ~name:"engine.reencode" (fun () ->
          Pool.parallel_for n (fun i ->
              node_update_state ~scope t ~node:i ~next_states:d.next_states));
      t.round_index <- t.round_index + 1
    | None -> ());
    { decoded; computed })

  (* Ground-truth check used by tests: the coded states must remain the
     coordinate-wise Lagrange encoding of the reference states. *)
  let consistent_with t ~states =
    let expect = Coding.encode_vectors t.coding states in
    let eq a b =
      Array.length a = Array.length b
      && (let r = ref true in
          Array.iteri (fun i x -> if not (F.equal x b.(i)) then r := false) a;
          !r)
    in
    let all = ref true in
    Array.iteri
      (fun i v -> if not (eq v t.coded_states.(i)) then all := false)
      expect;
    !all

  (* Storage accounting (field elements per node): a single coded state. *)
  let storage_per_node t = t.machine.M.state_dim

  (* Minimum number of results needed to start decoding a round while
     still tolerating b lies among them: m with 2b + 1 <= m - d(K-1).
     Any results beyond this are straggler slack — a node may decode as
     soon as [min_results] arrive (the coded-computing latency win). *)
  let min_results t =
    Params.composite_degree ~k:t.params.Params.k ~d:t.params.Params.d
    + (2 * t.params.Params.b) + 1

  (* Node recovery / regeneration: a node that lost its coded state
     rebuilds it from other nodes' coded states.  The peers' states
     S̃ⱼ = u(αⱼ) are evaluations of the degree-(K−1) state polynomial, so
     they form a Reed-Solomon codeword of dimension K: with m reports of
     which up to b are lies, decoding needs 2b + 1 <= m - (K-1).  The
     recovered polynomial is evaluated at the joining node's point. *)
  let recover_coded_state t ~node ~(reports : (int * F.t array) list) =
    let sd = t.machine.M.state_dim in
    let kdim = t.params.Params.k in
    let out = Array.make sd F.zero in
    let coord_ok = Array.make sd true in
    (* per-coordinate decodes are independent RS instances, same shape
       as [decode_results] *)
    Pool.parallel_for ~chunk:1 sd (fun j ->
        let pairs =
          Array.of_list
            (List.map
               (fun (peer, s) -> (t.coding.Coding.alphas.(peer), s.(j)))
               reports)
        in
        match RS.decode ~k:kdim pairs with
        | None -> coord_ok.(j) <- false
        | Some d ->
          out.(j) <- RS.P.eval d.RS.poly t.coding.Coding.alphas.(node));
    if Array.for_all (fun x -> x) coord_ok then Some out else None

  let recover_node t ~node ~reports =
    match recover_coded_state t ~node ~reports with
    | None -> false
    | Some s ->
      t.coded_states.(node) <- s;
      true
end
