(* State machine replication baselines (Section 3 of the paper).

   Both engines model the execution phase (the consensus phase is shared
   across all schemes and benchmarked separately, exactly as the paper's
   throughput metric prescribes).  Byzantine nodes execute correctly but
   report corrupted outputs; clients aggregate responses by matching
   votes.

   - Full replication: every node holds all K states and executes all K
     transitions; a client accepts an output once b+1 matching responses
     arrive (requires N ≥ 2b+1).  Storage efficiency γ = 1.
   - Partial replication: the K machines are spread over disjoint groups
     of q = N/K nodes; each node executes only its group's machine.
     Client rule is the same within the group (requires q ≥ 2b_g+1 per
     group).  Storage efficiency γ = K, security drops to ⌊(q−1)/2⌋. *)

module Field_intf = Csm_field.Field_intf
module Scope = Csm_metrics.Scope

module Make (F : Field_intf.S) = struct
  module M = Csm_machine.Machine.Make (F)

  (* A Byzantine execution-phase strategy: how a faulty node corrupts the
     output vector it reports for machine [k].  The default flips every
     coordinate by adding one. *)
  type corruption = node:int -> machine:int -> F.t array -> F.t array

  let default_corruption : corruption =
   fun ~node:_ ~machine:_ y -> Array.map (fun v -> F.add v F.one) y

  (* The client vote ({!Csm_core.Replica.vote}) over response vectors. *)
  let vote ~threshold (responses : F.t array list) =
    Csm_core.Replica.vote
      ~equal:(fun a b ->
        Array.length a = Array.length b && Array.for_all2 F.equal a b)
      ~threshold responses

  (* ----- Full replication ----- *)

  module Full = struct
    type t = {
      machine : M.t;
      n : int;
      k : int;
      (* states.(i).(k) : state of machine k replicated at node i *)
      mutable states : F.t array array array;
    }

    let create ~machine ~n ~k ~init =
      if Array.length init <> k then invalid_arg "Full.create: init arity";
      {
        machine;
        n;
        k;
        states = Array.init n (fun _ -> Array.map Array.copy init);
      }

    let storage_per_node t = t.k * t.machine.M.state_dim

    (* One round: all nodes execute all K machines; clients vote with
       threshold b+1.  Returns per-machine decided outputs (None if no
       value reached the threshold — a security violation). *)
    let round ?(scope = Scope.null) t ~commands ~byzantine
        ?(corruption = default_corruption) ~b () =
      if Array.length commands <> t.k then invalid_arg "Full.round: commands";
      let responses = Array.make t.k [] in
      for i = t.n - 1 downto 0 do
        Scope.node scope i (fun () ->
            let next, outs = M.run_fleet t.machine ~states:t.states.(i) ~commands in
            t.states.(i) <- next;
            for m = 0 to t.k - 1 do
              let y =
                if byzantine i then corruption ~node:i ~machine:m outs.(m)
                else outs.(m)
              in
              responses.(m) <- y :: responses.(m)
            done)
      done;
      Array.map (vote ~threshold:(b + 1)) responses

    (* Reference states held by node 0 (honest in our experiments). *)
    let states t = t.states.(0)
  end

  (* ----- Partial replication ----- *)

  module Partial = struct
    type t = {
      machine : M.t;
      n : int;
      k : int;
      q : int;  (* group size; n = q * k *)
      (* states.(g) : state of machine g, replicated at its q nodes
         (per-node copies: states.(g).(j) for j in the group) *)
      mutable states : F.t array array array;
    }

    let group_of t node = node / t.q
    let group_members t g = Array.init t.q (fun j -> (g * t.q) + j)

    let create ~machine ~n ~k ~init =
      if n mod k <> 0 then
        invalid_arg "Partial.create: K must divide N (disjoint groups)";
      if Array.length init <> k then invalid_arg "Partial.create: init arity";
      let q = n / k in
      {
        machine;
        n;
        k;
        q;
        states = Array.init k (fun g -> Array.init q (fun _ -> Array.copy init.(g)));
      }

    let storage_per_node t = t.machine.M.state_dim

    let round ?(scope = Scope.null) t ~commands ~byzantine
        ?(corruption = default_corruption) ~b () =
      if Array.length commands <> t.k then invalid_arg "Partial.round: commands";
      let decided = Array.make t.k None in
      for g = 0 to t.k - 1 do
        let members = group_members t g in
        let responses = ref [] in
        Array.iteri
          (fun j node ->
            Scope.node scope node (fun () ->
                let s', y =
                  M.step t.machine ~state:t.states.(g).(j)
                    ~input:commands.(g)
                in
                t.states.(g).(j) <- s';
                let y =
                  if byzantine node then corruption ~node ~machine:g y else y
                in
                responses := y :: !responses))
          members;
        decided.(g) <- vote ~threshold:(b + 1) !responses
      done;
      decided

    let states t = Array.map (fun group -> group.(0)) t.states
  end

  (* Theoretical security bounds of Section 3 (synchronous /
     partially synchronous), for the Table-1 comparison. *)
  let security_full ~n = function
    | `Sync -> (n - 1) / 2
    | `Partial_sync -> (n - 1) / 3

  let security_partial ~n ~k net =
    let q = n / k in
    match net with `Sync -> (q - 1) / 2 | `Partial_sync -> (q - 1) / 3
end
