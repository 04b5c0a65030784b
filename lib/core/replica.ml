(* One node's CSM round with no I/O.  The rules, moved here unchanged
   from the socket runtime and the simulator:

   - Commit: on the Command, echo it to every peer; go on once the
     quorum's peers have echoed (or on Timeout), and only with b+1
     endorsements of the node's own payload, self included.
   - Execute: gᵢ = f(S̃ᵢ, encode(commands)), broadcast as a Result.
     [agreed] enters here with the driver's gᵢ: consensus ran upstream.
   - Decode: on the quorum of Results, own gᵢ and each peer's first
     one counted (or on Timeout), Reed–Solomon-decode them.
   - Window: an input for a finished round is dropped, one more than a
     round ahead is [Bad_round]. *)

module Field_intf = Csm_field.Field_intf
module Scope = Csm_metrics.Scope

type 'v msg =
  | Command of string * 'v array array
  | Commit of string
  | Result of 'v array
  | Output of 'v array array

(* The first response whose matches so far reach [threshold]. *)
let vote ~equal ~threshold responses =
  let rec go seen = function
    | [] -> None
    | r :: rest ->
      let seen = r :: seen in
      if List.length (List.filter (equal r) seen) >= threshold then Some r
      else go seen rest
  in
  go [] responses

type stage = Awaiting_command | Committing | Collecting | Done

module Make (F : Field_intf.S) = struct
  module E = Engine.Make (F)
  module W = Wire.Make (F)

  let payload = function
    | Command (p, _) | Commit p -> p
    | Result g -> W.encode_vector_bin g
    | Output rows -> W.encode_matrix_bin rows

  type output =
    | Send of F.t msg
    | Phase of string
    | Decoded of E.decoded
    | Failed
    | Bad_round

  (* One live round; the arrays hold each sender's first message. *)
  type slot = {
    mutable command : (string * F.t array array) option;
    commits : string option array;
    results : F.t array option array;
  }

  type t = {
    engine : E.t;
    scope : Scope.t;
    me : int;
    quorum : int option;
    mutable round : int;
    mutable stage : stage;  (* of [round] *)
    slots : (int, slot) Hashtbl.t;  (* [round] and [round + 1] only *)
    mutable out : output list;  (* the current input's, newest first *)
  }

  let create ?(scope = Scope.null) engine ~node ~quorum ~round =
    let slots = Hashtbl.create 2 in
    {
      engine; scope; me = node; quorum; round; stage = Awaiting_command; slots;
      out = [];
    }

  let round t = t.round
  let stage t = t.stage
  let live_rounds t = Hashtbl.length t.slots
  let emit t o = t.out <- o :: t.out

  let count cells =
    Array.fold_left (fun c x -> if Option.is_some x then c + 1 else c) 0 cells

  let slot t round =
    match Hashtbl.find_opt t.slots round with
    | Some s -> s
    | None ->
      let n = t.engine.E.params.Params.n in
      let s =
        { command = None; commits = Array.make n None; results = Array.make n None }
      in
      Hashtbl.replace t.slots round s;
      s

  let reached t c = match t.quorum with Some q -> c >= q | None -> false

  (* Broadcast gᵢ, computed on the committed commands. *)
  let execute t s g =
    emit t (Phase "computed");
    emit t (Send (Result g));
    s.results.(t.me) <- Some g;
    t.stage <- Collecting

  let decode t s =
    let received =
      List.filter_map
        (fun j -> Option.map (fun g -> (j, g)) s.results.(j))
        (List.init (Array.length s.results) Fun.id)
    in
    t.stage <- Done;
    match E.decode_results ~scope:t.scope t.engine received with
    | Some d ->
      emit t (Phase "decoded");
      emit t (Decoded d)
    | None ->
      emit t (Phase "decode-failed");
      emit t Failed

  let fail t =
    t.stage <- Done;
    emit t Failed

  (* Run the current round as far as its inputs allow.  A timeout ends
     only the stage it finds; the next stage starts a fresh wait. *)
  let rec progress t s ~timeout =
    match (t.stage, s.command) with
    | Awaiting_command, Some (payload, _) ->
      emit t (Phase "commands");
      emit t (Send (Commit payload));
      t.stage <- Committing;
      progress t s ~timeout:false
    | Awaiting_command, None -> if timeout then fail t
    | Committing, Some (payload, commands) ->
      if timeout || reached t (count s.commits + 1) then begin
        let endorses c = Option.equal String.equal c (Some payload) in
        let matching =
          Array.fold_left (fun c p -> if endorses p then c + 1 else c) 1 s.commits
        in
        if matching < t.engine.E.params.Params.b + 1 then fail t
        else begin
          emit t (Phase "committed");
          let coded_command =
            E.node_encode_command ~scope:t.scope t.engine ~node:t.me ~commands
          in
          execute t s
            (E.node_compute ~scope:t.scope t.engine ~node:t.me ~coded_command);
          progress t s ~timeout:false
        end
      end
    | Collecting, _ -> if timeout || reached t (count s.results) then decode t s
    | Committing, None | Done, _ -> ()

  (* Keep a peer's first message of a kind. *)
  let keep t (cells : 'a option array) sender v =
    if sender >= 0 && sender < Array.length cells && sender <> t.me
       && Option.is_none cells.(sender)
    then cells.(sender) <- Some v

  (* What the input emitted, in order; the next input starts empty. *)
  let flush t =
    let out = List.rev t.out in
    t.out <- [];
    out

  let receive t ~round ~sender msg =
    if round > t.round + 1 then emit t Bad_round
    else if round >= t.round then begin
      let s = slot t round in
      (match msg with
      | Command (p, cs) ->
        if Option.is_none s.command then s.command <- Some (p, cs)
      | Commit p -> keep t s.commits sender p
      | Result g -> keep t s.results sender g
      | Output _ -> ());
      if round = t.round then progress t s ~timeout:false
    end;
    flush t

  let agreed t ~round g =
    (match t.stage with
    | Awaiting_command when round = t.round ->
      let s = slot t round in
      emit t (Phase "committed");
      execute t s g;
      progress t s ~timeout:false
    | _ -> ());
    flush t

  let timeout t =
    progress t (slot t t.round) ~timeout:true;
    flush t

  let advance t =
    Hashtbl.remove t.slots t.round;
    t.round <- t.round + 1;
    t.stage <- Awaiting_command;
    progress t (slot t t.round) ~timeout:false;
    flush t
end
