(** One node's CSM round (Figure 1 after agreement: commit → execute →
    decode) as a state machine with no I/O.  Validated messages,
    consensus decisions and stage timeouts go in; sends, phase markers
    and round results come out.  Time is an input, so the socket
    runtime ({!Csm_transport.Node}) and the simulator ({!Protocol}) run
    the same decisions.  State is keyed by round, at most two rounds
    live. *)

module Field_intf = Csm_field.Field_intf

type 'v msg =
  | Command of string * 'v array array
      (** client → node: the binary payload and the K commands in it *)
  | Commit of string  (** node → peers: echo of the command payload *)
  | Result of 'v array  (** node → peers: gⱼ *)
  | Output of 'v array array  (** node → client: Ŷ rows then Ŝ rows *)

val vote : equal:('a -> 'a -> bool) -> threshold:int -> 'a list -> 'a option
(** The client vote: the first value, in list order, whose matching
    responses reach [threshold]. *)

type stage = Awaiting_command | Committing | Collecting | Done

module Make (F : Field_intf.S) : sig
  module E : module type of Engine.Make (F)

  val payload : F.t msg -> string
  (** The message's binary frame payload. *)

  type output =
    | Send of F.t msg  (** to every peer *)
    | Phase of string
        (** [commands], [committed], [computed], [decoded] or
            [decode-failed] *)
    | Decoded of E.decoded  (** the round is over *)
    | Failed
        (** the round is over undecoded: no Command, fewer than b+1
            matching Commits, or a failed decode *)
    | Bad_round  (** the input is more than one round ahead *)

  type t

  val create :
    ?scope:Csm_metrics.Scope.t ->
    E.t ->
    node:int ->
    quorum:int option ->
    round:int ->
    t
  (** Node [node] about to run [round]: it decodes at [quorum] Results,
      its own included, and waits for [quorum] − 1 peer Commits; with
      [None] only {!timeout} ends a stage.  [scope] attributes the
      compute and decode operations. *)

  (** The inputs.  Each returns its outputs in the order the driver
      acts on them; [Decoded] or [Failed] comes last. *)

  val receive : t -> round:int -> sender:int -> F.t msg -> output list
  (** A validated message.  A peer's first Commit and first Result of a
      round count; Outputs are ignored. *)

  val agreed : t -> round:int -> F.t array -> output list
  (** Consensus ran upstream and the driver computed gᵢ from the agreed
      commands: skip the commit stage and broadcast it. *)

  val timeout : t -> output list
  (** The current stage's deadline passed. *)

  val advance : t -> output list
  (** Once the driver has applied the round's decode: delete its slot,
      move to the next round and act on what that round already holds. *)

  val round : t -> int
  val stage : t -> stage

  val live_rounds : t -> int
  (** The current round's slot and, if inputs for it arrived, the
      next's. *)
end
