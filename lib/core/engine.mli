(** The coded execution engine of Section 5.2 (network-free, phase by
    phase, deterministic). *)

module Field_intf = Csm_field.Field_intf
module Scope = Csm_metrics.Scope

module Make (F : Field_intf.S) : sig
  module Coding : module type of Coding.Make (F)
  module M : module type of Csm_machine.Machine.Make (F)
  module RS : module type of Csm_rs.Reed_solomon.Make (F)

  type t = {
    machine : M.t;
    params : Params.t;
    coding : Coding.t;
    mutable coded_states : F.t array array;
    mutable round_index : int;
    mutable rs_ctx : (F.t array * RS.fast_ctx) option;
        (** cached optimistic-decode precomputation (prepared subproduct
            trees), keyed by the received-point set — rebuilt only when
            the set of reporting nodes changes *)
  }

  val result_dim : t -> int
  (** state_dim + output_dim: the dimension of gᵢ. *)

  val create : machine:M.t -> params:Params.t -> init:F.t array array -> t
  (** @raise Invalid_argument on arity/degree/feasibility violations. *)

  val coded_state : t -> node:int -> F.t array

  val node_encode_command :
    ?scope:Scope.t -> t -> node:int -> commands:F.t array array -> F.t array

  val node_compute :
    ?scope:Scope.t -> t -> node:int -> coded_command:F.t array -> F.t array
  (** gᵢ = f(S̃ᵢ, X̃ᵢ), next-state coordinates first. *)

  type decoded = {
    next_states : F.t array array;
    outputs : F.t array array;
    error_nodes : int list;
  }

  val decode_results :
    ?scope:Scope.t ->
    ?role:string ->
    ?algorithm:RS.algorithm ->
    t ->
    (int * F.t array) list ->
    decoded option
  (** Noisy-interpolation decoding of received (node, gᵢ) results;
      [None] when any coordinate exceeds the decoding radius.  The
      algorithm defaults to [RS.Optimistic], which reuses the
      engine-cached [rs_ctx] across coordinates and rounds and passes
      nodes with accumulated csm_node_suspicion as erasure candidates
      for the decoder's last resort. *)

  val node_update_state :
    ?scope:Scope.t -> t -> node:int -> next_states:F.t array array -> unit

  type corruption = node:int -> F.t array -> F.t array

  val default_corruption : corruption

  val corrupt_result :
    t ->
    Strategy.action ->
    node:int ->
    round:int ->
    observer:int ->
    F.t array ->
    F.t array option
  (** The one adversary interpreter: the vector [node] sends [observer]
      in [round] when it follows the action instead of sending its
      correct vector; [None] when the action withholds from [observer].
      Deterministic: the randomized actions seed from the action's seed,
      the round, the node and (for [Equivocate]) the observer. *)

  type round_report = {
    decoded : decoded option;
    computed : F.t array array;
  }

  val round :
    ?scope:Scope.t ->
    ?algorithm:RS.algorithm ->
    ?corruption:corruption ->
    ?withheld:(int -> bool) ->
    ?decode_role:string ->
    t ->
    commands:F.t array array ->
    byzantine:(int -> bool) ->
    unit ->
    round_report
  (** One full decentralized round; advances the coded states on
      success. *)

  val consistent_with : t -> states:F.t array array -> bool
  (** Do the coded states equal the encoding of the given reference
      states? *)

  val storage_per_node : t -> int

  val min_results : t -> int
  (** Earliest result count at which decoding tolerates b lies:
      d(K−1) + 2b + 1.  Results beyond this are straggler slack. *)

  val recover_coded_state :
    t -> node:int -> reports:(int * F.t array) list -> F.t array option
  (** Regenerate a node's coded state from peers' coded states (up to b
      of which may be lies): Reed–Solomon decoding of the degree-(K−1)
      state polynomial, evaluated at the node's point. *)

  val recover_node : t -> node:int -> reports:(int * F.t array) list -> bool
  (** [recover_coded_state] + install; [false] when undecodable. *)
end
