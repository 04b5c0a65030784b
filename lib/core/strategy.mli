(** The Byzantine strategy DSL: plain, serializable data composing
    per-node, per-round behaviors.  It is the one adversary vocabulary:
    the simulator protocol ({!Protocol}), the bound oracles and the
    adversary synthesis engine all run these plans, and
    {!Engine.Make.corrupt_result} is their single interpreter.

    A strategy is a set of node plans; each plan is an ordered list of
    steps, and the first step whose round schedule matches the current
    round decides that node's action (no match: the node acts honestly
    that round).  Actions cover the paper's authenticated-faults
    adversary: selective silence toward a target set, structured
    corrupt-coded-symbol patterns (a valid-looking codeword off by one
    coordinate, a colluding low-degree codeword shift), unstructured
    garbage, receiver-dependent equivocation, and GST-shaped timing via
    the [From]/[Until] schedules.  Everything is plain data — two
    strategies with equal [key]s run identically from the same seed. *)

type rounds =
  | Always
  | Only of int list  (** exactly these rounds *)
  | From of int  (** rounds ≥ r: the post-GST attack window *)
  | Until of int  (** rounds < r: delayed delivery until (around) GST *)
  | Every of { period : int; phase : int }
      (** rounds r with r mod period = phase: flip-flop schedules *)

type action =
  | Silence of int list
      (** withhold the Result toward these observers ([[]]: everyone) *)
  | Shift of int  (** add a constant to every coordinate *)
  | Coord of { index : int; delta : int }
      (** a valid-looking codeword off by [delta] at one coordinate *)
  | Codeword of { seed : int }
      (** colluding low-degree polynomial shift δ(z): every liar
          reports (h+δ)(αᵢ) — the bound-tight consistent fake *)
  | Garbage of { seed : int }  (** fresh pseudo-random vector *)
  | Equivocate of { seed : int }
      (** a different wrong vector per receiver *)

type step = { rounds : rounds; act : action }
type plan = { node : int; steps : step list }
type t = { plans : plan list }

val make : plan list -> t
(** Canonicalize: drop empty plans, dedup nodes (first plan wins), sort
    by node id. *)

val honest : t

val uniform : ?rounds:rounds -> int list -> action -> t
(** Every listed node runs one step: [act] on [rounds] (default
    [Always]). *)

val byz_nodes : t -> int list
val size : t -> int
(** Number of Byzantine nodes. *)

val active : rounds -> round:int -> bool

val action_at : t -> node:int -> round:int -> action option
(** First matching step's action; [None] = honest this round. *)

val silent_toward : action -> observer:int -> bool
(** Does this action withhold the symbol from [observer]? *)

val key : t -> string
(** Canonical serialization — equal keys ⇔ identical behavior. *)

val equal : t -> t -> bool
val name : t -> string
val pp : Format.formatter -> t -> unit

val to_json : t -> Csm_obs.Json.t
val of_json : Csm_obs.Json.t -> (t, string) result
(** Total: malformed documents return [Error]. *)

val atoms : n:int -> rounds_total:int -> step list
(** The single-step alphabet the bounded-exhaustive schedule composes:
    silence (full and selective), shifts, one-coordinate lies, the
    colluding codeword, garbage, equivocation, a flip-flop schedule and
    pre-/post-GST windows sized to [rounds_total]. *)

val enumerate : n:int -> rounds_total:int -> max_nodes:int -> t Seq.t
(** Bounded-exhaustive class: every non-empty subset of ≤ [max_nodes]
    nodes from a small prefix pool, uniformly running each atom.
    Deterministic order, largest subsets first so above-bound witnesses
    surface within small budgets; heterogeneous plans are reached by
    the random and greedy schedules. *)

val random : Csm_rng.t -> n:int -> rounds_total:int -> max_nodes:int -> t
(** Heterogeneous sample: each chosen node gets 1–2 independently drawn
    steps. *)

val mutate : Csm_rng.t -> n:int -> rounds_total:int -> max_nodes:int -> t -> t
(** One structural edit (add/remove/replace a plan or step), for the
    greedy escalation schedule. *)
