(** The exploration driver: run candidate strategies from one of three
    schedules through an {!Oracle} and collect violations.

    - [Exhaustive] walks {!Csm_core.Strategy.enumerate}'s bounded class in its
      deterministic order and reports [exhausted = true] when the whole
      class fit in the budget — the premise of the at-bound safety
      certificate.
    - [Random] draws heterogeneous strategies from {!Csm_core.Strategy.random}.
    - [Greedy] keeps a small elite by oracle signal (corrected decoder
      errors, withheld symbols, stalled nodes) and escalates it with
      {!Csm_core.Strategy.mutate} — strategies that raise suspicion get refined.

    Every schedule is deterministic in ([seed], [budget]); duplicates
    (by {!Csm_core.Strategy.key}) are evaluated once. *)

type schedule = Exhaustive | Random | Greedy

val schedule_name : schedule -> string
val schedule_of_name : string -> (schedule, string) result

type outcome = {
  candidates : int;  (** oracle evaluations actually performed *)
  witnesses : (Csm_core.Strategy.t * Oracle.result) list;
      (** violating strategies, in discovery order *)
  exhausted : bool;
      (** [Exhaustive] only: the whole class fit within the budget *)
}

val search :
  ?stop_at_first:bool ->
  bound:Oracle.bound ->
  instance:Oracle.instance ->
  max_nodes:int ->
  budget:int ->
  schedule:schedule ->
  seed:int ->
  unit ->
  outcome
(** [max_nodes] caps how many nodes a candidate may control — the
    certifier runs once at the defender bound and once one past it.
    Increments [csm_adversary_candidates_total] and
    [csm_adversary_violations_total] when metrics are enabled. *)
