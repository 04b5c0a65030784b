(** QCheck-style greedy shrinking to a canonical counterexample.

    Candidate moves, tried in a fixed order (fewer nodes, then fewer
    steps, then structurally simpler actions/schedules/seeds), each
    re-validated against [still_fails]; the first accepted move
    restarts the scan, so the result is a local minimum reached
    deterministically — the same witness always shrinks to the same
    canonical trace. *)

val candidates : Csm_core.Strategy.t -> Csm_core.Strategy.t list
(** All single-move simplifications, most aggressive first (exposed for
    tests). *)

val shrink : still_fails:(Csm_core.Strategy.t -> bool) -> Csm_core.Strategy.t -> Csm_core.Strategy.t * int
(** [(minimal, accepted_steps)].  [still_fails] must hold for the input;
    every intermediate accepted strategy also satisfies it.  Bounded
    (at most a few hundred predicate calls); increments
    [csm_adversary_shrink_steps_total] when metrics are enabled. *)
