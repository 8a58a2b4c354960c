(** Multi-pass simulated-annealing comparator (paper §4.3/§5).

    The paper implemented an annealing-based optimizer over the same
    variables "for evaluation purposes" and found the Procedure-2 heuristic
    consistently better, because the problem (two global voltages plus N
    widths) is too large for annealing to converge in practical time. This
    module reproduces that comparison with one fixed setting: seed
    [0x5EED], initial temperature 0.5 in relative-energy units, geometric
    cooling to 1e-3 of it over each pass, and every pass starting from a
    cold mid-range design the walk must shape itself. *)

type options = {
  passes : int;           (** independent restarts, default 3 *)
  moves_per_pass : int;   (** default 4000 *)
}

val default_options : options

val optimize :
  ?observer:Dcopt_obs.Telemetry.observer ->
  ?options:options ->
  Power_model.env ->
  Solution.t option
(** Best feasible design found across all passes; the cost function is
    total energy plus a steep penalty for exceeding the cycle time. May
    return [None] when no pass ever reaches feasibility. No budgets: the
    walk is bounded by the cycle time alone.
    [observer] receives one record per proposed move (accepted or not),
    indexed globally across passes. *)
