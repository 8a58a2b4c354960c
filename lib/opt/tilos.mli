(** TILOS-style sensitivity-driven sizing — a budget-free alternative to
    Procedure 2's inner loop.

    The paper decomposes the cycle time into per-gate budgets (Procedure 1)
    and then sizes each gate independently; the decomposition is what makes
    the heuristic fast, but it is conservative — a gate is forced within
    its own budget even when the path it sits on has slack elsewhere (the
    [ablation-sizing] experiment quantifies the cost). The classic
    alternative (Fishburn & Dunlop's TILOS) needs no budgets: start every
    gate at minimum width and, while the circuit misses the cycle time,
    upsize the gate on the critical path with the best delay-reduction per
    energy-cost sensitivity. This module implements that loop, with the
    same outer (Vdd, Vt) search as the paper's heuristic, so the two inner
    strategies can be compared like for like. *)

val size_for_cycle :
  Power_model.env -> vdd:float -> vt:float -> Power_model.design option
(** Greedy sizing at a fixed operating point, upsizing one critical gate
    by a factor of 1.15 per step: [None] when the cycle time is
    unreachable (every critical-path gate saturated at maximum width, or
    50 upsizings per gate spent). The returned design meets the cycle
    time. *)

val optimize :
  ?observer:Dcopt_obs.Telemetry.observer ->
  ?m_steps:int ->
  Power_model.env ->
  Solution.t option
(** Grid search over (Vdd, Vt) around {!size_for_cycle}; the solution's
    [meets_budgets] is true when it also satisfies per-gate Procedure-1
    budgets, which TILOS does not enforce. Note no [budgets] argument: the
    cycle-time constraint alone drives the sizing. *)
