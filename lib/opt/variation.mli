(** Threshold-variation robustness analysis (paper Fig. 2(a)).

    The paper modifies the optimizer to use worst-case threshold values
    during delay and power computation: the optimized circuit must meet
    timing with every threshold at [vt (1 + tol)] (slow corner), while the
    reported worst-case power takes [vt (1 - tol)] (leaky corner). The
    savings relative to the nominal Table-1 baseline shrink as the
    tolerance grows — quantifying how much of the ultra-low-power window
    process control buys. *)

val corner_optimize :
  ?m_steps:int ->
  Power_model.env ->
  budgets:float array ->
  tolerance:float ->
  Solution.t option
(** Joint optimization under a symmetric +/-[tolerance] (fraction, e.g.
    0.1 = 10%%) threshold spread around the nominal corner [env]. Each
    trial of the {!Heuristic.grid_refine} scan (an [max 8 m_steps] grid,
    thresholds up to [vt_max / (1 + tolerance)], site
    ["variation.grid"]) sizes the widths on
    [Power_model.with_vt_stress env (1 + tolerance)] (slow-corner timing)
    and books energy on [Power_model.with_vt_stress env (1 - tolerance)].
    Both corners are env stress ({!Power_model.drive} applies it), so the
    returned design carries the nominal grid thresholds, and its
    evaluation is the leaky corner's: {!Power_model.evaluate} of the
    design on the leaky env, the convention [Dcopt_core.Scenario.finalize]
    also uses. [meets_budgets] reflects slow-corner timing. *)

type point = {
  tolerance_pct : float;    (** tolerance in percent *)
  worst_case_energy : float;(** leaky-corner total energy per cycle, J *)
  savings : float;          (** baseline energy / worst-case energy *)
}

val savings_curve :
  ?m_steps:int ->
  Power_model.env ->
  budgets:float array ->
  baseline_energy:float ->
  tolerances:float array ->
  point array
(** One {!point} per tolerance (fractions); tolerances where the slow
    corner is unoptimizable are skipped. *)
