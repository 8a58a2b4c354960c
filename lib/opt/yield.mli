(** Monte-Carlo threshold-variation yield analysis.

    Figure 2(a) treats Vt variation with worst-case corners; this module
    asks the statistical version of the same question: with every
    transistor's threshold drawn independently around its nominal value
    (random dopant fluctuation), what fraction of manufactured dies still
    makes the cycle time, and what does the energy distribution look like?
    Corner-margined designs (from {!Variation.corner_optimize}) should hold
    their yield at high spreads where nominal designs collapse — the
    quantitative justification for Fig. 2(a)'s margins. *)

type report = {
  samples : int;
  timing_yield : float;        (** fraction of samples meeting the cycle *)
  mean_energy : float;         (** mean total energy per cycle, J *)
  p95_energy : float;          (** 95th-percentile energy, J *)
  worst_critical_delay : float;(** max critical delay over samples, s *)
}

val monte_carlo :
  Power_model.env ->
  Power_model.design ->
  sigma_fraction:float ->  (* total Vt sigma as a fraction of nominal *)
  samples:int ->
  report
(** Evaluates [samples] die instances of [design]. The threshold spread is
    split into a die-to-die component (one draw per sample, shared by all
    gates — the part that cannot average out along a path) and an
    independent within-die remainder, with
    [sigma_global = 0.7 * sigma_fraction]. Deterministic: the samples
    come from one fixed-seed stream. *)

type curve_point = {
  sigma_pct : float;
  nominal_yield : float;   (** yield of the nominal joint optimum *)
  margined_yield : float;  (** yield of the corner-margined design *)
  margined_energy_cost : float;
    (** margined mean energy / nominal mean energy *)
}

val yield_curve :
  ?m_steps:int ->
  ?samples:int ->          (* default 300 *)
  Power_model.env ->
  budgets:float array ->
  sigmas:float array ->    (* sigma fractions, e.g. 0.03 .. 0.15 *)
  curve_point array
(** For each sigma: yield of the nominal optimum vs the design margined
    for a 3-sigma corner, and the energy premium the margin costs. *)
