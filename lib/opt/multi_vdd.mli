(** Multiple-supply extension (the paper's "more than one ... power supply
    voltage if desired", §4).

    Implements clustered voltage scaling: gates with budget slack run from
    a second, lower supply; timing-critical gates keep the high one. The
    assignment is legalized so that no low-supply gate ever drives a
    high-supply gate (a low-to-high boundary would need a level converter
    mid-cone); converters are still required where low-supply gates drive
    primary outputs / register pins, and both their switching energy and
    their delay are charged to the design.

    The optimizer is a coordinate descent over (vdd_hi, vdd_lo, vt) around
    per-gate width sizing, seeded from the single-supply optimum; the
    result is never worse than single-Vdd (contained as vdd_lo = vdd_hi). *)

type assignment = {
  uses_low : bool array;      (** per node id; inputs false *)
  low_count : int;            (** gates on the low supply *)
  converter_count : int;      (** level converters at output boundaries *)
}

val classify :
  Power_model.env -> budgets:float array -> slack_threshold:float ->
  assignment
(** Marks gates whose budget exceeds [slack_threshold] times their
    fast-corner delay as low-supply candidates, then legalizes: a gate
    driving any high-supply gate is promoted to the high supply, iterated
    to a fixpoint (sweeping in reverse topological order). *)

type result = {
  solution : Solution.t;      (** evaluation at the two supplies, converter
                                  overhead included in the energy *)
  vdd_high : float;
  vdd_low : float;
  supply_assignment : assignment;
}

val evaluate :
  Power_model.env ->
  assignment ->
  vdd_high:float -> vdd_low:float -> vt:float -> budgets:float array ->
  result option
(** Sizes every gate at its own supply (reverse topological order) and
    evaluates, with one drive context per rail for both; [None] when some
    gate misses its budget even at maximum width. Requires
    [vdd_low <= vdd_high].

    The evaluation is {!Power_model.evaluate}'s sweep with per-gate
    supplies: constraint input delays seed the arrivals, and feasibility
    is {!Power_model.arrivals_feasible} (per-endpoint required times when
    the env has them). The returned design records only [vdd_high]; the
    rails live in [supply_assignment], so re-evaluating
    [solution.design] scores every gate on the high rail. *)

val optimize :
  ?observer:Dcopt_obs.Telemetry.observer ->
  ?m_steps:int ->
  ?vt_fixed:float ->   (* pin the threshold (conventional-flow variant) *)
  Power_model.env ->
  budgets:float array ->
  result option
(** Best dual-supply design found; [None] when even single-supply
    optimization fails. [observer] sees the single-supply search's trials
    and then one record per (vdd_high, vdd_low, vt) candidate, all
    labelled ["multi-vdd"]; the candidate's [vdd] is its high rail. With [vt_fixed] the threshold stays pinned (the
    conventional-process case, where the second rail has the most room
    to help — see EXPERIMENTS.md). *)
