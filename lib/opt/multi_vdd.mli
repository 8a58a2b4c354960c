(** Multiple-supply extension (the paper's "more than one ... power supply
    voltage if desired", §4).

    Implements clustered voltage scaling: gates with budget slack run from
    a second, lower supply; timing-critical gates keep the high one. The
    assignment is legalized so that no low-supply gate ever drives a
    high-supply gate (a low-to-high boundary would need a level converter
    mid-cone); converters are still required where low-supply gates drive
    primary outputs / register pins, and both their switching energy and
    their delay are charged to the design ({!Power_model.rail}).

    The optimizer is a coordinate descent over (vdd_hi, vdd_lo, vt) around
    per-gate width sizing, seeded from the single-supply optimum; the
    result is never worse than single-Vdd (contained as vdd_lo = vdd_hi). *)

type assignment = {
  uses_low : bool array;      (** per node id; inputs false *)
  low_count : int;            (** gates on the low supply *)
}

val classify :
  Power_model.env -> budgets:float array -> slack_threshold:float ->
  assignment
(** Marks gates whose budget exceeds [slack_threshold] times their
    fast-corner delay as low-supply candidates, then legalizes: a gate
    driving any high-supply gate is promoted to the high supply, iterated
    to a fixpoint (sweeping in reverse topological order). *)

val evaluate :
  Power_model.env ->
  assignment ->
  vdd_high:float -> vdd_low:float -> vt:float -> budgets:float array ->
  Solution.t option
(** Sizes every gate at its own supply (reverse topological order, one
    drive context per rail), demoting to the high rail a gate that would
    drive a high gate or misses its budget on the low rail, and scores
    the two-rail design with {!Power_model.evaluate}: the design's [vdd]
    is [vdd_high] and its [rail] holds [vdd_low] and the final
    assignment. [None] when some gate misses its budget even at maximum
    width. Requires [vdd_low <= vdd_high]. *)

val optimize :
  ?observer:Dcopt_obs.Telemetry.observer ->
  ?m_steps:int ->
  ?vt_fixed:float ->   (* pin the threshold (conventional-flow variant) *)
  Power_model.env ->
  budgets:float array ->
  Solution.t option
(** Best dual-supply design found; [None] when even single-supply
    optimization fails. When no two-rail candidate beats it, the
    single-supply optimum is returned, relabelled, with no [rail].
    [observer] sees the single-supply search's trials and then one
    record per (vdd_high, vdd_low, vt) candidate, all labelled
    ["multi-vdd"]; the candidate's [vdd] is its high rail. With
    [vt_fixed] the threshold stays pinned (the conventional-process case,
    where the second rail has the most room to help — see
    EXPERIMENTS.md). *)
