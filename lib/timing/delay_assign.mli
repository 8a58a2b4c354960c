(** Procedure 1: criticality-driven gate delay budgeting (paper §4.2).

    Distributes the cycle time over every gate so that each gate's maximum
    allowed delay is proportional to its fanout within the most critical
    path crossing it: paths are consumed in decreasing fanout-sum
    criticality (the sum of the effective fanouts [max 1 fanout_count] of
    their gates), and on each path the still-unassigned gates split what
    the path's assigned gates left of the budget in proportion to their
    fanouts (eqs. (2) and (3)), sums folded source to output.

    No path is enumerated. A backward pass over the level order gives
    each gate [down], the largest criticality from the gate to a primary
    output, and [next], the fanout that continues it; a forward pass
    gives [up], the largest criticality from a primary input to the
    gate, and [prev], the gate fanin that leads it. The gates that reach
    an output are then visited in decreasing through-criticality
    [up + down - fanout]; a gate still unassigned when visited yields
    the path [prev] chain, gate, [next] chain. Its criticality is the
    largest through-criticality of any unassigned gate, so every
    consumed path is a most critical PI-to-PO path that still holds an
    unassigned gate, as Procedure 1 asks. There is no path cap: every
    gate with a path to a primary output gets a path budget.

    Tie rule: the lowest node id wins everywhere. Among gates of equal
    through-criticality the lowest id is visited first, and [next] and
    [prev] step to the lowest-id fanout or gate fanin among those that
    keep the path most critical.

    The dead gates, from which no primary output is reachable, lie on no
    PI-to-PO path; each gets the analogous share of the most critical
    chain through it (chains may end at any gate). A slope-feasibility
    post-pass (the paper's "post processing of delay assignments") then
    lifts every budget below 0.3 of its slowest fanin gate's budget to
    that floor, for eq. A3's input-rise-time term, and a final scaling
    restores the cycle-time guarantee. The whole assignment is
    O(n log n) plus the length of the consumed paths. *)

type t = {
  t_max : float array;      (** per node id; 0 for inputs, s *)
  cycle_budget : float;     (** b * T_c actually distributed, s *)
  paths_used : int;         (** paths consumed before full coverage *)
  fallback_gates : int;
  (** dead gates (no path to a primary output), budgeted by the
      chain fallback *)
  slope_adjusted : int;     (** gates lifted by the feasibility post-pass *)
}

val assign :
  ?skew_factor:float ->   (* the paper's b <= 1, default 0.95 *)
  ?constraints:Constraints.t ->
  Dcopt_netlist.Circuit.t ->
  cycle_time:float ->
  t
(** Requires a combinational circuit and [cycle_time > 0]. Postcondition
    (checked): with gate delays equal to the returned budgets, the critical
    delay is at most [skew_factor * cycle_time] within float tolerance.

    [constraints] supersedes [cycle_time] with the set's
    {!Constraints.tightest_cycle_time} (falling back to [cycle_time] for
    an empty set): Procedure 1 distributes the tightest bound, while
    per-endpoint requirements are enforced downstream by the
    constraint-aware STA feasibility check. A scalar compatibility set
    is bit-identical to passing its cycle time directly.

    Each call bumps the [timing.assignments], [timing.paths_used],
    [timing.fallback_gates] (dead gates) and [timing.slope_adjusted]
    counters and, when it runs on the main domain, observes the dead
    gates' share of the gate count in the [timing.fallback_share]
    histogram. *)

val verify : Dcopt_netlist.Circuit.t -> t -> cycle_time:float -> bool
(** Re-checks the postcondition by STA. *)
