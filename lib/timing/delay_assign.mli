(** Procedure 1: criticality-driven gate delay budgeting (paper §4.2).

    Distributes the cycle time over every gate so that each gate's maximum
    allowed delay is proportional to its fanout within the most critical
    path crossing it: paths are consumed in decreasing fanout-sum
    criticality, and on each path the still-unassigned gates split the
    remaining budget in proportion to their fanouts (eqs. (2) and (3)).

    Gates never reached by the enumerated paths (dangling logic, or beyond
    the path cap) get the analogous share of the locally most critical
    chain through them. A slope-feasibility post-pass (the paper's "post
    processing of delay assignments") then lifts budgets that are too small
    relative to their slowest fanin's budget for eq. A3's input-rise-time
    term, and a final scaling restores the cycle-time guarantee. *)

type t = {
  t_max : float array;      (** per node id; 0 for inputs, s *)
  cycle_budget : float;     (** b * T_c actually distributed, s *)
  paths_used : int;         (** paths consumed before full coverage *)
  fallback_gates : int;     (** gates budgeted by the local-chain fallback *)
  slope_adjusted : int;     (** gates lifted by the feasibility post-pass *)
}

val assign :
  ?skew_factor:float ->   (* the paper's b <= 1, default 0.95 *)
  ?max_paths:int ->       (* path-enumeration cap, default 64 * gates; it
                             counts every emitted path, including paths
                             whose gates are all assigned already *)
  ?slope_guard:float ->   (* min budget as fraction of max fanin budget, default 0.3 *)
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
    [timing.fallback_gates] and [timing.slope_adjusted] counters and,
    when it runs on the main domain, observes [fallback_gates / gate
    count] in the [timing.fallback_share] histogram. *)

val verify : Dcopt_netlist.Circuit.t -> t -> cycle_time:float -> bool
(** Re-checks the postcondition by STA. *)
