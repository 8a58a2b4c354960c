(** Multiple-threshold extension (the paper's n_v > 1 case, §2/§4).

    The paper allows a bounded number of distinct threshold values, each
    extra value costing an implant mask or an extra tub bias (Fig. 1).
    This module assigns gates to [n_vt] threshold classes by delay-budget
    slack — timing-critical gates get the fast (low) threshold, slack-rich
    gates the leaky-proof (high) one — and then optimizes the class values
    by coordinate descent around the single-Vt optimum. *)

val classify :
  Power_model.env -> budgets:float array -> classes:int -> int array
(** Per-node class index in \[0, classes): class 0 holds the gates with the
    tightest budget-to-fast-corner ratio. Input nodes get class 0. *)

val greedy_dual_vt : Power_model.env -> Solution.t -> Solution.t
(** The classic slack-driven dual-Vt assignment: starting from a sized
    single-Vt design, visit gates in decreasing timing slack and promote
    each to the high threshold when the whole circuit still meets the
    cycle time afterwards (widths untouched). Scans five high-threshold
    candidates, evenly spaced from 50 mV above the input's threshold to
    [vt_max], and keeps the best. Never worse than its input. *)

val optimize :
  ?observer:Dcopt_obs.Telemetry.observer ->
  ?m_steps:int ->
  ?n_vt:int ->           (* number of distinct thresholds, default 2 *)
  Power_model.env ->
  budgets:float array ->
  Solution.t option
(** Best feasible design with at most [n_vt] distinct thresholds: the
    class-based coordinate descent and (for [n_vt = 2]) the greedy
    slack-driven assignment, whichever wins. Never worse than the
    single-Vt optimum (contained as a degenerate assignment and used as
    the starting point). [observer] sees the single-Vt search's trials and
    then one record per class-threshold sizing and per greedy candidate
    that promoted a gate, all labelled ["multi-vt"], with the design's
    lowest threshold as [vt]. *)
