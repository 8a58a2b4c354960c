(** Procedure 2: joint (Vdd, Vts, w_i) minimization (paper §4.3).

    After Procedure 1 has fixed a delay budget per gate, the optimizer
    searches one global supply voltage and one global threshold (the
    paper's practical single-Vdd/single-Vt case; see {!Multi_vt} for
    n_v > 1), sizing every gate to the minimum width that meets its budget
    at each trial point. Power and delay being monotone in each variable
    separately, nested binary searches converge in O(M^3) circuit
    sizings.

    A trial is one {!Power_model.size_all} sweep, which sizes and scores
    every gate. When {!Power_model.certify_sweep} holds for the run's
    budgets (checked once per run), the sweep's verdict and energies are
    {!Power_model.evaluate}'s, bit for bit, and the search pays one full
    evaluation: the design it returns. Otherwise it logs the reason at
    info level, sizes each trial with {!Power_model.size_widths} and
    evaluates it. The [search.evaluations] counter reads the full
    evaluations paid. *)

type strategy =
  | Paper_binary
    (** the paper's Procedure 2 verbatim: nested M-step binary searches on
        Vdd and Vts around per-gate width searches *)
  | Grid_refine
    (** a coarse (Vdd x Vts) grid scan followed by local refinement —
        a robustness reference for the binary heuristic *)

type options = {
  m_steps : int;       (** the paper's M, default 16 *)
  strategy : strategy; (** default [Paper_binary] *)
  vt_fixed : float option;
    (** when set, the threshold is pinned (used by {!Baseline}) *)
}

val default_options : options

val optimize :
  ?observer:Dcopt_obs.Telemetry.observer ->
  ?options:options ->
  Power_model.env ->
  budgets:float array ->
  Solution.t option
(** Best feasible single-Vt solution found, or [None] when even the
    fastest corner (max Vdd, min Vt, max widths) misses some budget.

    [observer] receives one {!Dcopt_obs.Telemetry.iteration} record per
    (vdd, vt) sizing trial, in evaluation order; when omitted the trial
    loop pays only a single [match] per iteration. The total trial count
    is asserted to stay within [m_steps^3] — the paper's O(M^3)-sizings
    complexity claim, kept as a runtime invariant. *)

val sizing_solution :
  Power_model.env -> budgets:float array -> vdd:float -> vt:float ->
  Solution.t
(** One sizing pass at a fixed operating point (exposed for sweeps and
    tests). *)

(** {2 Trials}

    The search's unit of work, for searches built on this one
    ({!Multi_vt}'s class descent). *)

type trial = private {
  design : Power_model.design;
  meets_budgets : bool;
  score : Solution.score;  (** the energies {!Power_model.evaluate} gives *)
  ok : bool;  (** [meets_budgets] and the evaluation is feasible *)
  evaluation : Power_model.evaluation Lazy.t;
    (** forced at most once, by {!solution} or a verdict only the
        evaluation can give *)
}

val trials :
  Power_model.env -> budgets:float array -> vdd:float -> vt:float array ->
  trial
(** [trials env ~budgets] checks {!Power_model.certify_sweep} once and
    returns the search's trial: it sizes every gate at ([vdd], [vt]) and
    scores the design in one sweep. When the certificate declines, the
    reason is logged at info level and each trial is sized without
    scoring and evaluated at once. *)

val solution : label:string -> trial -> Solution.t
(** The trial's design with its full evaluation. *)
