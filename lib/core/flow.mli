(** End-to-end optimization flow — the paper's CAD tool.

    [prepare] takes any circuit (sequential or combinational) through the
    full front end: combinational-core extraction, activity estimation
    (§4.1), wire-load estimation (§2) and Procedure-1 delay budgeting
    (§4.2). Optimizers are then dispatched uniformly through the
    {!Optimizer} registry on a {!Scenario.t} — the per-optimizer
    [run_*] wrappers this module used to export are gone. *)

type activity_engine =
  | First_order        (** the paper's method: gate-local propagation *)
  | Exact_when_small   (** BDD-exact when it fits, else first-order *)
  | Windowed of int
    (** correlation-aware within a fanin window of the given depth
        ({!Dcopt_activity.Activity.windowed_profile}) *)
  | Monte_carlo of { vectors : int; seed : int64 }
    (** glitch-aware measured densities from event-driven simulation of
        random vector pairs ({!Dcopt_sim.Event_sim.monte_carlo_activity});
        probabilities still come from first-order propagation *)
  | Sequential_trace of { cycles : int; seed : int64 }
    (** the paper's "activity profiling of the architecture": cycle
        simulation of the sequential circuit derives measured state-bit
        statistics ({!Dcopt_sim.Seq_sim}) instead of assuming uniform
        pseudo-input activities *)

type config = {
  tech : Dcopt_device.Tech.t;
  clock_frequency : float;       (** fc, Hz (paper: 300 MHz) *)
  input_probability : float;     (** Pr\[input = 1\] at every PI *)
  input_density : float;         (** transitions/cycle at every PI *)
  engine : activity_engine;
  skew_factor : float;           (** Procedure 1's b, <= 1 *)
  m_steps : int;                 (** Procedure 2's M *)
  include_short_circuit : bool;
    (** cost the Veendrick crowbar term too (the paper's announced
        extension; default false = Appendix A.1) *)
}

val default_config : config
(** 300 MHz, probability 0.5, density 0.1, first-order activities,
    b = 0.95, M = 16, [Tech.default]. *)

val validate_config : config -> Dcopt_util.Diag.t list
(** Every problem with the configuration: non-positive/non-finite clock
    frequency (a zero or negative cycle target), probabilities and
    densities out of range, a degenerate skew factor or [m_steps], bad
    engine parameters, and every {!Dcopt_device.Tech.validate_all}
    problem (empty vdd/vt/width ranges, [vt_min >= vdd_max]) — codes
    [config.physics], [config.range], [config.tech]. [[]] means
    well-posed. {!config_of_json} and {!prepare} both run this pass, so
    no optimizer ever sees ill-posed physics through those entry
    points. *)

val config_to_json : config -> Dcopt_util.Json.t
(** Versioned JSON (schema version 1) with every field explicit — the
    embedded tech via {!Dcopt_device.Tech_io.to_json} — and exact float
    round-trips. The service layer digests this rendering to key its
    result cache. *)

val config_of_json :
  ?base:config -> Dcopt_util.Json.t -> (config, string) result
(** Reads a (possibly partial) config object over [base] (default
    {!default_config}), so job specs can override single fields; unknown
    fields are typed errors. Every error message starts with
    ["config: "], so callers pass it on as is. *)

type prepared = {
  config : config;
  core : Dcopt_netlist.Circuit.t;   (** combinational core *)
  profile : Dcopt_activity.Activity.profile;
  used_exact_activity : bool;
  env : Dcopt_opt.Power_model.env;
  budget : Dcopt_timing.Delay_assign.t;
}

val prepare :
  ?config:config ->
  ?constraints:Dcopt_timing.Constraints.t ->
  Dcopt_netlist.Circuit.t -> prepared
(** [constraints] (default: the scalar compatibility set
    {!Dcopt_timing.Constraints.of_cycle_time}[ (1 /. clock_frequency)])
    threads per-endpoint required times through budgeting
    ({!Dcopt_timing.Delay_assign.assign}) and every feasibility verdict
    ({!Dcopt_opt.Power_model.make_env}). Passing the scalar set — or
    nothing — is bit-identical to the pre-constraint behaviour.

    When {!Dcopt_obs.Span} tracing is enabled, [prepare] records a
    "flow.prepare" span with "core-extraction", "activity", "wire-load"
    and "budgeting" children, and {!run_with_budgets} an "optimize"
    span with "budget-repair"/"search" children — together the five flow
    phases shown by [minpower profile]. *)

val constraints : prepared -> Dcopt_timing.Constraints.t
(** The constraint set the prepared environment judges feasibility
    against. *)

val budgets : prepared -> float array
(** The raw Procedure-1 per-gate budgets. *)

val repaired_budgets : prepared -> vt:float -> float array option
(** Budgets after {!Dcopt_opt.Budget_repair} at the (max-Vdd, [vt])
    corner; [None] when the circuit cannot make the cycle time at that
    corner at all. Every registered optimizer uses these internally —
    the joint optimizers at the fast corner ([vt_min]), the baseline at
    its pinned threshold. *)

val fast_budgets : prepared -> float array option
(** {!repaired_budgets} at the fast corner ([vt_min]) — the default
    repair point used by {!run_with_budgets}. *)

val run_with_budgets :
  name:string -> ?vt:float -> prepared ->
  (float array -> 'a option) -> 'a option
(** The shared optimizer skeleton the registry builtins are built on:
    an "optimize" span wrapping a "budget-repair" phase ([vt] selects
    the repair corner, default the fast corner) and a "search" phase
    running [search] on the repaired budgets. [None] when repair finds
    the cycle time unreachable. Per-optimizer entry points
    ([run_baseline], [run_joint], ...) are gone — dispatch through
    {!Optimizer.get} instead. *)

val report : prepared -> Dcopt_opt.Solution.t -> string
(** Human-readable single-solution report. *)
