(** Optimization outcomes and report helpers shared by all optimizers. *)

type t = {
  label : string;                  (** which optimizer produced it *)
  design : Power_model.design;
  evaluation : Power_model.evaluation;
  meets_budgets : bool;            (** every gate met its Procedure-1 budget *)
}

val make :
  label:string -> meets_budgets:bool ->
  Power_model.env -> Power_model.design -> t
(** Evaluates the design and packages it. *)

val of_evaluation :
  label:string -> meets_budgets:bool ->
  Power_model.design -> Power_model.evaluation -> t
(** Packages an already-computed evaluation (e.g. a {!Power_model.Incr}
    snapshot) without re-running the full model. *)

val vdd : t -> float

val vt_values : t -> Power_model.env -> float list
(** Distinct gate thresholds in the design, ascending (singleton for
    single-Vt designs). Primary-input entries are not read. *)

val total_energy : t -> float
val static_energy : t -> float
val dynamic_energy : t -> float
val critical_delay : t -> float
val feasible : t -> bool

type score = {
  static_energy : float;
  dynamic_energy : float;
  total_energy : float;
}
(** The energies a trial reports, J per cycle. *)

val score : t -> score

type emit = vdd:float -> vt:float -> feasible:bool -> score option -> unit
(** Reports one trial of an optimizer: its operating point, whether it
    met the optimizer's constraints, and its energies ([None]: no design,
    reported with infinite energies). *)

val trials :
  ?observer:Dcopt_obs.Telemetry.observer -> string ->
  Dcopt_obs.Telemetry.observer option * emit
(** [trials ?observer name] is the telemetry stream of one optimizer run
    named [name]: the observer to hand an inner optimizer it delegates
    to, relabelled [name] (as {!Baseline} does), and an [emit] for the
    run's own trials, indexed after every record sent so far. Without an
    observer both are no-ops. *)

val savings : baseline:t -> t -> float
(** Total-energy ratio baseline/this — the paper's "Savings" column. *)

val better : t option -> t -> t option
(** Keep the lower-total-energy feasible solution; infeasible candidates
    never replace feasible ones. *)

val describe : Power_model.env -> t -> string
(** Multi-line human-readable summary: operating point, mean and maximum
    width ("no gates" for a core without any), active area, energies, and
    a slack line — the worst slack of
    the solution's achieved delays against the env's constraint set, and
    the number of nodes with slack within 5% of the cycle time. The slack
    line runs the levelized {!Dcopt_timing.Flat_sta} analyzer over the
    env's flat view (so reporting a solution also exercises — and
    instruments, via the [sta.level.*] metrics — the data-oriented timing
    core). *)

val to_json : t -> Dcopt_util.Json.t
(** Versioned JSON (schema version 1) carrying the full design and
    evaluation — including the per-node [vt]/[widths]/[delays] arrays —
    with exact float round-trips, so {!of_json} reproduces the solution
    bit-for-bit. A two-rail design adds a [design.rail] member holding
    [vdd_low] and the per-node [low] flags; a one-rail design has none.
    Used by the service result cache and [minpower --json]. *)

val of_json : Dcopt_util.Json.t -> (t, string) result
(** Inverse of {!to_json}. A missing [design.rail] is one rail; a [low]
    array whose length differs from [vt]'s is an error. *)
