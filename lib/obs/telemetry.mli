(** Optimizer convergence telemetry.

    Every optimizer ({!Dcopt_opt.Heuristic}, {!Dcopt_opt.Tilos},
    {!Dcopt_opt.Annealing}, {!Dcopt_opt.Baseline}, {!Dcopt_opt.Multi_vt},
    {!Dcopt_opt.Multi_vdd}) accepts an optional
    [?observer] callback and feeds it one {!iteration} record per design
    point it evaluates. When no observer is installed the optimizers pay a
    single [match] per iteration — no record is even allocated — so the
    disabled cost is unmeasurable.

    Observers compose: use {!tee} to both record the raw stream and feed
    the global {!Metrics} registry. *)

type iteration = {
  optimizer : string;
    (** "heuristic", "tilos", "annealing", "baseline", "multi-vt",
        "multi-vdd" *)
  index : int;         (** 0-based position in this optimizer run's stream *)
  vdd : float;         (** supply voltage of the evaluated point, V *)
  vt : float;          (** (representative) threshold voltage, V *)
  static_energy : float;   (** leakage energy per cycle at this point, J *)
  dynamic_energy : float;  (** switching energy per cycle, J *)
  total_energy : float;    (** total energy per cycle, J *)
  feasible : bool;     (** point meets the timing constraint (and budgets,
                           where the optimizer enforces them) *)
}

type observer = iteration -> unit

val null : observer
(** Discards every record. *)

val tee : observer -> observer -> observer
(** Feed each record to both observers, in order. *)

val relabel : string -> observer -> observer
(** [relabel name obs] rewrites each record's [optimizer] field — used by
    optimizers that delegate (e.g. {!Dcopt_opt.Baseline} runs through
    {!Dcopt_opt.Heuristic} but reports as "baseline"). *)

(** {1 Recording} *)

type recorder

val recorder : unit -> recorder

val record : recorder -> observer
(** Observer that appends every record to the recorder. *)

val iterations : recorder -> iteration array
(** All records seen so far, in arrival order. *)

val count : recorder -> int

(** {1 Metrics bridge} *)

val to_metrics : unit -> observer
(** Observer that folds the stream into the global {!Metrics} registry:
    per optimizer [x] it bumps counter [opt.x.iterations], feeds
    histograms [opt.x.iteration.total_energy] (feasible points only) and
    [opt.x.iteration.vdd], and counts infeasible points in
    [opt.x.infeasible]. *)

val to_events : unit -> observer
(** Observer that emits one Debug-level ["opt.iteration"] {!Events} line
    per record (optimizer, index, vdd, vt, total_energy, feasible), so
    the convergence trajectory joins the correlated event log. Cheap
    no-op unless an event sink is active at Debug level. *)
