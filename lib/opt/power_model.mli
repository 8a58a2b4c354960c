(** Circuit-level power and delay evaluation.

    Binds the device models (eqs. A1-A3), the wiring model and the activity
    profile to a concrete circuit, so the optimizers can evaluate a design
    point — a supply voltage, per-gate thresholds and per-gate widths — in
    O(gates). *)

type rail = {
  vdd_low : float;      (** the second supply, V *)
  low : bool array;     (** per node id: the gate runs from [vdd_low];
                            only gate entries are read *)
}
(** A second supply rail (clustered voltage scaling, {!Multi_vdd}). A
    low-rail gate that is a primary output drives a level converter:
    {!evaluate} adds the converter's delay, driven in the gate's low-rail
    context, to the gate's, and its switching energy at [vdd] to the
    gate's dynamic term. *)

type design = {
  mutable vdd : float;
                        (** mutable so {!Incr} global moves can swing the
                            supply in place; treat as read-only elsewhere *)
  vt : float array;     (** per node id; only gate entries are read *)
  widths : float array; (** per node id, in w-units; only gate entries read *)
  rail : rail option;   (** [None]: every gate runs from [vdd] *)
}

type env
(** A circuit prepared for evaluation: per-gate structural loads, wire
    estimates and activities, plus the cycle-time constraint. *)

type evaluation = {
  static_energy : float;   (** total leakage energy per cycle, J *)
  dynamic_energy : float;  (** total switching energy per cycle, J *)
  short_circuit_energy : float;
    (** total crowbar energy per cycle, J; 0 unless the env enables the
        short-circuit extension ({!Dcopt_device.Drive.short_circuit_energy}) *)
  total_energy : float;    (** sum of all components, J *)
  static_power : float;    (** W *)
  dynamic_power : float;   (** W *)
  delays : float array;    (** achieved per-gate delays, s *)
  critical_delay : float;  (** achieved critical path delay, s *)
  feasible : bool;
    (** every primary output meets its required time
        ({!arrivals_feasible}) and no term was clamped *)
}

val make_env :
  ?include_short_circuit:bool ->
                           (* add the Veendrick crowbar term, default false
                              (the paper's Appendix A.1 setting) *)
  ?constraints:Dcopt_timing.Constraints.t ->
  tech:Dcopt_device.Tech.t ->
  fc:float ->
  Dcopt_netlist.Circuit.t ->
  Dcopt_activity.Activity.profile ->
  env
(** Prepares a combinational circuit. The wiring model is
    {!Dcopt_wiring.Wire_model.create} over the circuit's gate count, and
    each primary-output pin loads its net with 4 w-units of gate
    capacitance. Raises [Invalid_argument] on sequential circuits or
    [fc <= 0].

    [constraints] (default: the scalar compatibility set for [1/fc])
    makes every feasibility verdict per-endpoint: an evaluation is
    feasible when each primary output arrives by its own
    {!Dcopt_timing.Constraints.required_times} seed, and constraint
    input delays seed the arrival sweep. A scalar set is bit-identical
    to the legacy single-cycle-time behaviour.

    The env is at the nominal corner (threshold stress 1.0); a process
    corner is {!with_vt_stress} of it. *)

val tech : env -> Dcopt_device.Tech.t
val circuit : env -> Dcopt_netlist.Circuit.t

val constraints : env -> Dcopt_timing.Constraints.t
(** The constraint set feasibility is judged against. *)

val required_times : env -> float array option
(** Per-node required seeds; [None] on the scalar fast path. *)

val arrival_offsets : env -> float array option
(** Constraint input-delay seeds; [None] when the set has none. *)

val vt_stress : env -> float

val with_vt_stress : env -> float -> env
(** The same prepared circuit re-housed at another process corner
    (structural columns shared): every threshold the device model reads
    becomes [vt *. vt_stress] (slow corner = [1 + tolerance], leaky =
    [1 - tolerance]), while designs keep their nominal thresholds. This
    is the only way a corner reaches the device model; 1.0 is the
    bit-exact identity. Raises [Invalid_argument] on a non-positive
    multiplier. *)

val flat : env -> Dcopt_netlist.Flat.t
(** The struct-of-arrays view the evaluation sweeps run on (built once by
    {!make_env}; shares adjacency and level arrays with the circuit). *)

val cycle_time : env -> float
val clock_frequency : env -> float
val activity : env -> int -> float
(** Transition density at a node's output. *)

val gate_ids : env -> int array
(** Ids of the combinational gates, in topological order. *)

val unsafe_gate_ids : env -> int array
(** The backing gate-id array of {!gate_ids}, without the defensive copy.
    Treat as read-only — for per-move hot paths (annealing draws a random
    gate every move). *)

val uniform_design : env -> vdd:float -> vt:float -> w:float -> design
(** A design with one global threshold and width. *)

val drive : env -> vdd:float -> vt:float -> Dcopt_device.Drive.ctx
(** The drive context of the operating point ([vdd], [vt]) at this env's
    corner: the device model sees [vt *. vt_stress]. Every per-gate delay
    and energy of a design at that point comes from this one context. *)

val gate :
  env -> Dcopt_device.Drive.ctx -> design -> max_fanin_delay:float -> int ->
  Dcopt_device.Drive.gate
(** A gate's eq. A3 operands in a context from {!drive} at the gate's
    (vdd, vt): its structure, wire terms and the fanout capacitance
    under the design's widths, with the driver delay supplied explicitly
    (budget-based during sizing, achieved during evaluation). Every
    per-gate delay, dynamic energy and width of this module comes from
    one of these. *)

val gate_delay :
  env -> Dcopt_device.Drive.ctx -> design -> max_fanin_delay:float -> int ->
  float
(** {!Dcopt_device.Drive.gate_delay} of {!gate} at the design's width. *)

val budget_fanin_delay : env -> budgets:float array -> int -> float
(** Max of the drivers' delay budgets — the conservative driver delay used
    while sizing (a driver meeting its budget can only be faster). *)

val converter_delay : env -> Dcopt_device.Drive.ctx -> float
(** The level converter's delay behind a low-rail primary output, in the
    gate's low-rail context — what {!evaluate} adds to its delay. *)

val arrivals_feasible :
  env -> critical_delay:float -> float array -> bool
(** The feasibility verdict of {!evaluate}: with per-endpoint required
    times, every primary output's arrival (indexed by node id) meets its
    own seed; on the scalar path, [critical_delay] meets the cycle time.
    Both within a 1e-6 relative tolerance. *)

val evaluate : env -> design -> evaluation
(** Full evaluation: achieved delays by topological propagation, energy
    totals over all gates, feasibility per endpoint
    ({!arrivals_feasible}). Each gate is scored in the context of its
    rail, level converters included (see {!rail}). One sequential sweep
    in topological gate order, on the calling domain.

    Poison-safe: a non-finite delay or energy term (vt at or above vdd,
    overflow) is clamped to [+infinity] via {!Guard.clamp} — the result
    is an infinite, comparison-safe objective, [feasible] is forced
    false, and the trip is counted under [guard.*]. Never returns NaN in
    the energy/power/critical-delay fields. *)

val size_gate_with :
  Dcopt_device.Drive.sizer -> Dcopt_device.Drive.ctx -> env -> design ->
  budgets:float array -> int -> float option
(** Minimum width in \[w_min, w_max\] meeting the gate's budget, assuming
    the design already fixes its fanouts' widths ({!size_all} processes
    gates in reverse topological order so this holds), under a context
    from {!drive} at the gate's (vdd, vt). [None] when even [w_max] misses
    the budget. The width is the 40-step bisection's answer, bit for bit,
    found by {!Dcopt_device.Drive.min_width} on the {!gate} at its
    fanins' budgets ({!budget_fanin_delay}), in the caller's sizing
    session; tallies stay in the session until {!record_sizing}. *)

val record_sizing : Dcopt_device.Drive.sizer -> unit
(** Add a session's tallies to the [sizing.gates] and
    [sizing.bisections] counters — once per pass, not per gate. *)

type sized = {
  design : design;
  meets_budgets : bool;
    (** every gate met its budget; gates that could not are at [w_max] *)
  static_sum : float;   (** {!evaluate}'s [static_energy], bit for bit *)
  dynamic_sum : float;  (** {!evaluate}'s [dynamic_energy], bit for bit *)
  unclamped : bool;     (** no static or dynamic term was clamped *)
}
(** One Procedure-2 trial's sweep: the sized design, its budget verdict
    and its energies. The short-circuit term, which reads achieved
    input transitions, is not scored. *)

val size_all :
  env -> vdd:float -> vt:float array -> budgets:float array -> sized
(** Sizes every gate to its minimal feasible width in reverse topological
    order, in one sizing session recorded at the end. As it sizes a gate
    it also scores it: the gate's static and dynamic terms come from the
    same {!Dcopt_device.Drive} calls {!evaluate} makes, on the load that
    sized it (final, since its fanouts are already sized), with
    {!evaluate}'s {!Guard.clamp}. The terms are then folded in
    topological order as {!evaluate} folds them. The sweep computes no
    delays, so it needs no second pass; see {!certify_sweep} for when its
    verdict is {!evaluate}'s. *)

val size_widths :
  env -> vdd:float -> vt:float array -> budgets:float array ->
  design * bool
(** {!size_all}'s design and budget verdict, bit for bit, without the
    scoring: for callers that read no energy from the sweep (budget
    repair, corner trials, a search that evaluates every design), which
    would pay for the terms without reading them. *)

val certify_sweep : env -> budgets:float array -> (unit, string) result
(** [Ok ()] when, for every design {!size_all} makes from [budgets],
    [meets_budgets && unclamped] equals [(evaluate env design).feasible]
    and the two sums are {!evaluate}'s energies. It checks that the env
    has no short-circuit term, that every gate budget is finite, and that
    the budgets' own arrival times ({!Dcopt_timing.Flat_sta.analyze} over
    [budgets], seeded with {!arrival_offsets} as {!evaluate} seeds
    arrivals) pass {!arrivals_feasible}.

    Why that suffices: a gate that meets its budget was certified by
    {!Dcopt_device.Drive.min_width} at its fanins' budgets. Its evaluated
    delay differs only in [slope *. max_fanin_delay], where
    {!Dcopt_device.Drive.slope_coefficient} clamps [slope] to \[0, 0.9\]
    and every fanin is inside its own budget. Float rounding is
    monotone, so each evaluated delay is at most its budget (hence
    finite) and each arrival at most the budgets' arrival. [Error]
    names the reason otherwise. *)

(** Incremental evaluation engine for single-gate moves (TILOS,
    annealing, the multi-vt greedy). [Incr] keeps the current delays,
    arrival times, critical delay and running energy totals as mutable
    state and re-evaluates only the affected cone of a move:

    - a width change at gate [g] invalidates [g], its fanin drivers (their
      load includes [w_g]) and, level by level, every fanout of a gate
      whose recomputed (delay, arrival) pair is not bit-identical to the
      old one;
    - a per-gate threshold change invalidates only [g] and that cone;
    - global moves (supply voltage, uniform threshold) re-sweep every
      gate in topological order, counted by [incr.full_fallbacks].

    Energy totals are maintained by subtracting the touched gates' stored
    terms and adding the recomputed ones, so they track {!evaluate}
    within accumulated round-off (the differential tests bound the drift
    at 1e-9 relative); delays and arrivals are bit-identical by
    construction. Moves are transactional: a gate's first change journals
    it once, {!Incr.commit} accepts, and {!Incr.rollback} restores the
    journal and the transaction's starting supply, totals and critical
    delay exactly.

    Instruments [incr.moves], [incr.dirty_gates], [incr.full_fallbacks]
    and the [incr.cone_size] histogram in {!Dcopt_obs.Metrics}. *)
module Incr : sig
  type t

  val create : env -> design -> t
  (** Full initial evaluation. The design record is owned by the engine
      from here on: mutate it only through [set_*] (callers may still
      probe-and-restore fields between engine calls, as TILOS's
      sensitivity probe does). Raises [Invalid_argument] on a two-rail
      design: no optimizer moves one incrementally.

      Raises {!Guard.Non_finite} on a non-finite delay or energy term
      (e.g. vt at or above vdd): an infinity in the subtract-then-add
      totals would turn into NaN, so the engine cannot clamp. [set_*]
      moves raise the same way, leaving the transaction open; the caller
      must {!rollback}, which restores the state before it exactly. *)

  val env : t -> env
  val design : t -> design
  (** The live design under optimization (see {!create} for the
      mutation contract). *)

  val delays : t -> float array
  (** Live per-node achieved delays — current after every [set_*]/
      {!rollback}. Treat as read-only. *)

  val set_width : t -> int -> float -> unit
  (** Set a gate's width and re-evaluate its cone. O(affected cone). *)

  val set_vt : t -> int -> float -> unit
  (** Set a gate's threshold and re-evaluate its cone. O(affected cone). *)

  val set_vdd : t -> float -> unit
  (** Global supply move: full re-sweep (fallback). *)

  val set_vt_uniform : t -> float -> unit
  (** Set every gate's threshold: full re-sweep (fallback). *)

  val commit : t -> unit
  (** Accept all changes since the last commit/rollback. *)

  val rollback : t -> unit
  (** Undo all changes since the last commit/rollback: design fields,
      delays, arrivals, energy terms and totals are restored exactly. *)

  val static_energy : t -> float
  val dynamic_energy : t -> float
  val short_circuit_energy : t -> float
  val total_energy : t -> float
  val critical_delay : t -> float
  val feasible : t -> bool

  val critical_path : t -> int list
  (** One maximal-arrival path under the current state, via
      {!Dcopt_timing.Flat_sta.critical_path_of_arrival} — no extra STA pass. *)

  val snapshot : t -> evaluation
  (** The current state as a regular {!evaluation} record (copies the
      delay array). *)
end
