(** Timing constraints: the front door that replaces the bare scalar
    cycle target.

    A constraint set carries clocks (period + optional waveform),
    per-endpoint [set_max_delay] bounds, false-path exceptions and
    input/output delays — the SDC-lite subset parsed by {!Sdc}. All
    times are in {e seconds} (the parser converts from the SDC
    convention of nanoseconds). Hold-style [set_min_delay] bounds are
    not modelled — feasibility is judged against required times only —
    so {!Sdc} validates that command and reports it as an ignored
    [sdc.unsupported] warning.

    The whole timing stack consumes a constraint set through one
    projection: {!required_times}, a per-node array of required arrival
    times ([+infinity] for non-endpoints and false-path'd endpoints)
    that {!Flat_sta.analyze} seeds its backward sweep from, and
    {!arrival_offsets}, the input-delay seeds for the forward sweep.

    The legacy scalar [cycle_target] is the degenerate one-clock set
    built by {!of_cycle_time}; every pre-redesign caller migrates
    through it, and the scalar fast paths in [Delay_assign]/[Power_model]
    recognise it via {!scalar_cycle_time} so scalar runs stay
    bit-identical. *)

type clock = {
  clock_name : string;
  period : float;  (** seconds; > 0 *)
  waveform : (float * float) option;
      (** optional (rise, fall) edge times, seconds *)
  sources : string list;  (** source ports; [[]] for a virtual clock *)
}

type path_rule = {
  rule_from : string list;  (** startpoint ports; [[]] = any *)
  rule_to : string list;  (** endpoint ports; [[]] = every endpoint *)
  bound : float;  (** seconds *)
}

type exception_path = {
  exc_from : string list;  (** [[]] = any startpoint *)
  exc_to : string list;  (** [[]] = every endpoint *)
}

type io_delay = {
  port : string;
  io_clock : string option;
  io_delay : float;  (** seconds *)
}

type t = {
  clocks : clock list;
  max_delays : path_rule list;
  false_paths : exception_path list;
  input_delays : io_delay list;
  output_delays : io_delay list;
}

val empty : t

val of_cycle_time : float -> t
(** The compatibility constructor: one virtual clock ["clk"] whose
    period is the scalar cycle target. {!scalar_cycle_time} recovers
    the scalar from exactly this shape. *)

val scalar_cycle_time : t -> float option
(** [Some ct] iff the set is (shape-identical to) [of_cycle_time ct] —
    the discriminator the scalar fast paths key on. *)

val default_period : t -> float option
(** The tightest (minimum) clock period, when any clock exists. *)

val tightest_cycle_time : t -> default:float -> float
(** The single scalar that budgeting ({!Delay_assign}) distributes: the
    minimum over clock periods and finite global max-delay bounds,
    falling back to [default] for an empty set. *)

val required_times : t -> default:float -> Dcopt_netlist.Circuit.t -> float array
(** Per-node required-time seeds, indexed by node id. Non-endpoints are
    [infinity]. Each primary output starts from its capture budget (the
    period of the clock named by its [set_output_delay], minus that
    output delay; else {!default_period}; else [default]), tightened by
    every matching [set_max_delay] rule; an output covered by an
    any-startpoint false path becomes [infinity] (unconstrained).
    Startpoint-specific rules tighten their named endpoints too — the
    conservative per-endpoint projection of a path rule. *)

val arrival_offsets : t -> Dcopt_netlist.Circuit.t -> float array option
(** Input-delay seeds for the forward sweep: [None] when the set has no
    input delays (the scalar fast path), else a per-node array that is
    the input delay at each named primary input and [0.] elsewhere. *)

val to_json : t -> Dcopt_util.Json.t
(** Canonical JSON rendering (version 1) — folded into the store digest
    for scenario jobs, so editing a constraint file invalidates cached
    rows. Nothing reads it back. *)
