(** Drivers that regenerate every table and figure of the paper's
    evaluation (§5). Each function returns structured rows plus a renderer
    that prints them in the publication's layout; `bench/main.exe` wires
    them to the command line. See EXPERIMENTS.md for paper-vs-measured
    commentary. *)

type table_row = {
  circuit : string;
  gates : int;
  depth : int;
  input_density : float;       (** the "Input Activities" column *)
  static_energy : float;       (** J/cycle *)
  dynamic_energy : float;      (** J/cycle *)
  total_energy : float;        (** J/cycle *)
  critical_delay : float;      (** s *)
  vdd : float;
  vt : float;
  savings : float option;      (** Table 2 only: vs the Table-1 row *)
}

val table1 :
  ?config:Flow.config -> ?circuits:string list -> ?activities:float array ->
  unit -> table_row list
(** Baseline rows: Vt fixed at 700 mV, Vdd + widths optimized for 300 MHz.
    One row per (circuit, activity) pair; [activities] defaults to the
    paper's input transition densities 0.1 and 0.5. *)

val table2 :
  ?config:Flow.config -> ?circuits:string list -> ?activities:float array ->
  unit -> table_row list
(** Heuristic rows (joint Vdd/Vt/width optimization) with savings factors
    relative to the corresponding {!table1} rows. *)

val render_table : title:string -> table_row list -> string

val fig2a :
  ?config:Flow.config -> ?circuit:string -> ?tolerances:float array ->
  unit -> Dcopt_opt.Variation.point array
(** Power savings vs threshold-variation tolerance (default circuit s298,
    tolerances 0..30%%). *)

val render_fig2a : Dcopt_opt.Variation.point array -> string

val fig2b :
  ?config:Flow.config -> ?circuit:string -> ?factors:float array ->
  unit -> Dcopt_opt.Slack_sweep.point array
(** Power savings vs cycle-time slack (default circuit s298, factors
    1.0..3.0). *)

val render_fig2b : Dcopt_opt.Slack_sweep.point array -> string

type annealing_row = {
  bench_circuit : string;
  heuristic_energy : float;
  annealing_energy : float;
  annealing_vs_heuristic : float; (** > 1 means the heuristic won on energy *)
  heuristic_seconds : float;      (** wall time of the heuristic *)
  annealing_seconds : float;      (** wall time of the annealer *)
}

val annealing_comparison :
  ?config:Flow.config -> ?circuits:string list -> unit -> annealing_row list
(** §5's comparison: the Procedure-2 heuristic vs multi-pass simulated
    annealing on the same budgets. *)

val render_annealing : annealing_row list -> string

type ablation_row = { label : string; value : float; detail : string }

val ablation_activity : ?config:Flow.config -> ?circuit:string -> unit -> ablation_row list
(** Exact (BDD) vs first-order transition densities: optimized total
    energy under each. *)

val ablation_budget : ?config:Flow.config -> ?circuit:string -> unit -> ablation_row list
(** Procedure-1 criticality budgeting vs naive uniform-per-level budgets. *)

val ablation_multi_vt : ?config:Flow.config -> ?circuit:string -> unit -> ablation_row list
(** Single-Vt vs dual-Vt optimization. *)

val ablation_multi_vdd :
  ?config:Flow.config -> ?circuit:string -> unit -> ablation_row list
(** Single-supply vs dual-supply (clustered voltage scaling) optimization —
    the paper's "more than one power supply" extension. *)

val ablation_short_circuit :
  ?config:Flow.config -> ?circuit:string -> unit -> ablation_row list
(** Optimization with and without the Veendrick short-circuit term (the
    paper's announced "next version" extension): reports the optimized
    totals and how much crowbar energy the optimum carries. *)

val render_ablation : title:string -> ablation_row list -> string

val yield_study :
  ?config:Flow.config -> ?circuit:string -> ?samples:int ->
  ?sigmas:float array -> unit -> Dcopt_opt.Yield.curve_point array
(** Monte-Carlo extension of Fig. 2(a): statistical timing yield of the
    nominal joint optimum vs the 3-sigma corner-margined design under
    die-to-die + within-die threshold variation. *)

val render_yield : Dcopt_opt.Yield.curve_point array -> string

type scaling_row = {
  node_name : string;
  feature_nm : float;
  opt_vdd : float;
  opt_vt : float;
  opt_energy : float;     (** optimized total energy per cycle, J *)
  static_share : float;   (** static / total at the optimum *)
}

val scaling_study :
  ?config:Flow.config -> ?circuit:string -> ?factors:float array ->
  unit -> scaling_row list
(** The paper's §1 process-development use-case, extended across scaled
    nodes (constant-field {!Dcopt_device.Tech.scale}): re-optimize the same
    circuit at 300 MHz on each node and report where the optimal supply,
    threshold and energy land — the leakage share grows as the swing fails
    to scale. *)

val render_scaling : scaling_row list -> string

type glitch_row = {
  glitch_circuit : string;
  analytic_energy : float;   (** dynamic energy from Najm densities, J *)
  simulated_energy : float;  (** dynamic energy from measured densities, J *)
  glitch_fraction : float;   (** share of simulated transitions that are
                                 hazards *)
}

val glitch_study :
  ?config:Flow.config -> unit -> glitch_row list
(** Quantifies what the paper's zero-delay activity model misses: on
    balanced trees nothing, on arithmetic circuits (array multiplier) a
    large glitch component. Evaluates a fixed mid-range design under both
    activity profiles. *)

val render_glitch : glitch_row list -> string

type state_activity_row = {
  state_circuit : string;
  assumed_density : float;        (** the paper's uniform assumption *)
  measured_state_density : float; (** mean toggle rate of the state bits *)
  energy_assumed : float;         (** optimized energy under the assumption *)
  energy_measured : float;        (** optimized energy under the trace *)
}

val state_activity_study :
  ?config:Flow.config -> ?circuits:string list -> unit ->
  state_activity_row list
(** The paper assumes every pseudo-input (state bit) toggles at the same
    rate as the true inputs; cycle simulation ({!Dcopt_sim.Seq_sim})
    measures how state bits actually behave and re-optimizes under the
    measured profile. *)

val render_state_activity : state_activity_row list -> string

val ablation_fanin :
  ?config:Flow.config -> ?circuit:string -> unit -> ablation_row list
(** Optimize the circuit as-is vs decomposed to bounded-fanin trees
    ({!Dcopt_netlist.Tech_map}): narrower gates avoid series-stack delay
    degradation at the cost of extra gates and depth. *)

val temperature_study :
  ?config:Flow.config -> ?circuit:string -> ?temperatures:float array ->
  unit -> ablation_row list
(** Re-optimize across junction temperatures: the subthreshold swing grows
    with kT/q, so hot dies leak exponentially more and the optimal
    threshold climbs. *)

val beyond_paper_pipeline :
  ?config:Flow.config -> ?circuit:string -> unit -> ablation_row list
(** The cumulative beyond-paper recipe: paper flow, then slack-driven
    dual-Vt, then bounded-fanin remapping, then budget-free TILOS sizing —
    each row the running best. *)

val ablation_sizing :
  ?config:Flow.config -> ?circuit:string -> unit -> ablation_row list
(** Procedure-2 budget-decomposed sizing vs budget-free TILOS sensitivity
    sizing: quantifies the energy the paper trades for its O(M^3) speed. *)
