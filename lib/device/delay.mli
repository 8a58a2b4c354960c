(** Structural inputs of the gate propagation delay (paper Appendix A.2,
    eq. A3) and the load-dependent terms shared by the delay and energy
    models. The delay itself, and every energy term, are evaluated by a
    per-operating-point {!Drive.ctx}: eq. A3 is {!Drive.gate_delay}, its
    switching component {!Drive.switching_delay}.

    Four components are modelled, as in the paper: the switching-MOSFET
    delay (alpha-power, transregional, leakage-opposed), the
    series-stack intermediate-node delay of multi-input gates, the
    distributed interconnect RC plus time-of-flight, and the contribution
    of the non-zero input rise time (proportional to the slowest fanin's
    delay). *)

type load = {
  fanin_count : int;        (** f_ii, >= 1 for logic gates *)
  stack_depth : int;        (** worst-case series-connected MOSFETs *)
  cap_fanout_gates : float; (** sum over fanouts of w_ij * C_t, in F *)
  cap_wire : float;         (** total interconnect load C_INT, in F *)
  res_wire_terms : float;   (** sum of R_INT_ij * (w_ij C_t + C_INT_ij), in s *)
  flight_time : float;      (** sum of L_INT_ij / v_ij, in s *)
  max_fanin_delay : float;  (** max_j t_dij of the driving gates, in s *)
}

val no_load : load
(** All-zero load with [fanin_count = 1], [stack_depth = 1]; useful as a
    record base. *)

val slope_coefficient : Tech.t -> vdd:float -> vt:float -> float
(** The input-rise-time coefficient [1/2 - (1 - vt/vdd)/(1 + alpha)],
    clamped to \[0, 0.9\] (it approaches and exceeds 1/2 in subthreshold
    operation). *)

val output_capacitance : Tech.t -> w:float -> load -> float
(** C_out = C_PD w + (f_ii - 1) C_m w + cap_fanout_gates + cap_wire —
    shared by the delay and dynamic-energy models (eqs. A3, A2). *)
