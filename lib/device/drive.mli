(** Per-(vdd, vt) drive context and per-gate operands: the only per-gate
    device evaluator. A context holds the device-model terms that are
    constant across an operating point; a {!gate} adds one gate's load
    to it. From the gate come its delay (eq. A3) and dynamic energy
    (eq. A2), and Procedure 2's minimal-width kernel sizes it; static and
    short-circuit energy come from the context alone.

    Procedure 2 evaluates M² (vdd, vt) points, each sizing N gates, and
    the transcendental device model ({!Mosfet.i_drive}/{!Mosfet.i_off}
    call [exp]/[**]) would dominate each delay evaluation. Those terms
    depend only on (vdd, vt), never on the width, so a caller makes one
    context per operating point and reuses it for every gate. A gate's
    own width-independent products are computed once, when its {!gate}
    is built, and reused for every width tried.

    Four delay components are modelled, as in the paper: the
    switching-MOSFET delay (alpha-power, transregional,
    leakage-opposed), the series-stack intermediate-node delay of
    multi-input gates, the distributed interconnect RC plus
    time-of-flight, and the contribution of the non-zero input rise
    time (proportional to the slowest fanin's delay). *)

type ctx = {
  vdd : float;              (** supply voltage of the trial, V *)
  vt : float;               (** threshold voltage of the trial, V *)
  i_drive : float;          (** {!Mosfet.i_drive} at (vdd, vt), A per w-unit *)
  i_off : float;            (** {!Mosfet.i_off} at vt, A per w-unit *)
  slope : float;            (** {!slope_coefficient} at (vdd, vt) *)
  static_per_width : float; (** leakage power per w-unit: vdd · i_off, W *)
  half_vdd_sq : float;      (** dynamic-energy factor: vdd²/2, V² *)
  i_half : float;
    (** {!Mosfet.i_drive} at (vdd/2, vt): the crowbar peak current per
        w-unit, A *)
  overlap : float;
    (** share of the input swing during which both networks conduct,
        [max 0 ((vdd - 2 vt) / vdd)]; 0 when [vdd <= 2 vt] *)
}

val make : Tech.t -> vdd:float -> vt:float -> ctx
(** Evaluate the transcendental device model once for this operating
    point. *)

val slope_coefficient : Tech.t -> vdd:float -> vt:float -> float
(** The input-rise-time coefficient [1/2 - (1 - vt/vdd)/(1 + alpha)],
    clamped to \[0, 0.9\] (it approaches and exceeds 1/2 in subthreshold
    operation). *)

(** {1 One gate's operands} *)

type gate
(** One gate at one operating point: the context's terms and the gate's
    load, with every product that does not depend on the width already
    computed. Immutable. *)

val gate :
  Tech.t -> ctx -> fanin:int -> stack:int -> cap_fanout:float ->
  cap_wire:float -> res_wire:float -> flight:float ->
  max_fanin_delay:float -> gate
(** [fanin] is f_ii (>= 1 for logic gates) and [stack] the worst-case
    number of series-connected MOSFETs. [cap_fanout] is the fanouts'
    gate capacitance, sum of w_ij·C_t, and [cap_wire] the interconnect
    load C_INT, both in F. [res_wire] is the wire's RC delay,
    sum of R_INT_ij·(w_ij·C_t + C_INT_ij), and [flight] its time of
    flight, sum of L_INT_ij / v_ij, both in s. [max_fanin_delay] is
    max_j t_dij of the driving gates, in s. *)

(** {1 Delay (Appendix A.2, eq. A3)} *)

val output_capacitance : gate -> w:float -> float
(** C_out = C_PD w + (f_ii - 1) C_m w + cap_fanout + cap_wire, shared by
    the delay and dynamic-energy models (eqs. A3, A2). *)

val switching_delay : gate -> w:float -> float
(** The output-node charging component alone: [C_out · vdd / (2 I_eff)],
    with [I_eff] the stack-degraded drive minus the off-current of the
    [fanin] opposing devices; [infinity] when [I_eff <= 0] (leakage
    overwhelms drive). *)

val gate_delay : gate -> w:float -> float
(** Full eq. A3 delay: input slope ([slope · max_fanin_delay]) +
    {!switching_delay} + series-stack internal nodes (each of the
    [fanin - 1] nodes swings by up to vdd through one device; widths
    cancel) + wire RC + time of flight. [infinity] when the charging term
    is infinite or the stack cannot switch ([i_drive <= 0]), checked in
    that order before the sum is taken. *)

(** {1 Energy (Appendix A.1, eqs. A1 and A2)} *)

val static_power : ctx -> w:float -> float
(** Leakage power [vdd · i_off · w], in W (eq. A1's power form). *)

val static_energy : ctx -> fc:float -> w:float -> float
(** Leakage energy charged to one clock cycle: {!static_power} / [fc],
    J. *)

val dynamic_energy : gate -> w:float -> activity:float -> float
(** Switching energy per cycle [vdd²/2 · a · C_out] with C_out from
    {!output_capacitance} (eq. A2), in J. [activity] is the node's
    transition density per cycle. *)

(** {1 Short-circuit energy}

    Appendix A.1 neglects the short-circuit component "since under
    typical input signal rise time and output load conditions it is an
    order of magnitude smaller than the switching energy" but notes it is
    "being incorporated in the next version of the optimization tool".
    This is that next version: a Veendrick-style model (ref [12]) in
    which both networks conduct while the input traverses
    \[Vt, Vdd - Vt\], drawing a triangular current whose peak is the
    drive at half-swing. It vanishes when [vdd <= 2 vt] (no overlap, the
    classic reason low-Vdd/high-Vt designs have no crowbar current) and
    grows linearly with the input transition time, penalizing
    weakly-driven gates. *)

val short_circuit_energy :
  ctx -> w:float -> activity:float -> input_transition_time:float -> float
(** [E_sc = a · vdd · (w · i_half / 6) · overlap · tau_in] per cycle, J;
    0 without overlap. [input_transition_time] is the 0-100%% input ramp
    (see {!transition_time_of_delay}). *)

val transition_time_of_delay : float -> float
(** The rise-time proxy of the power model: [2 · driver_delay]. *)

(** {1 Minimal-width sizing} *)

type sizer
(** One sizing session: a tech's width grid and tallies of the gates
    sized. Owned by one caller at a time; share nothing across
    domains. *)

val sizer : Tech.t -> sizer
(** A fresh session with zero tallies. *)

val min_width : sizer -> gate -> target:float -> float
(** The width that
    [Numeric.binary_search_min ~lo:w_min ~hi:w_max ~iters:40] returns for
    the predicate [gate_delay g ~w <= target], bit for bit, or [nan]
    where it returns [None] (even [w_max] misses [target]).

    When [w_min] and [w_max] are integer multiples of one power of two
    [2^p] with [w_max < 2^(p+12)] (the default 1..100 qualifies), every
    midpoint of that bisection is exact and its answer is the smallest
    feasible grid point [w_min + (w_max - w_min)·k/2^40]. The kernel
    solves eq. A3 for the width that meets [target], snaps it to the
    grid and walks to the first feasible point; it then evaluates one
    more point on each side and accepts the answer only when both clear
    [target] by more than a bound on the rounding error of the delay,
    which makes the bisection's verdict at every other grid point
    certain. Otherwise (non-dyadic range, no closed form, a point out
    of range, a walk longer than 8 steps, a failed guard) it runs the
    bisection itself. Every probe is {!gate_delay}. *)

val sized_gates : sizer -> int
(** Gates sized through this session. *)

val bisections : sizer -> int
(** Of those, the gates whose width came from the 40-step bisection. *)
