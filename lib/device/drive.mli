(** Per-(vdd, vt) drive context: the device-model terms that are constant
    across an entire operating-point trial, and the minimal-width sizing
    kernel of Procedure 2.

    Procedure 2 evaluates M² (vdd, vt) points, each sizing N gates, and
    the transcendental device model ({!Mosfet.i_drive}/{!Mosfet.i_off}
    call [exp]/[**]) would dominate each delay evaluation. Those terms
    depend only on (vdd, vt), never on the width being searched, so a
    trial computes them once and reuses them for every gate and every
    width it tries. The delay helper here reproduces
    {!Delay.gate_delay} with identical arithmetic (same operations in the
    same association), so the cached path is bit-identical to the uncached
    one; the energy helpers reuse the cached currents through precomputed
    per-width factors (differences are at round-off, orders below the 1e-9
    equivalence bound the test suite enforces). *)

type ctx = {
  vdd : float;              (** supply voltage of the trial, V *)
  vt : float;               (** threshold voltage of the trial, V *)
  i_drive : float;          (** {!Mosfet.i_drive} at (vdd, vt), A per w-unit *)
  i_off : float;            (** {!Mosfet.i_off} at vt, A per w-unit *)
  slope : float;            (** {!Delay.slope_coefficient} at (vdd, vt) *)
  static_per_width : float; (** leakage power per w-unit: vdd · i_off, W *)
  half_vdd_sq : float;      (** dynamic-energy factor: vdd²/2, V² *)
}

val make : Tech.t -> vdd:float -> vt:float -> ctx
(** Evaluate the transcendental device model once for this operating
    point. *)

val effective_drive : ctx -> w:float -> Delay.load -> float
(** {!Delay.effective_drive} with the cached currents. *)

val gate_delay : Tech.t -> ctx -> w:float -> Delay.load -> float
(** {!Delay.gate_delay} with the cached currents and slope coefficient —
    bit-identical to the uncached formula. *)

val static_power : ctx -> w:float -> float
(** {!Energy.static_power} via the cached per-width factor. *)

val static_energy : ctx -> fc:float -> w:float -> float
(** {!Energy.static_energy} via the cached per-width factor. *)

val dynamic_energy :
  Tech.t -> ctx -> w:float -> activity:float -> load:Delay.load -> float
(** {!Energy.dynamic_energy} via the cached vdd²/2 factor. *)

(** {1 Minimal-width sizing} *)

type sizer
(** One sizing session: a tech's width grid, scratch space for one gate's
    delay terms, and tallies of the gates sized. Owned by one caller at a
    time; share nothing across domains. *)

val sizer : Tech.t -> sizer
(** A fresh session with zero tallies. *)

val min_width : sizer -> ctx -> target:float -> Delay.load -> float
(** The width that
    [Numeric.binary_search_min ~lo:w_min ~hi:w_max ~iters:40] returns for
    the predicate [gate_delay tech ctx ~w load <= target], bit for bit,
    or [nan] where it returns [None] (even [w_max] misses [target]).

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
    bisection itself over the same arithmetic. *)

val sized_gates : sizer -> int
(** Gates sized through this session. *)

val bisections : sizer -> int
(** Of those, the gates whose width came from the 40-step bisection. *)
