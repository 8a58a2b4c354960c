type ctx = {
  vdd : float;
  vt : float;
  i_drive : float;
  i_off : float;
  slope : float;
  static_per_width : float;
  half_vdd_sq : float;
  i_half : float;
  overlap : float;
}

let slope_coefficient tech ~vdd ~vt =
  let raw = 0.5 -. ((1.0 -. (vt /. vdd)) /. (1.0 +. tech.Tech.alpha)) in
  Dcopt_util.Numeric.clamp ~lo:0.0 ~hi:0.9 raw

let make tech ~vdd ~vt =
  let i_drive = Mosfet.i_drive tech ~vdd ~vt in
  let i_off = Mosfet.i_off tech ~vt in
  {
    vdd;
    vt;
    i_drive;
    i_off;
    slope = slope_coefficient tech ~vdd ~vt;
    static_per_width = vdd *. i_off;
    half_vdd_sq = 0.5 *. vdd *. vdd;
    i_half = Mosfet.i_drive tech ~vdd:(vdd /. 2.0) ~vt;
    overlap = Float.max 0.0 ((vdd -. (2.0 *. vt)) /. vdd);
  }

let static_power ctx ~w = ctx.static_per_width *. w

let static_energy ctx ~fc ~w =
  assert (fc > 0.0);
  static_power ctx ~w /. fc

let short_circuit_energy ctx ~w ~activity ~input_transition_time =
  assert (input_transition_time >= 0.0);
  if ctx.overlap <= 0.0 then 0.0
  else
    activity *. ctx.vdd *. (w *. ctx.i_half /. 6.0) *. ctx.overlap
    *. input_transition_time

let transition_time_of_delay driver_delay = 2.0 *. driver_delay

(* ------------------------------------------------------------------ *)
(* One gate's operands                                                 *)

(* Every term of eqs. A2 and A3 that does not depend on the width,
   computed once per gate. All fields are floats, so the record is
   stored flat and a probe reads every term unboxed. *)
type gate = {
  vdd : float;
  i_drive : float;
  slope_term : float;   (* slope · max_fanin_delay *)
  stack_term : float;
    (* (fanin - 1)·c_intermediate·vdd / (2·i_drive); +inf when a stack
       cannot switch (i_drive <= 0) *)
  half_vdd_sq : float;
  stack : float;        (* series stack depth *)
  fanin : float;
  opposing : float;     (* fanin · i_off *)
  c_self : float;       (* c_parasitic *)
  c_internal : float;   (* (fanin - 1) · c_intermediate *)
  cap_fanout : float;
  cap_wire : float;
  res_wire : float;
  flight : float;
}

let gate tech (ctx : ctx) ~fanin ~stack ~cap_fanout ~cap_wire ~res_wire
    ~flight ~max_fanin_delay =
  let internal_nodes = max 0 (fanin - 1) in
  {
    vdd = ctx.vdd;
    i_drive = ctx.i_drive;
    slope_term = ctx.slope *. max_fanin_delay;
    (* each of the (fanin - 1) internal nodes of a series stack swings
       by up to vdd through one device; widths cancel *)
    stack_term =
      (if internal_nodes = 0 then 0.0
       else if ctx.i_drive <= 0.0 then infinity
       else
         float_of_int internal_nodes *. tech.Tech.c_intermediate *. ctx.vdd
         /. (2.0 *. ctx.i_drive));
    half_vdd_sq = ctx.half_vdd_sq;
    stack = float_of_int stack;
    fanin = float_of_int fanin;
    opposing = float_of_int fanin *. ctx.i_off;
    c_self = tech.Tech.c_parasitic;
    c_internal = float_of_int internal_nodes *. tech.Tech.c_intermediate;
    cap_fanout;
    cap_wire;
    res_wire;
    flight;
  }

let[@inline] output_capacitance (g : gate) ~w =
  (g.c_self *. w) +. (g.c_internal *. w) +. g.cap_fanout +. g.cap_wire

let[@inline] switching_delay (g : gate) ~w =
  let drive = g.i_drive *. w /. g.stack in
  let i_eff = drive -. (g.opposing *. w) in
  if i_eff <= 0.0 then infinity
  else output_capacitance g ~w *. g.vdd /. (2.0 *. i_eff)

(* Both infinities are returned before the sum, so a NaN term (slope 0
   times an infinite fanin delay) never replaces them. *)
let[@inline] gate_delay (g : gate) ~w =
  let switching = switching_delay g ~w in
  if switching = infinity then infinity
  else if g.stack_term = infinity then infinity
  else g.slope_term +. switching +. g.stack_term +. g.res_wire +. g.flight

let dynamic_energy (g : gate) ~w ~activity =
  g.half_vdd_sq *. activity *. output_capacitance g ~w

(* ------------------------------------------------------------------ *)
(* Minimal-width sizing                                                *)

(* The tech's width grid and the tallies; nothing per gate. *)
type sizer = {
  dyadic : bool;
  w_lo : float;
  w_hi : float;
  span : float;                 (* w_hi - w_lo *)
  mutable sized : int;
  mutable bisected : int;
}

let[@inline] feasible g ~target w = gate_delay g ~w <= target

(* The bisection halves [w_lo, w_hi] 40 times. *)
let grid_steps = 1 lsl 40

(* g_k = w_lo + span · k / 2^40. On a dyadic range every term is exact,
   so g_k is the very float the bisection's midpoints reach. *)
let[@inline] grid s k = s.w_lo +. (s.span *. float_of_int k *. 0x1p-40)

(* Numeric.binary_search_min ~iters:40 over [feasible], without the
   closure; [nan] stands for [None]. *)
let bisect s g ~target =
  let lo = ref s.w_lo and hi = ref s.w_hi in
  if not (feasible g ~target !hi) then nan
  else if feasible g ~target !lo then !lo
  else begin
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      if feasible g ~target mid then hi := mid else lo := mid
    done;
    !hi
  end

(* g_k feasible: the smallest feasible index at or below k, or -1 once
   [n] steps are spent. g_0 is known infeasible. *)
let rec walk_down s g ~target k n =
  if k = 1 || not (feasible g ~target (grid s (k - 1))) then k
  else if n = 0 then -1
  else walk_down s g ~target (k - 1) (n - 1)

(* g_k infeasible (so k < 2^40, whose point is known feasible): the next
   feasible index, or -1 once [n] steps are spent. *)
let rec walk_up s g ~target k n =
  if feasible g ~target (grid s (k + 1)) then k + 1
  else if n = 0 then -1
  else walk_up s g ~target (k + 1) (n - 1)

let max_walk = 8

(* Inside these bounds no product or quotient of [gate_delay] leaves the
   normal range, so every operation errs by at most half an ulp. *)
let[@inline] normal x = x >= 0x1p-128 && x <= 0x1p128
let[@inline] bounded x = x >= 0.0 && x <= 0x1p128

(* The index k of the bisection's answer, with g_0 infeasible and
   g_{2^40} feasible; -1 when it cannot be certified.

   With B = i_drive/stack - fanin·i_off > 0, eq. A3 reads
   D(w) = K + vdd·C_load / (2·B·w): strictly decreasing in w, so
   D(w_t) = target gives w_t and k = ⌈(w_t - w_lo)·2^40 / span⌉,
   corrected by a short walk. [gate_delay] computes D(w) within a
   relative ε = (16 + 3κ)·2^-53, κ = (drive + opposing)/(drive -
   opposing) bounding the cancellation in i_eff (first order it is
   (11 + 2κ)·2^-53). If g_{k-2} misses the target by more than 4ε and
   g_{k+1} meets it with 4ε to spare, every grid point below g_{k-1} is
   infeasible and every point above g_k feasible, whatever the
   rounding: the bisection, which only ever evaluates grid points, must
   end on g_k. *)
let jump s (g : gate) ~target =
  let fdrive = g.i_drive /. g.stack in
  let b = fdrive -. g.opposing in
  let kappa = (fdrive +. g.opposing) /. b in
  let cap = g.cap_fanout +. g.cap_wire in
  if
    not
      (b > 0.0 && kappa <= 0x1p20 && normal g.vdd && normal g.i_drive
     && g.stack >= 1.0 && g.stack <= 0x1p20 && normal g.c_self
     && bounded g.opposing && bounded g.c_internal && bounded g.cap_fanout
     && bounded g.cap_wire && bounded g.slope_term && bounded g.stack_term
     && bounded g.res_wire && bounded g.flight && normal target)
  then -1
  else begin
    let floor =
      g.slope_term +. g.stack_term +. g.res_wire +. g.flight
      +. (g.vdd *. (g.c_self +. g.c_internal) /. (2.0 *. b))
    in
    let slack = target -. floor in
    let w_t = g.vdd *. cap /. (2.0 *. b *. slack) in
    let x = (w_t -. s.w_lo) /. s.span *. 0x1p40 in
    if not (slack > 0.0 && x > 0.0 && x <= 0x1p40) then -1
    else begin
      let k0 = int_of_float (Float.ceil x) in
      let k =
        if feasible g ~target (grid s k0) then walk_down s g ~target k0 max_walk
        else walk_up s g ~target k0 max_walk
      in
      let margin = 4.0 *. (16.0 +. (3.0 *. kappa)) *. 0x1p-53 in
      (* g_0 and g_{2^40} are known, so k = 2 and k = 2^40 - 1 need
         no guard on that side *)
      if
        k > 0
        && (k <= 2
           || gate_delay g ~w:(grid s (k - 2)) > target *. (1.0 +. margin))
        && (k >= grid_steps - 1
           || gate_delay g ~w:(grid s (k + 1)) < target *. (1.0 -. margin))
      then k
      else -1
    end
  end

let sizer tech =
  let w_lo = tech.Tech.w_min and w_hi = tech.Tech.w_max in
  (* w_hi = m·2^e with m in [0.5, 1): scaled by 2^(12 - e), w_hi lies in
     [2^11, 2^12), so both ends are integer multiples of one power of two
     below 2^(p+12) exactly when both scale to integers *)
  let p = snd (Float.frexp w_hi) - 12 in
  let on_grid w = Float.is_integer (Float.ldexp w (-p)) in
  {
    dyadic =
      w_lo >= 0x1p-32 && w_hi <= 0x1p32 && w_lo < w_hi && on_grid w_lo
      && on_grid w_hi;
    w_lo;
    w_hi;
    span = w_hi -. w_lo;
    sized = 0;
    bisected = 0;
  }

let sized_gates s = s.sized
let bisections s = s.bisected

let bisect_counted s g ~target =
  s.bisected <- s.bisected + 1;
  bisect s g ~target

let min_width s (g : gate) ~target =
  s.sized <- s.sized + 1;
  if g.fanin > 1.0 && g.i_drive <= 0.0 then
    (* [gate_delay] is infinite at every width *)
    if infinity <= target then s.w_lo else nan
  else if not s.dyadic then bisect_counted s g ~target
  else if not (feasible g ~target s.w_hi) then nan
  else if feasible g ~target s.w_lo then s.w_lo
  else
    let k = jump s g ~target in
    if k > 0 then grid s k else bisect_counted s g ~target
