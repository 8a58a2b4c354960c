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

let make tech ~vdd ~vt =
  let i_drive = Mosfet.i_drive tech ~vdd ~vt in
  let i_off = Mosfet.i_off tech ~vt in
  {
    vdd;
    vt;
    i_drive;
    i_off;
    slope = Delay.slope_coefficient tech ~vdd ~vt;
    static_per_width = vdd *. i_off;
    half_vdd_sq = 0.5 *. vdd *. vdd;
    i_half = Mosfet.i_drive tech ~vdd:(vdd /. 2.0) ~vt;
    overlap = Float.max 0.0 ((vdd -. (2.0 *. vt)) /. vdd);
  }

let[@inline] switching_delay tech ctx ~w (load : Delay.load) =
  let drive = ctx.i_drive *. w /. float_of_int load.Delay.stack_depth in
  let opposing = float_of_int load.Delay.fanin_count *. ctx.i_off *. w in
  let i_eff = drive -. opposing in
  if i_eff <= 0.0 then infinity
  else Delay.output_capacitance tech ~w load *. ctx.vdd /. (2.0 *. i_eff)

let gate_delay tech ctx ~w (load : Delay.load) =
  let switching = switching_delay tech ctx ~w load in
  if switching = infinity then infinity
  else begin
    let internal_nodes = max 0 (load.Delay.fanin_count - 1) in
    let stack =
      if internal_nodes = 0 then 0.0
      else if ctx.i_drive <= 0.0 then infinity
      else
        float_of_int internal_nodes *. tech.Tech.c_intermediate *. ctx.vdd
        /. (2.0 *. ctx.i_drive)
    in
    if stack = infinity then infinity
    else
      (ctx.slope *. load.Delay.max_fanin_delay)
      +. switching +. stack +. load.Delay.res_wire_terms
      +. load.Delay.flight_time
  end

let static_power ctx ~w = ctx.static_per_width *. w

let static_energy ctx ~fc ~w =
  assert (fc > 0.0);
  static_power ctx ~w /. fc

let dynamic_energy tech ctx ~w ~activity ~load =
  ctx.half_vdd_sq *. activity *. Delay.output_capacitance tech ~w load

let short_circuit_energy ctx ~w ~activity ~input_transition_time =
  assert (input_transition_time >= 0.0);
  if ctx.overlap <= 0.0 then 0.0
  else
    activity *. ctx.vdd *. (w *. ctx.i_half /. 6.0) *. ctx.overlap
    *. input_transition_time

let transition_time_of_delay driver_delay = 2.0 *. driver_delay

(* ------------------------------------------------------------------ *)
(* Minimal-width sizing                                                *)

(* The width-independent terms of [gate_delay] for one gate, its target
   and the tech's width grid. All fields are floats, so the record is
   stored flat and the predicate reads every term unboxed. *)
type terms = {
  mutable vdd_t : float;
  mutable i_drive_t : float;
  mutable stack : float;        (* float stack_depth *)
  mutable opposing : float;     (* fanin_count · i_off *)
  c_self : float;               (* c_parasitic *)
  mutable c_internal : float;   (* (fanin_count - 1) · c_intermediate *)
  mutable cap_fanout : float;
  mutable cap_wire : float;
  mutable slope_term : float;   (* slope · max_fanin_delay *)
  mutable stack_term : float;
  mutable res_wire : float;
  mutable flight : float;
  mutable target : float;
  c_m : float;                  (* c_intermediate *)
  w_lo : float;
  w_hi : float;
  span : float;                 (* w_hi - w_lo *)
}

type sizer = {
  dyadic : bool;
  terms : terms;
  mutable sized : int;
  mutable bisected : int;
}

(* [gate_delay] at width [w], with the same operations in the same
   association; only the stuck-stack case is left to [min_width]. *)
let[@inline] delay t w =
  let drive = t.i_drive_t *. w /. t.stack in
  let i_eff = drive -. (t.opposing *. w) in
  if i_eff <= 0.0 then infinity
  else
    let cap =
      (t.c_self *. w) +. (t.c_internal *. w) +. t.cap_fanout +. t.cap_wire
    in
    t.slope_term +. (cap *. t.vdd_t /. (2.0 *. i_eff)) +. t.stack_term
    +. t.res_wire +. t.flight

let[@inline] feasible t w = delay t w <= t.target

(* The bisection halves [w_lo, w_hi] 40 times. *)
let grid_steps = 1 lsl 40

(* g_k = w_lo + span · k / 2^40. On a dyadic range every term is exact,
   so g_k is the very float the bisection's midpoints reach. *)
let[@inline] grid t k = t.w_lo +. (t.span *. float_of_int k *. 0x1p-40)

(* Numeric.binary_search_min ~iters:40 over [feasible], without the
   closure; [nan] stands for [None]. *)
let bisect t =
  let lo = ref t.w_lo and hi = ref t.w_hi in
  if not (feasible t !hi) then nan
  else if feasible t !lo then !lo
  else begin
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      if feasible t mid then hi := mid else lo := mid
    done;
    !hi
  end

(* g_k feasible: the smallest feasible index at or below k, or -1 once
   [n] steps are spent. g_0 is known infeasible. *)
let rec walk_down t k n =
  if k = 1 || not (feasible t (grid t (k - 1))) then k
  else if n = 0 then -1
  else walk_down t (k - 1) (n - 1)

(* g_k infeasible (so k < 2^40, whose point is known feasible): the next
   feasible index, or -1 once [n] steps are spent. *)
let rec walk_up t k n =
  if feasible t (grid t (k + 1)) then k + 1
  else if n = 0 then -1
  else walk_up t (k + 1) (n - 1)

let max_walk = 8

(* Inside these bounds no product or quotient of [delay] leaves the
   normal range, so every operation errs by at most half an ulp. *)
let[@inline] normal x = x >= 0x1p-128 && x <= 0x1p128
let[@inline] bounded x = x >= 0.0 && x <= 0x1p128

(* The index k of the bisection's answer, with g_0 infeasible and
   g_{2^40} feasible; -1 when it cannot be certified.

   With B = i_drive/stack - fanin·i_off > 0, eq. A3 reads
   D(w) = K + vdd·C_load / (2·B·w): strictly decreasing in w, so
   D(w_t) = target gives w_t and k = ⌈(w_t - w_lo)·2^40 / span⌉,
   corrected by a short walk. [delay] computes D(w) within a relative ε =
   (16 + 3κ)·2^-53, κ = (drive + opposing)/(drive - opposing) bounding
   the cancellation in i_eff (first order it is (11 + 2κ)·2^-53). If
   g_{k-2} misses the target by more than 4ε and g_{k+1} meets it with
   4ε to spare, every grid point below g_{k-1} is infeasible and every
   point above g_k feasible, whatever the rounding: the bisection,
   which only ever evaluates grid points, must end on g_k. *)
let jump t =
  let fdrive = t.i_drive_t /. t.stack in
  let b = fdrive -. t.opposing in
  let kappa = (fdrive +. t.opposing) /. b in
  let cap = t.cap_fanout +. t.cap_wire in
  if
    not
      (b > 0.0 && kappa <= 0x1p20 && normal t.vdd_t && normal t.i_drive_t
     && t.stack >= 1.0 && t.stack <= 0x1p20 && bounded t.opposing
     && bounded t.c_internal && bounded t.cap_fanout && bounded t.cap_wire
     && bounded t.slope_term && bounded t.stack_term && bounded t.res_wire
     && bounded t.flight && normal t.target)
  then -1
  else begin
    let floor =
      t.slope_term +. t.stack_term +. t.res_wire +. t.flight
      +. (t.vdd_t *. (t.c_self +. t.c_internal) /. (2.0 *. b))
    in
    let slack = t.target -. floor in
    let w_t = t.vdd_t *. cap /. (2.0 *. b *. slack) in
    let x = (w_t -. t.w_lo) /. t.span *. 0x1p40 in
    if not (slack > 0.0 && x > 0.0 && x <= 0x1p40) then -1
    else begin
      let k0 = int_of_float (Float.ceil x) in
      let k =
        if feasible t (grid t k0) then walk_down t k0 max_walk
        else walk_up t k0 max_walk
      in
      let margin = 4.0 *. (16.0 +. (3.0 *. kappa)) *. 0x1p-53 in
      (* g_0 and g_{2^40} are known, so k = 2 and k = 2^40 - 1 need
         no guard on that side *)
      if
        k > 0
        && (k <= 2 || delay t (grid t (k - 2)) > t.target *. (1.0 +. margin))
        && (k >= grid_steps - 1
           || delay t (grid t (k + 1)) < t.target *. (1.0 -. margin))
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
      && on_grid w_hi && normal tech.Tech.c_parasitic;
    terms =
      {
        vdd_t = 0.0;
        i_drive_t = 0.0;
        stack = 1.0;
        opposing = 0.0;
        c_self = tech.Tech.c_parasitic;
        c_internal = 0.0;
        cap_fanout = 0.0;
        cap_wire = 0.0;
        slope_term = 0.0;
        stack_term = 0.0;
        res_wire = 0.0;
        flight = 0.0;
        target = 0.0;
        c_m = tech.Tech.c_intermediate;
        w_lo;
        w_hi;
        span = w_hi -. w_lo;
      };
    sized = 0;
    bisected = 0;
  }

let sized_gates s = s.sized
let bisections s = s.bisected

let bisect_counted s =
  s.bisected <- s.bisected + 1;
  bisect s.terms

let min_width s ctx ~target (load : Delay.load) =
  s.sized <- s.sized + 1;
  let t = s.terms in
  let internal_nodes = max 0 (load.Delay.fanin_count - 1) in
  if internal_nodes > 0 && ctx.i_drive <= 0.0 then
    (* [gate_delay] is infinite at every width *)
    if infinity <= target then t.w_lo else nan
  else begin
    t.vdd_t <- ctx.vdd;
    t.i_drive_t <- ctx.i_drive;
    t.stack <- float_of_int load.Delay.stack_depth;
    t.opposing <- float_of_int load.Delay.fanin_count *. ctx.i_off;
    t.c_internal <- float_of_int internal_nodes *. t.c_m;
    t.cap_fanout <- load.Delay.cap_fanout_gates;
    t.cap_wire <- load.Delay.cap_wire;
    t.slope_term <- ctx.slope *. load.Delay.max_fanin_delay;
    t.stack_term <-
      (if internal_nodes = 0 then 0.0
       else
         float_of_int internal_nodes *. t.c_m *. ctx.vdd
         /. (2.0 *. ctx.i_drive));
    t.res_wire <- load.Delay.res_wire_terms;
    t.flight <- load.Delay.flight_time;
    t.target <- target;
    if not s.dyadic then bisect_counted s
    else if not (feasible t t.w_hi) then nan
    else if feasible t t.w_lo then t.w_lo
    else
      let k = jump t in
      if k > 0 then grid t k else bisect_counted s
  end
