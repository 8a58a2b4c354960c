(* The uncached per-gate device formulas: the bitwise oracle for
   Drive.

   These are the delay (eq. A3), energy (eqs. A1, A2) and Veendrick
   short-circuit formulas as they stood before the drive context became
   the library's only evaluator, over the load record they read then.
   Each call re-runs the transcendental MOSFET model, and nothing here
   calls Drive: the output capacitance and the slope coefficient are
   copies. Drive must reproduce the delays and short-circuit energies
   bit for bit; its static and dynamic energies associate their factors
   differently and agree within round-off. *)

module Tech = Dcopt_device.Tech
module Mosfet = Dcopt_device.Mosfet

(* Structural inputs of eq. A3 for one gate. *)
type load = {
  fanin_count : int;        (* f_ii, >= 1 for logic gates *)
  stack_depth : int;        (* worst-case series-connected MOSFETs *)
  cap_fanout_gates : float; (* sum over fanouts of w_ij * C_t, in F *)
  cap_wire : float;         (* total interconnect load C_INT, in F *)
  res_wire_terms : float;   (* sum of R_INT_ij * (w_ij C_t + C_INT_ij), in s *)
  flight_time : float;      (* sum of L_INT_ij / v_ij, in s *)
  max_fanin_delay : float;  (* max_j t_dij of the driving gates, in s *)
}

let no_load =
  {
    fanin_count = 1;
    stack_depth = 1;
    cap_fanout_gates = 0.0;
    cap_wire = 0.0;
    res_wire_terms = 0.0;
    flight_time = 0.0;
    max_fanin_delay = 0.0;
  }

let slope_coefficient tech ~vdd ~vt =
  let raw = 0.5 -. ((1.0 -. (vt /. vdd)) /. (1.0 +. tech.Tech.alpha)) in
  Dcopt_util.Numeric.clamp ~lo:0.0 ~hi:0.9 raw

let output_capacitance tech ~w load =
  (tech.Tech.c_parasitic *. w)
  +. (float_of_int (max 0 (load.fanin_count - 1)) *. tech.Tech.c_intermediate *. w)
  +. load.cap_fanout_gates +. load.cap_wire

(* ------------------------------------------------------------------ *)
(* Delay (eq. A3)                                                      *)

let effective_drive tech ~vdd ~vt ~w load =
  let drive =
    Mosfet.i_drive tech ~vdd ~vt *. w /. float_of_int load.stack_depth
  in
  let opposing =
    float_of_int load.fanin_count *. Mosfet.i_off tech ~vt *. w
  in
  drive -. opposing

let switching_delay tech ~vdd ~vt ~w load =
  let i_eff = effective_drive tech ~vdd ~vt ~w load in
  if i_eff <= 0.0 then infinity
  else output_capacitance tech ~w load *. vdd /. (2.0 *. i_eff)

(* Each of the (f_ii - 1) internal nodes of a series stack swings by up to
   vdd through the single devices above it (eq. A3's C_mi sum); widths
   cancel because both the node cap and the device current scale with w. *)
let stack_delay tech ~vdd ~vt load =
  let internal_nodes = max 0 (load.fanin_count - 1) in
  if internal_nodes = 0 then 0.0
  else
    let i_single = Mosfet.i_drive tech ~vdd ~vt in
    if i_single <= 0.0 then infinity
    else
      float_of_int internal_nodes *. tech.Tech.c_intermediate *. vdd
      /. (2.0 *. i_single)

(* [slope] (default: the coefficient at (vdd, vt)) stands in for a
   context whose slope was set by hand. *)
let gate_delay ?slope tech ~vdd ~vt ~w load =
  let switching = switching_delay tech ~vdd ~vt ~w load in
  if switching = infinity then infinity
  else
    let stack = stack_delay tech ~vdd ~vt load in
    if stack = infinity then infinity
    else
      let slope =
        match slope with
        | Some s -> s
        | None -> slope_coefficient tech ~vdd ~vt
      in
      (slope *. load.max_fanin_delay)
      +. switching +. stack +. load.res_wire_terms
      +. load.flight_time

(* ------------------------------------------------------------------ *)
(* Energy (eqs. A1, A2)                                                *)

let static_power tech ~vdd ~vt ~w = vdd *. w *. Mosfet.i_off tech ~vt

let static_energy tech ~fc ~vdd ~vt ~w =
  assert (fc > 0.0);
  static_power tech ~vdd ~vt ~w /. fc

let dynamic_energy tech ~vdd ~w ~activity ~load =
  0.5 *. activity *. vdd *. vdd *. output_capacitance tech ~w load

let total_energy tech ~fc ~vdd ~vt ~w ~activity ~load =
  static_energy tech ~fc ~vdd ~vt ~w
  +. dynamic_energy tech ~vdd ~w ~activity ~load

(* ------------------------------------------------------------------ *)
(* Short circuit (Veendrick)                                           *)

let overlap_fraction (_ : Tech.t) ~vdd ~vt =
  Float.max 0.0 ((vdd -. (2.0 *. vt)) /. vdd)

let peak_current tech ~vdd ~vt ~w =
  w *. Mosfet.i_drive tech ~vdd:(vdd /. 2.0) ~vt

let sc_energy tech ~vdd ~vt ~w ~activity ~input_transition_time =
  assert (input_transition_time >= 0.0);
  let overlap = overlap_fraction tech ~vdd ~vt in
  if overlap <= 0.0 then 0.0
  else
    activity *. vdd
    *. (peak_current tech ~vdd ~vt ~w /. 6.0)
    *. overlap *. input_transition_time

let transition_time_of_delay driver_delay = 2.0 *. driver_delay
