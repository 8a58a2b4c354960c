(* The uncached per-gate device formulas: the bitwise oracle for
   Drive.

   These are the delay (eq. A3), energy (eqs. A1, A2) and Veendrick
   short-circuit formulas as they stood before the drive context became
   the library's only evaluator. Each call re-runs the transcendental
   MOSFET model. Drive must reproduce the delays and short-circuit
   energies bit for bit; its static and dynamic energies associate their
   factors differently and agree within round-off. *)

module Tech = Dcopt_device.Tech
module Mosfet = Dcopt_device.Mosfet
module Delay = Dcopt_device.Delay

(* ------------------------------------------------------------------ *)
(* Delay (eq. A3)                                                      *)

let effective_drive tech ~vdd ~vt ~w (load : Delay.load) =
  let drive =
    Mosfet.i_drive tech ~vdd ~vt *. w /. float_of_int load.Delay.stack_depth
  in
  let opposing =
    float_of_int load.Delay.fanin_count *. Mosfet.i_off tech ~vt *. w
  in
  drive -. opposing

let switching_delay tech ~vdd ~vt ~w load =
  let i_eff = effective_drive tech ~vdd ~vt ~w load in
  if i_eff <= 0.0 then infinity
  else Delay.output_capacitance tech ~w load *. vdd /. (2.0 *. i_eff)

(* Each of the (f_ii - 1) internal nodes of a series stack swings by up to
   vdd through the single devices above it (eq. A3's C_mi sum); widths
   cancel because both the node cap and the device current scale with w. *)
let stack_delay tech ~vdd ~vt (load : Delay.load) =
  let internal_nodes = max 0 (load.Delay.fanin_count - 1) in
  if internal_nodes = 0 then 0.0
  else
    let i_single = Mosfet.i_drive tech ~vdd ~vt in
    if i_single <= 0.0 then infinity
    else
      float_of_int internal_nodes *. tech.Tech.c_intermediate *. vdd
      /. (2.0 *. i_single)

let gate_delay tech ~vdd ~vt ~w (load : Delay.load) =
  let switching = switching_delay tech ~vdd ~vt ~w load in
  if switching = infinity then infinity
  else
    let stack = stack_delay tech ~vdd ~vt load in
    if stack = infinity then infinity
    else
      (Delay.slope_coefficient tech ~vdd ~vt *. load.Delay.max_fanin_delay)
      +. switching +. stack +. load.Delay.res_wire_terms
      +. load.Delay.flight_time

(* ------------------------------------------------------------------ *)
(* Energy (eqs. A1, A2)                                                *)

let static_power tech ~vdd ~vt ~w = vdd *. w *. Mosfet.i_off tech ~vt

let static_energy tech ~fc ~vdd ~vt ~w =
  assert (fc > 0.0);
  static_power tech ~vdd ~vt ~w /. fc

let dynamic_energy tech ~vdd ~w ~activity ~load =
  0.5 *. activity *. vdd *. vdd *. Delay.output_capacitance tech ~w load

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
