(** Lookup-table gate characterization (NLDM-style).

    Industrial flows do not evaluate closed-form delay models inside the
    optimizer loop; they characterize each cell once into
    load x input-slew tables and interpolate. This module builds such
    tables from this library's analytic eq. A3 model at a fixed operating
    point, interpolates them bilinearly, and can render a liberty-flavoured
    text dump — giving the repository the characterization layer a
    downstream user would expect, and a second implementation of the delay
    model to check the first against. *)

type axis = {
  points : float array;  (** strictly increasing *)
}

type table = {
  load_axis : axis;      (** external load capacitance, F *)
  slew_axis : axis;      (** driver delay proxy for the input slope, s *)
  values : float array array;  (** values.(i).(j) at load i, slew j *)
}

val lookup : table -> load:float -> slew:float -> float
(** Bilinear interpolation, clamped at the table edges. *)

type cell = {
  kind : Dcopt_netlist.Gate.kind;
  fanin : int;
  width : float;
  vdd : float;
  vt : float;
  delay_table : table;          (** worst-case propagation delay, s *)
  energy_per_transition : float;(** 1/2 C_self Vdd^2 internal energy, J *)
  input_capacitance : float;    (** per pin, F *)
  leakage : float;              (** static power, W *)
}

val characterize :
  ?loads:float array ->    (* default 7 geometric points, 1 fF - 60 fF *)
  ?slews:float array ->    (* default 6 points, 1 ps - 2 ns *)
  Tech.t ->
  kind:Dcopt_netlist.Gate.kind ->
  fanin:int ->
  width:float ->
  vdd:float -> vt:float ->
  cell
(** Characterizes one cell flavour at one operating point by sampling the
    analytic model. Raises [Invalid_argument] for non-combinational kinds
    or bad arity. *)

val cell_delay : cell -> load:float -> slew:float -> float
(** Table-driven delay — interchangeable with
    {!Drive.gate_delay} for the same structural situation (the test suite
    bounds their disagreement on and off the grid). *)

val to_liberty : cell list -> string
(** A liberty-flavoured text rendering of a characterized set (groups,
    pin caps, leakage, and the delay tables); meant for inspection and
    interchange, not for consumption by commercial tools. *)
