module Gate = Dcopt_netlist.Gate

type axis = { points : float array }

type table = {
  load_axis : axis;
  slew_axis : axis;
  values : float array array;
}

(* Index of the cell containing x: largest i with points.(i) <= x, clamped
   to [0, n-2] so interpolation always has a right neighbour. *)
let bracket axis x =
  let pts = axis.points in
  let n = Array.length pts in
  if x <= pts.(0) then 0
  else if x >= pts.(n - 1) then n - 2
  else begin
    let i = ref 0 in
    while !i < n - 2 && pts.(!i + 1) <= x do incr i done;
    !i
  end

let fraction axis i x =
  let a = axis.points.(i) and b = axis.points.(i + 1) in
  Dcopt_util.Numeric.clamp ~lo:0.0 ~hi:1.0 ((x -. a) /. (b -. a))

let lookup t ~load ~slew =
  let i = bracket t.load_axis load and j = bracket t.slew_axis slew in
  let u = fraction t.load_axis i load and v = fraction t.slew_axis j slew in
  let f00 = t.values.(i).(j)
  and f10 = t.values.(i + 1).(j)
  and f01 = t.values.(i).(j + 1)
  and f11 = t.values.(i + 1).(j + 1) in
  ((1.0 -. u) *. (1.0 -. v) *. f00)
  +. (u *. (1.0 -. v) *. f10)
  +. ((1.0 -. u) *. v *. f01)
  +. (u *. v *. f11)

type cell = {
  kind : Gate.kind;
  fanin : int;
  width : float;
  vdd : float;
  vt : float;
  delay_table : table;
  energy_per_transition : float;
  input_capacitance : float;
  leakage : float;
}

let default_loads =
  Dcopt_util.Numeric.log_interp_points ~lo:1e-15 ~hi:60e-15 ~n:7

let default_slews =
  Dcopt_util.Numeric.log_interp_points ~lo:1e-12 ~hi:2e-9 ~n:6

(* The cell driving [load] of wire capacitance behind an input ramp of
   [slew], with no fanout gates and no wire resistance. *)
let cell_gate tech ctx ~kind ~fanin ~load ~slew =
  Drive.gate tech ctx ~fanin ~stack:(Gate.series_stack_depth kind fanin)
    ~cap_fanout:0.0 ~cap_wire:load ~res_wire:0.0 ~flight:0.0
    ~max_fanin_delay:slew

let sample_delay tech ctx ~kind ~fanin ~width ~load ~slew =
  Drive.gate_delay (cell_gate tech ctx ~kind ~fanin ~load ~slew) ~w:width

let characterize ?(loads = default_loads) ?(slews = default_slews) tech ~kind
    ~fanin ~width ~vdd ~vt =
  (match kind with
  | Gate.Input | Gate.Dff ->
    invalid_arg "Char_table.characterize: not a combinational gate"
  | _ -> ());
  if not (Gate.arity_ok kind fanin) then
    invalid_arg "Char_table.characterize: bad arity";
  if Array.length loads < 2 || Array.length slews < 2 then
    invalid_arg "Char_table.characterize: axes need at least two points";
  let ctx = Drive.make tech ~vdd ~vt in
  let values =
    Array.map
      (fun load ->
        Array.map
          (fun slew ->
            sample_delay tech ctx ~kind ~fanin ~width ~load ~slew)
          slews)
      loads
  in
  let self_cap =
    Drive.output_capacitance
      (cell_gate tech ctx ~kind ~fanin ~load:0.0 ~slew:0.0)
      ~w:width
  in
  {
    kind;
    fanin;
    width;
    vdd;
    vt;
    delay_table =
      { load_axis = { points = loads }; slew_axis = { points = slews }; values };
    energy_per_transition = 0.5 *. self_cap *. vdd *. vdd;
    input_capacitance = tech.Tech.c_gate *. width;
    leakage = Drive.static_power ctx ~w:width;
  }

let cell_delay cell ~load ~slew = lookup cell.delay_table ~load ~slew

let to_liberty cells =
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "library (dcopt_characterized) {\n";
  addf "  time_unit : \"1ns\";\n  capacitive_load_unit (1, ff);\n";
  List.iter
    (fun c ->
      addf "  cell (%s%d_w%g_v%g) {\n" (Gate.to_string c.kind) c.fanin c.width
        (c.vdd *. 1000.0);
      addf "    cell_leakage_power : %.6g;\n" c.leakage;
      for pin = 1 to c.fanin do
        addf "    pin (A%d) { direction : input; capacitance : %.4f; }\n" pin
          (c.input_capacitance *. 1e15)
      done;
      addf "    pin (Y) {\n      direction : output;\n";
      addf "      internal_power () { rise_power : %.6g; }\n"
        c.energy_per_transition;
      addf "      timing () {\n        cell_rise (delay_template) {\n";
      let axis_line name pts scale =
        addf "          %s (\"%s\");\n" name
          (String.concat ", "
             (Array.to_list (Array.map (fun x -> Printf.sprintf "%.4g" (x *. scale)) pts)))
      in
      axis_line "index_1" c.delay_table.load_axis.points 1e15;
      axis_line "index_2" c.delay_table.slew_axis.points 1e9;
      addf "          values ( \\\n";
      Array.iteri
        (fun i row ->
          addf "            \"%s\"%s\n"
            (String.concat ", "
               (Array.to_list
                  (Array.map (fun d -> Printf.sprintf "%.5g" (d *. 1e9)) row)))
            (if i = Array.length c.delay_table.values - 1 then "" else ", \\"))
        c.delay_table.values;
      addf "          );\n        }\n      }\n    }\n  }\n")
    cells;
  addf "}\n";
  Buffer.contents buf
