module Tech = Dcopt_device.Tech
module Mosfet = Dcopt_device.Mosfet
module Drive = Dcopt_device.Drive

type waveform = { times : float array; voltages : float array }

let saturation_voltage tech ~vdd ~vt =
  let od = Mosfet.overdrive tech ~vgs:vdd ~vt in
  (* Sakurai-Newton: the saturation drain voltage shrinks with overdrive
     sublinearly; floor it at a few thermal voltages so the subthreshold
     regime keeps a smooth triode region. *)
  Float.max (3.0 *. tech.Tech.thermal_voltage) (0.5 *. od)

let drain_current tech ~vdd ~vt ~w ~stack ~vds =
  if vds <= 0.0 then 0.0
  else
    let i_sat = Mosfet.i_drive tech ~vdd ~vt *. w /. float_of_int stack in
    let vdsat = saturation_voltage tech ~vdd ~vt in
    let triode =
      if vds >= vdsat then 1.0
      else
        let x = vds /. vdsat in
        x *. (2.0 -. x)
    in
    let drain_factor = 1.0 -. exp (-.vds /. tech.Tech.thermal_voltage) in
    i_sat *. triode *. drain_factor

let simulate_discharge ?(steps_per_estimate = 400) tech ~vdd ~vt ~w ~stack
    ~fanin ~c_load =
  assert (c_load > 0.0 && vdd > 0.0 && w > 0.0 && stack >= 1 && fanin >= 1);
  let i_up = float_of_int fanin *. Mosfet.i_off tech ~vt *. w in
  let dv_dt v =
    (-.drain_current tech ~vdd ~vt ~w ~stack ~vds:v +. i_up) /. c_load
  in
  (* Step from a crude RC estimate; cap total steps so a stalled node
     terminates. *)
  let i_scale = Float.max 1e-18 (Mosfet.i_drive tech ~vdd ~vt *. w) in
  let t_estimate = c_load *. vdd /. i_scale in
  let dt = t_estimate /. float_of_int steps_per_estimate in
  let max_steps = steps_per_estimate * 200 in
  let times = ref [ 0.0 ] and voltages = ref [ vdd ] in
  let rec advance t v steps =
    if v <= 0.05 *. vdd || steps >= max_steps then ()
    else begin
      let k1 = dv_dt v in
      let k2 = dv_dt (v +. (0.5 *. dt *. k1)) in
      let k3 = dv_dt (v +. (0.5 *. dt *. k2)) in
      let k4 = dv_dt (v +. (dt *. k3)) in
      let v' = v +. (dt /. 6.0 *. (k1 +. (2.0 *. k2) +. (2.0 *. k3) +. k4)) in
      let v' = Float.max 0.0 v' in
      let t' = t +. dt in
      times := t' :: !times;
      voltages := v' :: !voltages;
      if v' < v -. 1e-12 || v' > 0.05 *. vdd then advance t' v' (steps + 1)
    end
  in
  advance 0.0 vdd 0;
  {
    times = Array.of_list (List.rev !times);
    voltages = Array.of_list (List.rev !voltages);
  }

let crossing_time waveform threshold =
  let n = Array.length waveform.times in
  let rec find i =
    if i >= n then infinity
    else if waveform.voltages.(i) <= threshold then
      if i = 0 then waveform.times.(0)
      else
        let t0 = waveform.times.(i - 1) and t1 = waveform.times.(i) in
        let v0 = waveform.voltages.(i - 1) and v1 = waveform.voltages.(i) in
        if v0 = v1 then t1
        else t0 +. ((v0 -. threshold) /. (v0 -. v1) *. (t1 -. t0))
    else find (i + 1)
  in
  find 0

let discharge_delay ?steps_per_estimate tech ~vdd ~vt ~w ~stack ~fanin ~c_load =
  let waveform =
    simulate_discharge ?steps_per_estimate tech ~vdd ~vt ~w ~stack ~fanin
      ~c_load
  in
  crossing_time waveform (0.5 *. vdd)

type comparison = { analytic : float; simulated : float; ratio : float }

let compare_switching tech ~vdd ~vt ~w ~stack ~fanin ~c_load =
  (* Express the external load as the gate's wire capacitance so both
     sides charge exactly the same total capacitance. *)
  let g =
    Drive.gate tech (Drive.make tech ~vdd ~vt) ~fanin ~stack ~cap_fanout:0.0
      ~cap_wire:c_load ~res_wire:0.0 ~flight:0.0 ~max_fanin_delay:0.0
  in
  let analytic = Drive.switching_delay g ~w in
  let total_cap = Drive.output_capacitance g ~w in
  let simulated =
    discharge_delay tech ~vdd ~vt ~w ~stack ~fanin ~c_load:total_cap
  in
  { analytic; simulated; ratio = simulated /. analytic }
