(* Oracle for the two-rail path of Power_model.evaluate.

   Before a design record carried its second rail, Multi_vdd scored a
   dual-supply design with a private sweep beside Power_model.evaluate.
   That sweep is kept here verbatim: each gate in the context of its rail
   (one context per rail, at the design's one threshold), a level
   converter behind every low-rail primary output whose delay joins the
   gate's and whose switching energy at the high supply is added to the
   dynamic total after the gate's own term, no short-circuit term, and
   feasibility per endpoint. Only the counters of gates and converters
   it kept for the optimizer's report are left out. *)

module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Tech = Dcopt_device.Tech
module Drive = Dcopt_device.Drive
module Power_model = Dcopt_opt.Power_model

let converter_delay tech ctx_low =
  let stage =
    Drive.gate tech ctx_low ~fanin:1 ~stack:1 ~cap_fanout:0.0
      ~cap_wire:(4.0 *. tech.Tech.c_gate) ~res_wire:0.0 ~flight:0.0
      ~max_fanin_delay:0.0
  in
  2.0 *. Drive.gate_delay stage ~w:2.0

let converter_energy tech ~vdd_high ~activity =
  0.5 *. activity *. vdd_high *. vdd_high *. (6.0 *. tech.Tech.c_gate)

(* [uses_low] and [widths] per node id; every gate at threshold [vt]. *)
let evaluate env ~vdd_high ~vdd_low ~vt ~uses_low ~widths =
  let circuit = Power_model.circuit env in
  let tech = Power_model.tech env in
  let n = Circuit.size circuit in
  let vt_array = Array.make n vt in
  let design_high =
    { Power_model.vdd = vdd_high; vt = vt_array; widths; rail = None }
  in
  let design_low =
    { Power_model.vdd = vdd_low; vt = vt_array; widths; rail = None }
  in
  let design_of id = if uses_low.(id) then design_low else design_high in
  let ctx_high = Power_model.drive env ~vdd:vdd_high ~vt in
  let ctx_low = Power_model.drive env ~vdd:vdd_low ~vt in
  let ctx_of id = if uses_low.(id) then ctx_low else ctx_high in
  let t_conv = converter_delay tech ctx_low in
  let gates = Power_model.unsafe_gate_ids env in
  let converts id = uses_low.(id) && Circuit.is_output circuit id in
  let flat = Power_model.flat env in
  let fanin_off = flat.Flat.fanin_off and fanin_edges = flat.Flat.fanin_edges in
  let fc = Power_model.clock_frequency env in
  let delays = Array.make n 0.0 in
  let arrival =
    match Power_model.arrival_offsets env with
    | None -> Array.make n 0.0
    | Some seed -> Array.copy seed
  in
  let static_e = ref 0.0 and dynamic_e = ref 0.0 in
  Array.iter
    (fun id ->
      let max_fanin_delay = ref 0.0 and worst = ref 0.0 in
      for p = fanin_off.(id) to fanin_off.(id + 1) - 1 do
        let f = fanin_edges.(p) in
        max_fanin_delay := Float.max !max_fanin_delay delays.(f);
        worst := Float.max !worst arrival.(f)
      done;
      let ctx = ctx_of id and w = widths.(id) in
      let g =
        Power_model.gate env ctx (design_of id)
          ~max_fanin_delay:!max_fanin_delay id
      in
      let d = Drive.gate_delay g ~w in
      let d = if converts id then d +. t_conv else d in
      delays.(id) <- d;
      arrival.(id) <- !worst +. d;
      let activity = Power_model.activity env id in
      static_e := !static_e +. Drive.static_energy ctx ~fc ~w;
      dynamic_e :=
        !dynamic_e +. Drive.dynamic_energy g ~w ~activity;
      if converts id then
        dynamic_e := !dynamic_e +. converter_energy tech ~vdd_high ~activity)
    gates;
  let critical_delay =
    Array.fold_left (fun acc id -> Float.max acc arrival.(id)) 0.0
      (Circuit.outputs circuit)
  in
  {
    Power_model.static_energy = !static_e;
    dynamic_energy = !dynamic_e;
    short_circuit_energy = 0.0;
    total_energy = !static_e +. !dynamic_e;
    static_power = !static_e *. fc;
    dynamic_power = !dynamic_e *. fc;
    delays;
    critical_delay;
    feasible = Power_model.arrivals_feasible env ~critical_delay arrival;
  }
