type load = {
  fanin_count : int;
  stack_depth : int;
  cap_fanout_gates : float;
  cap_wire : float;
  res_wire_terms : float;
  flight_time : float;
  max_fanin_delay : float;
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
