module Tech = Dcopt_device.Tech

type t = {
  tech : Tech.t;
  n_gates : int;
  p : float;
  pitch : float;
  mean_pp : float; (* pitches, memoized at creation *)
}

(* Net-length growth with fanout (Steiner-tree law) and the gate pitch
   in feature sizes. *)
let fanout_exponent = 0.70
let pitch_factor = 12.0

let side n = Float.max 2.0 (sqrt (float_of_int n))

let density_raw ~n ~p l =
  let root_n = side n in
  let nf = root_n *. root_n in
  if l < 1.0 || l > 2.0 *. root_n then 0.0
  else
    let power = l ** ((2.0 *. p) -. 4.0) in
    if l <= root_n then
      ((l *. l *. l /. 3.0) -. (2.0 *. root_n *. l *. l) +. (2.0 *. nf *. l))
      /. 2.0 *. power
    else
      let d = (2.0 *. root_n) -. l in
      d *. d *. d /. 6.0 *. power

let compute_mean_pp ~n ~p =
  let hi = 2.0 *. side n in
  let f l = density_raw ~n ~p l in
  let fl l = l *. f l in
  let panels = 2000 in
  let total = Dcopt_util.Numeric.integrate_trapezoid ~f ~lo:1.0 ~hi ~n:panels in
  let weighted =
    Dcopt_util.Numeric.integrate_trapezoid ~f:fl ~lo:1.0 ~hi ~n:panels
  in
  if total <= 0.0 then 1.0 else weighted /. total

let create ?(rent_p = 0.60) ~tech ~gate_count () =
  assert (gate_count >= 1);
  assert (rent_p > 0.0 && rent_p < 1.0);
  {
    tech;
    n_gates = gate_count;
    p = rent_p;
    pitch = pitch_factor *. tech.Tech.feature_size;
    mean_pp = compute_mean_pp ~n:gate_count ~p:rent_p;
  }

let gate_count t = t.n_gates
let rent_p t = t.p
let density t l = density_raw ~n:t.n_gates ~p:t.p l
let max_length_pitches t = 2.0 *. side t.n_gates
let mean_point_to_point_pitches t = t.mean_pp

let net_length t ~fanout =
  assert (fanout >= 1);
  t.mean_pp *. t.pitch *. (float_of_int fanout ** fanout_exponent)

let net_capacitance t ~fanout =
  net_length t ~fanout *. t.tech.Tech.wire_cap_per_m

let net_resistance t ~fanout =
  net_length t ~fanout *. t.tech.Tech.wire_res_per_m

let flight_time t ~fanout = net_length t ~fanout /. t.tech.Tech.wire_velocity

let distributed_rc_delay t ~fanout ~sink_cap =
  let r = net_resistance t ~fanout in
  let c = net_capacitance t ~fanout in
  r *. (sink_cap +. (c /. 2.0))
