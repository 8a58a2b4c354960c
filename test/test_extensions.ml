(* Tests for the post-paper extensions: short-circuit power, event-driven
   simulation, windowed activity, dual supplies, Monte-Carlo yield. *)

module Tech = Dcopt_device.Tech
module Drive = Dcopt_device.Drive
module Event_sim = Dcopt_sim.Event_sim
module Activity = Dcopt_activity.Activity
module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate
module Patterns = Dcopt_netlist.Patterns
module Power_model = Dcopt_opt.Power_model
module Multi_vdd = Dcopt_opt.Multi_vdd
module Yield = Dcopt_opt.Yield
module Flow = Dcopt_core.Flow
module Solution = Dcopt_opt.Solution

let tech = Tech.default

let sc_energy ~vdd ~vt ~w ~activity ~input_transition_time =
  Drive.short_circuit_energy (Drive.make tech ~vdd ~vt) ~w ~activity
    ~input_transition_time

(* ------------------------------------------------------------------ *)
(* Short circuit                                                       *)

let test_sc_zero_without_overlap () =
  (* vdd <= 2 vt: both networks never conduct simultaneously *)
  Alcotest.(check (float 0.0)) "no overlap" 0.0
    (sc_energy ~vdd:0.5 ~vt:0.3 ~w:4.0 ~activity:0.5
       ~input_transition_time:1e-9)

let test_sc_positive_with_overlap () =
  let e =
    sc_energy ~vdd:3.3 ~vt:0.5 ~w:4.0 ~activity:0.5
      ~input_transition_time:1e-9
  in
  Alcotest.(check bool) "positive" true (e > 0.0)

let test_sc_linear_in_slope_and_activity () =
  let e tau a =
    sc_energy ~vdd:2.0 ~vt:0.3 ~w:4.0 ~activity:a
      ~input_transition_time:tau
  in
  Alcotest.(check (float 1e-25)) "linear in tau" (2.0 *. e 1e-10 0.2)
    (e 2e-10 0.2);
  Alcotest.(check (float 1e-25)) "linear in activity" (2.0 *. e 1e-10 0.2)
    (e 1e-10 0.4)

let test_sc_order_of_magnitude_below_switching () =
  (* the paper's justification for neglecting it: at typical slopes the
     crowbar term is an order of magnitude below switching energy *)
  let vdd = 3.3 and vt = 0.7 and w = 4.0 and a = 0.5 in
  let ctx = Drive.make tech ~vdd ~vt in
  let g =
    Drive.gate tech ctx ~fanin:1 ~stack:1 ~cap_fanout:0.0 ~cap_wire:5e-15
      ~res_wire:0.0 ~flight:0.0 ~max_fanin_delay:0.0
  in
  let tau = Drive.transition_time_of_delay (Drive.gate_delay g ~w) in
  let sc = Drive.short_circuit_energy ctx ~w ~activity:a ~input_transition_time:tau in
  let sw = Drive.dynamic_energy g ~w ~activity:a in
  Alcotest.(check bool) "sc below switching" true (sc < sw)

let test_sc_in_power_model () =
  let core = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s27") in
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.3 in
  let profile = Activity.local_profile core specs in
  let env_off = Power_model.make_env ~tech ~fc:300e6 core profile in
  let env_on =
    Power_model.make_env ~include_short_circuit:true ~tech ~fc:300e6 core
      profile
  in
  let design vdd = Power_model.uniform_design env_off ~vdd ~vt:0.2 ~w:4.0 in
  let off = Power_model.evaluate env_off (design 2.0) in
  let on = Power_model.evaluate env_on (design 2.0) in
  Alcotest.(check (float 0.0)) "disabled env has none" 0.0
    off.Power_model.short_circuit_energy;
  Alcotest.(check bool) "enabled env charges it" true
    (on.Power_model.short_circuit_energy > 0.0);
  Alcotest.(check (float 1e-25)) "total includes it"
    (on.Power_model.static_energy +. on.Power_model.dynamic_energy
    +. on.Power_model.short_circuit_energy)
    on.Power_model.total_energy

(* ------------------------------------------------------------------ *)
(* Event-driven simulation                                             *)

let unit_delays circuit =
  Array.init (Circuit.size circuit) (fun id ->
      match (Circuit.node circuit id).Circuit.kind with
      | Gate.Input -> 0.0
      | _ -> 1.0)

let test_event_sim_matches_eval () =
  let c = Patterns.ripple_carry_adder ~bits:4 in
  let delays = unit_delays c in
  let before = Array.make 9 false in
  let after = Array.init 9 (fun i -> i mod 2 = 0) in
  let r = Event_sim.settle c ~delays ~before ~after in
  let expected = Circuit.eval c after in
  Alcotest.(check (array bool)) "final values match evaluation" expected
    r.Event_sim.values

let test_event_sim_settle_bounded_by_sta () =
  let c = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s298") in
  let delays = unit_delays c in
  let _, critical_delay =
    Dcopt_timing.Flat_sta.forward (Dcopt_netlist.Flat.of_circuit c) ~delays
  in
  let rng = Dcopt_util.Prng.create 7L in
  let n_in = Array.length (Circuit.inputs c) in
  for _ = 1 to 25 do
    let before = Array.init n_in (fun _ -> Dcopt_util.Prng.bool rng) in
    let after = Array.init n_in (fun _ -> Dcopt_util.Prng.bool rng) in
    let r = Event_sim.settle c ~delays ~before ~after in
    Alcotest.(check bool) "settle <= critical" true
      (r.Event_sim.settle_time
      <= critical_delay +. 1e-9)
  done

let test_event_sim_no_change_no_events () =
  let c = Patterns.parity_tree ~leaves:4 in
  let v = [| true; false; true; true |] in
  let r = Event_sim.settle c ~delays:(unit_delays c) ~before:v ~after:v in
  Alcotest.(check int) "no events" 0 r.Event_sim.events_processed;
  Alcotest.(check (float 0.0)) "no settle" 0.0 r.Event_sim.settle_time

let test_event_sim_counts_glitches () =
  (* y = AND(a, NOT a): a 0->1 flip makes y pulse when the direct path is
     faster than the inverted one *)
  let c =
    Circuit.create ~name:"glitch"
      ~nodes:
        [ ("a", Gate.Input, []); ("n", Gate.Not, [ "a" ]);
          ("y", Gate.And, [ "a"; "n" ]) ]
      ~outputs:[ "y" ]
  in
  let delays = unit_delays c in
  let r = Event_sim.settle c ~delays ~before:[| false |] ~after:[| true |] in
  (* y rises at t=1 (from a) and falls at t=2 (from n): two transitions
     though the zero-delay value never changes *)
  Alcotest.(check int) "glitch pulse" 2
    r.Event_sim.transitions.(Circuit.find c "y");
  let zd = Event_sim.zero_delay_transitions c ~before:[| false |] ~after:[| true |] in
  Alcotest.(check int) "zero-delay sees nothing" 0 zd.(Circuit.find c "y")

let test_monte_carlo_activity_sane () =
  let c = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s27") in
  let rng = Dcopt_util.Prng.create 11L in
  let est =
    Event_sim.monte_carlo_activity c ~rng ~vectors:800 ~input_probability:0.5
      ~input_density:0.3
  in
  (* input densities should land near the requested rate *)
  Array.iter
    (fun id ->
      let d = est.Event_sim.densities.(id) in
      Alcotest.(check bool) "input rate near 0.3" true (d > 0.2 && d < 0.4))
    (Circuit.inputs c);
  Alcotest.(check bool) "glitch fraction in [0,1)" true
    (est.Event_sim.glitch_fraction >= 0.0 && est.Event_sim.glitch_fraction < 1.0)

let test_monte_carlo_vs_najm_on_tree () =
  (* a balanced XOR tree does not glitch, but simultaneous input toggles
     cancel pairwise: the true per-cycle toggle rate of the root is
     Pr[odd number of input toggles] = (1 - (1 - 2d)^n) / 2, strictly below
     Najm's collision-blind n*d *)
  let c = Patterns.parity_tree ~leaves:4 in
  let rng = Dcopt_util.Prng.create 13L in
  let d = 0.2 in
  let est =
    Event_sim.monte_carlo_activity c ~rng ~vectors:6000
      ~input_probability:0.5 ~input_density:d
  in
  let specs = Activity.uniform_inputs c ~probability:0.5 ~density:d in
  let analytic = Activity.local_profile c specs in
  let out = (Circuit.outputs c).(0) in
  let measured = est.Event_sim.densities.(out) in
  let closed_form = (1.0 -. ((1.0 -. (2.0 *. d)) ** 4.0)) /. 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f vs closed form %.3f" measured closed_form)
    true
    (Float.abs (measured -. closed_form) < 0.05);
  Alcotest.(check bool) "najm over-counts colliding toggles" true
    (analytic.Activity.densities.(out) > measured);
  Alcotest.(check (float 1e-9)) "no hazards on a balanced tree" 0.0
    est.Event_sim.glitch_fraction

(* ------------------------------------------------------------------ *)
(* Windowed activity                                                   *)

let test_windowed_equals_local_at_window_one () =
  let c = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s298") in
  let specs = Activity.uniform_inputs c ~probability:0.5 ~density:0.2 in
  let local = Activity.local_profile c specs in
  let windowed = Activity.windowed_profile ~window:1 c specs in
  Array.iteri
    (fun id p ->
      Alcotest.(check (float 1e-9)) "probability" p
        windowed.Activity.probabilities.(id);
      Alcotest.(check (float 1e-9)) "density" local.Activity.densities.(id)
        windowed.Activity.densities.(id))
    local.Activity.probabilities

let test_windowed_equals_exact_at_large_window () =
  let c = Circuit.combinational_core (Dcopt_suite.Suite.s27 ()) in
  let specs = Activity.uniform_inputs c ~probability:0.4 ~density:0.3 in
  let windowed = Activity.windowed_profile ~window:100 c specs in
  match Activity.exact_profile c specs with
  | None -> Alcotest.fail "s27 fits"
  | Some exact ->
    Array.iteri
      (fun id p ->
        Alcotest.(check (float 1e-9)) "probability" p
          windowed.Activity.probabilities.(id);
        Alcotest.(check (float 1e-9)) "density"
          exact.Activity.densities.(id)
          windowed.Activity.densities.(id))
      exact.Activity.probabilities

let test_windowed_resolves_local_reconvergence () =
  let c =
    Circuit.create ~name:"reconv"
      ~nodes:
        [ ("a", Gate.Input, []); ("n", Gate.Not, [ "a" ]);
          ("y", Gate.And, [ "a"; "n" ]) ]
      ~outputs:[ "y" ]
  in
  let specs = Activity.uniform_inputs c ~probability:0.5 ~density:0.2 in
  let windowed = Activity.windowed_profile ~window:2 c specs in
  let y = Circuit.find c "y" in
  Alcotest.(check (float 1e-12)) "constant false detected" 0.0
    windowed.Activity.probabilities.(y)

(* ------------------------------------------------------------------ *)
(* Multi-vdd                                                           *)

let setup name =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn name) in
  let budgets = Option.get (Flow.repaired_budgets p ~vt:tech.Tech.vt_min) in
  (p.Flow.env, budgets)

let test_multivdd_classify_legal () =
  let env, budgets = setup "s298" in
  let a = Multi_vdd.classify env ~budgets ~slack_threshold:1.5 in
  let circuit = Power_model.circuit env in
  Array.iter
    (fun id ->
      if a.Multi_vdd.uses_low.(id) then
        Array.iter
          (fun g ->
            Alcotest.(check bool) "low never drives high" true
              a.Multi_vdd.uses_low.(g))
          (Circuit.fanouts circuit id))
    (Power_model.gate_ids env)

let test_multivdd_equal_rails_matches_single () =
  let env, budgets = setup "s27" in
  let a = Multi_vdd.classify env ~budgets ~slack_threshold:1.5 in
  match Multi_vdd.evaluate env a ~vdd_high:1.0 ~vdd_low:1.0 ~vt:0.2 ~budgets with
  | None -> Alcotest.fail "equal rails should size"
  | Some sol -> Alcotest.(check bool) "feasible" true (Solution.feasible sol)

let test_multivdd_rejects_inverted_rails () =
  let env, budgets = setup "s27" in
  let a = Multi_vdd.classify env ~budgets ~slack_threshold:1.5 in
  match Multi_vdd.evaluate env a ~vdd_high:0.8 ~vdd_low:1.2 ~vt:0.2 ~budgets with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_multivdd_optimize_no_worse () =
  let env, budgets = setup "s298" in
  let single =
    Option.get
      (Dcopt_opt.Heuristic.optimize
         ~options:{ Dcopt_opt.Heuristic.default_options with
                    strategy = Dcopt_opt.Heuristic.Grid_refine }
         env ~budgets)
  in
  match Multi_vdd.optimize env ~budgets with
  | None -> Alcotest.fail "expected a result"
  | Some sol ->
    Alcotest.(check bool) "no worse than single" true
      (Solution.total_energy sol
      <= Solution.total_energy single *. (1.0 +. 1e-9));
    Alcotest.(check bool) "rails ordered" true
      (match sol.Solution.design.Power_model.rail with
       | Some r -> r.Power_model.vdd_low <= Solution.vdd sol
       | None -> true)

(* With a per-endpoint constraint (an output delay of a quarter cycle on
   the first output), multi-vdd's feasibility verdict must be the one the
   row's own delays give when re-timed against the env's required times
   and input delays. *)
let test_multivdd_sdc_feasibility () =
  let module Constraints = Dcopt_timing.Constraints in
  let module Flat_sta = Dcopt_timing.Flat_sta in
  let circuit = Dcopt_suite.Suite.find_exn "s400" in
  let fc = 150e6 in
  let tc = 1.0 /. fc in
  let core = Circuit.combinational_core circuit in
  let first_output = (Circuit.node core (Circuit.outputs core).(0)).Circuit.name in
  let constraints =
    {
      (Constraints.of_cycle_time tc) with
      Constraints.output_delays =
        [ { Constraints.port = first_output; io_clock = None;
            io_delay = 0.25 *. tc } ];
    }
  in
  let config = { Flow.default_config with Flow.clock_frequency = fc } in
  let p = Flow.prepare ~config ~constraints circuit in
  match
    (Dcopt_core.Optimizer.get "multi-vdd").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p)
  with
  | None -> Alcotest.fail "expected a multi-vdd design"
  | Some sol ->
    let env = p.Flow.env in
    let req = Option.get (Power_model.required_times env) in
    let sta =
      Flat_sta.analyze ~required_times:req
        ?arrival_offsets:(Power_model.arrival_offsets env)
        (Power_model.flat env)
        ~delays:sol.Solution.evaluation.Power_model.delays
    in
    let meets =
      Array.for_all
        (fun id -> sta.Flat_sta.arrival.(id) <= req.(id) *. (1.0 +. 1e-6))
        (Circuit.outputs p.Flow.core)
    in
    Alcotest.(check bool) "verdict = re-timed delays" meets
      (Solution.feasible sol);
    Alcotest.(check bool) "the row closes timing" true meets

let test_multivdd_helps_fixed_vt () =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s298") in
  let budgets = Option.get (Flow.repaired_budgets p ~vt:0.7) in
  let env = p.Flow.env in
  let single = Option.get (Dcopt_opt.Baseline.optimize env ~budgets) in
  match Multi_vdd.optimize ~vt_fixed:0.7 env ~budgets with
  | None -> Alcotest.fail "expected a result"
  | Some sol ->
    (* at the high conventional supply the second rail has headroom *)
    Alcotest.(check bool) "some gates on the low rail" true
      (match sol.Solution.design.Power_model.rail with
       | Some r -> Array.exists Fun.id r.Power_model.low
       | None -> false);
    Alcotest.(check bool) "saves energy" true
      (Solution.total_energy sol < Solution.total_energy single)

(* ------------------------------------------------------------------ *)
(* Yield                                                               *)

let test_yield_perfect_at_zero_sigma () =
  let env, budgets = setup "s27" in
  let { Power_model.design; meets_budgets = ok; _ } =
    Power_model.size_all env ~vdd:3.3
      ~vt:(Array.make (Circuit.size (Power_model.circuit env)) 0.2) ~budgets
  in
  Alcotest.(check bool) "sized" true ok;
  let r = Yield.monte_carlo env design ~sigma_fraction:0.0 ~samples:50 in
  Alcotest.(check (float 0.0)) "yield 1" 1.0 r.Yield.timing_yield

let test_yield_monotone_in_sigma () =
  let env, budgets = setup "s298" in
  let sol =
    Option.get
      (Dcopt_opt.Heuristic.optimize
         ~options:{ Dcopt_opt.Heuristic.default_options with
                    strategy = Dcopt_opt.Heuristic.Grid_refine }
         env ~budgets)
  in
  let y s =
    (Yield.monte_carlo env sol.Solution.design ~sigma_fraction:s ~samples:150)
      .Yield.timing_yield
  in
  let y_low = y 0.05 and y_high = y 0.25 in
  Alcotest.(check bool)
    (Printf.sprintf "yield falls: %.2f -> %.2f" y_low y_high)
    true (y_high <= y_low)

let test_yield_deterministic () =
  let env, budgets = setup "s27" in
  let { Power_model.design; _ } =
    Power_model.size_all env ~vdd:1.0
      ~vt:(Array.make (Circuit.size (Power_model.circuit env)) 0.15) ~budgets
  in
  let run () = Yield.monte_carlo env design ~sigma_fraction:0.1 ~samples:100 in
  Alcotest.(check bool) "same seed same report" true (run () = run ())

let test_yield_curve_shape () =
  let env, budgets = setup "s298" in
  let curve =
    Yield.yield_curve ~m_steps:8 ~samples:120 env ~budgets
      ~sigmas:[| 0.05; 0.20 |]
  in
  Alcotest.(check int) "both sigmas" 2 (Array.length curve);
  Array.iter
    (fun pt ->
      Alcotest.(check bool) "margined at least nominal" true
        (pt.Yield.margined_yield >= pt.Yield.nominal_yield -. 0.05);
      Alcotest.(check bool) "margin costs energy" true
        (pt.Yield.margined_energy_cost >= 1.0))
    curve

let () =
  Alcotest.run "extensions"
    [
      ( "short circuit",
        [
          Alcotest.test_case "no overlap" `Quick test_sc_zero_without_overlap;
          Alcotest.test_case "with overlap" `Quick test_sc_positive_with_overlap;
          Alcotest.test_case "linearities" `Quick
            test_sc_linear_in_slope_and_activity;
          Alcotest.test_case "below switching" `Quick
            test_sc_order_of_magnitude_below_switching;
          Alcotest.test_case "power model integration" `Quick
            test_sc_in_power_model;
        ] );
      ( "event sim",
        [
          Alcotest.test_case "matches eval" `Quick test_event_sim_matches_eval;
          Alcotest.test_case "settle bounded by sta" `Quick
            test_event_sim_settle_bounded_by_sta;
          Alcotest.test_case "quiescent" `Quick test_event_sim_no_change_no_events;
          Alcotest.test_case "glitch counting" `Quick
            test_event_sim_counts_glitches;
          Alcotest.test_case "monte carlo sanity" `Quick
            test_monte_carlo_activity_sane;
          Alcotest.test_case "monte carlo vs najm" `Quick
            test_monte_carlo_vs_najm_on_tree;
        ] );
      ( "windowed activity",
        [
          Alcotest.test_case "window 1 = local" `Quick
            test_windowed_equals_local_at_window_one;
          Alcotest.test_case "large window = exact" `Quick
            test_windowed_equals_exact_at_large_window;
          Alcotest.test_case "resolves reconvergence" `Quick
            test_windowed_resolves_local_reconvergence;
        ] );
      ( "multi-vdd",
        [
          Alcotest.test_case "legal assignment" `Quick test_multivdd_classify_legal;
          Alcotest.test_case "equal rails" `Quick
            test_multivdd_equal_rails_matches_single;
          Alcotest.test_case "inverted rails" `Quick
            test_multivdd_rejects_inverted_rails;
          Alcotest.test_case "no worse than single" `Slow
            test_multivdd_optimize_no_worse;
          Alcotest.test_case "helps fixed vt" `Slow test_multivdd_helps_fixed_vt;
          Alcotest.test_case "sdc feasibility" `Quick
            test_multivdd_sdc_feasibility;
        ] );
      ( "yield",
        [
          Alcotest.test_case "zero sigma" `Quick test_yield_perfect_at_zero_sigma;
          Alcotest.test_case "monotone in sigma" `Quick test_yield_monotone_in_sigma;
          Alcotest.test_case "deterministic" `Quick test_yield_deterministic;
          Alcotest.test_case "curve shape" `Slow test_yield_curve_shape;
        ] );
    ]
