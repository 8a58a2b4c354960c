(* Glitch-aware optimization of an array multiplier.

   Array multipliers are the classic glitch monsters: partial-product rows
   arrive at their adders at staggered times, so most internal transitions
   are hazards that zero-delay activity analysis (the paper's Najm
   propagation) never sees. This example optimizes the same multiplier
   twice — once under analytic densities, once under event-simulation
   measured densities — and shows how the energy ACCOUNTING changes even
   when the operating point barely moves.

   Run with: dune exec examples/glitch_aware_multiplier.exe *)

module Flow = Dcopt_core.Flow
module Solution = Dcopt_opt.Solution
module Patterns = Dcopt_netlist.Patterns
module Event_sim = Dcopt_sim.Event_sim
module Circuit = Dcopt_netlist.Circuit

let () =
  let multiplier = Patterns.array_multiplier ~bits:6 in
  Printf.printf "circuit: %s\n\n"
    (Dcopt_netlist.Circuit_stats.to_string
       (Dcopt_netlist.Circuit_stats.compute multiplier));

  (* measure the hazard structure first *)
  let est =
    Event_sim.monte_carlo_activity multiplier
      ~rng:(Dcopt_util.Prng.create 42L) ~vectors:2000 ~input_probability:0.5
      ~input_density:0.1
  in
  Printf.printf
    "event simulation: %.0f%% of internal transitions are hazards that\n\
     zero-delay analysis cannot see\n\n"
    (est.Event_sim.glitch_fraction *. 100.0);

  let optimize engine label =
    let config =
      { Flow.default_config with Flow.clock_frequency = 100e6; engine }
    in
    let p = Flow.prepare ~config multiplier in
    match (Dcopt_core.Optimizer.get "joint-grid").Dcopt_core.Optimizer.run
        (Dcopt_core.Scenario.of_prepared p) with
    | None -> Printf.printf "%-22s infeasible\n" label
    | Some sol ->
      Printf.printf
        "%-22s Vdd %.2f V, Vt %.0f mV, static %s, dynamic %s, total %s\n"
        label (Solution.vdd sol)
        ((match Solution.vt_values sol p.Flow.env with v :: _ -> v | [] -> nan)
        *. 1000.0)
        (Dcopt_util.Si.format ~unit:"J" (Solution.static_energy sol))
        (Dcopt_util.Si.format ~unit:"J" (Solution.dynamic_energy sol))
        (Dcopt_util.Si.format ~unit:"J" (Solution.total_energy sol))
  in
  optimize Flow.First_order "analytic activity:";
  optimize
    (Flow.Monte_carlo { vectors = 2000; seed = 42L })
    "measured activity:";
  print_endline
    "\nThe measured profile redistributes switching energy toward the\n\
     glitch-heavy reduction rows; budgeting power from analytic densities\n\
     alone would misreport where the joules actually go."
