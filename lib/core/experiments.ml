module Suite = Dcopt_suite.Suite
module Circuit = Dcopt_netlist.Circuit
module Solution = Dcopt_opt.Solution
module Heuristic = Dcopt_opt.Heuristic
module Variation = Dcopt_opt.Variation
module Slack_sweep = Dcopt_opt.Slack_sweep
module Delay_assign = Dcopt_timing.Delay_assign
module Text_table = Dcopt_util.Text_table
module Si = Dcopt_util.Si
module Power_model = Dcopt_opt.Power_model

type table_row = {
  circuit : string;
  gates : int;
  depth : int;
  input_density : float;
  static_energy : float;
  dynamic_energy : float;
  total_energy : float;
  critical_delay : float;
  vdd : float;
  vt : float;
  savings : float option;
}

let default_activities = [| 0.1; 0.5 |]
let default_circuits = Suite.table_circuits

let prepare_at config name density =
  let config = { config with Flow.input_density = density } in
  Flow.prepare ~config (Suite.find_exn name)

let row_of_solution p name density savings sol =
  {
    circuit = name;
    gates = Circuit.gate_count p.Flow.core;
    depth = Circuit.depth p.Flow.core;
    input_density = density;
    static_energy = Solution.static_energy sol;
    dynamic_energy = Solution.dynamic_energy sol;
    total_energy = Solution.total_energy sol;
    critical_delay = Solution.critical_delay sol;
    vdd = Solution.vdd sol;
    vt = (match Solution.vt_values sol p.Flow.env with v :: _ -> v | [] -> nan);
    savings;
  }

let rows_with ~runner ?(config = Flow.default_config)
    ?(circuits = default_circuits) ?(activities = default_activities) () =
  (* Each (circuit, activity) table row is an independent optimization:
     run them on the Par pool and keep the table in the nested scan
     order. *)
  List.concat_map
    (fun name ->
      Array.to_list activities |> List.map (fun density -> (name, density)))
    circuits
  |> Dcopt_par.Par.map_list ~site:"experiments.rows" (fun (name, density) ->
         let p = prepare_at config name density in
         runner p name density)
  |> List.filter_map Fun.id

(* Every driver dispatches through the {!Optimizer} registry — the same
   descriptors the CLI and the batch service use; the per-optimizer Flow
   entry points no longer exist. Single-corner studies wrap the prepared
   circuit in the legacy nominal scenario. *)

let run_opt name p =
  (Optimizer.get name).Optimizer.run (Scenario.of_prepared p)

let rows_for ~optimizer ?baseline ?config ?circuits ?activities () =
  let runner p name density =
    match run_opt optimizer p with
    | None -> None
    | Some sol ->
      let savings =
        Option.bind baseline (fun b ->
            run_opt b p
            |> Option.map (fun b -> Solution.savings ~baseline:b sol))
      in
      Some (row_of_solution p name density savings sol)
  in
  rows_with ~runner ?config ?circuits ?activities ()

let table1 ?config ?circuits ?activities () =
  rows_for ~optimizer:"baseline" ?config ?circuits ?activities ()

let table2 ?config ?circuits ?activities () =
  rows_for ~optimizer:"joint-grid" ~baseline:"baseline" ?config ?circuits
    ?activities ()

let render_table ~title rows =
  let t =
    Text_table.create
      ~headers:
        [ "Circuit"; "Gates"; "Depth"; "Input Act."; "Static Energy";
          "Dynamic Energy"; "Total Energy"; "Crit. Delay (ns)"; "Vdd (V)";
          "Vt (mV)"; "Savings" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.circuit;
          string_of_int r.gates;
          string_of_int r.depth;
          Printf.sprintf "%.2f" r.input_density;
          Si.format_exp r.static_energy;
          Si.format_exp r.dynamic_energy;
          Si.format_exp r.total_energy;
          Printf.sprintf "%.2f" (r.critical_delay *. 1e9);
          Printf.sprintf "%.2f" r.vdd;
          Printf.sprintf "%.0f" (r.vt *. 1000.0);
          (match r.savings with
          | None -> "-"
          | Some s -> Printf.sprintf "%.1fx" s);
        ])
    rows;
  Printf.sprintf "%s\n%s" title (Text_table.render t)

let fig2a ?(config = Flow.default_config) ?(circuit = "s298")
    ?(tolerances = [| 0.0; 0.05; 0.10; 0.15; 0.20; 0.25; 0.30 |]) () =
  let p = prepare_at config circuit config.Flow.input_density in
  match run_opt "baseline" p with
  | None -> [||]
  | Some base ->
    Variation.savings_curve ~m_steps:config.Flow.m_steps p.Flow.env
      ~budgets:(Flow.budgets p)
      ~baseline_energy:(Solution.total_energy base)
      ~tolerances

let render_fig2a points =
  let t =
    Text_table.create
      ~headers:[ "Vt tolerance (%)"; "Worst-case energy"; "Power savings" ]
  in
  Array.iter
    (fun pt ->
      Text_table.add_row t
        [
          Printf.sprintf "%.0f" pt.Variation.tolerance_pct;
          Si.format_exp pt.Variation.worst_case_energy;
          Printf.sprintf "%.1fx" pt.Variation.savings;
        ])
    points;
  Printf.sprintf
    "Figure 2(a): power savings vs threshold-voltage variation (s298)\n%s"
    (Text_table.render t)

let fig2b ?(config = Flow.default_config) ?(circuit = "s298")
    ?(factors = [| 1.0; 1.25; 1.5; 2.0; 2.5; 3.0 |]) () =
  let core = Circuit.combinational_core (Suite.find_exn circuit) in
  let specs =
    Dcopt_activity.Activity.uniform_inputs core
      ~probability:config.Flow.input_probability
      ~density:config.Flow.input_density
  in
  let profile = Dcopt_activity.Activity.local_profile core specs in
  Slack_sweep.sweep ~m_steps:config.Flow.m_steps ~tech:config.Flow.tech
    ~fc:config.Flow.clock_frequency core profile ~factors

let render_fig2b points =
  let t =
    Text_table.create
      ~headers:
        [ "Cycle-time slack"; "Baseline energy"; "Joint energy";
          "Savings vs Table 1"; "Savings same-slack"; "Joint Vdd (V)";
          "Joint Vt (mV)" ]
  in
  Array.iter
    (fun pt ->
      Text_table.add_row t
        [
          Printf.sprintf "%.2fx" pt.Slack_sweep.slack_factor;
          Si.format_exp pt.Slack_sweep.baseline_energy;
          Si.format_exp pt.Slack_sweep.joint_energy;
          Printf.sprintf "%.1fx" pt.Slack_sweep.savings;
          Printf.sprintf "%.1fx" pt.Slack_sweep.savings_same_slack;
          Printf.sprintf "%.2f" pt.Slack_sweep.joint_vdd;
          Printf.sprintf "%.0f" (pt.Slack_sweep.joint_vt *. 1000.0);
        ])
    points;
  Printf.sprintf
    "Figure 2(b): power savings vs available cycle-time slack (s298)\n%s"
    (Text_table.render t)

type annealing_row = {
  bench_circuit : string;
  heuristic_energy : float;
  annealing_energy : float;
  annealing_vs_heuristic : float;
  heuristic_seconds : float;
  annealing_seconds : float;
}

let annealing_comparison ?(config = Flow.default_config)
    ?(circuits = [ "s298"; "s386" ]) () =
  List.filter_map
    (fun name ->
      let p = prepare_at config name config.Flow.input_density in
      let timed f =
        let t0 = Sys.time () in
        let r = f () in
        (r, Sys.time () -. t0)
      in
      let h, ht = timed (fun () -> run_opt "joint-grid" p) in
      let a, at = timed (fun () -> run_opt "annealing" p) in
      match (h, a) with
      | Some h, Some a ->
        let he = Solution.total_energy h and ae = Solution.total_energy a in
        Some
          {
            bench_circuit = name;
            heuristic_energy = he;
            annealing_energy = ae;
            annealing_vs_heuristic = ae /. he;
            heuristic_seconds = ht;
            annealing_seconds = at;
          }
      | _ -> None)
    circuits

let render_annealing rows =
  let t =
    Text_table.create
      ~headers:
        [ "Circuit"; "Heuristic energy"; "Annealing energy";
          "Annealing/Heuristic"; "Heuristic time"; "Annealing time" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.bench_circuit;
          Si.format_exp r.heuristic_energy;
          Si.format_exp r.annealing_energy;
          Printf.sprintf "%.2fx" r.annealing_vs_heuristic;
          Printf.sprintf "%.2f s" r.heuristic_seconds;
          Printf.sprintf "%.2f s" r.annealing_seconds;
        ])
    rows;
  Printf.sprintf
    "Heuristic vs multi-pass simulated annealing (lower energy is better)\n%s"
    (Text_table.render t)

type ablation_row = { label : string; value : float; detail : string }

let optimized_energy p =
  run_opt "joint-grid" p
  |> Option.map Solution.total_energy

let ablation_activity ?(config = Flow.default_config) ?(circuit = "s298") () =
  let run engine label detail =
    let config = { config with Flow.engine } in
    let p = prepare_at config circuit config.Flow.input_density in
    optimized_energy p
    |> Option.map (fun e -> { label; value = e; detail })
  in
  List.filter_map Fun.id
    [
      run Flow.First_order "first-order"
        "the paper's zero-correlation propagation";
      run (Flow.Windowed 3) "windowed-3"
        "exact within depth-3 fanin cones (local reconvergence)";
      run Flow.Exact_when_small "exact"
        "BDD over all primary inputs";
      run (Flow.Monte_carlo { vectors = 2000; seed = 0xACL }) "simulated"
        "event-driven measured densities, glitches included";
    ]

let ablation_budget ?(config = Flow.default_config) ?(circuit = "s298") () =
  let p = prepare_at config circuit config.Flow.input_density in
  let core = p.Flow.core in
  let with_budgets label budgets detail =
    Heuristic.optimize
      ~options:{ Heuristic.default_options with
                 Heuristic.strategy = Heuristic.Grid_refine }
      p.Flow.env ~budgets
    |> Option.map (fun sol ->
           { label; value = Solution.total_energy sol; detail })
  in
  let uniform =
    (* naive alternative: every gate gets cycle/depth regardless of fanout *)
    let share =
      p.Flow.budget.Delay_assign.cycle_budget
      /. float_of_int (max 1 (Circuit.depth core))
    in
    let b = Array.make (Circuit.size core) 0.0 in
    Array.iter
      (fun nd ->
        match nd.Circuit.kind with
        | Dcopt_netlist.Gate.Input | Dcopt_netlist.Gate.Dff -> ()
        | _ -> b.(nd.Circuit.id) <- share)
      (Circuit.nodes core);
    b
  in
  List.filter_map Fun.id
    [
      with_budgets "procedure-1" (Flow.budgets p)
        "criticality-proportional budgets";
      with_budgets "uniform" uniform "cycle/depth for every gate";
    ]

let ablation_multi_vt ?(config = Flow.default_config) ?(circuit = "s298") () =
  let p = prepare_at config circuit config.Flow.input_density in
  let single =
    optimized_energy p
    |> Option.map (fun e ->
           { label = "single-vt"; value = e; detail = "n_v = 1" })
  in
  let dual =
    run_opt "multi-vt" p
    |> Option.map (fun sol ->
           {
             label = "dual-vt";
             value = Solution.total_energy sol;
             detail =
               Printf.sprintf "n_v = 2, thresholds {%s} mV"
                 (Solution.vt_values sol p.Flow.env
                 |> List.map (fun v -> Printf.sprintf "%.0f" (v *. 1000.0))
                 |> String.concat ", ");
           })
  in
  List.filter_map Fun.id [ single; dual ]

let ablation_short_circuit ?(config = Flow.default_config)
    ?(circuit = "s298") () =
  let run include_short_circuit label =
    let config = { config with Flow.include_short_circuit } in
    let p = prepare_at config circuit config.Flow.input_density in
    run_opt "joint-grid" p
    |> Option.map (fun sol ->
           {
             label;
             value = Solution.total_energy sol;
             detail =
               Printf.sprintf
                 "Vdd %.2f V, Vt %.0f mV, crowbar %s"
                 (Solution.vdd sol)
                 ((match Solution.vt_values sol p.Flow.env with v :: _ -> v | [] -> nan)
                 *. 1000.0)
                 (Si.format ~unit:"J"
                    sol.Solution.evaluation
                      .Dcopt_opt.Power_model.short_circuit_energy);
           })
  in
  List.filter_map Fun.id
    [ run false "paper model"; run true "with short-circuit" ]

let ablation_multi_vdd ?(config = Flow.default_config) ?(circuit = "s298") () =
  let p = prepare_at config circuit config.Flow.input_density in
  let describe sol =
    let d = sol.Solution.design in
    let vdd_low, low =
      match d.Power_model.rail with
      | Some r -> (r.Power_model.vdd_low, fun id -> r.Power_model.low.(id))
      | None -> (d.Power_model.vdd, fun _ -> false)
    in
    let count keep =
      Array.fold_left
        (fun k id -> if low id && keep id then k + 1 else k)
        0 (Power_model.unsafe_gate_ids p.Flow.env)
    in
    Printf.sprintf "%.2f V / %.2f V, %d gates on the low rail, %d converters"
      d.Power_model.vdd vdd_low (count (fun _ -> true))
      (count (Circuit.is_output p.Flow.core))
  in
  let joint_single =
    optimized_energy p
    |> Option.map (fun e ->
           { label = "joint single-vdd"; value = e;
             detail = "one supply, Vt free" })
  in
  let joint_dual =
    Flow.run_with_budgets ~name:"multi-vdd" p (fun budgets ->
        Dcopt_opt.Multi_vdd.optimize ~m_steps:p.Flow.config.Flow.m_steps
          p.Flow.env ~budgets)
    |> Option.map (fun sol ->
           { label = "joint dual-vdd";
             value = Solution.total_energy sol;
             detail = describe sol })
  in
  (* the conventional-process case: Vt pinned at 700 mV, where a second
     rail has real headroom under the high baseline supply *)
  let fixed_budgets = Flow.repaired_budgets p ~vt:Dcopt_opt.Baseline.default_vt in
  let fixed_single =
    Option.bind fixed_budgets (fun budgets ->
        Dcopt_opt.Baseline.optimize ~m_steps:config.Flow.m_steps p.Flow.env
          ~budgets)
    |> Option.map (fun sol ->
           { label = "fixed-vt single-vdd";
             value = Solution.total_energy sol;
             detail = Printf.sprintf "Vt = 700 mV, Vdd %.2f V"
                 (Solution.vdd sol) })
  in
  let fixed_dual =
    Option.bind fixed_budgets (fun budgets ->
        Dcopt_opt.Multi_vdd.optimize ~m_steps:config.Flow.m_steps
          ~vt_fixed:Dcopt_opt.Baseline.default_vt p.Flow.env ~budgets)
    |> Option.map (fun sol ->
           { label = "fixed-vt dual-vdd";
             value = Solution.total_energy sol;
             detail = describe sol })
  in
  List.filter_map Fun.id [ joint_single; joint_dual; fixed_single; fixed_dual ]

let yield_study ?(config = Flow.default_config) ?(circuit = "s298")
    ?(samples = 300) ?(sigmas = [| 0.05; 0.10; 0.15; 0.20; 0.25 |]) () =
  let p = prepare_at config circuit config.Flow.input_density in
  match
    Flow.repaired_budgets p ~vt:config.Flow.tech.Dcopt_device.Tech.vt_min
  with
  | None -> [||]
  | Some budgets ->
    Dcopt_opt.Yield.yield_curve ~m_steps:config.Flow.m_steps ~samples
      p.Flow.env ~budgets ~sigmas

let render_yield points =
  let t =
    Text_table.create
      ~headers:
        [ "Vt sigma"; "Nominal-design yield"; "Margined-design yield";
          "Margin energy cost" ]
  in
  Array.iter
    (fun pt ->
      Text_table.add_row t
        [
          Printf.sprintf "%.0f%%" pt.Dcopt_opt.Yield.sigma_pct;
          Printf.sprintf "%.2f" pt.Dcopt_opt.Yield.nominal_yield;
          Printf.sprintf "%.2f" pt.Dcopt_opt.Yield.margined_yield;
          Printf.sprintf "%.2fx" pt.Dcopt_opt.Yield.margined_energy_cost;
        ])
    points;
  Printf.sprintf
    "Monte-Carlo timing yield under threshold variation (s298)\n%s"
    (Text_table.render t)

type scaling_row = {
  node_name : string;
  feature_nm : float;
  opt_vdd : float;
  opt_vt : float;
  opt_energy : float;
  static_share : float;
}

let scaling_study ?(config = Flow.default_config) ?(circuit = "s298")
    ?(factors = [| 1.0; 0.7; 0.5; 0.35 |]) () =
  Array.to_list factors
  |> List.filter_map (fun factor ->
         let tech =
           if factor >= 1.0 then config.Flow.tech
           else Dcopt_device.Tech.scale config.Flow.tech ~factor
         in
         let config = { config with Flow.tech } in
         let p = prepare_at config circuit config.Flow.input_density in
         run_opt "joint-grid" p
         |> Option.map (fun sol ->
                {
                  node_name = tech.Dcopt_device.Tech.tech_name;
                  feature_nm =
                    tech.Dcopt_device.Tech.feature_size *. 1e9;
                  opt_vdd = Solution.vdd sol;
                  opt_vt =
                    (match Solution.vt_values sol p.Flow.env with
                    | v :: _ -> v
                    | [] -> nan);
                  opt_energy = Solution.total_energy sol;
                  static_share =
                    Solution.static_energy sol /. Solution.total_energy sol;
                }))

let render_scaling rows =
  let t =
    Text_table.create
      ~headers:
        [ "Node"; "F (nm)"; "Opt Vdd (V)"; "Opt Vt (mV)"; "Energy/cycle";
          "Static share" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.node_name;
          Printf.sprintf "%.0f" r.feature_nm;
          Printf.sprintf "%.2f" r.opt_vdd;
          Printf.sprintf "%.0f" (r.opt_vt *. 1000.0);
          Si.format_exp r.opt_energy;
          Printf.sprintf "%.0f%%" (r.static_share *. 100.0);
        ])
    rows;
  Printf.sprintf
    "Optimal operating point across scaled nodes (s298, 300 MHz)\n%s"
    (Text_table.render t)

type glitch_row = {
  glitch_circuit : string;
  analytic_energy : float;
  simulated_energy : float;
  glitch_fraction : float;
}

let glitch_study ?(config = Flow.default_config) () =
  let study name circuit =
    let core = Circuit.combinational_core circuit in
    let specs =
      Dcopt_activity.Activity.uniform_inputs core
        ~probability:config.Flow.input_probability ~density:0.1
    in
    let analytic = Dcopt_activity.Activity.local_profile core specs in
    let measured =
      Dcopt_sim.Event_sim.monte_carlo_activity core
        ~rng:(Dcopt_util.Prng.create 0x911L) ~vectors:3000
        ~input_probability:config.Flow.input_probability ~input_density:0.1
    in
    let simulated_profile =
      { analytic with
        Dcopt_activity.Activity.densities =
          measured.Dcopt_sim.Event_sim.densities }
    in
    let energy_with profile =
      let env =
        Power_model.make_env ~tech:config.Flow.tech
          ~fc:config.Flow.clock_frequency core profile
      in
      let design = Power_model.uniform_design env ~vdd:1.0 ~vt:0.2 ~w:4.0 in
      (Power_model.evaluate env design).Power_model.dynamic_energy
    in
    {
      glitch_circuit = name;
      analytic_energy = energy_with analytic;
      simulated_energy = energy_with simulated_profile;
      glitch_fraction = measured.Dcopt_sim.Event_sim.glitch_fraction;
    }
  in
  [
    study "parity16 (balanced tree)"
      (Dcopt_netlist.Patterns.parity_tree ~leaves:16);
    study "rca8 (carry chain)"
      (Dcopt_netlist.Patterns.ripple_carry_adder ~bits:8);
    study "mult6 (array multiplier)"
      (Dcopt_netlist.Patterns.array_multiplier ~bits:6);
    study "s298 (random logic)" (Suite.find_exn "s298");
  ]

let render_glitch rows =
  let t =
    Text_table.create
      ~headers:
        [ "Circuit"; "Dynamic (Najm)"; "Dynamic (simulated)";
          "Simulated/Najm"; "Glitch share" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.glitch_circuit;
          Si.format_exp r.analytic_energy;
          Si.format_exp r.simulated_energy;
          Printf.sprintf "%.2fx" (r.simulated_energy /. r.analytic_energy);
          Printf.sprintf "%.0f%%" (r.glitch_fraction *. 100.0);
        ])
    rows;
  Printf.sprintf
    "Glitch power the zero-delay activity model misses (fixed 1 V / 200 mV \
     / w=4 design)\n%s"
    (Text_table.render t)

type state_activity_row = {
  state_circuit : string;
  assumed_density : float;
  measured_state_density : float;
  energy_assumed : float;
  energy_measured : float;
}

let state_activity_study ?(config = Flow.default_config)
    ?(circuits = [ "s27"; "s298"; "s344" ]) () =
  List.filter_map
    (fun name ->
      let circuit = Suite.find_exn name in
      let trace =
        Dcopt_sim.Seq_sim.simulate ~cycles:4000
          ~input_probability:config.Flow.input_probability
          ~input_density:config.Flow.input_density circuit
      in
      let core = trace.Dcopt_sim.Seq_sim.core in
      (* mean measured toggle rate over the state bits *)
      let state_names =
        Array.to_list (Circuit.dffs circuit)
        |> List.map (fun id -> (Circuit.node circuit id).Circuit.name)
      in
      let measured_state_density =
        match state_names with
        | [] -> 0.0
        | _ ->
          Dcopt_util.Stats.mean
            (Array.of_list
               (List.map
                  (fun n ->
                    trace.Dcopt_sim.Seq_sim.densities.(Circuit.find core n))
                  state_names))
      in
      let optimize engine =
        let config = { config with Flow.engine } in
        let p = prepare_at config name config.Flow.input_density in
        run_opt "joint-grid" p
        |> Option.map Solution.total_energy
      in
      match
        ( optimize Flow.First_order,
          optimize (Flow.Sequential_trace { cycles = 4000; seed = 0xFACEL }) )
      with
      | Some energy_assumed, Some energy_measured ->
        Some
          {
            state_circuit = name;
            assumed_density = config.Flow.input_density;
            measured_state_density;
            energy_assumed;
            energy_measured;
          }
      | _ -> None)
    circuits

let render_state_activity rows =
  let t =
    Text_table.create
      ~headers:
        [ "Circuit"; "Assumed state act."; "Measured state act.";
          "Energy (assumed)"; "Energy (traced)"; "Ratio" ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [
          r.state_circuit;
          Printf.sprintf "%.2f" r.assumed_density;
          Printf.sprintf "%.3f" r.measured_state_density;
          Si.format_exp r.energy_assumed;
          Si.format_exp r.energy_measured;
          Printf.sprintf "%.2fx" (r.energy_assumed /. r.energy_measured);
        ])
    rows;
  Printf.sprintf
    "Assumed-uniform vs trace-measured state-bit activity\n%s"
    (Text_table.render t)

let ablation_sizing ?(config = Flow.default_config) ?(circuit = "s298") () =
  let p = prepare_at config circuit config.Flow.input_density in
  let timed f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let proc2, t2 =
    timed (fun () -> run_opt "joint-grid" p)
  in
  let tilos, tt =
    timed (fun () -> run_opt "tilos" { p with Flow.config =
        { p.Flow.config with Flow.m_steps = 8 } })
  in
  List.filter_map Fun.id
    [
      Option.map
        (fun sol ->
          { label = "procedure-2";
            value = Solution.total_energy sol;
            detail = Printf.sprintf
                "budget-decomposed sizing, %.1f s" t2 })
        proc2;
      Option.map
        (fun sol ->
          { label = "tilos";
            value = Solution.total_energy sol;
            detail = Printf.sprintf
                "budget-free sensitivity sizing (Vdd %.2f V, Vt %.0f mV), %.1f s"
                (Solution.vdd sol)
                ((match Solution.vt_values sol p.Flow.env with v :: _ -> v | [] -> nan)
                *. 1000.0)
                tt })
        tilos;
    ]

let ablation_fanin ?(config = Flow.default_config) ?(circuit = "s298") () =
  let core = Circuit.combinational_core (Suite.find_exn circuit) in
  let run c label =
    let p = Flow.prepare ~config c in
    run_opt "joint-grid" p
    |> Option.map (fun sol ->
           {
             label;
             value = Solution.total_energy sol;
             detail =
               Printf.sprintf "%d gates, depth %d, Vdd %.2f V"
                 (Circuit.gate_count c)
                 (Circuit.depth c)
                 (Solution.vdd sol);
           })
  in
  List.filter_map Fun.id
    [
      run core
        (Printf.sprintf "as-is (fanin <= %d)"
           (Dcopt_netlist.Tech_map.max_gate_fanin core));
      run (Dcopt_netlist.Tech_map.decompose ~max_fanin:2 core) "fanin <= 2";
      run (Dcopt_netlist.Tech_map.decompose ~max_fanin:3 core) "fanin <= 3";
    ]

let temperature_study ?(config = Flow.default_config) ?(circuit = "s298")
    ?(temperatures = [| 0.0; 25.0; 75.0; 125.0 |]) () =
  Array.to_list temperatures
  |> List.filter_map (fun celsius ->
         let tech = Dcopt_device.Tech.at_temperature config.Flow.tech ~celsius in
         let config = { config with Flow.tech } in
         let p = prepare_at config circuit config.Flow.input_density in
         run_opt "joint-grid" p
         |> Option.map (fun sol ->
                {
                  label = Printf.sprintf "%.0f C" celsius;
                  value = Solution.total_energy sol;
                  detail =
                    Printf.sprintf
                      "Vdd %.2f V, Vt %.0f mV, static share %.0f%%"
                      (Solution.vdd sol)
                      ((match Solution.vt_values sol p.Flow.env with
                       | v :: _ -> v
                       | [] -> nan)
                      *. 1000.0)
                      (100.0 *. Solution.static_energy sol
                      /. Solution.total_energy sol);
                }))

let beyond_paper_pipeline ?(config = Flow.default_config)
    ?(circuit = "s298") () =
  let core =
    Dcopt_netlist.Tech_map.prune
      (Circuit.combinational_core (Suite.find_exn circuit))
  in
  let optimize_on c =
    let p = Flow.prepare ~config c in
    (p, run_opt "joint-grid" p)
  in
  let row label detail sol =
    { label; value = Solution.total_energy sol; detail }
  in
  let p0, paper = optimize_on core in
  let steps = ref [] in
  (match paper with
  | None -> ()
  | Some paper ->
    steps := [ row "paper flow" "Procedures 1+2, single Vt" paper ];
    (* + greedy dual-vt *)
    let dual = Dcopt_opt.Multi_vt.greedy_dual_vt p0.Flow.env paper in
    steps := row "+ dual-vt" "slack-driven second threshold" dual :: !steps;
    (* + bounded-fanin decomposition, then dual-vt again *)
    let decomposed = Dcopt_netlist.Tech_map.decompose ~max_fanin:2 core in
    (match optimize_on decomposed with
    | p2, Some sol ->
      let sol = Dcopt_opt.Multi_vt.greedy_dual_vt p2.Flow.env sol in
      steps :=
        row "+ fanin-2 mapping" "decomposed netlist, dual-vt" sol :: !steps;
      (* + TILOS budget-free sizing on the decomposed netlist *)
      (match Dcopt_opt.Tilos.optimize ~m_steps:8 p2.Flow.env with
      | Some tsol ->
        let tsol = Dcopt_opt.Multi_vt.greedy_dual_vt p2.Flow.env tsol in
        steps :=
          row "+ tilos sizing" "budget-free global sizing, dual-vt" tsol
          :: !steps
      | None -> ())
    | _, None -> ()));
  List.rev !steps

let render_ablation ~title rows =
  let t = Text_table.create ~headers:[ "Variant"; "Total energy"; "Detail" ] in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ r.label; Si.format_exp r.value; r.detail ])
    rows;
  Printf.sprintf "%s\n%s" title (Text_table.render t)
