module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate
module Tech = Dcopt_device.Tech
module Activity = Dcopt_activity.Activity
module Delay_assign = Dcopt_timing.Delay_assign
module Power_model = Dcopt_opt.Power_model
module Heuristic = Dcopt_opt.Heuristic
module Baseline = Dcopt_opt.Baseline
module Annealing = Dcopt_opt.Annealing
module Multi_vt = Dcopt_opt.Multi_vt
module Solution = Dcopt_opt.Solution
module Budget_repair = Dcopt_opt.Budget_repair
module Variation = Dcopt_opt.Variation
module Slack_sweep = Dcopt_opt.Slack_sweep

let tech = Tech.default
let fc = 300e6

let setup ?(name = "s298") ?(density = 0.1) () =
  let core = Circuit.combinational_core (Dcopt_suite.Suite.find_exn name) in
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density in
  let profile = Activity.local_profile core specs in
  let env = Power_model.make_env ~tech ~fc core profile in
  let raw = (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max in
  let budgets =
    match Budget_repair.repair env ~budgets:raw ~vdd:tech.Tech.vdd_max ~vt:tech.Tech.vt_min with
    | Budget_repair.Repaired { budgets; _ } -> budgets
    | Budget_repair.Infeasible _ -> raw
  in
  (core, env, budgets)

(* ------------------------------------------------------------------ *)
(* Power model                                                         *)

let test_env_rejects_sequential () =
  let seq = Dcopt_suite.Suite.s27 () in
  let core = Circuit.combinational_core seq in
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  match Power_model.make_env ~tech ~fc seq profile with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_gate_ids_topological () =
  let _, env, _ = setup () in
  let core = Power_model.circuit env in
  let ids = Power_model.gate_ids env in
  let pos = Hashtbl.create 64 in
  Array.iteri (fun i id -> Hashtbl.add pos id i) ids;
  Array.iter
    (fun id ->
      let nd = Circuit.node core id in
      Array.iter
        (fun f ->
          match Hashtbl.find_opt pos f with
          | Some pf ->
            Alcotest.(check bool) "fanin first" true
              (pf < Hashtbl.find pos id)
          | None -> () (* primary input *))
        nd.Circuit.fanins)
    ids

let test_evaluate_energy_positive () =
  let _, env, _ = setup () in
  let design = Power_model.uniform_design env ~vdd:1.0 ~vt:0.2 ~w:4.0 in
  let e = Power_model.evaluate env design in
  Alcotest.(check bool) "static > 0" true (e.Power_model.static_energy > 0.0);
  Alcotest.(check bool) "dynamic > 0" true (e.Power_model.dynamic_energy > 0.0);
  Alcotest.(check (float 1e-30)) "total = sum"
    (e.Power_model.static_energy +. e.Power_model.dynamic_energy)
    e.Power_model.total_energy;
  Alcotest.(check (float 1e-9)) "power = energy * fc"
    (e.Power_model.total_energy *. fc)
    (e.Power_model.static_power +. e.Power_model.dynamic_power)

let test_evaluate_vdd_scaling () =
  let _, env, _ = setup () in
  let low = Power_model.evaluate env (Power_model.uniform_design env ~vdd:1.0 ~vt:0.3 ~w:4.0) in
  let high = Power_model.evaluate env (Power_model.uniform_design env ~vdd:2.0 ~vt:0.3 ~w:4.0) in
  Alcotest.(check (float 1e-6)) "dynamic quadratic in vdd" 4.0
    (high.Power_model.dynamic_energy /. low.Power_model.dynamic_energy);
  Alcotest.(check bool) "high vdd faster" true
    (high.Power_model.critical_delay < low.Power_model.critical_delay)

let test_size_gate_monotone_budget () =
  let _, env, budgets = setup () in
  let design = Power_model.uniform_design env ~vdd:2.0 ~vt:0.3 ~w:2.0 in
  let gates = Power_model.gate_ids env in
  let id = gates.(Array.length gates / 2) in
  let size budgets =
    Power_model.size_gate_with
      (Dcopt_device.Drive.sizer (Power_model.tech env))
      (Power_model.drive env ~vdd:2.0 ~vt:0.3)
      env design ~budgets id
  in
  match size budgets with
  | None -> Alcotest.fail "expected feasible at 2 V"
  | Some w ->
    (* doubling the budget can only shrink the required width *)
    let looser = Array.map (fun b -> 2.0 *. b) budgets in
    (match size looser with
    | None -> Alcotest.fail "looser budget must stay feasible"
    | Some w' -> Alcotest.(check bool) "narrower" true (w' <= w))

let test_size_all_meets_cycle () =
  let core, env, budgets = setup () in
  let n = Circuit.size core in
  let design, ok = Power_model.size_all env ~vdd:3.3 ~vt:(Array.make n 0.15) ~budgets in
  Alcotest.(check bool) "sizing feasible" true ok;
  let e = Power_model.evaluate env design in
  Alcotest.(check bool) "meets cycle" true e.Power_model.feasible

let sizing_implies_cycle_property =
  (* the core soundness invariant: per-gate budget satisfaction implies the
     whole circuit meets the cycle time *)
  QCheck.Test.make ~name:"budget-sized designs meet the cycle time" ~count:20
    QCheck.(pair (float_range 0.8 3.3) (float_range 0.1 0.3))
    (fun (vdd, vt) ->
      let core, env, budgets = setup ~name:"s27" () in
      let n = Circuit.size core in
      let design, ok = Power_model.size_all env ~vdd ~vt:(Array.make n vt) ~budgets in
      let e = Power_model.evaluate env design in
      (not ok) || e.Power_model.feasible)

(* ------------------------------------------------------------------ *)
(* Heuristic / baseline                                                *)

let test_heuristic_finds_feasible () =
  let _, env, budgets = setup () in
  match Heuristic.optimize env ~budgets with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
    Alcotest.(check bool) "feasible" true (Solution.feasible sol);
    Alcotest.(check bool) "budgets met" true sol.Solution.meets_budgets;
    Alcotest.(check bool) "low vdd" true (Solution.vdd sol < 2.0)

let test_heuristic_beats_naive () =
  let _, env, budgets = setup () in
  let naive = Heuristic.sizing_solution env ~budgets ~vdd:3.3 ~vt:0.7 in
  match Heuristic.optimize env ~budgets with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
    Alcotest.(check bool) "order of magnitude" true
      (Solution.total_energy naive /. Solution.total_energy sol > 5.0)

let test_grid_refine_at_least_as_good () =
  let _, env, budgets = setup () in
  let binary = Heuristic.optimize env ~budgets in
  let grid =
    Heuristic.optimize
      ~options:{ Heuristic.default_options with strategy = Heuristic.Grid_refine }
      env ~budgets
  in
  match (binary, grid) with
  | Some b, Some g ->
    (* the binary heuristic should land within 2x of the grid reference *)
    Alcotest.(check bool) "binary close to grid" true
      (Solution.total_energy b /. Solution.total_energy g < 2.0)
  | _ -> Alcotest.fail "both should find solutions"

let test_baseline_pinned_vt () =
  let _, env, budgets = setup () in
  match Baseline.optimize env ~budgets with
  | None -> Alcotest.fail "baseline should be feasible on s298"
  | Some sol ->
    Alcotest.(check (list (float 1e-9))) "single vt at 0.7" [ 0.7 ]
      (Solution.vt_values sol);
    Alcotest.(check bool) "high vdd" true (Solution.vdd sol > 2.0);
    Alcotest.(check bool) "leakage negligible" true
      (Solution.static_energy sol < 0.001 *. Solution.dynamic_energy sol)

let test_paper_signatures () =
  (* the four qualitative signatures of the paper's Table 2 *)
  let _, env, budgets = setup () in
  let baseline = Option.get (Baseline.optimize env ~budgets) in
  let joint =
    Option.get
      (Heuristic.optimize
         ~options:{ Heuristic.default_options with strategy = Heuristic.Grid_refine }
         env ~budgets)
  in
  let savings = Solution.savings ~baseline joint in
  Alcotest.(check bool) "savings order of magnitude" true (savings > 6.0);
  Alcotest.(check bool) "joint vdd in the paper's band" true
    (Solution.vdd joint >= 0.4 && Solution.vdd joint <= 1.3);
  let vt = List.hd (Solution.vt_values joint) in
  Alcotest.(check bool) "joint vt in the paper's band" true
    (vt >= 0.1 && vt <= 0.26);
  let ratio = Solution.static_energy joint /. Solution.dynamic_energy joint in
  Alcotest.(check bool) "static comparable to dynamic" true
    (ratio > 0.1 && ratio < 10.0)

let test_savings_grow_with_activity () =
  let run density =
    let _, env, budgets = setup ~density () in
    let baseline = Option.get (Baseline.optimize env ~budgets) in
    let joint =
      Option.get
        (Heuristic.optimize
           ~options:{ Heuristic.default_options with strategy = Heuristic.Grid_refine }
           env ~budgets)
    in
    Solution.savings ~baseline joint
  in
  Alcotest.(check bool) "higher activity, higher savings" true
    (run 0.5 > run 0.1)

(* ------------------------------------------------------------------ *)
(* TILOS                                                               *)

let test_tilos_sizing_meets_cycle () =
  let _, env, _ = setup ~name:"s27" () in
  match Dcopt_opt.Tilos.size_for_cycle env ~vdd:1.2 ~vt:0.2 with
  | None -> Alcotest.fail "1.2 V should be sizable"
  | Some design ->
    let e = Power_model.evaluate env design in
    Alcotest.(check bool) "meets cycle" true e.Power_model.feasible

let test_tilos_detects_unreachable () =
  let core = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s27") in
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  let env = Power_model.make_env ~tech ~fc:50e9 core profile in
  Alcotest.(check bool) "50 GHz unreachable" true
    (Dcopt_opt.Tilos.size_for_cycle env ~vdd:3.3 ~vt:0.1 = None)

let test_tilos_beats_budgeted_sizing () =
  let _, env, budgets = setup ~name:"s27" () in
  let proc2 =
    Option.get
      (Heuristic.optimize
         ~options:{ Heuristic.default_options with strategy = Heuristic.Grid_refine }
         env ~budgets)
  in
  match Dcopt_opt.Tilos.optimize ~m_steps:6 env with
  | None -> Alcotest.fail "tilos should find a design"
  | Some sol ->
    Alcotest.(check bool) "feasible" true (Solution.feasible sol);
    (* budget-free sizing is never worse than the decomposed heuristic *)
    Alcotest.(check bool) "no worse than procedure 2" true
      (Solution.total_energy sol
      <= Solution.total_energy proc2 *. (1.0 +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Annealing / multi-vt                                                *)

let test_annealing_feasible_not_better () =
  let _, env, budgets = setup ~name:"s27" () in
  let grid =
    Option.get
      (Heuristic.optimize
         ~options:{ Heuristic.default_options with strategy = Heuristic.Grid_refine }
         env ~budgets)
  in
  let options = { Annealing.passes = 2; moves_per_pass = 1500 } in
  match Annealing.optimize ~options env with
  | None -> Alcotest.fail "annealing should find something feasible"
  | Some sol ->
    Alcotest.(check bool) "feasible" true (Solution.feasible sol);
    (* the paper: annealing does not beat the heuristic in practical time *)
    Alcotest.(check bool) "not dramatically better than the heuristic" true
      (Solution.total_energy sol > 0.5 *. Solution.total_energy grid)

let test_annealing_deterministic () =
  let _, env, _ = setup ~name:"s27" () in
  let options = { Annealing.passes = 1; moves_per_pass = 500 } in
  let run () =
    Annealing.optimize ~options env |> Option.map Solution.total_energy
  in
  Alcotest.(check bool) "same seed, same answer" true (run () = run ())

let test_multi_vt_no_worse () =
  let _, env, budgets = setup ~name:"s386" () in
  let single =
    Option.get
      (Heuristic.optimize
         ~options:{ Heuristic.default_options with strategy = Heuristic.Grid_refine }
         env ~budgets)
  in
  match Multi_vt.optimize ~n_vt:2 env ~budgets with
  | None -> Alcotest.fail "expected a dual-vt solution"
  | Some dual ->
    Alcotest.(check bool) "dual-vt no worse" true
      (Solution.total_energy dual
      <= Solution.total_energy single *. (1.0 +. 1e-9));
    Alcotest.(check bool) "at most two thresholds" true
      (List.length (Solution.vt_values dual) <= 2)

let test_greedy_dual_vt_improves () =
  let _, env, budgets = setup () in
  let single =
    Option.get
      (Heuristic.optimize
         ~options:{ Heuristic.default_options with strategy = Heuristic.Grid_refine }
         env ~budgets)
  in
  let dual = Multi_vt.greedy_dual_vt env single in
  Alcotest.(check bool) "feasible" true (Solution.feasible dual);
  Alcotest.(check bool) "no worse" true
    (Solution.total_energy dual <= Solution.total_energy single *. (1.0 +. 1e-9));
  (* on s298 the slack structure leaves real leakage on the table *)
  Alcotest.(check bool) "actually improves" true
    (Solution.total_energy dual < Solution.total_energy single *. 0.95);
  Alcotest.(check int) "two thresholds" 2
    (List.length (Solution.vt_values dual))

(* The promotion loop with a full Power_model.evaluate per probe: the
   reference for the incremental greedy. *)
let greedy_dual_vt_ref env solution =
  let base = solution.Solution.design in
  let vt_low =
    match Solution.vt_values solution with v :: _ -> v | [] -> tech.Tech.vt_min
  in
  let candidates =
    Dcopt_util.Numeric.linspace
      ~lo:
        (Dcopt_util.Numeric.clamp ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max
           (vt_low +. 0.05))
      ~hi:tech.Tech.vt_max ~n:5
  in
  let sta =
    Dcopt_timing.Flat_sta.analyze ~required_time:(Power_model.cycle_time env)
      ?required_times:(Power_model.required_times env)
      ?arrival_offsets:(Power_model.arrival_offsets env)
      (Power_model.flat env)
      ~delays:solution.Solution.evaluation.Power_model.delays
  in
  let slack = Dcopt_timing.Flat_sta.slack_of_endpoint sta in
  let order =
    List.sort
      (fun a b -> Float.compare (slack b) (slack a))
      (Array.to_list (Power_model.gate_ids env))
  in
  let promote best vt_high =
    let design = { base with Power_model.vt = Array.copy base.Power_model.vt } in
    let promoted =
      List.fold_left
        (fun k id ->
          let saved = design.Power_model.vt.(id) in
          design.Power_model.vt.(id) <- vt_high;
          if (Power_model.evaluate env design).Power_model.feasible then k + 1
          else begin
            design.Power_model.vt.(id) <- saved;
            k
          end)
        0 order
    in
    if promoted = 0 then best
    else
      let sol =
        Solution.make ~label:"multi-vt"
          ~meets_budgets:solution.Solution.meets_budgets env design
      in
      Option.value (Solution.better (Some best) sol) ~default:best
  in
  Array.fold_left
    (fun best vt_high -> if vt_high > vt_low then promote best vt_high else best)
    solution candidates

let test_greedy_dual_vt_matches_full_evaluation () =
  let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
  let check label core constraints =
    let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
    let env =
      Power_model.make_env ?constraints ~tech ~fc core
        (Activity.local_profile core specs)
    in
    let budgets =
      (Delay_assign.assign ?constraints core ~cycle_time:(1.0 /. fc))
        .Delay_assign.t_max
    in
    let budgets =
      match
        Budget_repair.repair env ~budgets ~vdd:tech.Tech.vdd_max
          ~vt:tech.Tech.vt_min
      with
      | Budget_repair.Repaired { budgets; _ } -> budgets
      | Budget_repair.Infeasible _ -> budgets
    in
    let single =
      Option.get
        (Heuristic.optimize
           ~options:
             { Heuristic.default_options with strategy = Heuristic.Grid_refine }
           env ~budgets)
    in
    let want = greedy_dual_vt_ref env single in
    let got = Multi_vt.greedy_dual_vt env single in
    Alcotest.(check bool) (label ^ " promotes") true
      (List.length (Solution.vt_values want) = 2);
    Alcotest.(check (list int64)) (label ^ " vt bits")
      (bits want.Solution.design.Power_model.vt)
      (bits got.Solution.design.Power_model.vt);
    Alcotest.(check (list int64)) (label ^ " energy bits")
      (bits
         [| Solution.static_energy want; Solution.dynamic_energy want;
            Solution.total_energy want; Solution.critical_delay want |])
      (bits
         [| Solution.static_energy got; Solution.dynamic_energy got;
            Solution.total_energy got; Solution.critical_delay got |])
  in
  (* an output delay on the first output and an input delay
     on the first input: per-endpoint feasibility and seeded arrivals *)
  let sdc core =
    let name id = (Circuit.node core id).Circuit.name in
    let tc = 1.0 /. fc in
    {
      (Dcopt_timing.Constraints.of_cycle_time tc) with
      Dcopt_timing.Constraints.output_delays =
        [
          {
            Dcopt_timing.Constraints.port = name (Circuit.outputs core).(0);
            io_clock = None;
            io_delay = 0.05 *. tc;
          };
        ];
      input_delays =
        [
          {
            Dcopt_timing.Constraints.port = name (Circuit.inputs core).(0);
            io_clock = None;
            io_delay = 0.02 *. tc;
          };
        ];
    }
  in
  List.iter
    (fun (label, core) ->
      check label core None;
      check (label ^ " sdc") core (Some (sdc core)))
    [
      ("s298", Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s298"));
      ("s1488", Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s1488"));
      ( "dag200",
        Dcopt_netlist.Generator.(
          random_dag (default_dag ~seed:1L ~gates:200 ())) );
    ]

let test_multi_vt_classify () =
  let _, env, budgets = setup () in
  let classes = Multi_vt.classify env ~budgets ~classes:3 in
  let counts = Array.make 3 0 in
  Array.iter
    (fun id -> counts.(classes.(id)) <- counts.(classes.(id)) + 1)
    (Power_model.gate_ids env);
  Array.iter
    (fun c -> Alcotest.(check bool) "non-empty classes" true (c > 0))
    counts

(* ------------------------------------------------------------------ *)
(* Budget repair                                                       *)

let test_repair_noop_when_feasible () =
  let core, env, _ = setup () in
  let raw = (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max in
  match Budget_repair.repair env ~budgets:raw ~vdd:3.3 ~vt:0.1 with
  | Budget_repair.Repaired { budgets; _ } ->
    let n = Circuit.size core in
    let _, ok = Power_model.size_all env ~vdd:3.3 ~vt:(Array.make n 0.1) ~budgets in
    Alcotest.(check bool) "sizable after repair" true ok
  | Budget_repair.Infeasible _ -> Alcotest.fail "s298 is repairable"

let test_repair_preserves_cycle () =
  let core, env, _ = setup ~name:"s344" () in
  let raw = (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max in
  match Budget_repair.repair env ~budgets:raw ~vdd:3.3 ~vt:0.7 with
  | Budget_repair.Repaired { budgets; lifted; _ } ->
    Alcotest.(check bool) "some gates lifted" true (lifted >= 0);
    let critical delays =
      snd (Dcopt_timing.Flat_sta.forward (Power_model.flat env) ~delays)
    in
    Alcotest.(check bool) "critical preserved" true
      (critical budgets <= critical raw *. (1.0 +. 1e-6))
  | Budget_repair.Infeasible _ -> Alcotest.fail "s344 repairable at 0.7"

let test_repair_idempotent () =
  let core, env, _ = setup ~name:"s344" () in
  let raw = (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max in
  match Budget_repair.repair env ~budgets:raw ~vdd:3.3 ~vt:0.7 with
  | Budget_repair.Infeasible _ -> Alcotest.fail "s344 repairable"
  | Budget_repair.Repaired { budgets; _ } -> (
    match Budget_repair.repair env ~budgets ~vdd:3.3 ~vt:0.7 with
    | Budget_repair.Infeasible _ -> Alcotest.fail "repaired budgets stay feasible"
    | Budget_repair.Repaired { budgets = again; lifted; iterations } ->
      Alcotest.(check int) "no further lifts" 0 lifted;
      Alcotest.(check int) "one settling pass" 1 iterations;
      Alcotest.(check bool) "fixpoint" true (again = budgets))

let test_repair_detects_impossible () =
  (* at 30 GHz nothing can close timing *)
  let core = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s298") in
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  let env = Power_model.make_env ~tech ~fc:30e9 core profile in
  let raw = (Delay_assign.assign core ~cycle_time:(1.0 /. 30e9)).Delay_assign.t_max in
  match Budget_repair.repair env ~budgets:raw ~vdd:3.3 ~vt:0.1 with
  | Budget_repair.Infeasible _ -> ()
  | Budget_repair.Repaired _ -> Alcotest.fail "30 GHz cannot be feasible"

(* On generated DAGs across sizes, clocks, skew factors and corners, repair either hands back budgets every gate can be sized to
   or names a gate that cannot make it. *)
let repair_sizes_or_names_property =
  QCheck.Test.make
    ~name:"repaired DAG budgets size, or a limiting gate is named" ~count:12
    QCheck.(
      pair (int_bound 10_000)
        (quad (int_bound 2) (int_bound 2) (int_bound 1) (int_bound 1)))
    (fun (seed, (size, clock, skew, corner)) ->
      let core =
        Dcopt_netlist.Generator.(
          random_dag
            (default_dag ~seed:(Int64.of_int seed)
               ~gates:[| 30; 200; 600 |].(size) ()))
      in
      let fc = [| 50e6; 300e6; 2e9 |].(clock) in
      let skew_factor = [| 0.95; 0.8 |].(skew) in
      let vdd, vt =
        [| (tech.Tech.vdd_max, tech.Tech.vt_min); (1.0, 0.3) |].(corner)
      in
      let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
      let env =
        Power_model.make_env ~tech ~fc core (Activity.local_profile core specs)
      in
      let raw =
        (Delay_assign.assign ~skew_factor core ~cycle_time:(1.0 /. fc))
          .Delay_assign.t_max
      in
      match Budget_repair.repair env ~budgets:raw ~vdd ~vt with
      | Budget_repair.Repaired { budgets; _ } ->
        let n = Circuit.size core in
        snd (Power_model.size_all env ~vdd ~vt:(Array.make n vt) ~budgets)
      | Budget_repair.Infeasible { limiting_gate } ->
        limiting_gate >= 0
        && limiting_gate < Circuit.size core
        && (Power_model.flat env).Dcopt_netlist.Flat.is_gate.(limiting_gate))

(* ------------------------------------------------------------------ *)
(* Variation and slack sweeps                                          *)

let test_variation_savings_decrease () =
  let _, env, budgets = setup () in
  let baseline = Option.get (Baseline.optimize env ~budgets) in
  let points =
    Variation.savings_curve ~m_steps:8 env ~budgets
      ~baseline_energy:(Solution.total_energy baseline)
      ~tolerances:[| 0.0; 0.15; 0.30 |]
  in
  Alcotest.(check int) "all tolerances solved" 3 (Array.length points);
  Alcotest.(check bool) "monotone decreasing savings" true
    (points.(0).Variation.savings > points.(1).Variation.savings
    && points.(1).Variation.savings > points.(2).Variation.savings)

let test_slack_savings_increase () =
  let core, _, _ = setup () in
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  let points =
    Slack_sweep.sweep ~m_steps:8 ~tech ~fc core profile
      ~factors:[| 1.0; 3.0 |]
  in
  Alcotest.(check int) "both factors solved" 2 (Array.length points);
  Alcotest.(check bool) "more slack, more savings" true
    (points.(1).Slack_sweep.savings > points.(0).Slack_sweep.savings);
  Alcotest.(check bool) "joint vdd falls with slack" true
    (points.(1).Slack_sweep.joint_vdd < points.(0).Slack_sweep.joint_vdd)

let () =
  Alcotest.run "opt"
    [
      ( "power model",
        [
          Alcotest.test_case "rejects sequential" `Quick
            test_env_rejects_sequential;
          Alcotest.test_case "gate ids topological" `Quick
            test_gate_ids_topological;
          Alcotest.test_case "evaluate positive" `Quick
            test_evaluate_energy_positive;
          Alcotest.test_case "vdd scaling" `Quick test_evaluate_vdd_scaling;
          Alcotest.test_case "size gate monotone" `Quick
            test_size_gate_monotone_budget;
          Alcotest.test_case "size all meets cycle" `Quick
            test_size_all_meets_cycle;
          QCheck_alcotest.to_alcotest sizing_implies_cycle_property;
        ] );
      ( "optimizers",
        [
          Alcotest.test_case "heuristic feasible" `Quick
            test_heuristic_finds_feasible;
          Alcotest.test_case "heuristic beats naive" `Quick
            test_heuristic_beats_naive;
          Alcotest.test_case "binary close to grid" `Quick
            test_grid_refine_at_least_as_good;
          Alcotest.test_case "baseline pinned vt" `Quick test_baseline_pinned_vt;
          Alcotest.test_case "paper signatures" `Quick test_paper_signatures;
          Alcotest.test_case "savings vs activity" `Quick
            test_savings_grow_with_activity;
        ] );
      ( "tilos",
        [
          Alcotest.test_case "meets cycle" `Quick test_tilos_sizing_meets_cycle;
          Alcotest.test_case "unreachable" `Quick test_tilos_detects_unreachable;
          Alcotest.test_case "beats budgeted sizing" `Slow
            test_tilos_beats_budgeted_sizing;
        ] );
      ( "annealing and multi-vt",
        [
          Alcotest.test_case "annealing" `Slow test_annealing_feasible_not_better;
          Alcotest.test_case "annealing deterministic" `Quick
            test_annealing_deterministic;
          Alcotest.test_case "dual-vt no worse" `Slow test_multi_vt_no_worse;
          Alcotest.test_case "greedy dual-vt improves" `Quick
            test_greedy_dual_vt_improves;
          Alcotest.test_case "classify" `Quick test_multi_vt_classify;
          Alcotest.test_case "greedy dual-vt = full evaluation" `Quick
            test_greedy_dual_vt_matches_full_evaluation;
        ] );
      ( "budget repair",
        [
          Alcotest.test_case "noop when feasible" `Quick
            test_repair_noop_when_feasible;
          Alcotest.test_case "preserves cycle" `Quick test_repair_preserves_cycle;
          Alcotest.test_case "idempotent" `Quick test_repair_idempotent;
          Alcotest.test_case "detects impossible" `Quick
            test_repair_detects_impossible;
          QCheck_alcotest.to_alcotest repair_sizes_or_names_property;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "variation decreasing" `Slow
            test_variation_savings_decrease;
          Alcotest.test_case "slack increasing" `Slow test_slack_savings_increase;
        ] );
    ]
