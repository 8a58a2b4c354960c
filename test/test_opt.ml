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
module Numeric = Dcopt_util.Numeric

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
  let { Power_model.design; meets_budgets = ok; _ } =
    Power_model.size_all env ~vdd:3.3 ~vt:(Array.make n 0.15) ~budgets
  in
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
      let { Power_model.design; meets_budgets = ok; _ } =
        Power_model.size_all env ~vdd ~vt:(Array.make n vt) ~budgets
      in
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
  let naive =
    let vt = Array.make (Circuit.size (Power_model.circuit env)) 0.7 in
    let design, ok = Power_model.size_widths env ~vdd:3.3 ~vt ~budgets in
    Solution.make ~label:"sizing" ~meets_budgets:ok env design
  in
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
      (Solution.vt_values sol env);
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
  let vt = List.hd (Solution.vt_values joint env) in
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
      (List.length (Solution.vt_values dual env) <= 2)

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
    (List.length (Solution.vt_values dual env))

(* The promotion loop with a full Power_model.evaluate per probe: the
   reference for the incremental greedy. *)
let greedy_dual_vt_ref env solution =
  let base = solution.Solution.design in
  let vt_low =
    match Solution.vt_values solution env with v :: _ -> v | [] -> tech.Tech.vt_min
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
      (List.length (Solution.vt_values want env) = 2);
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
    let ok =
      (Power_model.size_all env ~vdd:3.3 ~vt:(Array.make n 0.1) ~budgets)
        .Power_model.meets_budgets
    in
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
        (Power_model.size_all env ~vdd ~vt:(Array.make n vt) ~budgets)
          .Power_model.meets_budgets
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

(* A corner design is the nominal design of one grid point: its
   thresholds are the scanned value itself, and both corners are env
   stress. *)
let test_corner_design_is_nominal () =
  let _, env, budgets = setup () in
  let bits = Int64.bits_of_float in
  let same what a b =
    if bits a <> bits b then Alcotest.failf "%s: %h <> %h" what a b
  in
  List.iter
    (fun tolerance ->
      let sol =
        match Variation.corner_optimize ~m_steps:8 env ~budgets ~tolerance with
        | Some sol -> sol
        | None -> Alcotest.failf "tolerance %g: no corner design" tolerance
      in
      let d = sol.Solution.design in
      (* every value the coarse grid or a refine window centred on a
         coarse point can scan *)
      let n = 8 in
      let lo = tech.Tech.vt_min
      and hi = tech.Tech.vt_max /. (1.0 +. tolerance) in
      let coarse = Numeric.linspace ~lo ~hi ~n in
      let span = (hi -. lo) /. float_of_int n in
      let grid =
        Array.to_list coarse
        @ List.concat_map
            (fun c ->
              Array.to_list
                (Numeric.linspace
                   ~lo:(Numeric.clamp ~lo ~hi (c -. span))
                   ~hi:(Numeric.clamp ~lo ~hi (c +. span))
                   ~n))
            (Array.to_list coarse)
      in
      let vt = d.Power_model.vt.((Power_model.gate_ids env).(0)) in
      Array.iter
        (fun id -> same "one threshold" vt d.Power_model.vt.(id))
        (Power_model.gate_ids env);
      Alcotest.(check bool)
        (Printf.sprintf "tolerance %g: threshold %h is a grid value" tolerance
           vt)
        true
        (List.exists (fun g -> bits g = bits vt) grid);
      let leaky = Power_model.with_vt_stress env (1.0 -. tolerance) in
      let e = Power_model.evaluate leaky d in
      let got = sol.Solution.evaluation in
      same "total energy" e.Power_model.total_energy got.Power_model.total_energy;
      same "static energy" e.Power_model.static_energy
        got.Power_model.static_energy;
      same "dynamic energy" e.Power_model.dynamic_energy
        got.Power_model.dynamic_energy;
      same "critical delay" e.Power_model.critical_delay
        got.Power_model.critical_delay;
      Alcotest.(check bool) "feasible" e.Power_model.feasible
        got.Power_model.feasible;
      let slow = Power_model.with_vt_stress env (1.0 +. tolerance) in
      let resized, ok =
        Power_model.size_widths slow ~vdd:d.Power_model.vdd
          ~vt:d.Power_model.vt ~budgets
      in
      Alcotest.(check bool) "slow corner meets the budgets" true ok;
      Array.iter
        (fun id ->
          same "width" resized.Power_model.widths.(id)
            d.Power_model.widths.(id))
        (Power_model.gate_ids env))
    [ 0.0; 0.1; 0.25 ]

(* ------------------------------------------------------------------ *)
(* One-pass trials: a Procedure-2 trial is one size_all sweep, whose
   verdict and energies must be evaluate's whenever certify_sweep holds *)

module Drive = Dcopt_device.Drive
module Telemetry = Dcopt_obs.Telemetry
module Metrics = Dcopt_obs.Metrics
module Constraints = Dcopt_timing.Constraints

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_same_bits what a b =
  if not (same_bits a b) then Alcotest.failf "%s: %h <> %h" what a b

(* The proof's first step: with slope in [0, 0.9], a gate is never faster
   behind slower fanins, including where it cannot switch (vt >= vdd). *)
let gate_delay_monotone_property =
  let s298 = lazy (setup ()) in
  let vdds = [ 0.3; 0.45; 0.6; 0.9; 1.2; 1.8; 3.3 ] in
  let vts = [ 0.1; 0.2; 0.3; 0.45; 0.7; 1.0; 2.0; 3.3 ] in
  let widths = [ tech.Tech.w_min; 1.0; 4.0; 16.0; tech.Tech.w_max ] in
  QCheck.Test.make ~name:"gate delay non-decreasing in the fanin delay"
    ~count:400
    QCheck.(
      pair
        (triple (oneofl vdds) (oneofl vts) (oneofl widths))
        (triple (int_bound 10_000) (float_bound_inclusive 5e-9)
           (float_bound_inclusive 5e-9)))
    (fun ((vdd, vt, w), (pick, a, b)) ->
      let _, env, _ = Lazy.force s298 in
      let gates = Power_model.gate_ids env in
      let id = gates.(pick mod Array.length gates) in
      let design = Power_model.uniform_design env ~vdd ~vt ~w in
      let ctx = Drive.make tech ~vdd ~vt in
      let delay max_fanin_delay =
        Drive.gate_delay
          (Power_model.gate env ctx design ~max_fanin_delay id)
          ~w
      in
      delay (Float.min a b) <= delay (Float.max a b))

let dag ~seed ~gates =
  Dcopt_netlist.Generator.(random_dag (default_dag ~seed ~gates ()))

(* an input delay and a tightened output, as an SDC file would give *)
let sdc_constraints core ~fc =
  let name id = (Circuit.node core id).Circuit.name in
  let tc = 1.0 /. fc in
  let io port d = { Constraints.port = name port; io_clock = None; io_delay = d } in
  {
    (Constraints.of_cycle_time tc) with
    Constraints.output_delays = [ io (Circuit.outputs core).(0) (0.05 *. tc) ];
    input_delays = [ io (Circuit.inputs core).(0) (0.02 *. tc) ];
  }

let env_at ?constraints ?(short_circuit = false) core ~fc =
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  Power_model.make_env ?constraints ~include_short_circuit:short_circuit ~tech
    ~fc core (Activity.local_profile core specs)

(* Procedure-1 budgets, repaired at the fast corner as the flow does. *)
let budgets_of env core ~fc =
  let raw =
    (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max
  in
  match
    Budget_repair.repair env ~budgets:raw ~vdd:tech.Tech.vdd_max
      ~vt:tech.Tech.vt_min
  with
  | Budget_repair.Repaired { budgets; _ } -> budgets
  | Budget_repair.Infeasible _ -> raw

(* A gate no primary output depends on: sinks that are not outputs. *)
let dead_sink core =
  Array.find_opt
    (fun nd ->
      let id = nd.Circuit.id in
      nd.Circuit.kind <> Gate.Input
      && Array.length (Circuit.fanouts core id) = 0
      && not (Circuit.is_output core id))
    (Circuit.nodes core)
  |> Option.map (fun nd -> nd.Circuit.id)

(* With the certificate, a sweep that met its budgets has evaluate's
   verdict, and its sums are evaluate's. [poison] gives a dead gate an
   infinite budget and a threshold at which it cannot switch: it meets
   that budget, yet its delay trips the evaluation. *)
let sweep_agrees env core ~budgets ~vdd ~vt ~poison =
  let n = Circuit.size core in
  let budgets = Array.copy budgets in
  let vts = Array.make n vt in
  (if poison then
     match dead_sink core with
     | Some id ->
       budgets.(id) <- infinity;
       vts.(id) <- 3.3
     | None -> ());
  let s = Power_model.size_all env ~vdd ~vt:vts ~budgets in
  match Power_model.certify_sweep env ~budgets with
  | Error _ -> true
  | Ok () ->
    let e = Power_model.evaluate env s.Power_model.design in
    same_bits s.Power_model.static_sum e.Power_model.static_energy
    && same_bits s.Power_model.dynamic_sum e.Power_model.dynamic_energy
    && ((not s.Power_model.meets_budgets)
       || Bool.equal s.Power_model.unclamped e.Power_model.feasible)

let certified_sweep_property =
  let points = [ (1.0, 0.15); (0.6, 0.25); (0.45, 0.1); (1.8, 0.3); (3.3, 0.7) ] in
  QCheck.Test.make ~name:"a certified sweep has evaluate's verdict" ~count:80
    QCheck.(
      pair
        (pair (int_range 30 60) (int_bound 100_000))
        (triple (oneofl points) (oneofl [ 100e6; 300e6; 1e9 ])
           (pair bool bool)))
    (fun ((gates, seed), ((vdd, vt), fc, (sdc, poison))) ->
      let core = dag ~seed:(Int64.of_int seed) ~gates in
      let constraints = if sdc then Some (sdc_constraints core ~fc) else None in
      let env = env_at ?constraints core ~fc in
      sweep_agrees env core ~budgets:(budgets_of env core ~fc) ~vdd ~vt ~poison)

(* Seeded DAGs at every point of a grid, scalar and SDC, clean and
   poisoned: the property above, exhaustively, and not vacuously. *)
let test_certified_sweep_dags () =
  let certified = ref 0 in
  List.iter
    (fun seed ->
      let core = dag ~seed ~gates:300 in
      List.iter
        (fun sdc ->
          let fc = 60e6 in
          let constraints = if sdc then Some (sdc_constraints core ~fc) else None in
          let env = env_at ?constraints core ~fc in
          let budgets = budgets_of env core ~fc in
          if Result.is_ok (Power_model.certify_sweep env ~budgets) then
            incr certified;
          List.iter
            (fun (vdd, vt) ->
              List.iter
                (fun poison ->
                  if not (sweep_agrees env core ~budgets ~vdd ~vt ~poison) then
                    Alcotest.failf "seed %Ld sdc=%b vdd=%g vt=%g poison=%b"
                      seed sdc vdd vt poison)
                [ false; true ])
            [ (0.5, 0.15); (0.7, 0.2); (0.9, 0.25); (1.2, 0.3); (3.3, 0.1) ])
        [ false; true ])
    [ 1L; 2L; 3L ];
  Alcotest.(check bool) "some budget sets certified" true (!certified > 0)

(* Why the certificate asks for finite budgets: a dead gate with an
   infinite budget meets it at a threshold where it cannot switch, and
   the budgets' arrivals still pass, yet evaluate trips on its delay. *)
let test_infinite_budget_voids_certificate () =
  let fc = 60e6 in
  let core = dag ~seed:1L ~gates:300 in
  let env = env_at core ~fc in
  let budgets = budgets_of env core ~fc in
  let id = Option.get (dead_sink core) in
  Alcotest.(check bool) "clean budgets certified" true
    (Result.is_ok (Power_model.certify_sweep env ~budgets));
  budgets.(id) <- infinity;
  let vt = Array.make (Circuit.size core) 0.2 in
  vt.(id) <- 3.3;
  let s = Power_model.size_all env ~vdd:1.0 ~vt ~budgets in
  Alcotest.(check bool) "the sweep meets every budget" true
    (s.Power_model.meets_budgets && s.Power_model.unclamped);
  Alcotest.(check bool) "evaluate trips" false
    (Power_model.evaluate env s.Power_model.design).Power_model.feasible;
  Alcotest.(check bool) "the certificate declines" true
    (Result.is_error (Power_model.certify_sweep env ~budgets))

(* The certificate's arrivals start from the SDC input delays, as
   evaluate's do: on one budget set, an input delay that fits in the
   budgets' slack certifies, one that does not declines, and each verdict
   is the one a hand-folded max-plus pass over the budgets gives. *)
let test_certificate_reads_input_delays () =
  let fc = 60e6 in
  let tc = 1.0 /. fc in
  let core = dag ~seed:2L ~gates:300 in
  let budgets =
    Array.map (fun b -> 0.8 *. b) (budgets_of (env_at core ~fc) core ~fc)
  in
  let verdict delay =
    let io id =
      { Constraints.port = (Circuit.node core id).Circuit.name;
        io_clock = None; io_delay = delay }
    in
    let constraints =
      {
        (Constraints.of_cycle_time tc) with
        Constraints.input_delays =
          Array.to_list (Array.map io (Circuit.inputs core));
      }
    in
    let env = env_at ~constraints core ~fc in
    let arrival =
      match Power_model.arrival_offsets env with
      | Some seeds -> Array.copy seeds
      | None -> Alcotest.fail "input delays give no arrival seeds"
    in
    Array.iter
      (fun id ->
        let worst =
          Array.fold_left
            (fun acc fi -> Float.max acc arrival.(fi))
            0.0 (Circuit.node core id).Circuit.fanins
        in
        arrival.(id) <- worst +. budgets.(id))
      (Power_model.gate_ids env);
    let critical_delay =
      Array.fold_left
        (fun acc id -> Float.max acc arrival.(id))
        0.0 (Circuit.outputs core)
    in
    let certified = Result.is_ok (Power_model.certify_sweep env ~budgets) in
    Alcotest.(check bool)
      (Printf.sprintf "input delay %g s: the hand-folded verdict" delay)
      (Power_model.arrivals_feasible env ~critical_delay arrival)
      certified;
    certified
  in
  Alcotest.(check bool) "an input delay inside the slack certifies" true
    (verdict (0.05 *. tc));
  Alcotest.(check bool) "an input delay past the slack declines" false
    (verdict (0.3 *. tc))

let records run =
  let got = ref [] in
  let result = run (fun (it : Telemetry.iteration) -> got := it :: !got) in
  (result, List.rev !got)

(* A trial the old way: size_all, then a full evaluation. *)
let rederive env ~budgets ~vdd ~vt =
  let s = Power_model.size_all env ~vdd ~vt ~budgets in
  let e = Power_model.evaluate env s.Power_model.design in
  (s, e, s.Power_model.meets_budgets && e.Power_model.feasible)

let check_record ~what (it : Telemetry.iteration) e ok =
  let what = Printf.sprintf "%s #%d" what it.Telemetry.index in
  check_same_bits (what ^ " static") e.Power_model.static_energy
    it.Telemetry.static_energy;
  check_same_bits (what ^ " dynamic") e.Power_model.dynamic_energy
    it.Telemetry.dynamic_energy;
  check_same_bits (what ^ " total") e.Power_model.total_energy
    it.Telemetry.total_energy;
  Alcotest.(check bool) (what ^ " verdict") ok it.Telemetry.feasible

let json sol = Dcopt_util.Json.to_string (Solution.to_json sol)

let check_solution ~what want got =
  match (want, got) with
  | None, None -> ()
  | Some w, Some g -> Alcotest.(check string) (what ^ " solution") (json w) (json g)
  | Some _, None -> Alcotest.failf "%s: expected a solution" what
  | None, Some _ -> Alcotest.failf "%s: expected none" what

(* Re-derive every record of a uniform-threshold search, and return
   Solution.make on its earliest feasible record of minimal energy. With
   [timing_only], a record whose design meets timing but misses a budget
   counts too: the binary search at a fixed threshold keeps every trial
   its evaluation calls feasible. *)
let replay_uniform ?(timing_only = false) ~what ~label env ~budgets recs =
  let n = Circuit.size (Power_model.circuit env) in
  let best = ref None in
  List.iter
    (fun (it : Telemetry.iteration) ->
      let s, e, ok =
        rederive env ~budgets ~vdd:it.Telemetry.vdd
          ~vt:(Array.make n it.Telemetry.vt)
      in
      check_record ~what it e ok;
      let counts = if timing_only then e.Power_model.feasible else ok in
      match !best with
      | Some (_, b) when not (counts && e.Power_model.total_energy < b) -> ()
      | None when not counts -> ()
      | _ -> best := Some (s, e.Power_model.total_energy))
    recs;
  Option.map
    (fun (s, _) ->
      Solution.make ~label ~meets_budgets:s.Power_model.meets_budgets env
        s.Power_model.design)
    !best

let evaluations = Metrics.counter "search.evaluations"

let check_heuristic_replay ?vt_fixed ~what ~strategy env ~budgets =
  let options = { Heuristic.default_options with strategy; vt_fixed } in
  let before = Metrics.value evaluations in
  let got, recs =
    records (fun observer -> Heuristic.optimize ~observer ~options env ~budgets)
  in
  let paid = Metrics.value evaluations - before in
  let timing_only = vt_fixed <> None && strategy = Heuristic.Paper_binary in
  check_solution ~what
    (replay_uniform ~timing_only ~what ~label:"joint" env ~budgets recs)
    got;
  (got, recs, paid)

(* Multi_vt's class descent before it took trials from the sweep: every
   class-threshold point sized and fully evaluated. Returns its records
   (vdd, vt, evaluation, verdict) and the solution it would return. *)
let multi_vt_reference env ~budgets ~incumbent =
  let n = Circuit.size (Power_model.circuit env) in
  let assignment = Multi_vt.classify env ~budgets ~classes:2 in
  let vdd0 = Solution.vdd incumbent in
  let vt0 = List.hd (Solution.vt_values incumbent env) in
  let class_vts = [| vt0; vt0 |] in
  let best = ref { incumbent with Solution.label = "multi-vt" } in
  let out = ref [] in
  let try_design vdd =
    let vt = Array.init n (fun id -> class_vts.(assignment.(id))) in
    let s, e, ok = rederive env ~budgets ~vdd ~vt in
    out := (vdd, Float.min class_vts.(0) class_vts.(1), e, ok) :: !out;
    if ok && e.Power_model.total_energy < Solution.total_energy !best then
      best :=
        Solution.of_evaluation ~label:"multi-vt"
          ~meets_budgets:s.Power_model.meets_budgets s.Power_model.design e;
    (s, e)
  in
  for _ = 1 to 2 do
    for c = 0 to 1 do
      let keep = class_vts.(c) in
      let best_for_class = ref (keep, infinity) in
      Array.iter
        (fun vt ->
          class_vts.(c) <- vt;
          let s, e = try_design vdd0 in
          if s.Power_model.meets_budgets
             && e.Power_model.total_energy < snd !best_for_class
          then best_for_class := (vt, e.Power_model.total_energy))
        (Numeric.linspace ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max ~n:9);
      class_vts.(c) <- fst !best_for_class
    done
  done;
  let c = Numeric.clamp ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max in
  Array.iter
    (fun vdd -> ignore (try_design vdd))
    (Numeric.linspace ~lo:(c (vdd0 *. 0.85)) ~hi:(c (vdd0 *. 1.15)) ~n:5);
  let greedy = Multi_vt.greedy_dual_vt env incumbent in
  if Solution.feasible greedy
     && Solution.total_energy greedy < Solution.total_energy !best
  then best := { greedy with Solution.label = "multi-vt" };
  (List.rev !out, !best)

let check_multi_vt_replay ~what env ~budgets =
  let got, recs =
    records (fun observer -> Multi_vt.optimize ~observer env ~budgets)
  in
  let inner, inner_recs =
    records (fun observer ->
        Heuristic.optimize ~observer
          ~options:
            { Heuristic.default_options with m_steps = 12;
              strategy = Heuristic.Grid_refine }
          env ~budgets)
  in
  check_solution ~what:(what ^ " single-vt")
    (replay_uniform ~what ~label:"joint" env ~budgets inner_recs)
    inner;
  (* the single-threshold search's records come first, relabelled *)
  let recs = Array.of_list recs in
  let k = List.length inner_recs in
  List.iteri
    (fun i (it : Telemetry.iteration) ->
      let r = recs.(i) in
      if not
           (same_bits it.Telemetry.vdd r.Telemetry.vdd
           && same_bits it.Telemetry.vt r.Telemetry.vt
           && same_bits it.Telemetry.static_energy r.Telemetry.static_energy
           && same_bits it.Telemetry.dynamic_energy r.Telemetry.dynamic_energy
           && same_bits it.Telemetry.total_energy r.Telemetry.total_energy
           && Bool.equal it.Telemetry.feasible r.Telemetry.feasible)
      then Alcotest.failf "%s: record %d differs from the single-vt search" what i)
    inner_recs;
  match inner with
  | None ->
    Alcotest.(check int) (what ^ " records") k (Array.length recs);
    check_solution ~what None got
  | Some incumbent ->
    let descent, want = multi_vt_reference env ~budgets ~incumbent in
    List.iteri
      (fun i (vdd, vt, e, ok) ->
        let it = recs.(k + i) in
        check_same_bits (what ^ " descent vdd") vdd it.Telemetry.vdd;
        check_same_bits (what ^ " descent vt") vt it.Telemetry.vt;
        check_record ~what it e ok)
      descent;
    check_solution ~what (Some want) got

(* (name, core, clocks): every suite core and two seeded DAGs *)
let replay_inputs () =
  List.map
    (fun (name, c) ->
      (name, Circuit.combinational_core c, [ 150e6; 300e6; 450e6 ]))
    (Dcopt_suite.Suite.all ())
  @ [
      ("dag300/1", dag ~seed:1L ~gates:300, [ 30e6; 60e6; 120e6 ]);
      ("dag300/2", dag ~seed:2L ~gates:300, [ 30e6; 60e6; 120e6 ]);
    ]

let test_replay_oracle () =
  let one_pass_runs = ref 0 in
  List.iter
    (fun (name, core, clocks) ->
      List.iter
        (fun fc ->
          let env = env_at core ~fc in
          let budgets = budgets_of env core ~fc in
          let certified = Result.is_ok (Power_model.certify_sweep env ~budgets) in
          List.iter
            (fun (sname, strategy) ->
              let what = Printf.sprintf "%s %.0f MHz %s" name (fc /. 1e6) sname in
              let got, _, paid = check_heuristic_replay ~what ~strategy env ~budgets in
              if certified then begin
                incr one_pass_runs;
                Alcotest.(check int) (what ^ " evaluations")
                  (if got = None then 0 else 1) paid
              end)
            [ ("binary", Heuristic.Paper_binary); ("grid", Heuristic.Grid_refine) ];
          check_multi_vt_replay
            ~what:(Printf.sprintf "%s %.0f MHz multi-vt" name (fc /. 1e6))
            env ~budgets)
        clocks)
    (replay_inputs ());
  Alcotest.(check bool) "runs took one pass" true (!one_pass_runs > 0)

(* Where the certificate declines, every trial is evaluated, and the
   stream and the result still replay: with the short-circuit term,
   whose energy reads achieved input transitions, and with every budget
   stretched 1.2x past what the cycle allows. *)
let test_fallback_replays () =
  List.iter
    (fun (name, fc) ->
      let core = Circuit.combinational_core (Dcopt_suite.Suite.find_exn name) in
      let plain = env_at core ~fc in
      let budgets = budgets_of plain core ~fc in
      List.iter
        (fun (label, env, budgets) ->
          Alcotest.(check bool) (label ^ " declined") true
            (Result.is_error (Power_model.certify_sweep env ~budgets));
          List.iter
            (fun strategy ->
              let what = Printf.sprintf "%s %s" name label in
              let _, recs, paid =
                check_heuristic_replay ~what ~strategy env ~budgets
              in
              Alcotest.(check bool) (what ^ " evaluates every trial") true
                (paid >= List.length recs))
            [ Heuristic.Paper_binary; Heuristic.Grid_refine ];
          check_multi_vt_replay ~what:(name ^ " " ^ label ^ " multi-vt") env
            ~budgets)
        [
          ("short-circuit", env_at ~short_circuit:true core ~fc, budgets);
          ("budgets x1.2", plain, Array.map (fun b -> 1.2 *. b) budgets);
        ])
    [ ("s298", 300e6); ("s344", 150e6) ]

(* A pinned threshold, as Baseline runs the search, under both
   strategies: the binary search then asks the evaluation about trials
   that missed a budget, and only about those that would win. *)
let test_fixed_threshold_replays () =
  List.iter
    (fun (name, core, fc) ->
      let env = env_at core ~fc in
      let budgets = budgets_of env core ~fc in
      let certified = Result.is_ok (Power_model.certify_sweep env ~budgets) in
      List.iter
        (fun (vt, (sname, strategy)) ->
          let what = Printf.sprintf "%s vt=%g %s" name vt sname in
          let _, recs, paid =
            check_heuristic_replay ~vt_fixed:vt ~what ~strategy env ~budgets
          in
          if certified then
            Alcotest.(check bool) (what ^ " pays less than every trial") true
              (paid < List.length recs))
        (List.concat_map
           (fun vt ->
             [ (vt, ("binary", Heuristic.Paper_binary));
               (vt, ("grid", Heuristic.Grid_refine)) ])
           [ 0.15; 0.7 ]))
    [
      ("s298", Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s298"), 300e6);
      ("s1488", Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s1488"), 150e6);
      ("dag300/1", dag ~seed:1L ~gates:300, 60e6);
    ]

(* vt_values lists gate thresholds only: annealing moves the gates'
   threshold and leaves the inputs' entries at the start value. *)
let test_vt_values_gates_only () =
  let _, env, _ = setup () in
  match Annealing.optimize env with
  | None -> Alcotest.fail "annealing should solve s298"
  | Some sol ->
    Alcotest.(check int) "one threshold" 1
      (List.length (Solution.vt_values sol env))

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
      ( "one-pass trial",
        [
          QCheck_alcotest.to_alcotest gate_delay_monotone_property;
          QCheck_alcotest.to_alcotest certified_sweep_property;
          Alcotest.test_case "certified sweep on DAGs" `Quick
            test_certified_sweep_dags;
          Alcotest.test_case "infinite budget voids certificate" `Quick
            test_infinite_budget_voids_certificate;
          Alcotest.test_case "certificate reads input delays" `Quick
            test_certificate_reads_input_delays;
          Alcotest.test_case "replay oracle" `Quick test_replay_oracle;
          Alcotest.test_case "fallback replays" `Quick test_fallback_replays;
          Alcotest.test_case "fixed threshold replays" `Quick
            test_fixed_threshold_replays;
          Alcotest.test_case "vt values read gates only" `Quick
            test_vt_values_gates_only;
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
          Alcotest.test_case "corner design is nominal" `Quick
            test_corner_design_is_nominal;
        ] );
    ]
