module Flow = Dcopt_core.Flow
module Solution = Dcopt_opt.Solution
module Circuit = Dcopt_netlist.Circuit
module Flat_sta = Dcopt_timing.Flat_sta

let critical_delay p delays =
  snd (Flat_sta.forward (Dcopt_opt.Power_model.flat p.Flow.env) ~delays)

let test_prepare_defaults () =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s27") in
  Alcotest.(check bool) "core combinational" true
    (Circuit.is_combinational p.Flow.core);
  Alcotest.(check bool) "first-order engine" false p.Flow.used_exact_activity;
  Alcotest.(check int) "profile covers all nodes" (Circuit.size p.Flow.core)
    (Array.length p.Flow.profile.Dcopt_activity.Activity.densities)

let test_prepare_exact_engine () =
  let config =
    { Flow.default_config with Flow.engine = Flow.Exact_when_small }
  in
  let p = Flow.prepare ~config (Dcopt_suite.Suite.find_exn "s27") in
  Alcotest.(check bool) "exact used on s27" true p.Flow.used_exact_activity

let test_budgets_meet_cycle () =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s298") in
  Alcotest.(check bool) "within skewed cycle" true
    (critical_delay p (Flow.budgets p)
    <= 0.95 /. Flow.default_config.Flow.clock_frequency *. (1.0 +. 1e-9))

let test_repaired_budgets_still_meet_cycle () =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s344") in
  match Flow.repaired_budgets p ~vt:0.7 with
  | None -> Alcotest.fail "s344 repairable"
  | Some budgets ->
    Alcotest.(check bool) "cycle preserved" true
      (critical_delay p budgets
      <= 1.0 /. Flow.default_config.Flow.clock_frequency *. (1.0 +. 1e-6))

let test_end_to_end_s27 () =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s27") in
  let baseline = (Dcopt_core.Optimizer.get "baseline").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p) in
  let joint = (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p) in
  match (baseline, joint) with
  | Some b, Some j ->
    Alcotest.(check bool) "joint cheaper" true
      (Solution.total_energy j < Solution.total_energy b);
    Alcotest.(check bool) "both feasible" true
      (Solution.feasible b && Solution.feasible j)
  | _ -> Alcotest.fail "s27 should be optimizable end to end"

let test_whole_suite_end_to_end () =
  (* the headline reproduction: every Table-1/2 circuit closes both ways *)
  List.iter
    (fun name ->
      let p = Flow.prepare (Dcopt_suite.Suite.find_exn name) in
      match ((Dcopt_core.Optimizer.get "baseline").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p), (Dcopt_core.Optimizer.get "joint-grid").Dcopt_core.Optimizer.run
        (Dcopt_core.Scenario.of_prepared p)) with
      | Some b, Some j ->
        let savings = Solution.savings ~baseline:b j in
        Alcotest.(check bool)
          (Printf.sprintf "%s savings %.1fx > 5" name savings)
          true (savings > 5.0)
      | None, _ -> Alcotest.fail (name ^ ": baseline infeasible")
      | _, None -> Alcotest.fail (name ^ ": joint infeasible"))
    Dcopt_suite.Suite.table_circuits

let test_paper_binary_across_circuits () =
  (* the paper's own Procedure-2 binary search (not the grid reference)
     must close and deliver order-of-magnitude savings on its own *)
  List.iter
    (fun name ->
      let p = Flow.prepare (Dcopt_suite.Suite.find_exn name) in
      match ((Dcopt_core.Optimizer.get "baseline").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p), (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p)) with
      | Some b, Some j ->
        let savings = Solution.savings ~baseline:b j in
        Alcotest.(check bool)
          (Printf.sprintf "%s binary savings %.1fx > 4" name savings)
          true (savings > 4.0)
      | None, _ -> Alcotest.fail (name ^ ": baseline infeasible")
      | _, None -> Alcotest.fail (name ^ ": binary heuristic infeasible"))
    [ "s298"; "s382"; "s444" ]

let contains r needle =
  let len_n = String.length needle and len_r = String.length r in
  let rec scan i =
    i + len_n <= len_r && (String.sub r i len_n = needle || scan (i + 1))
  in
  scan 0

let test_report_contains_key_numbers () =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s27") in
  match (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p) with
  | None -> Alcotest.fail "expected solution"
  | Some sol ->
    let r = Flow.report p sol in
    Alcotest.(check bool) "mentions circuit" true (contains r "s27");
    Alcotest.(check bool) "mentions Vdd" true (contains r "Vdd");
    Alcotest.(check bool) "mentions feasible" true (contains r "feasible")

let test_infeasible_frequency_returns_none () =
  let config = { Flow.default_config with Flow.clock_frequency = 30e9 } in
  let p = Flow.prepare ~config (Dcopt_suite.Suite.find_exn "s298") in
  Alcotest.(check bool) "no joint" true ((Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p) = None);
  Alcotest.(check bool) "no baseline" true ((Dcopt_core.Optimizer.get "baseline").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p) = None)

let test_custom_frequency_feasible () =
  let config = { Flow.default_config with Flow.clock_frequency = 50e6 } in
  let p = Flow.prepare ~config (Dcopt_suite.Suite.find_exn "s298") in
  match (Dcopt_core.Optimizer.get "joint-grid").Dcopt_core.Optimizer.run
        (Dcopt_core.Scenario.of_prepared p) with
  | None -> Alcotest.fail "50 MHz should be easy"
  | Some slow ->
    let p300 = Flow.prepare (Dcopt_suite.Suite.find_exn "s298") in
    (match
       (Dcopt_core.Optimizer.get "joint-grid").Dcopt_core.Optimizer.run
         (Dcopt_core.Scenario.of_prepared p300)
     with
    | None -> Alcotest.fail "300 MHz feasible"
    | Some fast ->
      Alcotest.(check bool) "slower clock, lower energy" true
        (Solution.total_energy slow < Solution.total_energy fast);
      Alcotest.(check bool) "slower clock, lower vdd" true
        (Solution.vdd slow <= Solution.vdd fast))

(* A core without gates is valid input: a netlist of pins only, and a
   DFF-only shift register, whose combinational core has no gates. Every
   builtin must solve it, and its human report must print. *)
let test_gateless_cores () =
  let parse name text =
    match Dcopt_netlist.Bench_format.parse ~name text with
    | Ok c -> c
    | Error _ -> Alcotest.failf "%s does not parse" name
  in
  List.iter
    (fun c ->
      let p = Flow.prepare c in
      Alcotest.(check int) "no gates" 0 (Circuit.gate_count p.Flow.core);
      List.iter
        (fun o ->
          let what =
            Printf.sprintf "%s %s" (Circuit.name c) o.Dcopt_core.Optimizer.name
          in
          let run = o.Dcopt_core.Optimizer.run in
          match run (Dcopt_core.Scenario.of_prepared p) with
          | None -> Alcotest.failf "%s: no solution" what
          | Some sol ->
            Alcotest.(check bool) (what ^ " feasible") true
              (Solution.feasible sol);
            Alcotest.(check bool) (what ^ " report") true
              (contains (Flow.report p sol) "no gates"))
        Dcopt_core.Optimizer.builtins)
    [
      parse "wire" "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(b)\n";
      parse "shift" "INPUT(a)\nOUTPUT(q2)\nq1 = DFF(a)\nq2 = DFF(q1)\n";
    ]

let () =
  Alcotest.run "flow"
    [
      ( "prepare",
        [
          Alcotest.test_case "defaults" `Quick test_prepare_defaults;
          Alcotest.test_case "exact engine" `Quick test_prepare_exact_engine;
          Alcotest.test_case "budgets meet cycle" `Quick test_budgets_meet_cycle;
          Alcotest.test_case "repaired budgets" `Quick
            test_repaired_budgets_still_meet_cycle;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "s27" `Quick test_end_to_end_s27;
          Alcotest.test_case "whole suite" `Slow test_whole_suite_end_to_end;
          Alcotest.test_case "paper binary strategy" `Slow
            test_paper_binary_across_circuits;
          Alcotest.test_case "report" `Quick test_report_contains_key_numbers;
          Alcotest.test_case "gateless cores" `Quick test_gateless_cores;
          Alcotest.test_case "infeasible frequency" `Quick
            test_infeasible_frequency_returns_none;
          Alcotest.test_case "frequency scaling" `Quick
            test_custom_frequency_feasible;
        ] );
    ]
