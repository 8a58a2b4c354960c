(* Tests for the constraint front door: the SDC-lite recovering parser
   (golden diagnostics — every injected error comes back located), the
   Constraints projection onto per-endpoint required times, and the
   bit-identity differentials that anchor the compatibility story:
   a uniform constraint seed must match the legacy scalar-target STA
   float for float, and the scalar compatibility set must leave
   Delay_assign / Flow.prepare untouched. *)

module Constraints = Dcopt_timing.Constraints
module Sdc = Dcopt_timing.Sdc
module Flat_sta = Dcopt_timing.Flat_sta
module Delay_assign = Dcopt_timing.Delay_assign
module Diag = Dcopt_util.Diag
module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Flow = Dcopt_core.Flow
module Scenario = Dcopt_core.Scenario
module Power_model = Dcopt_opt.Power_model

let ns = 1e-9

let float_bits =
  Alcotest.testable
    (fun fmt v -> Format.fprintf fmt "%h" v)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let check_array_bits what expect got =
  Alcotest.(check (array float_bits)) what expect got

(* --- parsing ----------------------------------------------------------- *)

let good_sdc =
  String.concat "\n"
    [
      "# two clocks, the slower one explicit on a port";
      "create_clock -period 3.2 -name clk_fast [get_ports {G0 G1}]";
      "create_clock -period 6.4 \\";
      "  -waveform {0 3.2} G2  # continuation joins here";
      "set_max_delay 2.5 -to [get_ports G17]";
      "set_max_delay 5.0";
      "set_false_path -from G3 -to G17";
      "set_input_delay 0.4 -clock clk_fast [get_ports {G0 G1}]";
      "set_output_delay 0.2 -clock clk_fast G17";
      "set_units -time ns  # recognised but unmodelled: warning only";
    ]

let test_good_parse () =
  match Sdc.parse ~file:"good.sdc" good_sdc with
  | Error diags -> Alcotest.fail (Diag.render diags)
  | Ok (t, warnings) ->
    (* the one unmodelled command comes back with the result, located *)
    Alcotest.(check (list (pair string (option int))))
      "warnings" [ ("sdc.unsupported", Some 10) ]
      (List.map (fun d -> (d.Diag.code, d.Diag.line)) warnings);
    Alcotest.(check bool) "warnings are not errors" false
      (Diag.has_errors warnings);
    Alcotest.(check int) "clocks" 2 (List.length t.Constraints.clocks);
    let fast = List.hd t.Constraints.clocks in
    Alcotest.(check string) "first clock named" "clk_fast"
      fast.Constraints.clock_name;
    Alcotest.check float_bits "ns conversion" (3.2 *. ns)
      fast.Constraints.period;
    Alcotest.(check (list string)) "sources collected" [ "G0"; "G1" ]
      fast.Constraints.sources;
    let slow = List.nth t.Constraints.clocks 1 in
    Alcotest.(check string) "clock named by source port" "G2"
      slow.Constraints.clock_name;
    Alcotest.(check bool) "waveform kept" true
      (slow.Constraints.waveform = Some (0.0, 3.2 *. ns));
    Alcotest.(check (option float_bits)) "default period is the tightest"
      (Some (3.2 *. ns))
      (Constraints.default_period t);
    (* the named-endpoint 2.5 ns rule does not bound the whole budget;
       the endpoint-blind 5 ns rule is looser than the fast clock *)
    Alcotest.check float_bits "tightest cycle time" (3.2 *. ns)
      (Constraints.tightest_cycle_time t ~default:1.0);
    Alcotest.(check int) "max delays" 2 (List.length t.Constraints.max_delays);
    Alcotest.(check int) "false paths" 1
      (List.length t.Constraints.false_paths);
    Alcotest.(check int) "input delays fan out per port" 2
      (List.length t.Constraints.input_delays);
    Alcotest.(check int) "output delays" 1
      (List.length t.Constraints.output_delays)

(* Ignored commands are warnings that change nothing: set_load and a
   set_min_delay (validated, not modelled) beside a clock give the same
   constraint set and the same joint solution as the clock alone. *)
let test_ignored_commands_warn () =
  let circuit = Dcopt_suite.Suite.s27 () in
  let clock_only = "create_clock -period 5 -name clk\n" in
  let noisy =
    clock_only ^ "set_load 0.01 G17\nset_min_delay 4.9 -to [get_ports G17]\n"
  in
  let parse text =
    match Sdc.parse ~file:"w.sdc" ~circuit text with
    | Ok r -> r
    | Error diags -> Alcotest.fail (Diag.render diags)
  in
  let plain, none = parse clock_only in
  let constraints, warnings = parse noisy in
  Alcotest.(check int) "a clean file warns of nothing" 0 (List.length none);
  Alcotest.(check (list string))
    "two located warnings"
    [
      "w.sdc:2: warning[sdc.unsupported]: command \"set_load\" is ignored";
      "w.sdc:3: warning[sdc.unsupported]: command \"set_min_delay\" is \
       ignored";
    ]
    (List.map Diag.to_string warnings);
  Alcotest.(check bool) "same constraint set" true (plain = constraints);
  let solve constraints =
    let config =
      { Flow.default_config with Flow.clock_frequency = 1.0 /. (5.0 *. ns) }
    in
    let p = Flow.prepare ~config ~constraints circuit in
    match
      (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
        (Scenario.of_prepared p)
    with
    | Some sol -> Dcopt_util.Json.to_string (Dcopt_opt.Solution.to_json sol)
    | None -> Alcotest.fail "joint should close on s27 at 5 ns"
  in
  Alcotest.(check string) "same solution" (solve plain) (solve constraints)

let golden_sdc =
  String.concat "\n"
    [
      "create_clock -period 3.2 -name clk_fast [get_ports G0]";
      "create_clock -period 0 -name broken";
      "set_max_delay 2.5 -to [get_ports G17]";
      "frob_widget all";
      "set_output_delay 0.2 -clock phantom G17";
    ]

let test_golden_diagnostics () =
  (* three injected faults -> exactly three located errors, parse
     recovers across every one of them *)
  match Sdc.parse ~file:"golden.sdc" golden_sdc with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error diags ->
    let errs = Diag.errors diags in
    Alcotest.(check int) "exactly three errors" 3 (List.length errs);
    Alcotest.(check (list (pair string (option int))))
      "codes and lines"
      [
        ("sdc.range", Some 2); ("sdc.command", Some 4); ("sdc.clock", Some 5);
      ]
      (List.map (fun d -> (d.Diag.code, d.Diag.line)) errs);
    List.iter
      (fun d ->
        Alcotest.(check (option string)) "file stamped" (Some "golden.sdc")
          d.Diag.file)
      errs;
    let rendered = List.map Diag.to_string errs in
    Alcotest.(check string) "classic rendering"
      "golden.sdc:2: error[sdc.range]: create_clock: period must be > 0 (got 0)"
      (List.hd rendered);
    Alcotest.(check string) "unknown command named"
      "golden.sdc:4: error[sdc.command]: unknown command \"frob_widget\""
      (List.nth rendered 1);
    Alcotest.(check string) "unresolved clock named"
      "golden.sdc:5: error[sdc.clock]: unknown clock \"phantom\""
      (List.nth rendered 2)

(* float_of_string_opt reads nan/inf/-inf; each must come back as a
   located sdc.range error on a delay, a max-delay and a period. *)
let non_finite_sdc =
  String.concat "\n"
    [
      "create_clock -period 3.2 -name clk";
      "set_input_delay nan -clock clk G0";
      "set_output_delay inf G17";
      "set_input_delay -inf G1";
      "set_max_delay nan";
      "set_max_delay inf -to G17";
      "set_min_delay -inf";
      "create_clock -period nan -name c_nan";
      "create_clock -period inf -name c_inf";
      "create_clock -period -inf -name c_ninf";
      "create_clock -period 6.4 -waveform {0 inf} -name c_wave";
    ]

let test_non_finite_rejected () =
  match Sdc.parse ~file:"nonfinite.sdc" non_finite_sdc with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error diags ->
    Alcotest.(check (list string))
      "located range errors"
      [
        "nonfinite.sdc:2: error[sdc.range]: set_input_delay: delay must be \
         finite (got nan)";
        "nonfinite.sdc:3: error[sdc.range]: set_output_delay: delay must be \
         finite (got inf)";
        "nonfinite.sdc:4: error[sdc.range]: set_input_delay: delay must be \
         finite (got -inf)";
        "nonfinite.sdc:5: error[sdc.range]: set_max_delay: bound must be \
         finite (got nan)";
        "nonfinite.sdc:6: error[sdc.range]: set_max_delay: bound must be \
         finite (got inf)";
        "nonfinite.sdc:7: error[sdc.range]: set_min_delay: bound must be \
         finite (got -inf)";
        "nonfinite.sdc:8: error[sdc.range]: create_clock: period must be \
         finite (got nan)";
        "nonfinite.sdc:9: error[sdc.range]: create_clock: period must be \
         finite (got inf)";
        "nonfinite.sdc:10: error[sdc.range]: create_clock: period must be \
         finite (got -inf)";
        "nonfinite.sdc:11: error[sdc.range]: create_clock: -waveform edges \
         must be finite";
      ]
      (List.map Diag.to_string diags)

let test_port_crosscheck () =
  (* with the circuit in hand, a misspelled port is a located sdc.port *)
  let circuit = Dcopt_suite.Suite.s27 () in
  let text = "create_clock -period 3.2 -name clk [get_ports {G0 NOPE}]" in
  (match Sdc.parse ~file:"ports.sdc" ~circuit text with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error diags ->
    let errs = Diag.errors diags in
    Alcotest.(check int) "one error" 1 (List.length errs);
    let d = List.hd errs in
    Alcotest.(check string) "code" "sdc.port" d.Diag.code;
    Alcotest.(check (option int)) "line" (Some 1) d.Diag.line);
  (* without the circuit the same file parses clean *)
  match Sdc.parse ~file:"ports.sdc" text with
  | Ok (_, []) -> ()
  | Ok (_, warnings) -> Alcotest.fail (Diag.render warnings)
  | Error diags -> Alcotest.fail (Diag.render diags)

(* --- per-endpoint projection ------------------------------------------- *)

let test_required_times_projection () =
  let circuit = Dcopt_suite.Suite.s27 () in
  let core = Circuit.combinational_core circuit in
  let g17 = Circuit.find core "G17" in
  let base = Constraints.of_cycle_time (10.0 *. ns) in
  (* a named max-delay rule tightens exactly its endpoint *)
  let tightened =
    {
      base with
      Constraints.max_delays =
        [ { Constraints.rule_from = []; rule_to = [ "G17" ]; bound = 5.0 *. ns } ];
    }
  in
  let req = Constraints.required_times tightened ~default:1.0 core in
  Alcotest.check float_bits "named endpoint tightened" (5.0 *. ns) req.(g17);
  Array.iter
    (fun id ->
      if id <> g17 then
        Alcotest.check float_bits "other outputs keep the clock budget"
          (10.0 *. ns) req.(id))
    (Circuit.outputs core);
  (* a false path releases its endpoint entirely *)
  let released =
    {
      base with
      Constraints.false_paths =
        [ { Constraints.exc_from = []; exc_to = [ "G17" ] } ];
    }
  in
  let req = Constraints.required_times released ~default:1.0 core in
  Alcotest.check float_bits "false path releases" infinity req.(g17);
  (* output delay eats into the capture budget *)
  let io =
    {
      base with
      Constraints.output_delays =
        [ { Constraints.port = "G17"; io_clock = None; io_delay = 2.0 *. ns } ];
    }
  in
  let req = Constraints.required_times io ~default:1.0 core in
  Alcotest.check float_bits "output delay subtracted"
    ((10.0 -. 2.0) *. ns)
    req.(g17)

(* --- bit-identity differentials ---------------------------------------- *)

let prepared_core name =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn name) in
  (p, p.Flow.core, Flow.budgets p)

let test_sta_uniform_seed_bit_identical () =
  let _, core, delays = prepared_core "s298" in
  let tc = 1.0 /. Flow.default_config.Flow.clock_frequency in
  let scalar = Sta_ref.analyze ~required_time:tc core ~delays in
  let req =
    Constraints.required_times (Constraints.of_cycle_time tc) ~default:tc core
  in
  let seeded = Sta_ref.analyze ~required_times:req core ~delays in
  check_array_bits "arrival" scalar.Flat_sta.arrival seeded.Flat_sta.arrival;
  check_array_bits "required" scalar.Flat_sta.required
    seeded.Flat_sta.required;
  check_array_bits "slack" scalar.Flat_sta.slack seeded.Flat_sta.slack;
  Alcotest.check float_bits "critical delay" scalar.Flat_sta.critical_delay
    seeded.Flat_sta.critical_delay;
  Array.iter
    (fun id ->
      Alcotest.check float_bits "endpoint slack accessor"
        scalar.Flat_sta.slack.(id)
        (Flat_sta.slack_of_endpoint seeded id))
    (Circuit.outputs core);
  Alcotest.(check bool) "meets_constraints coincides with meets" true
    (Sta_ref.meets core ~delays ~cycle_time:tc
    = Sta_ref.meets_constraints core ~delays ~required_times:req)

let test_flat_sta_uniform_seed_bit_identical () =
  let _, core, delays = prepared_core "s510" in
  let flat = Flat.of_circuit core in
  let tc = 1.0 /. Flow.default_config.Flow.clock_frequency in
  let scalar = Flat_sta.analyze ~required_time:tc flat ~delays in
  let req =
    Constraints.required_times (Constraints.of_cycle_time tc) ~default:tc core
  in
  let seeded = Flat_sta.analyze ~required_times:req flat ~delays in
  check_array_bits "arrival" scalar.Flat_sta.arrival seeded.Flat_sta.arrival;
  check_array_bits "required" scalar.Flat_sta.required seeded.Flat_sta.required;
  check_array_bits "slack" scalar.Flat_sta.slack seeded.Flat_sta.slack;
  (* and the flat constraint kernel matches the reference *)
  let reference = Sta_ref.analyze ~required_times:req core ~delays in
  check_array_bits "flat matches reference" reference.Flat_sta.slack
    seeded.Flat_sta.slack

let test_delay_assign_scalar_compat_identical () =
  let _, core, _ = prepared_core "s344" in
  let tc = 1.0 /. Flow.default_config.Flow.clock_frequency in
  let plain = Delay_assign.assign core ~cycle_time:tc in
  (* the scalar compatibility set supersedes the (deliberately wrong)
     positional cycle time and reproduces the legacy budgets exactly *)
  let via_constraints =
    Delay_assign.assign
      ~constraints:(Constraints.of_cycle_time tc)
      core ~cycle_time:(17.0 *. tc)
  in
  check_array_bits "budgets" plain.Delay_assign.t_max
    via_constraints.Delay_assign.t_max;
  Alcotest.check float_bits "cycle budget" plain.Delay_assign.cycle_budget
    via_constraints.Delay_assign.cycle_budget

let test_flow_scalar_compat_identical () =
  let circuit = Dcopt_suite.Suite.find_exn "s298" in
  let implicit = Flow.prepare circuit in
  let explicit =
    Flow.prepare
      ~constraints:
        (Constraints.of_cycle_time
           (1.0 /. Flow.default_config.Flow.clock_frequency))
      circuit
  in
  check_array_bits "prepared budgets" (Flow.budgets implicit)
    (Flow.budgets explicit);
  (* the scalar set short-circuits: no per-endpoint seeds reach the env *)
  Alcotest.(check bool) "no required-time seeds" true
    (Power_model.required_times explicit.Flow.env = None);
  Alcotest.(check bool) "no arrival seeds" true
    (Power_model.arrival_offsets explicit.Flow.env = None);
  let run s =
    (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run s
  in
  match
    (run (Scenario.of_prepared implicit), run (Scenario.of_prepared explicit))
  with
  | Some a, Some b ->
    Alcotest.check float_bits "joint energy bit-identical"
      (Dcopt_opt.Solution.total_energy a)
      (Dcopt_opt.Solution.total_energy b)
  | _ -> Alcotest.fail "joint should close on s298 both ways"

let test_constrained_sta_differs_when_tightened () =
  (* sanity that the per-endpoint path is live: tightening one endpoint
     below its arrival flips that endpoint's slack negative while the
     scalar analysis stays feasible *)
  let _, core, delays = prepared_core "s298" in
  let flat = Flat.of_circuit core in
  let tc = 1.0 /. Flow.default_config.Flow.clock_frequency in
  let scalar = Flat_sta.analyze ~required_time:tc flat ~delays in
  let outputs = Circuit.outputs core in
  (* pick the latest-arriving output and halve its budget *)
  let victim =
    Array.fold_left
      (fun best id ->
        if scalar.Flat_sta.arrival.(id) > scalar.Flat_sta.arrival.(best)
        then id
        else best)
      outputs.(0) outputs
  in
  let name = (Circuit.node core victim).Circuit.name in
  let tightened =
    {
      (Constraints.of_cycle_time tc) with
      Constraints.max_delays =
        [
          {
            Constraints.rule_from = [];
            rule_to = [ name ];
            bound = scalar.Flat_sta.arrival.(victim) /. 2.0;
          };
        ];
    }
  in
  let req = Constraints.required_times tightened ~default:tc core in
  let seeded = Flat_sta.analyze ~required_times:req flat ~delays in
  Alcotest.(check bool) "victim slack negative" true
    (Flat_sta.slack_of_endpoint seeded victim < 0.0);
  Alcotest.(check bool) "scalar was feasible" true
    (Flat_sta.slack_of_endpoint scalar victim >= 0.0);
  Alcotest.(check bool) "constraint check fails" false
    (Sta_ref.meets_constraints core ~delays ~required_times:req)

(* --- scenarios --------------------------------------------------------- *)

let test_corners_of_spec () =
  (match Scenario.corners_of_spec "nominal,slow,leaky" with
  | Error diags -> Alcotest.fail (Diag.render diags)
  | Ok corners ->
    Alcotest.(check (list (pair string float_bits)))
      "presets resolved"
      [ ("nominal", 1.0); ("slow", 1.1); ("leaky", 0.9) ]
      (List.map
         (fun c -> (c.Scenario.corner_name, c.Scenario.vt_factor))
         corners));
  (match Scenario.corners_of_spec "hot:1.25" with
  | Error diags -> Alcotest.fail (Diag.render diags)
  | Ok [ c ] ->
    Alcotest.(check string) "custom name" "hot" c.Scenario.corner_name;
    Alcotest.check float_bits "custom factor" 1.25 c.Scenario.vt_factor
  | Ok _ -> Alcotest.fail "one corner expected");
  match Scenario.corners_of_spec "nominal,bogus" with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error diags ->
    let d = List.hd (Diag.errors diags) in
    Alcotest.(check string) "config.corners code" "config.corners" d.Diag.code;
    Alcotest.(check (option string)) "command-line located"
      (Some "<command-line>") d.Diag.file

let test_scenario_legacy_identity () =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s27") in
  let s = Scenario.of_prepared p in
  Alcotest.(check bool) "single nominal corner is legacy" true
    (Scenario.is_legacy s);
  (* identity by construction: the prepared view is the same record *)
  Alcotest.(check bool) "prepared view untouched" true
    (Scenario.prepared_view s == p);
  let sol =
    (Dcopt_core.Optimizer.get "baseline").Dcopt_core.Optimizer.run s
  in
  Alcotest.(check bool) "finalize is identity on legacy" true
    (Scenario.finalize s sol == sol)

let test_scenario_multi_corner () =
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s298") in
  let corners =
    match Scenario.corners_of_spec "leaky,slow" with
    | Ok c -> c
    | Error diags -> Alcotest.fail (Diag.render diags)
  in
  let s = Scenario.make ~corners p in
  Alcotest.(check bool) "not legacy" false (Scenario.is_legacy s);
  Alcotest.(check string) "worst corner by vt factor" "slow"
    (Scenario.worst_corner s).Scenario.corner_name;
  (* the worst-corner view stresses Vt for timing closure *)
  let pv = Scenario.prepared_view s in
  Alcotest.check float_bits "vt stress applied" 1.1
    (Power_model.vt_stress pv.Flow.env);
  match
    (Dcopt_core.Optimizer.get "joint-grid").Dcopt_core.Optimizer.run s
  with
  | None -> Alcotest.fail "two-corner joint should close on s298"
  | Some sol ->
    Alcotest.(check bool) "feasible across corners" true
      (Dcopt_opt.Solution.feasible sol);
    (* the booked objective is the first (leaky) corner's energy:
       re-evaluating the design there reproduces it bit for bit *)
    let leaky_env =
      Power_model.with_vt_stress p.Flow.env 0.9
    in
    let ev =
      Power_model.evaluate leaky_env sol.Dcopt_opt.Solution.design
    in
    Alcotest.check float_bits "objective booked at first corner"
      ev.Power_model.total_energy
      (Dcopt_opt.Solution.total_energy sol)

let () =
  Alcotest.run "sdc"
    [
      ( "parse",
        [
          Alcotest.test_case "good multi-clock file" `Quick test_good_parse;
          Alcotest.test_case "golden diagnostics" `Quick
            test_golden_diagnostics;
          Alcotest.test_case "non-finite numbers rejected" `Quick
            test_non_finite_rejected;
          Alcotest.test_case "port cross-check" `Quick test_port_crosscheck;
          Alcotest.test_case "ignored commands warn" `Quick
            test_ignored_commands_warn;
        ] );
      ( "projection",
        [
          Alcotest.test_case "required times" `Quick
            test_required_times_projection;
        ] );
      ( "bit identity",
        [
          Alcotest.test_case "Sta uniform seed" `Quick
            test_sta_uniform_seed_bit_identical;
          Alcotest.test_case "Flat_sta uniform seed" `Quick
            test_flat_sta_uniform_seed_bit_identical;
          Alcotest.test_case "Delay_assign scalar set" `Quick
            test_delay_assign_scalar_compat_identical;
          Alcotest.test_case "Flow scalar set" `Quick
            test_flow_scalar_compat_identical;
          Alcotest.test_case "tightened endpoint goes negative" `Quick
            test_constrained_sta_differs_when_tightened;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "corners of spec" `Quick test_corners_of_spec;
          Alcotest.test_case "legacy identity" `Quick
            test_scenario_legacy_identity;
          Alcotest.test_case "multi-corner" `Quick test_scenario_multi_corner;
        ] );
    ]
