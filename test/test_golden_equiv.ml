(* Golden equivalence of the evaluation and sizing fast paths.

   Every per-gate delay and energy in the library comes from a Drive
   context (the per-(vdd, vt) transcendentals hoisted out of the
   per-gate loop). The evaluate tests re-derive the same numbers through
   the uncached formulas kept in Device_ref, and require bitwise equal
   delays, critical delay and short-circuit energy (the context repeats
   the formulas' operations), and static and dynamic energies within
   1e-9 relative error (the context associates their factors
   differently).

   Power_model.size_all sizes through Drive.min_width, which jumps to the
   width the 40-step bisection would find. The size_all tests run that
   bisection — Numeric.binary_search_min over the closure
   [gate_delay <= budget] — as the oracle and require every width to be
   bitwise equal, on the suite and on generated DAGs, under raw and
   repaired budgets, over a (vdd, vt) grid and a two-threshold design,
   and on a width range where the kernel must bisect every gate. The
   energies size_all scores as it sizes must be evaluate's to the bit,
   with the short-circuit term on and off.

   Two-rail designs are scored against the sweep Multi_vdd kept before
   the design record carried its rail (Mvdd_ref). *)

module Circuit = Dcopt_netlist.Circuit
module Tech = Dcopt_device.Tech
module Activity = Dcopt_activity.Activity
module Delay_assign = Dcopt_timing.Delay_assign
module Power_model = Dcopt_opt.Power_model
module Budget_repair = Dcopt_opt.Budget_repair
module Numeric = Dcopt_util.Numeric
module Drive = Dcopt_device.Drive
module Wire = Dcopt_wiring.Wire_model
module Metrics = Dcopt_obs.Metrics

let tech = Tech.default
let tolerance = 1e-9

let check_rel what reference fast =
  let err =
    if reference = fast then 0.0 (* covers infinities and exact hits *)
    else Float.abs (fast -. reference) /. Float.max 1e-300 (Float.abs reference)
  in
  if not (err <= tolerance) then
    Alcotest.failf "%s: reference %.17g fast %.17g (rel err %g)" what
      reference fast err

(* Delays feed the sizing predicate, so the cached and uncached formulas
   must agree to the bit, not just within [tolerance]. *)
let check_bits what reference fast =
  if Int64.bits_of_float reference <> Int64.bits_of_float fast then
    Alcotest.failf "%s: reference %h fast %h" what reference fast

(* A gate's load as Power_model.make_env models it, rebuilt from the
   circuit records and the wiring model: each net's fanout gates in
   ascending consumer id, after the 4-w-unit pin of a primary output. *)
let reference_load env wiring design ~max_fanin_delay id =
  let core = Power_model.circuit env in
  let tech = Power_model.tech env in
  let nd = Circuit.node core id in
  let fanin_count = Array.length nd.Circuit.fanins in
  let fanouts = Circuit.fanouts core id in
  let pin_count = if Circuit.is_output core id then 1 else 0 in
  let fanout = max 1 (Array.length fanouts + pin_count) in
  let cap_fanout_gates =
    Array.fold_left
      (fun acc f -> acc +. (design.Power_model.widths.(f) *. tech.Tech.c_gate))
      (float_of_int pin_count *. 4.0 *. tech.Tech.c_gate)
      fanouts
  in
  let cap_wire = Wire.net_capacitance wiring ~fanout in
  {
    Device_ref.fanin_count;
    stack_depth = Dcopt_netlist.Gate.series_stack_depth nd.Circuit.kind fanin_count;
    cap_fanout_gates;
    cap_wire;
    res_wire_terms =
      Wire.net_resistance wiring ~fanout
      *. (cap_fanout_gates +. (cap_wire /. 2.0));
    flight_time = Wire.flight_time wiring ~fanout;
    max_fanin_delay;
  }

(* The pre-context evaluate: topological propagation over the circuit
   records, loads rebuilt from them, and the uncached Device_ref
   formulas at the corner's threshold. *)
let reference_evaluate ~short_circuit env design =
  let core = Power_model.circuit env in
  let fc = Power_model.clock_frequency env in
  let wiring =
    Wire.create ~tech:(Power_model.tech env)
      ~gate_count:(max 1 (Circuit.gate_count core)) ()
  in
  let n = Circuit.size core in
  let delays = Array.make n 0.0 in
  let arrival = Array.make n 0.0 in
  let is_gate = Array.make n false in
  Array.iter (fun id -> is_gate.(id) <- true) (Power_model.gate_ids env);
  let static_e = ref 0.0 and dynamic_e = ref 0.0 and short_e = ref 0.0 in
  let vdd = design.Power_model.vdd in
  Array.iter
    (fun id ->
      let nd = Circuit.node core id in
      let max_fanin_delay =
        Array.fold_left
          (fun acc f -> if is_gate.(f) then Float.max acc delays.(f) else acc)
          0.0 nd.Circuit.fanins
      in
      let vt = design.Power_model.vt.(id) *. Power_model.vt_stress env in
      let w = design.Power_model.widths.(id) in
      let load = reference_load env wiring design ~max_fanin_delay id in
      let d = Device_ref.gate_delay tech ~vdd ~vt ~w load in
      delays.(id) <- d;
      let worst_arrival =
        Array.fold_left
          (fun acc f -> Float.max acc arrival.(f))
          0.0 nd.Circuit.fanins
      in
      arrival.(id) <- worst_arrival +. d;
      let activity = Power_model.activity env id in
      static_e := !static_e +. Device_ref.static_energy tech ~fc ~vdd ~vt ~w;
      dynamic_e :=
        !dynamic_e +. Device_ref.dynamic_energy tech ~vdd ~w ~activity ~load;
      if short_circuit then
        short_e :=
          !short_e
          +. Device_ref.sc_energy tech ~vdd ~vt ~w ~activity
               ~input_transition_time:
                 (Device_ref.transition_time_of_delay max_fanin_delay))
    (Power_model.gate_ids env);
  let critical_delay =
    Array.fold_left
      (fun acc id -> Float.max acc arrival.(id))
      0.0 (Circuit.outputs core)
  in
  (!static_e, !dynamic_e, !short_e, delays, critical_delay)

(* The bisection oracle: one drive context per gate, the closure
   predicate over Drive.gate_delay (which the evaluate tests pin to
   Device_ref.gate_delay) on the gate's record, 40 halvings. *)
let reference_size_all env ~vdd ~vt ~budgets =
  let tech = Power_model.tech env in
  let n = Circuit.size (Power_model.circuit env) in
  let design =
    { Power_model.vdd; vt; widths = Array.make n tech.Tech.w_min; rail = None }
  in
  let gates = Power_model.gate_ids env in
  let all_met = ref true in
  for i = Array.length gates - 1 downto 0 do
    let id = gates.(i) in
    let ctx =
      Drive.make tech ~vdd ~vt:(vt.(id) *. Power_model.vt_stress env)
    in
    let max_fanin_delay = Power_model.budget_fanin_delay env ~budgets id in
    let g = Power_model.gate env ctx design ~max_fanin_delay id in
    let feasible w = Drive.gate_delay g ~w <= budgets.(id) in
    match
      Numeric.binary_search_min ~feasible ~lo:tech.Tech.w_min
        ~hi:tech.Tech.w_max ~iters:40 ()
    with
    | Some w -> design.Power_model.widths.(id) <- w
    | None ->
      design.Power_model.widths.(id) <- tech.Tech.w_max;
      all_met := false
  done;
  (design, !all_met)

let counter name = Metrics.value (Metrics.counter name)

(* The sums size_all scores are evaluate's totals, bit for bit, and a
   clamped term makes the evaluation infeasible. *)
let check_sums ~what env (s : Power_model.sized) =
  let e = Power_model.evaluate env s.Power_model.design in
  check_bits (what ^ " static sum") e.Power_model.static_energy
    s.Power_model.static_sum;
  check_bits (what ^ " dynamic sum") e.Power_model.dynamic_energy
    s.Power_model.dynamic_sum;
  if not s.Power_model.unclamped then
    Alcotest.(check bool) (what ^ " clamped is infeasible") false
      e.Power_model.feasible

(* size_all and its unscored twin size_widths both match the closure
   bisection *)
let check_size_all_equiv ~what env ~vdd ~vt ~budgets =
  let sized = Power_model.size_all env ~vdd ~vt ~budgets in
  let unscored, unscored_met = Power_model.size_widths env ~vdd ~vt ~budgets in
  let fast = sized.Power_model.design in
  let refd, ref_met = reference_size_all env ~vdd ~vt ~budgets in
  Alcotest.(check bool) (what ^ " all_met") ref_met sized.Power_model.meets_budgets;
  Alcotest.(check bool) (what ^ " size_widths all_met") ref_met unscored_met;
  Array.iteri
    (fun id w ->
      check_bits
        (Printf.sprintf "%s width[%d]" what id)
        w fast.Power_model.widths.(id);
      check_bits
        (Printf.sprintf "%s size_widths width[%d]" what id)
        w unscored.Power_model.widths.(id))
    refd.Power_model.widths;
  check_sums ~what env sized

let adder () =
  Circuit.combinational_core
    (Dcopt_netlist.Patterns.ripple_carry_adder ~bits:8)

let dag ~seed ~gates =
  Dcopt_netlist.Generator.(random_dag (default_dag ~seed ~gates ()))

(* (name, core, clock): the suite at 300 MHz, the DAGs at the 60 MHz of
   the end-to-end dag-joint workload *)
let sizing_inputs () =
  List.map
    (fun (name, c) -> (name, Circuit.combinational_core c, 300e6))
    (Dcopt_suite.Suite.all ())
  @ [
      ("adder8", adder (), 300e6);
      ("dag200", dag ~seed:3L ~gates:200, 60e6);
      ("dag2000", dag ~seed:1L ~gates:2000, 60e6);
    ]

let env_of ?(tech = tech) core ~fc =
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  Power_model.make_env ~tech ~fc core (Activity.local_profile core specs)

(* (vdd, vt): above threshold (all with crowbar overlap), and two points
   with vt >= vdd *)
let operating_points =
  [ (1.0, 0.15); (0.6, 0.25); (1.2, 0.45); (0.45, 0.1); (0.3, 0.45);
    (0.4, 0.4) ]

let check_evaluate_equiv ~what ~short_circuit env design =
  let fast = Power_model.evaluate env design in
  let static_e, dynamic_e, short_e, delays, critical =
    reference_evaluate ~short_circuit env design
  in
  check_rel (what ^ " static") static_e fast.Power_model.static_energy;
  check_rel (what ^ " dynamic") dynamic_e fast.Power_model.dynamic_energy;
  check_bits (what ^ " short-circuit") short_e
    fast.Power_model.short_circuit_energy;
  check_bits (what ^ " critical") critical fast.Power_model.critical_delay;
  Array.iteri
    (fun id d ->
      check_bits
        (Printf.sprintf "%s delay[%d]" what id)
        d fast.Power_model.delays.(id))
    delays

(* Uniform and sized designs at every operating point plus a
   two-threshold design, with and without the short-circuit term, at the
   nominal corner and a slow one. *)
let test_evaluate_bitwise () =
  List.iter
    (fun (name, core, fc) ->
      let n = Circuit.size core in
      let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
      let profile = Activity.local_profile core specs in
      let budgets =
        (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max
      in
      List.iter
        (fun short_circuit ->
          let nominal =
            Power_model.make_env ~include_short_circuit:short_circuit ~tech ~fc
              core profile
          in
          List.iter
            (fun env ->
              let what label =
                Printf.sprintf "%s sc=%b stress=%g %s" name short_circuit
                  (Power_model.vt_stress env) label
              in
              List.iter
                (fun (vdd, vt) ->
                  let at = Printf.sprintf "vdd=%.2f vt=%.2f" vdd vt in
                  check_evaluate_equiv ~what:(what ("uniform " ^ at))
                    ~short_circuit env
                    (Power_model.uniform_design env ~vdd ~vt ~w:4.0);
                  let sized =
                    Power_model.size_all env ~vdd ~vt:(Array.make n vt)
                      ~budgets
                  in
                  check_evaluate_equiv ~what:(what ("sized " ^ at))
                    ~short_circuit env sized.Power_model.design;
                  check_sums ~what:(what ("sized " ^ at)) env sized)
                operating_points;
              let two_vt =
                Array.init n (fun id -> if id mod 2 = 0 then 0.15 else 0.35)
              in
              let sized = Power_model.size_all env ~vdd:1.0 ~vt:two_vt ~budgets in
              check_evaluate_equiv ~what:(what "two-vt") ~short_circuit env
                sized.Power_model.design;
              check_sums ~what:(what "two-vt") env sized)
            [ nominal; Power_model.with_vt_stress nominal 1.1 ])
        [ false; true ])
    (sizing_inputs ())

(* Procedure-1 budgets raw, and repaired at both ends of the vt range. *)
let budget_sets env core ~fc =
  let tech = Power_model.tech env in
  let raw =
    (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max
  in
  let repaired vt =
    match
      Budget_repair.repair env ~budgets:raw ~vdd:tech.Tech.vdd_max ~vt
    with
    | Budget_repair.Repaired { budgets; _ } -> budgets
    | Budget_repair.Infeasible _ -> raw
  in
  [ ("raw", raw); ("vt_min", repaired tech.Tech.vt_min);
    ("vt_max", repaired tech.Tech.vt_max) ]

let sizing_grid =
  List.concat_map
    (fun vdd -> List.map (fun vt -> (vdd, vt)) [ 0.1; 0.3; 0.5 ])
    [ 0.45; 0.9; 1.8; 3.3 ]

(* Uniform thresholds at every grid point, plus a design alternating two
   thresholds gate by gate. *)
let sweep ~name env core budgets_of =
  let n = Circuit.size core in
  List.iter
    (fun (label, budgets) ->
      List.iter
        (fun (vdd, vt) ->
          check_size_all_equiv
            ~what:(Printf.sprintf "%s %s vdd=%.2f vt=%.2f" name label vdd vt)
            env ~vdd ~vt:(Array.make n vt) ~budgets)
        sizing_grid;
      let two_vt =
        Array.init n (fun id -> if id mod 2 = 0 then 0.15 else 0.35)
      in
      check_size_all_equiv
        ~what:(Printf.sprintf "%s %s two-vt" name label)
        env ~vdd:1.0 ~vt:two_vt ~budgets)
    budgets_of

let test_size_all_bitwise () =
  let gates0 = counter "sizing.gates" in
  let bisections0 = counter "sizing.bisections" in
  List.iter
    (fun (name, core, fc) ->
      let env = env_of core ~fc in
      sweep ~name env core (budget_sets env core ~fc))
    (sizing_inputs ());
  let gates = counter "sizing.gates" - gates0 in
  let bisections = counter "sizing.bisections" - bisections0 in
  (* on the default dyadic range the jump, not the bisection, sizes *)
  if not (gates > 0 && bisections * 100 < gates) then
    Alcotest.failf "%d of %d gates bisected" bisections gates

(* w_min = 0.3 is no multiple of the power of two that fits w_max = 100,
   so the bisection's midpoints are not one exact grid: every gate must
   take the bisection, and still match the oracle. *)
let test_size_all_non_dyadic () =
  let tech = { Tech.default with Tech.w_min = 0.3 } in
  let gates0 = counter "sizing.gates" in
  let bisections0 = counter "sizing.bisections" in
  List.iter
    (fun (name, core, fc) ->
      let env = env_of ~tech core ~fc in
      let raw =
        (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max
      in
      sweep ~name env core [ ("raw", raw) ])
    [
      ("s298", Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s298"),
       300e6);
      ("dag200", dag ~seed:3L ~gates:200, 60e6);
    ];
  let gates = counter "sizing.gates" - gates0 in
  Alcotest.(check bool) "gates sized" true (gates > 0);
  Alcotest.(check int) "every sized gate bisected" gates
    (counter "sizing.bisections" - bisections0)

(* ------------------------------------------------------------------ *)
(* Two rails: Power_model.evaluate against the sweep Multi_vdd kept
   before the design record carried its rail (Mvdd_ref). Delays,
   critical delay, feasibility and every energy total match to the bit:
   evaluate adds each converter's energy to the running dynamic sum
   right after its gate's term, as the sweep did. *)

module Multi_vdd = Dcopt_opt.Multi_vdd
module Constraints = Dcopt_timing.Constraints

(* (vdd_high, vdd_low, vt), equal rails included *)
let rail_points =
  [ (1.0, 0.5, 0.15); (1.0, 0.65, 0.3); (0.8, 0.8, 0.2); (1.2, 0.6, 0.25);
    (0.6, 0.48, 0.12) ]

let check_two_rail ~what env (design : Power_model.design) =
  let vdd_high = design.Power_model.vdd in
  let vdd_low, uses_low =
    match design.Power_model.rail with
    | Some r -> (r.Power_model.vdd_low, r.Power_model.low)
    | None -> Alcotest.failf "%s: expected a two-rail design" what
  in
  let vt = design.Power_model.vt.((Power_model.gate_ids env).(0)) in
  let fast = Power_model.evaluate env design in
  let refe =
    Mvdd_ref.evaluate env ~vdd_high ~vdd_low ~vt ~uses_low
      ~widths:design.Power_model.widths
  in
  check_bits (what ^ " static") refe.Power_model.static_energy
    fast.Power_model.static_energy;
  check_bits (what ^ " dynamic") refe.Power_model.dynamic_energy
    fast.Power_model.dynamic_energy;
  check_bits (what ^ " total") refe.Power_model.total_energy
    fast.Power_model.total_energy;
  check_bits (what ^ " critical") refe.Power_model.critical_delay
    fast.Power_model.critical_delay;
  Alcotest.(check bool) (what ^ " feasible") refe.Power_model.feasible
    fast.Power_model.feasible;
  Array.iteri
    (fun id d ->
      check_bits (Printf.sprintf "%s delay[%d]" what id) d
        fast.Power_model.delays.(id))
    refe.Power_model.delays

(* An output delay on the first output and an input delay on the first
   input: per-endpoint feasibility and seeded arrivals. *)
let sdc_constraints core ~fc =
  let name id = (Circuit.node core id).Circuit.name in
  let tc = 1.0 /. fc in
  let io port d = { Constraints.port = name port; io_clock = None; io_delay = d } in
  {
    (Constraints.of_cycle_time tc) with
    Constraints.output_delays = [ io (Circuit.outputs core).(0) (0.05 *. tc) ];
    input_delays = [ io (Circuit.inputs core).(0) (0.02 *. tc) ];
  }

(* On each suite core and a 200-gate DAG, under a scalar and an SDC env,
   at the nominal and a slow corner, at every rail point: the design
   Multi_vdd.evaluate sizes when it sizes, and otherwise classify's
   assignment at size_all's high-rail widths; plus every gate on the low
   rail, so every output drives a converter. *)
let test_two_rail_bitwise () =
  let inputs =
    List.map
      (fun (name, c) -> (name, Circuit.combinational_core c, 300e6))
      (Dcopt_suite.Suite.all ())
    @ [ ("dag200", dag ~seed:3L ~gates:200, 60e6) ]
  in
  let sized = ref 0 in
  List.iter
    (fun (name, core, fc) ->
      let n = Circuit.size core in
      let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
      let profile = Activity.local_profile core specs in
      let budgets =
        (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max
      in
      List.iter
        (fun (env_label, constraints) ->
          let nominal = Power_model.make_env ?constraints ~tech ~fc core profile in
          let assignment =
            Multi_vdd.classify nominal ~budgets ~slack_threshold:1.5
          in
          let all_low = Array.make n false in
          Array.iter (fun id -> all_low.(id) <- true) (Power_model.gate_ids nominal);
          List.iter
            (fun env ->
              List.iter
                (fun (vdd_high, vdd_low, vt) ->
                  let what label =
                    Printf.sprintf "%s %s stress=%g %.2f/%.2f V vt=%.2f %s"
                      name env_label (Power_model.vt_stress env) vdd_high
                      vdd_low vt label
                  in
                  let widths =
                    (Power_model.size_all env ~vdd:vdd_high
                       ~vt:(Array.make n vt) ~budgets)
                      .Power_model.design.Power_model.widths
                  in
                  let design low =
                    { Power_model.vdd = vdd_high; vt = Array.make n vt;
                      widths; rail = Some { Power_model.vdd_low; low } }
                  in
                  (match
                     Multi_vdd.evaluate env assignment ~vdd_high ~vdd_low ~vt
                       ~budgets
                   with
                  | Some sol ->
                    incr sized;
                    check_two_rail ~what:(what "sized") env
                      sol.Dcopt_opt.Solution.design
                  | None ->
                    check_two_rail ~what:(what "classified") env
                      (design (Array.copy assignment.Multi_vdd.uses_low)));
                  check_two_rail ~what:(what "all low") env (design all_low))
                rail_points)
            [ nominal; Power_model.with_vt_stress nominal 1.1 ])
        [ ("scalar", None); ("sdc", Some (sdc_constraints core ~fc)) ])
    inputs;
  Alcotest.(check bool) "Multi_vdd sized some points" true (!sized > 0)

let () =
  Alcotest.run "golden_equiv"
    [
      ( "evaluate",
        [
          Alcotest.test_case "suite and DAGs = uncached oracle" `Quick
            test_evaluate_bitwise;
        ] );
      ( "size_all",
        [
          Alcotest.test_case "suite and DAGs = bisection, bitwise" `Quick
            test_size_all_bitwise;
          Alcotest.test_case "non-dyadic range bisects, bitwise" `Quick
            test_size_all_non_dyadic;
        ] );
      ( "two rails",
        [
          Alcotest.test_case "suite and DAG = private sweep" `Quick
            test_two_rail_bitwise;
        ] );
    ]
