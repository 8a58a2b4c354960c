(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DAC'97, section 5) plus the ablations listed in DESIGN.md,
   and times the optimizer kernels with Bechamel.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table1          # one experiment
     dune exec bench/main.exe table2 fig2a    # any subset

   Experiments: table1 table2 fig2a fig2b annealing ablation-activity
   ablation-budget ablation-multivt timing *)

module Experiments = Dcopt_core.Experiments
module Flow = Dcopt_core.Flow
module Suite = Dcopt_suite.Suite
module Circuit = Dcopt_netlist.Circuit

(* --quick: shrink quotas so the timing experiment can run as a smoke
   test under `dune runtest` (numbers are then indicative only). *)
let quick = ref false

(* --json FILE: write the timing experiment's per-kernel estimates as
   machine-readable JSON, so CI keeps a perf trajectory across commits. *)
let json_out : string option ref = ref None

(* --check FILE: gate the timing experiment against a committed baseline
   (test/BENCH_timing.json) and exit non-zero past the threshold. *)
let check_baseline : string option ref = ref None

(* --scale: force the large-circuit STA kernels (sta_100k) even in quick
   mode — used to refresh the committed baseline. Full (non-quick) runs
   always measure them, plus the million-gate kernel. *)
let scale = ref false

let header title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n\n" bar title bar

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Paper experiments                                                   *)

(* Shape checks: each claim prints the measured range it rests on and
   whether the rows bear it out. *)
let verdict ok = if ok then "ok" else "FAILS"

let range f rows = Dcopt_util.Stats.min_max (Array.of_list (List.map f rows))

let ratio r = r.Experiments.static_energy /. r.Experiments.dynamic_energy

let run_table1 () =
  header "Table 1: baseline — Vt fixed at 700 mV, Vdd and widths optimized \
          (fc = 300 MHz)";
  let rows, dt = wall (fun () -> Experiments.table1 ()) in
  print_string (Experiments.render_table ~title:"" rows);
  let tech = Flow.default_config.Flow.tech in
  let cycle = 1.0 /. Flow.default_config.Flow.clock_frequency in
  let _, leak = range ratio rows in
  let vdd_lo, vdd_hi = range (fun r -> r.Experiments.vdd) rows in
  let d_lo, d_hi = range (fun r -> r.Experiments.critical_delay) rows in
  Printf.printf
    "\nShape checks vs the paper:\n\
    \  static/dynamic at most %.1e (leakage negligible at 700 mV: below \
     1e-3): %s\n\
    \  Vdd %.2f-%.2f V (the supply lands high: at least 80%% of %.1f V): %s\n\
    \  critical delay %.2f-%.2f ns (meets the %.2f ns cycle): %s\n\
     [%.1f s]\n"
    leak (verdict (leak < 1e-3)) vdd_lo vdd_hi tech.Dcopt_device.Tech.vdd_max
    (verdict (vdd_lo >= 0.8 *. tech.Dcopt_device.Tech.vdd_max))
    (d_lo *. 1e9) (d_hi *. 1e9) (cycle *. 1e9)
    (verdict (d_hi <= cycle *. (1.0 +. 1e-6)))
    dt

let run_table2 () =
  header "Table 2: joint (Vdd, Vt, width) optimization and savings vs Table 1";
  let rows, dt = wall (fun () -> Experiments.table2 ()) in
  print_string (Experiments.render_table ~title:"" rows);
  let savings = List.filter_map (fun r -> r.Experiments.savings) rows in
  (match savings with
  | [] -> ()
  | _ ->
    let arr = Array.of_list savings in
    let lo, hi = Dcopt_util.Stats.min_max arr in
    let geomean = Dcopt_util.Stats.geometric_mean arr in
    let below = List.length (List.filter (fun x -> x <= 10.0) savings) in
    let vt_lo, vt_hi = range (fun r -> r.Experiments.vt *. 1e3) rows in
    let vdd_lo, vdd_hi = range (fun r -> r.Experiments.vdd) rows in
    let sd_lo, sd_hi = range ratio rows in
    let circuits =
      List.sort_uniq compare (List.map (fun r -> r.Experiments.circuit) rows)
    in
    (* a circuit's savings, in increasing input activity, strictly rise *)
    let rec rising = function
      | a :: (b :: _ as rest) -> a < b && rising rest
      | _ -> true
    in
    let grows =
      List.filter
        (fun c ->
          List.filter (fun r -> r.Experiments.circuit = c) rows
          |> List.sort (fun a b ->
                 Float.compare a.Experiments.input_density
                   b.Experiments.input_density)
          |> List.filter_map (fun r -> r.Experiments.savings)
          |> rising)
        circuits
    in
    Printf.printf
      "\nShape checks vs the paper:\n\
      \  savings %.1fx-%.1fx, geomean %.1fx (paper: \"factors larger than \
       10\"): geomean %s, %d of %d rows at or below 10x\n\
      \  Vt %.0f-%.0f mV (the 100-250 mV band; paper: 150-250 mV): %s\n\
      \  Vdd %.2f-%.2f V (the 0.45-1.2 V band; paper: 0.6-1.2 V): %s\n\
      \  static/dynamic %.3f-%.3f (comparable at the optimum: within 3x): %s\n\
      \  savings grow with input activity in %d of %d circuits: %s\n\
       [%.1f s]\n"
      lo hi geomean (verdict (geomean > 10.0)) below (List.length savings)
      vt_lo vt_hi
      (verdict (vt_lo >= 100.0 -. 1e-9 && vt_hi <= 250.0 +. 1e-9))
      vdd_lo vdd_hi
      (verdict (vdd_lo >= 0.45 -. 1e-9 && vdd_hi <= 1.2 +. 1e-9))
      sd_lo sd_hi
      (verdict (sd_lo >= 1.0 /. 3.0 && sd_hi <= 3.0))
      (List.length grows) (List.length circuits)
      (verdict (List.length grows = List.length circuits))
      dt)

let run_fig2a () =
  header "Figure 2(a): power savings vs threshold-voltage variation (s298)";
  let points, dt = wall (fun () -> Experiments.fig2a ()) in
  print_string (Experiments.render_fig2a points);
  Printf.printf
    "\nShape check vs the paper: savings shrink monotonically as the \
     worst-case Vt spread grows. [%.1f s]\n"
    dt

let run_fig2b () =
  header "Figure 2(b): power savings vs available cycle-time slack (s298)";
  let points, dt = wall (fun () -> Experiments.fig2b ()) in
  print_string (Experiments.render_fig2b points);
  Printf.printf
    "\nShape check vs the paper: savings against the fixed 300 MHz baseline \
     grow with slack, crossing ~25x (the paper's headline factor); the \
     optimizer rides Vdd down and lets Vt rise as leakage integrates over \
     longer cycles. [%.1f s]\n"
    dt

let run_annealing () =
  header "Section 5: Procedure-2 heuristic vs multi-pass simulated annealing";
  let rows, dt = wall (fun () -> Experiments.annealing_comparison ()) in
  print_string (Experiments.render_annealing rows);
  Printf.printf
    "\nShape check vs the paper: the heuristic reaches the same energy \
     regime orders of magnitude faster; cold-started annealing needs far \
     more evaluations to compete. [%.1f s]\n"
    dt

let run_ablation_activity () =
  header "Ablation: first-order vs BDD-exact transition densities (s298)";
  let rows, dt = wall (fun () -> Experiments.ablation_activity ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  Printf.printf
    "\nThe paper's first-order method (no input correlation) is a close \
     proxy for the exact densities on random logic. [%.1f s]\n"
    dt

let run_ablation_budget () =
  header "Ablation: Procedure-1 criticality budgets vs uniform per-gate \
          budgets (s298)";
  let rows, dt = wall (fun () -> Experiments.ablation_budget ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  Printf.printf
    "\nSee EXPERIMENTS.md: on shallow synthetic cores a uniform split can \
     beat fanout-proportional budgeting — a real limitation of the \
     criticality heuristic worth knowing about. [%.1f s]\n"
    dt

let run_ablation_multivdd () =
  header "Extension: dual supply voltages (clustered voltage scaling, s298)";
  let rows, dt = wall (fun () -> Experiments.ablation_multi_vdd ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  Printf.printf
    "\nSlack-rich gates move to a second, lower rail; level converters at \
     register/output boundaries are costed in energy and delay. [%.1f s]\n"
    dt

let run_ablation_short_circuit () =
  header "Extension: Veendrick short-circuit dissipation in the cost";
  let rows, dt = wall (fun () -> Experiments.ablation_short_circuit ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  Printf.printf
    "\nThe paper neglects crowbar current (an order of magnitude below \
     switching at typical slopes) but announces it for the next tool \
     version; enabling it here shifts the optimum little because low-Vdd \
     designs have Vdd < 2Vt, where the crowbar window closes. [%.1f s]\n"
    dt

let run_ablation_multivt () =
  header "Ablation: single-Vt vs dual-Vt optimization (s298)";
  let rows, dt = wall (fun () -> Experiments.ablation_multi_vt ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  Printf.printf
    "\nA second threshold lets slack-rich gates trade speed for leakage \
     (the paper's n_v > 1 case). [%.1f s]\n"
    dt

let run_yield () =
  header "Extension: Monte-Carlo timing yield under Vt variation (s298)";
  let points, dt = wall (fun () -> Experiments.yield_study ()) in
  print_string (Experiments.render_yield points);
  Printf.printf
    "\nThe statistical companion to Fig. 2(a): the nominal optimum loses \
     yield as the die-to-die threshold spread grows, while the 3-sigma \
     corner-margined design holds yield at the listed energy premium. \
     [%.1f s]\n"
    dt

let run_scaling () =
  header "Extension: optimal operating point across scaled technology nodes";
  let rows, dt = wall (fun () -> Experiments.scaling_study ()) in
  print_string (Experiments.render_scaling rows);
  Printf.printf
    "\nConstant-field scaling shrinks capacitance and the supply ceiling, \
     but the subthreshold swing is set by kT/q and does not scale: the \
     static share of the optimum grows with each node — the trend that made \
     this paper's joint optimization mainstream. [%.1f s]\n"
    dt

let run_glitch () =
  header "Extension: glitch power missed by zero-delay activity analysis";
  let rows, dt = wall (fun () -> Experiments.glitch_study ()) in
  print_string (Experiments.render_glitch rows);
  Printf.printf
    "\nTwo effects the paper's zero-delay densities miss, made visible by \
     event-driven simulation: simultaneous input toggles cancel (Najm \
     over-counts XOR-rich logic), while unbalanced arrival times glitch \
     (Najm under-counts arithmetic arrays -- the multiplier's transitions \
     are mostly hazards). [%.1f s]\n"
    dt

let run_state_activity () =
  header "Extension: trace-measured state-bit activity (Seq_sim)";
  let rows, dt = wall (fun () -> Experiments.state_activity_study ()) in
  print_string (Experiments.render_state_activity rows);
  Printf.printf
    "\nThe paper assumes pseudo-inputs (register outputs) toggle like true \
     inputs; cycle simulation of the sequential circuit measures how the \
     reachable-state structure actually drives them, and the optimizer \
     re-targets under the measured profile. [%.1f s]\n"
    dt

let run_ablation_fanin () =
  header "Extension: bounded-fanin decomposition before optimization (s298)";
  let rows, dt = wall (fun () -> Experiments.ablation_fanin ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  Printf.printf
    "\nNarrow gates trade series-stack delay for extra logic depth and \
     switched capacitance; the optimizer arbitrates. [%.1f s]\n"
    dt

let run_ablation_sizing () =
  header "Ablation: budget-decomposed (Procedure 2) vs budget-free (TILOS) \
          sizing (s298)";
  let rows, dt = wall (fun () -> Experiments.ablation_sizing ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  Printf.printf
    "\nProcedure 1's per-gate budgets make the heuristic O(M^3)-fast but \
     over-constrain gates on slack-rich paths; TILOS's global greedy \
     sizing finds substantially lower energy at much higher runtime -- the \
     price of the paper's decomposition, quantified. [%.1f s]\n"
    dt

let run_temperature () =
  header "Extension: optimal operating point vs junction temperature (s298)";
  let rows, dt = wall (fun () -> Experiments.temperature_study ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  Printf.printf
    "\nThe subthreshold swing scales with kT/q: hot dies leak \
     exponentially more, so the optimizer raises Vt (and pays Vdd) as the \
     junction heats -- the other reason real designs keep margin on the \
     paper's razor-edge optimum. [%.1f s]\n"
    dt

let run_pipeline () =
  header "Extension: the cumulative beyond-paper recipe (s298)";
  let rows, dt = wall (fun () -> Experiments.beyond_paper_pipeline ()) in
  print_string (Experiments.render_ablation ~title:"" rows);
  (match rows with
  | first :: _ ->
    let last = List.nth rows (List.length rows - 1) in
    Printf.printf
      "\nStacking the extensions on the paper's own result buys another \
     %.1fx on top of its >10x baseline savings. [%.1f s]\n"
      (first.Experiments.value /. last.Experiments.value)
      dt
  | [] -> ())

(* ------------------------------------------------------------------ *)
(* Kernel timing with Bechamel                                         *)

let bechamel_tests () =
  let open Bechamel in
  let core = Circuit.combinational_core (Suite.find_exn "s298") in
  let specs =
    Dcopt_activity.Activity.uniform_inputs core ~probability:0.5 ~density:0.1
  in
  let profile = Dcopt_activity.Activity.local_profile core specs in
  let env =
    Dcopt_opt.Power_model.make_env ~tech:Dcopt_device.Tech.default ~fc:300e6
      core profile
  in
  let budgets =
    (Dcopt_timing.Delay_assign.assign core ~cycle_time:(1.0 /. 300e6))
      .Dcopt_timing.Delay_assign.t_max
  in
  let n = Circuit.size core in
  (* constrained-vs-scalar STA pair, small and large: the same forward +
     backward analysis with a scalar target vs per-endpoint required
     seeds (one tightened output, the Constraints projection shape) *)
  let module Constraints = Dcopt_timing.Constraints in
  let module Flat_sta = Dcopt_timing.Flat_sta in
  let core_flat = Dcopt_netlist.Flat.of_circuit core in
  let tc = 1.0 /. 300e6 in
  let req_of circuit =
    let out_name id = (Circuit.node circuit id).Circuit.name in
    let victim = out_name (Circuit.outputs circuit).(0) in
    Constraints.required_times
      {
        (Constraints.of_cycle_time tc) with
        Constraints.output_delays =
          [
            { Constraints.port = victim; io_clock = None; io_delay = 0.1 *. tc };
          ];
      }
      ~default:tc circuit
  in
  let req = req_of core in
  let dag =
    Dcopt_netlist.Generator.(random_dag (default_dag ~name:"dag10k" ~seed:7L ~gates:10_000 ()))
  in
  let dag_flat = Dcopt_netlist.Flat.of_circuit dag in
  (* the dag-joint end-to-end shape: ~36% of the gates are dead and fall
     back *)
  let dag2k =
    Dcopt_netlist.Generator.(
      random_dag (default_dag ~name:"dag2k" ~seed:1L ~gates:2_000 ()))
  in
  let dag_req = req_of dag in
  (* the dag-tilos end-to-end shape: one 20-gate DAG at 100 MHz, sized
     by TILOS at one operating point it closes with ~100 upsizes *)
  let tilos_env =
    let dag20 =
      Dcopt_netlist.Generator.(
        random_dag (default_dag ~name:"dag20" ~seed:1L ~gates:20 ()))
    in
    let specs =
      Dcopt_activity.Activity.uniform_inputs dag20 ~probability:0.5
        ~density:0.1
    in
    Dcopt_opt.Power_model.make_env ~tech:Dcopt_device.Tech.default ~fc:100e6
      dag20
      (Dcopt_activity.Activity.local_profile dag20 specs)
  in
  (* the multi-vt greedy's shape: promotion probes on s1488 from its
     single-threshold optimum *)
  let s1488_env, s1488_single =
    let p = Flow.prepare (Suite.find_exn "s1488") in
    let budgets = Option.get (Flow.fast_budgets p) in
    ( p.Flow.env,
      Option.get
        (Dcopt_opt.Heuristic.optimize
           ~options:
             {
               Dcopt_opt.Heuristic.default_options with
               strategy = Dcopt_opt.Heuristic.Grid_refine;
             }
           p.Flow.env ~budgets) )
  in
  let dag_delays =
    let rng = Dcopt_util.Prng.create 13L in
    Array.init (Circuit.size dag) (fun _ -> Dcopt_util.Prng.float rng 1e-9)
  in
  [
    Test.make ~name:"activity/first-order (s298)"
      (Staged.stage (fun () ->
           ignore (Dcopt_activity.Activity.local_profile core specs)));
    Test.make ~name:"timing/sta scalar (s298)"
      (Staged.stage (fun () ->
           ignore
             (Flat_sta.analyze ~required_time:tc core_flat ~delays:budgets)));
    Test.make ~name:"timing/sta constrained (s298)"
      (Staged.stage (fun () ->
           ignore
             (Flat_sta.analyze ~required_times:req core_flat ~delays:budgets)));
    Test.make ~name:"timing/sta scalar (dag10k)"
      (Staged.stage (fun () ->
           ignore (Flat_sta.analyze ~required_time:tc dag_flat ~delays:dag_delays)));
    Test.make ~name:"timing/sta constrained (dag10k)"
      (Staged.stage (fun () ->
           ignore
             (Flat_sta.analyze ~required_times:dag_req dag_flat
                ~delays:dag_delays)));
    Test.make ~name:"timing/procedure-1 budgets (s298)"
      (Staged.stage (fun () ->
           ignore
             (Dcopt_timing.Delay_assign.assign core
                ~cycle_time:(1.0 /. 300e6))));
    Test.make ~name:"timing/procedure-1 budgets (2k DAG)"
      (Staged.stage (fun () ->
           ignore
             (Dcopt_timing.Delay_assign.assign dag2k ~cycle_time:(1.0 /. 60e6))));
    (* one Procedure-2 trial: the sweep that sizes and scores every gate *)
    Test.make ~name:"opt/joint trial (s298)"
      (Staged.stage (fun () ->
           ignore
             (Dcopt_opt.Power_model.size_all env ~vdd:1.0
                ~vt:(Array.make n 0.15) ~budgets)));
    Test.make ~name:"opt/joint search (s298)"
      (Staged.stage (fun () ->
           ignore (Dcopt_opt.Heuristic.optimize env ~budgets)));
    Test.make ~name:"opt/multi-vt greedy (s1488)"
      (Staged.stage (fun () ->
           ignore (Dcopt_opt.Multi_vt.greedy_dual_vt s1488_env s1488_single)));
    Test.make ~name:"opt/tilos size_for_cycle (20-gate DAG)"
      (Staged.stage (fun () ->
           ignore (Dcopt_opt.Tilos.size_for_cycle tilos_env ~vdd:0.3 ~vt:0.25)));
    Test.make ~name:"opt/full evaluation (s298)"
      (Staged.stage
         (let design =
            Dcopt_opt.Power_model.uniform_design env ~vdd:1.0 ~vt:0.15 ~w:4.0
          in
          fun () -> ignore (Dcopt_opt.Power_model.evaluate env design)));
  ]

(* Incremental vs full per-move cost on s298 — the Incr engine's reason to
   exist. Both variants replay one deterministic width-move schedule:

   - sizing (TILOS accepted-move shape): apply the width, recover delays,
     energies and the critical path. Full = whole-circuit evaluate + flat
     forward sweep and walk; incremental = set_width + commit +
     arrival-walk.
   - annealing width-move shape: evaluate the perturbed design, accept
     every other move. Full = candidate copy + whole-circuit evaluate;
     incremental = in-place set_width + commit/rollback. *)
let measure_incremental () =
  let module Power_model = Dcopt_opt.Power_model in
  let module Incr = Dcopt_opt.Power_model.Incr in
  let module Prng = Dcopt_util.Prng in
  let tech = Dcopt_device.Tech.default in
  let core = Circuit.combinational_core (Suite.find_exn "s298") in
  let specs =
    Dcopt_activity.Activity.uniform_inputs core ~probability:0.5 ~density:0.1
  in
  let profile = Dcopt_activity.Activity.local_profile core specs in
  let env = Power_model.make_env ~tech ~fc:300e6 core profile in
  let flat = Power_model.flat env in
  let gates = Power_model.gate_ids env in
  let gate_count = Array.length gates in
  let moves = if !quick then 300 else 3000 in
  let clamp_w w =
    Dcopt_util.Numeric.clamp ~lo:tech.Dcopt_device.Tech.w_min
      ~hi:tech.Dcopt_device.Tech.w_max w
  in
  let schedule =
    let rng = Prng.create 0xBE7CL in
    Array.init moves (fun _ ->
        ( gates.(Prng.int rng gate_count),
          exp (Prng.gaussian rng ~mean:0.0 ~sigma:0.4) ))
  in
  let fresh_design () = Power_model.uniform_design env ~vdd:1.0 ~vt:0.2 ~w:4.0 in
  let sizing_full () =
    let design = fresh_design () in
    Array.iter
      (fun (id, factor) ->
        design.Power_model.widths.(id) <-
          clamp_w (design.Power_model.widths.(id) *. factor);
        let delays = (Power_model.evaluate env design).Power_model.delays in
        let arrival, _ = Dcopt_timing.Flat_sta.forward flat ~delays in
        ignore
          (Dcopt_timing.Flat_sta.critical_path_of_arrival flat ~arrival
             ~delays))
      schedule
  in
  let sizing_incr () =
    let inc = Incr.create env (fresh_design ()) in
    Array.iter
      (fun (id, factor) ->
        Incr.set_width inc id
          (clamp_w ((Incr.design inc).Power_model.widths.(id) *. factor));
        Incr.commit inc;
        ignore (Incr.critical_path inc))
      schedule
  in
  let anneal_full () =
    let design = ref (fresh_design ()) in
    Array.iteri
      (fun i (id, factor) ->
        let cand =
          {
            !design with
            Power_model.vt = Array.copy !design.Power_model.vt;
            widths = Array.copy !design.Power_model.widths;
          }
        in
        cand.Power_model.widths.(id) <-
          clamp_w (cand.Power_model.widths.(id) *. factor);
        ignore (Power_model.evaluate env cand);
        if i land 1 = 0 then design := cand)
      schedule
  in
  let anneal_incr () =
    let inc = Incr.create env (fresh_design ()) in
    Array.iteri
      (fun i (id, factor) ->
        Incr.set_width inc id
          (clamp_w ((Incr.design inc).Power_model.widths.(id) *. factor));
        ignore (Incr.total_energy inc);
        if i land 1 = 0 then Incr.commit inc else Incr.rollback inc)
      schedule
  in
  (* the minimum of k replays, as the kernel rows' gate takes the
     minimum of its attempts: one descheduling is not a regression *)
  let per_move f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let _, dt = wall f in
      best := Float.min !best dt
    done;
    !best /. float_of_int moves *. 1e9
  in
  let dirty = Dcopt_obs.Metrics.counter "incr.dirty_gates" in
  let moves_c = Dcopt_obs.Metrics.counter "incr.moves" in
  let measure name full incr =
    let full_ns = per_move full in
    let d0 = Dcopt_obs.Metrics.value dirty in
    let m0 = Dcopt_obs.Metrics.value moves_c in
    let incr_ns = per_move incr in
    let dirty_per_move =
      float_of_int (Dcopt_obs.Metrics.value dirty - d0)
      /. float_of_int (max 1 (Dcopt_obs.Metrics.value moves_c - m0))
    in
    (name, full_ns, incr_ns, dirty_per_move)
  in
  ( [
      measure "sizing_incr" sizing_full sizing_incr;
      measure "anneal_incr" anneal_full anneal_incr;
    ],
    gate_count )

(* Large-circuit STA scale kernels: full timing analysis (forward +
   backward sweep) on generated 100k/1M-gate random DAGs with the flat
   levelized kernel, measured as min-of-k — the minimum is a far tighter
   estimator of the true cost than any single reading. *)

type scale_result = {
  sc_name : string;
  sc_gates : int;
  sc_nodes : int;
  sc_ns_per_gate : float; (* flat levelized kernel *)
}

let measure_scale () =
  let module G = Dcopt_netlist.Generator in
  let module Flat = Dcopt_netlist.Flat in
  let module Flat_sta = Dcopt_timing.Flat_sta in
  let module Prng = Dcopt_util.Prng in
  let one (name, gates, reps) =
    (* the sta_constrained row measures the per-endpoint required-time
       path: finite capture budgets at every primary output, infinity
       elsewhere — the shape Constraints.required_times projects, read
       from a caller-owned seed column *)
    let constrained = String.equal name "sta_constrained" in
    let d = G.default_dag ~name ~seed:42L ~gates () in
    let c = G.random_dag d in
    let f = Flat.of_circuit c in
    let n = Circuit.size c in
    let rng = Prng.create 9L in
    let delays = Array.init n (fun _ -> Prng.float rng 1e-9) in
    let required_times =
      if not constrained then None
      else begin
        let req = Array.make n infinity in
        let rng = Prng.create 11L in
        Array.iter
          (fun id -> req.(id) <- 0.5e-9 +. Prng.float rng 1e-9)
          (Circuit.outputs c);
        Some req
      end
    in
    let best_flat = ref infinity in
    for _ = 1 to reps do
      let _, dt = wall (fun () -> Flat_sta.analyze ?required_times f ~delays) in
      if dt < !best_flat then best_flat := dt
    done;
    {
      sc_name = name;
      sc_gates = gates;
      sc_nodes = n;
      sc_ns_per_gate = !best_flat *. 1e9 /. float_of_int gates;
    }
  in
  let sizes =
    if !quick then
      [ ("sta_100k", 100_000, 5); ("sta_constrained", 100_000, 5) ]
    else
      [
        ("sta_100k", 100_000, 8);
        ("sta_constrained", 100_000, 8);
        ("sta_1m", 1_000_000, 3);
      ]
  in
  List.map one sizes

(* End to end at scale: joint optimization of a seed-1 100k-gate DAG at
   10 MHz, each flow phase read from its own span. Full runs only, and
   not gated: one run takes seconds, not microseconds. *)
let dag_phases =
  [
    ("core", "core-extraction");
    ("activity", "activity");
    ("wire load", "wire-load");
    ("budgeting", "budgeting");
    ("budget repair", "budget-repair");
    ("search", "search");
  ]

let measure_dag_phases () =
  let module Span = Dcopt_obs.Span in
  let dag =
    Dcopt_netlist.Generator.(
      random_dag (default_dag ~name:"dag100k" ~seed:1L ~gates:100_000 ()))
  in
  let config = { Flow.default_config with Flow.clock_frequency = 10e6 } in
  Span.reset ();
  Span.set_enabled true;
  let _, total =
    wall (fun () ->
        let p = Flow.prepare ~config dag in
        (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
          (Dcopt_core.Scenario.of_prepared p))
  in
  Span.set_enabled false;
  let rolled = Span.roll_up () in
  Span.reset ();
  let seconds span =
    List.fold_left
      (fun acc (name, _, ns) ->
        if String.equal name span then acc +. Dcopt_util.Clock.ns_to_s ns
        else acc)
      0.0 rolled
  in
  (List.map (fun (phase, span) -> (phase, seconds span)) dag_phases, total)

(* Fleet throughput kernel: the same 64-job batch (s27 joint, one
   distinct operating point per job) through a 4-worker fleet vs a
   1-worker fleet. Both sides go through identical machinery — fresh
   worker processes, dispatch, heartbeats, result framing — with the
   workers spawned and connected by a warm-up batch outside the clock,
   so the ratio isolates what adding workers buys and the gated ns/job
   measures steady-state distribution cost, not one-time process spawn.
   (The in-process Service.run_batch path is deliberately NOT the
   timing baseline: by this point the bench process carries a large
   live heap from bechamel and the 100k-gate scale kernels, which
   inflates its per-job cost by ~2x vs a fresh process — a
   process-state artifact, not a fleet property. It still supplies the
   reference rows for the byte-identity check.) The row records the
   host's core count next to the speedup: on a single-core container
   extra workers cannot help (speedup ~1x is the honest reading there),
   while the same row shows real scaling on multi-core hosts. *)

type fleet_result = {
  fl_name : string;
  fl_jobs : int;
  fl_workers : int;
  fl_cpus : int;
  fl_ns_per_job : float; (* [fl_workers]-worker fleet, workers already up *)
  fl_w1_ns_per_job : float; (* 1-worker fleet, same machinery *)
  fl_speedup : float; (* 1-worker / [fl_workers]-worker *)
  fl_rows_identical : bool; (* fleet rows == in-process rows, bytewise *)
}

let measure_fleet () =
  let module Service = Dcopt_service.Service in
  let module Fleet = Dcopt_service.Fleet in
  let module Job = Dcopt_service.Job in
  let module Json = Dcopt_util.Json in
  (* the coordinator spawns `minpower worker`; bench/main.exe and
     bin/minpower.exe sit side by side in the build tree *)
  let binary =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "minpower.exe")
  in
  if not (Sys.file_exists binary) then begin
    Printf.printf
      "\n(fleet kernel skipped: %s not built — run through dune so the \
       coordinator can spawn workers)\n"
      binary;
    []
  end
  else begin
    let n_jobs = 64 and workers = 4 in
    let job i =
      Job.make
        ~id:(Printf.sprintf "f%02d" i)
        ~optimizer:"joint"
        ~config:
          (Json.Obj
             [ ("clock_frequency", Json.Float (float_of_int (150 + i) *. 1e6)) ])
        "s27"
    in
    let jobs = List.init n_jobs job in
    let reps = if !quick then 2 else 3 in
    let row_strings rows =
      List.map (fun r -> Json.to_string (Job.row_to_json r)) rows
    in
    let timed_fleet ?listen n_workers =
      let fleet =
        Fleet.create (Fleet.options ~binary ~workers:n_workers ?listen ())
      in
      Fun.protect
        ~finally:(fun () -> Fleet.shutdown fleet)
        (fun () ->
          ignore (Fleet.run_batch fleet [ Job.make ~id:"warmup" "s27" ]);
          let best_dt = ref infinity and out = ref [] in
          for _ = 1 to reps do
            let rows, dt = wall (fun () -> Fleet.run_batch fleet jobs) in
            if dt < !best_dt then best_dt := dt;
            out := rows
          done;
          (!out, !best_dt))
    in
    let reference_rows = row_strings (Service.run_batch jobs) in
    let g = float_of_int n_jobs in
    (* the TCP row reruns the same batch with workers dialing back over
       loopback TCP instead of the unix socket: the delta against
       fleet_batch is the checksum-framed TCP transport cost per job *)
    let measure fl_name listen =
      let w1_rows, w1_dt = timed_fleet ?listen 1 in
      let wn_rows, wn_dt = timed_fleet ?listen workers in
      {
        fl_name;
        fl_jobs = n_jobs;
        fl_workers = workers;
        fl_cpus = Domain.recommended_domain_count ();
        fl_ns_per_job = wn_dt *. 1e9 /. g;
        fl_w1_ns_per_job = w1_dt *. 1e9 /. g;
        fl_speedup = w1_dt /. wn_dt;
        fl_rows_identical =
          row_strings w1_rows = reference_rows
          && row_strings wn_rows = reference_rows;
      }
    in
    [
      measure "fleet_batch" None;
      measure "fleet_tcp_batch"
        (Some (Dcopt_service.Wire.Tcp ("127.0.0.1", 0)));
    ]
  end

let write_timing_json path ~kernels ~full_joint ~incremental ~gate_count
    ~scale_results ~fleet_results =
  let esc = Dcopt_obs.Metrics.json_escape in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"dcopt-bench-timing/1\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" !quick;
  Printf.bprintf b "  \"jobs\": %d,\n" (Dcopt_par.Par.jobs ());
  Buffer.add_string b "  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.bprintf b "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n"
        (esc name)
        (match ns with Some v -> Printf.sprintf "%.3f" v | None -> "null")
        (if i < List.length kernels - 1 then "," else ""))
    kernels;
  Buffer.add_string b "  ],\n  \"full_joint\": [\n";
  List.iteri
    (fun i (circuit, seconds) ->
      Printf.bprintf b "    {\"circuit\": \"%s\", \"seconds\": %.4f}%s\n"
        (esc circuit) seconds
        (if i < List.length full_joint - 1 then "," else ""))
    full_joint;
  Buffer.add_string b "  ],\n  \"incremental\": [\n";
  List.iteri
    (fun i (name, full_ns, incr_ns, dirty_per_move) ->
      Printf.bprintf b
        "    {\"name\": \"%s\", \"full_ns_per_move\": %.1f, \
         \"incr_ns_per_move\": %.1f, \"speedup\": %.2f, \
         \"dirty_gates_per_move\": %.2f, \"gate_count\": %d}%s\n"
        (esc name) full_ns incr_ns
        (full_ns /. Float.max 1e-9 incr_ns)
        dirty_per_move gate_count
        (if i < List.length incremental - 1 then "," else ""))
    incremental;
  Buffer.add_string b "  ],\n  \"scale\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"name\": \"%s\", \"gates\": %d, \"nodes\": %d, \
         \"ns_per_gate\": %.3f}%s\n"
        (esc r.sc_name) r.sc_gates r.sc_nodes r.sc_ns_per_gate
        (if i < List.length scale_results - 1 then "," else ""))
    scale_results;
  Buffer.add_string b "  ],\n  \"fleet\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "    {\"name\": \"%s\", \"jobs\": %d, \"workers\": %d, \"cpus\": %d, \
         \"ns_per_job\": %.1f, \"one_worker_ns_per_job\": %.1f, \
         \"speedup_vs_one_worker\": %.2f, \"rows_identical\": %b}%s\n"
        (esc r.fl_name) r.fl_jobs r.fl_workers r.fl_cpus r.fl_ns_per_job
        r.fl_w1_ns_per_job r.fl_speedup r.fl_rows_identical
        (if i < List.length fleet_results - 1 then "," else ""))
    fleet_results;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "\nwrote kernel timings to %s\n" path

(* One bechamel pass over the kernel suite: [(name, ns_per_run option)],
   sorted by name. Factored out of [run_timing] so the regression gate can
   re-measure on a miss and take the per-kernel minimum. *)
let measure_kernels () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    if !quick then
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ~stabilize:true ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"dcopt" (bechamel_tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.map (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some (est :: _) -> Some est
           | Some [] | None -> None
         in
         (name, ns))

(* ------------------------------------------------------------------ *)
(* Regression gate (bench timing --check BASELINE.json)                *)

module Bench_gate = Dcopt_obs.Bench_gate

let gate_measurements ~kernels ~incremental ~scale_results ~fleet_results =
  List.filter_map
    (fun (name, ns) ->
      match ns with
      | Some ns when ns > 0.0 ->
        Some { Bench_gate.name = "kernel:" ^ name; ns }
      | Some _ | None -> None)
    kernels
  @ List.map
      (fun (name, _full_ns, incr_ns, _dirty) ->
        { Bench_gate.name = "incr:" ^ name; ns = incr_ns })
      incremental
  @ List.map
      (fun r -> { Bench_gate.name = "scale:" ^ r.sc_name; ns = r.sc_ns_per_gate })
      scale_results
  @ List.map
      (fun r -> { Bench_gate.name = "fleet:" ^ r.fl_name; ns = r.fl_ns_per_job })
      fleet_results

let merge_min a b =
  List.map
    (fun (m : Bench_gate.measurement) ->
      match
        List.find_opt
          (fun (m' : Bench_gate.measurement) -> String.equal m'.name m.name)
          b
      with
      | Some m' -> { m with Bench_gate.ns = Float.min m.ns m'.ns }
      | None -> m)
    a

(* Quick-mode bechamel estimates scatter under parallel test load, so a
   single slow reading is not a regression: on a miss, re-measure and
   keep the per-kernel minimum — min-of-k is a far tighter estimator of
   the true cost than any single run — and only fail once the minimum of
   three passes still exceeds the threshold. *)
let run_gate ~baseline_path ~kernels ~incremental ~scale_results ~fleet_results
    =
  (* scale and fleet kernels are optional on the baseline side: a quick
     run without --scale legitimately skips the former, and a bench
     binary run without bin/minpower.exe built cannot spawn the latter
     (they gate whenever measured) *)
  let has_prefix p name =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  let optional name = has_prefix "scale:" name || has_prefix "fleet:" name in
  match Bench_gate.load_baseline baseline_path with
  | Error e ->
    Printf.eprintf "bench gate: %s\n" e;
    exit 1
  | Ok baseline ->
    let current =
      ref
        (gate_measurements ~kernels ~incremental ~scale_results ~fleet_results)
    in
    let max_attempts = 3 in
    let rec attempt n =
      let verdicts = Bench_gate.check ~baseline ~current:!current ~optional () in
      if Bench_gate.all_ok verdicts then
        Printf.printf
          "\nbench gate vs %s: ok (%d measurements within %.2fx)\n"
          baseline_path (List.length verdicts) Bench_gate.default_threshold
      else if n < max_attempts then begin
        Printf.printf
          "\nbench gate: %d measurement(s) over threshold; re-measuring \
           (attempt %d/%d)\n"
          (List.length (Bench_gate.failures verdicts))
          (n + 1) max_attempts;
        let kernels' = measure_kernels () in
        let incremental', _ = measure_incremental () in
        let scale_results' =
          if scale_results = [] then [] else measure_scale ()
        in
        let fleet_results' =
          if fleet_results = [] then [] else measure_fleet ()
        in
        current :=
          merge_min !current
            (gate_measurements ~kernels:kernels' ~incremental:incremental'
               ~scale_results:scale_results' ~fleet_results:fleet_results');
        attempt (n + 1)
      end
      else begin
        Printf.printf "\nbench gate vs %s: FAILED\n%s" baseline_path
          (Bench_gate.render verdicts);
        exit 1
      end
    in
    attempt 1

let run_timing () =
  header "Kernel timing (Bechamel, monotonic clock)";
  let kernels = measure_kernels () in
  let table =
    Dcopt_util.Text_table.create ~headers:[ "Kernel"; "Time per run" ]
  in
  List.iter
    (fun (name, ns) ->
      let cell =
        match ns with
        | Some est -> Dcopt_util.Si.format ~unit:"s" (est *. 1e-9)
        | None -> "n/a"
      in
      Dcopt_util.Text_table.add_row table [ name; cell ])
    kernels;
  Dcopt_util.Text_table.print table;
  (* the paper reports 5-20 s per circuit on 1997 hardware; report ours *)
  print_newline ();
  let t =
    Dcopt_util.Text_table.create
      ~headers:[ "Circuit"; "Full joint optimization" ]
  in
  let full_joint =
    List.map
      (fun name ->
        let p = Flow.prepare (Suite.find_exn name) in
        let _, dt = wall (fun () -> (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p)) in
        Dcopt_util.Text_table.add_row t [ name; Dcopt_util.Si.format ~unit:"s" dt ];
        (name, dt))
      (if !quick then [ "s27" ] else [ "s27"; "s298"; "s344"; "s510" ])
  in
  Dcopt_util.Text_table.print t;
  print_endline
    "\n(The paper quotes 5-20 s per circuit on 1997 hardware for the same \
     O(M^3) procedure.)";
  if not !quick then begin
    let phases, total = measure_dag_phases () in
    let pt =
      Dcopt_util.Text_table.create
        ~headers:[ "Joint, 100k-gate DAG at 10 MHz"; "seconds"; "share" ]
    in
    List.iter
      (fun (phase, s) ->
        Dcopt_util.Text_table.add_row pt
          [ phase; Printf.sprintf "%.3f" s;
            Printf.sprintf "%.1f%%" (100.0 *. s /. total) ])
      phases;
    Dcopt_util.Text_table.add_row pt
      [ "end to end"; Printf.sprintf "%.3f" total; "100.0%" ];
    print_newline ();
    Dcopt_util.Text_table.print pt
  end;
  print_newline ();
  let incremental, gate_count = measure_incremental () in
  let it =
    Dcopt_util.Text_table.create
      ~headers:
        [
          "Per-move path (s298)";
          "full";
          "incremental";
          "speedup";
          "dirty gates/move";
        ]
  in
  List.iter
    (fun (name, full_ns, incr_ns, dirty_per_move) ->
      Dcopt_util.Text_table.add_row it
        [
          name;
          Dcopt_util.Si.format ~unit:"s" (full_ns *. 1e-9);
          Dcopt_util.Si.format ~unit:"s" (incr_ns *. 1e-9);
          Printf.sprintf "%.1fx" (full_ns /. Float.max 1e-9 incr_ns);
          Printf.sprintf "%.1f of %d" dirty_per_move gate_count;
        ])
    incremental;
  Dcopt_util.Text_table.print it;
  let scale_results =
    if (not !quick) || !scale then begin
      print_newline ();
      let st =
        Dcopt_util.Text_table.create
          ~headers:[ "Scale kernel (full STA)"; "gates"; "flat ns/gate" ]
      in
      let results = measure_scale () in
      List.iter
        (fun r ->
          Dcopt_util.Text_table.add_row st
            [
              r.sc_name;
              string_of_int r.sc_gates;
              Printf.sprintf "%.2f" r.sc_ns_per_gate;
            ])
        results;
      Dcopt_util.Text_table.print st;
      results
    end
    else []
  in
  let fleet_results =
    let results = measure_fleet () in
    if results <> [] then begin
      print_newline ();
      let ft =
        Dcopt_util.Text_table.create
          ~headers:
            [
              "Fleet kernel";
              "jobs";
              "workers";
              "cpus";
              "fleet ns/job";
              "1-worker ns/job";
              "speedup";
              "rows identical";
            ]
      in
      List.iter
        (fun r ->
          Dcopt_util.Text_table.add_row ft
            [
              r.fl_name;
              string_of_int r.fl_jobs;
              string_of_int r.fl_workers;
              string_of_int r.fl_cpus;
              Printf.sprintf "%.0f" r.fl_ns_per_job;
              Printf.sprintf "%.0f" r.fl_w1_ns_per_job;
              Printf.sprintf "%.2fx" r.fl_speedup;
              (if r.fl_rows_identical then "yes" else "NO");
            ])
        results;
      Dcopt_util.Text_table.print ft;
      (* same contract as the scale kernels: fleet rows that differ from
         the in-process path are a hard failure, not a table footnote *)
      List.iter
        (fun r ->
          if not r.fl_rows_identical then begin
            Printf.eprintf
              "fleet kernel %s: fleet rows differ from the in-process path\n"
              r.fl_name;
            exit 1
          end)
        results
    end;
    results
  in
  (match !json_out with
  | None -> ()
  | Some path ->
    write_timing_json path ~kernels ~full_joint ~incremental ~gate_count
      ~scale_results ~fleet_results);
  match !check_baseline with
  | None -> ()
  | Some baseline_path ->
    run_gate ~baseline_path ~kernels ~incremental ~scale_results ~fleet_results

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("table2", run_table2);
    ("fig2a", run_fig2a);
    ("fig2b", run_fig2b);
    ("annealing", run_annealing);
    ("ablation-activity", run_ablation_activity);
    ("ablation-budget", run_ablation_budget);
    ("ablation-multivt", run_ablation_multivt);
    ("ablation-multivdd", run_ablation_multivdd);
    ("ablation-shortcircuit", run_ablation_short_circuit);
    ("yield", run_yield);
    ("scaling", run_scaling);
    ("glitch", run_glitch);
    ("state-activity", run_state_activity);
    ("ablation-sizing", run_ablation_sizing);
    ("ablation-fanin", run_ablation_fanin);
    ("pipeline", run_pipeline);
    ("temperature", run_temperature);
    ("timing", run_timing);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--scale" :: rest ->
      scale := true;
      parse acc rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse acc rest
    | "--check" :: path :: rest ->
      check_baseline := Some path;
      parse acc rest
    | "--jobs" :: value :: rest ->
      (match int_of_string_opt value with
      | Some n when n >= 1 -> Dcopt_par.Par.set_jobs n
      | Some _ | None ->
        Printf.eprintf "--jobs expects an integer >= 1, got %S\n" value;
        exit 2);
      parse acc rest
    | ("--json" | "--jobs" | "--check") :: [] ->
      Printf.eprintf "--json/--jobs/--check expect an argument\n";
      exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args =
    parse []
      (match Array.to_list Sys.argv with _ :: args -> args | [] -> [])
  in
  let requested =
    match args with
    | [] | [ "all" ] -> List.map fst experiments
    | args -> args
  in
  let unknown =
    List.filter (fun a -> not (List.mem_assoc a experiments)) requested
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable: %s all\n"
      (String.concat " " unknown)
      (String.concat " " (List.map fst experiments));
    exit 2
  end;
  List.iter (fun name -> (List.assoc name experiments) ()) requested
