module Prng = Dcopt_util.Prng
module Stats = Dcopt_util.Stats

type report = {
  samples : int;
  timing_yield : float;
  mean_energy : float;
  p95_energy : float;
  worst_critical_delay : float;
}

(* The sample stream's seed, and the die-to-die (correlated) share of
   the threshold sigma. *)
let seed = 0xD1E5L
let global_fraction = 0.7

let monte_carlo env design ~sigma_fraction ~samples =
  assert (samples >= 1 && sigma_fraction >= 0.0);
  let rng = Prng.create seed in
  let gates = Power_model.gate_ids env in
  let energies = Array.make samples 0.0 in
  let pass = ref 0 in
  let worst = ref 0.0 in
  (* Die-to-die (correlated) and within-die (independent) components: the
     correlated part dominates timing loss because it cannot average out
     along a path. *)
  let sigma_global = global_fraction *. sigma_fraction in
  let sigma_local =
    sqrt (Float.max 0.0 ((sigma_fraction ** 2.0) -. (sigma_global ** 2.0)))
  in
  (* Draw every sample's thresholds sequentially (the exact stream a
     sequential run consumes), then evaluate the pure samples on the Par
     pool and reduce in index order — the report is identical at any
     --jobs. *)
  let vt_samples = Array.make samples [||] in
  for i = 0 to samples - 1 do
    let die_shift = Prng.gaussian rng ~mean:0.0 ~sigma:sigma_global in
    let vt_sample = Array.copy design.Power_model.vt in
    Array.iter
      (fun id ->
        let nominal = design.Power_model.vt.(id) in
        let local =
          Prng.gaussian rng ~mean:0.0 ~sigma:(sigma_local *. nominal)
        in
        let v = (nominal *. (1.0 +. die_shift)) +. local in
        vt_sample.(id) <- Float.max (0.05 *. nominal) v)
      gates;
    vt_samples.(i) <- vt_sample
  done;
  let evals =
    Dcopt_par.Par.map ~site:"yield.samples"
      (fun vt -> Power_model.evaluate env { design with Power_model.vt = vt })
      vt_samples
  in
  Array.iteri
    (fun i e ->
      energies.(i) <- e.Power_model.total_energy;
      if e.Power_model.feasible then incr pass;
      if e.Power_model.critical_delay > !worst then
        worst := e.Power_model.critical_delay)
    evals;
  {
    samples;
    timing_yield = float_of_int !pass /. float_of_int samples;
    mean_energy = Stats.mean energies;
    p95_energy = Stats.percentile energies 95.0;
    worst_critical_delay = !worst;
  }

type curve_point = {
  sigma_pct : float;
  nominal_yield : float;
  margined_yield : float;
  margined_energy_cost : float;
}

let yield_curve ?(m_steps = 10) ?(samples = 300) env ~budgets ~sigmas =
  let nominal =
    Heuristic.optimize
      ~options:{ Heuristic.m_steps; strategy = Heuristic.Grid_refine;
                 vt_fixed = None }
      env ~budgets
  in
  match nominal with
  | None -> [||]
  | Some nominal_sol ->
    let nominal_design = nominal_sol.Solution.design in
    Array.to_list sigmas
    |> List.filter_map (fun sigma ->
           (* margin for the 3-sigma slow corner, as Fig. 2(a) does *)
           let tolerance = Float.min 0.9 (3.0 *. sigma) in
           match Variation.corner_optimize ~m_steps env ~budgets ~tolerance with
           | None -> None
           | Some margined_sol ->
             (* the stored corner design carries the leaky-corner vt; the
                manufactured nominal is vt / (1 - tol) *)
             let margined_design =
               let d = margined_sol.Solution.design in
               {
                 d with
                 Power_model.vt =
                   Array.map (fun v -> v /. (1.0 -. tolerance))
                     d.Power_model.vt;
               }
             in
             let nominal_report =
               monte_carlo env nominal_design ~sigma_fraction:sigma ~samples
             in
             let margined_report =
               monte_carlo env margined_design ~sigma_fraction:sigma ~samples
             in
             Some
               {
                 sigma_pct = sigma *. 100.0;
                 nominal_yield = nominal_report.timing_yield;
                 margined_yield = margined_report.timing_yield;
                 margined_energy_cost =
                   margined_report.mean_energy /. nominal_report.mean_energy;
               })
    |> Array.of_list
