module Delay_assign = Dcopt_timing.Delay_assign

type point = {
  slack_factor : float;
  baseline_energy : float;
  joint_energy : float;
  savings : float;
  savings_same_slack : float;
  joint_vdd : float;
  joint_vt : float;
}

let sweep ?(m_steps = 12) ~tech ~fc circuit profile ~factors =
  (* Solve every slack point on the Par pool, then resolve the nominal
     reference sequentially in sorted order — the rule a sequential sweep
     applies ("factor 1 or else the first point that solved"). *)
  let solve factor =
    let fc_eff = fc /. factor in
    let env = Power_model.make_env ~tech ~fc:fc_eff circuit profile in
    let raw =
      (Delay_assign.assign circuit ~cycle_time:(1.0 /. fc_eff)).Delay_assign.t_max
    in
    let repaired vt =
      match
        Budget_repair.repair env ~budgets:raw
          ~vdd:tech.Dcopt_device.Tech.vdd_max ~vt
      with
      | Budget_repair.Repaired { budgets; _ } -> Some budgets
      | Budget_repair.Infeasible _ -> None
    in
    let baseline =
      let vt = Baseline.default_vt in
      Option.bind (repaired vt) (fun budgets ->
          Baseline.optimize ~vt ~m_steps env ~budgets)
    in
    let joint =
      Option.bind (repaired tech.Dcopt_device.Tech.vt_min) (fun budgets ->
          Heuristic.optimize
            ~options:{ Heuristic.default_options with m_steps;
                       strategy = Heuristic.Grid_refine }
            env ~budgets)
    in
    match (baseline, joint) with
    | Some b, Some j ->
      let vt = match Solution.vt_values j env with v :: _ -> v | [] -> nan in
      Some (Solution.total_energy b, j, vt)
    | _ -> None
  in
  (* evaluate the nominal point first so the reference is available *)
  let sorted = Array.copy factors in
  Array.sort Float.compare sorted;
  Array.iter
    (fun factor ->
      if factor < 1.0 then invalid_arg "Slack_sweep.sweep: slack factor below 1")
    sorted;
  let solved =
    Dcopt_par.Par.map ~site:"slack.factors"
      (fun factor -> (factor, solve factor))
      sorted
  in
  let nominal_baseline = ref None in
  Array.to_list solved
  |> List.filter_map (fun (factor, result) ->
         match result with
         | None -> None
         | Some (be, j, vt) ->
           let je = Solution.total_energy j in
           if factor = 1.0 || !nominal_baseline = None then
             nominal_baseline := Some be;
           let reference = Option.value !nominal_baseline ~default:be in
           Some
             {
               slack_factor = factor;
               baseline_energy = be;
               joint_energy = je;
               savings = reference /. je;
               savings_same_slack = be /. je;
               joint_vdd = Solution.vdd j;
               joint_vt = vt;
             })
  |> Array.of_list
