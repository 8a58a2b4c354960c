module Tech = Dcopt_device.Tech

type point = {
  tolerance_pct : float;
  worst_case_energy : float;
  savings : float;
}

(* A corner-aware trial: widths sized with timing closed at the slow
   corner, energy booked at the leaky corner. Both corners are the env's
   threshold stress, so the design keeps the nominal thresholds. *)
let corner_optimize ?(m_steps = 12) env ~budgets ~tolerance =
  assert (tolerance >= 0.0 && tolerance < 1.0);
  let slow = Power_model.with_vt_stress env (1.0 +. tolerance) in
  let leaky = Power_model.with_vt_stress env (1.0 -. tolerance) in
  let n = Dcopt_netlist.Circuit.size (Power_model.circuit env) in
  let make ~vdd ~vt =
    let design, ok =
      Power_model.size_widths slow ~vdd ~vt:(Array.make n vt) ~budgets
    in
    Solution.make ~label:"corner" ~meets_budgets:ok leaky design
  in
  (* The slow corner must stay inside the manufacturable threshold range. *)
  Heuristic.grid_refine ~site:"variation.grid" ~n:(max 8 m_steps)
    ~vt_max:((Power_model.tech env).Tech.vt_max /. (1.0 +. tolerance))
    ~vt_fixed:None
    ~emit:(fun ~vdd:_ ~vt:_ _ -> ())
    ~score:(fun sol ->
      if sol.Solution.meets_budgets && Solution.feasible sol then
        Some (Solution.total_energy sol)
      else None)
    ~make env

let savings_curve ?m_steps env ~budgets ~baseline_energy ~tolerances =
  (* Tolerance points are independent corner optimizations: run them on
     the Par pool, keep the curve in input order. *)
  Dcopt_par.Par.map ~site:"variation.corners"
    (fun tolerance ->
      (tolerance, corner_optimize ?m_steps env ~budgets ~tolerance))
    tolerances
  |> Array.to_list
  |> List.filter_map (fun (tolerance, result) ->
         match result with
         | None -> None
         | Some sol ->
           let e = Solution.total_energy sol in
           Some
             {
               tolerance_pct = tolerance *. 100.0;
               worst_case_energy = e;
               savings = baseline_energy /. e;
             })
  |> Array.of_list
