module Tech = Dcopt_device.Tech
module Numeric = Dcopt_util.Numeric

type point = {
  tolerance_pct : float;
  worst_case_energy : float;
  savings : float;
}

(* One corner-aware trial: timing closed at vt(1+tol), energy booked at
   vt(1-tol) with the widths the slow corner required. *)
let corner_trial env ~budgets ~tolerance ~vdd ~vt =
  let circuit = Power_model.circuit env in
  let n = Dcopt_netlist.Circuit.size circuit in
  let vt_slow = Array.make n (vt *. (1.0 +. tolerance)) in
  let vt_leaky = Array.make n (vt *. (1.0 -. tolerance)) in
  let design_slow, ok = Power_model.size_widths env ~vdd ~vt:vt_slow ~budgets in
  let design_leaky = { design_slow with Power_model.vt = vt_leaky } in
  let sol =
    Solution.make ~label:"corner" ~meets_budgets:ok env design_leaky
  in
  (ok, sol)

let corner_optimize ?(m_steps = 12) env ~budgets ~tolerance =
  assert (tolerance >= 0.0 && tolerance < 1.0);
  let tech = Power_model.tech env in
  (* The slow corner must stay inside the manufacturable threshold range. *)
  let vt_hi = tech.Tech.vt_max /. (1.0 +. tolerance) in
  let best = ref None in
  let scan vdd_lo vdd_hi vt_lo vt_hi n =
    let vdds = Numeric.log_interp_points ~lo:vdd_lo ~hi:vdd_hi ~n in
    let vts = Numeric.linspace ~lo:vt_lo ~hi:vt_hi ~n in
    Array.iter
      (fun vdd ->
        Array.iter
          (fun vt ->
            let ok, sol = corner_trial env ~budgets ~tolerance ~vdd ~vt in
            if ok then best := Solution.better !best sol)
          vts)
      vdds
  in
  scan tech.Tech.vdd_min tech.Tech.vdd_max tech.Tech.vt_min vt_hi
    (max 8 m_steps);
  (match !best with
  | None -> ()
  | Some sol ->
    let vdd0 = Solution.vdd sol in
    let vt0 =
      (* recover the nominal vt: the stored design carries the leaky corner *)
      match Solution.vt_values sol env with
      | v :: _ -> v /. (1.0 -. tolerance)
      | [] -> tech.Tech.vt_min
    in
    let span_vdd = (tech.Tech.vdd_max -. tech.Tech.vdd_min)
                   /. float_of_int (max 8 m_steps) in
    let span_vt = (vt_hi -. tech.Tech.vt_min) /. float_of_int (max 8 m_steps) in
    let c = Numeric.clamp in
    scan
      (c ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max (vdd0 -. span_vdd))
      (c ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max (vdd0 +. span_vdd))
      (c ~lo:tech.Tech.vt_min ~hi:vt_hi (vt0 -. span_vt))
      (c ~lo:tech.Tech.vt_min ~hi:vt_hi (vt0 +. span_vt))
      (max 8 m_steps));
  !best

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
