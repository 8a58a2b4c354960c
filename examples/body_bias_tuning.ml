(* Body-bias tuning: realizing the optimizer's threshold on silicon.

   Figure 1 of the paper shows its manufacturing route to arbitrary
   thresholds on an existing CMOS process: skip the threshold-adjust
   implant (leaving low-Vt "natural" devices) and statically reverse-bias
   the p-substrate and the n-well. This example runs the joint optimizer
   on a benchmark, then derives the substrate/n-well bias voltages that
   realize the returned threshold, and shows the leakage cost of the
   residual quantization if the bias generator only has coarse steps.

   Run with: dune exec examples/body_bias_tuning.exe *)

module Flow = Dcopt_core.Flow
module Solution = Dcopt_opt.Solution
module Body_bias = Dcopt_device.Body_bias
module Mosfet = Dcopt_device.Mosfet
module Tech = Dcopt_device.Tech

let () =
  let tech = Tech.default in
  let p = Flow.prepare (Dcopt_suite.Suite.find_exn "s386") in
  match (Dcopt_core.Optimizer.get "joint-grid").Dcopt_core.Optimizer.run
        (Dcopt_core.Scenario.of_prepared p) with
  | None -> print_endline "no feasible design"
  | Some sol ->
    let vt =
      match Solution.vt_values sol p.Flow.env with v :: _ -> v | [] -> assert false
    in
    Printf.printf "optimizer result: Vdd = %.2f V, Vt = %.0f mV\n"
      (Solution.vdd sol) (vt *. 1000.0);
    (match Body_bias.bias_for_vt tech ~vt with
    | None ->
      Printf.printf "threshold unreachable by reverse bias (max %.0f mV)\n"
        (Body_bias.max_reachable_vt tech *. 1000.0)
    | Some vsb ->
      Printf.printf
        "realization (Fig. 1): natural Vt %.0f mV + %.2f V reverse bias on \
         p-substrate (NMOS) and Vdd + %.2f V on the n-well (PMOS)\n"
        (tech.Tech.vt_natural *. 1000.0) vsb vsb;
      (* Bias-generator quantization: what a 100 mV-step supply costs. *)
      let step = 0.1 in
      let quantized = Float.of_int (int_of_float (vsb /. step)) *. step in
      let vt_quantized = Body_bias.vt_of_bias tech ~vsb:quantized in
      let leak v = Mosfet.i_off tech ~vt:v in
      Printf.printf
        "with a %.0f mV bias DAC: bias %.1f V -> Vt %.0f mV, leakage %.2fx \
         the exact-bias value\n"
        (step *. 1000.0) quantized (vt_quantized *. 1000.0)
        (leak vt_quantized /. leak vt);
      (* Show the full bias->Vt->leakage map around the operating point. *)
      let table =
        Dcopt_util.Text_table.create
          ~headers:[ "Reverse bias (V)"; "Vt (mV)"; "I_off (A per w-unit)" ]
      in
      Array.iter
        (fun b ->
          let v = Body_bias.vt_of_bias tech ~vsb:b in
          Dcopt_util.Text_table.add_row table
            [
              Printf.sprintf "%.1f" b;
              Printf.sprintf "%.0f" (v *. 1000.0);
              Printf.sprintf "%.2e" (leak v);
            ])
        (Dcopt_util.Numeric.linspace ~lo:0.0 ~hi:2.0 ~n:11);
      print_endline "";
      Dcopt_util.Text_table.print table)
