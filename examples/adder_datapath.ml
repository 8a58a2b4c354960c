(* Datapath scenario: a 16-bit ripple-carry adder at several clock targets.

   The paper's introduction motivates trading architectural slack for
   power: when a block has more cycle time than it needs, the joint
   optimizer converts the slack into aggressive supply/threshold scaling —
   all the way into subthreshold at the loosest targets. This example
   sweeps clock targets over one real datapath and prints the resulting
   operating points, reproducing the Fig. 2(b) effect on a structured
   (non-random) circuit.

   Run with: dune exec examples/adder_datapath.exe *)

module Flow = Dcopt_core.Flow
module Solution = Dcopt_opt.Solution
module Patterns = Dcopt_netlist.Patterns

let () =
  let adder = Patterns.ripple_carry_adder ~bits:16 in
  Printf.printf "circuit: %s\n\n"
    (Dcopt_netlist.Circuit_stats.to_string
       (Dcopt_netlist.Circuit_stats.compute adder));
  let table =
    Dcopt_util.Text_table.create
      ~headers:
        [ "Clock"; "Vdd (V)"; "Vt (mV)"; "Static"; "Dynamic"; "Total";
          "vs 400MHz" ]
  in
  let reference = ref None in
  List.iter
    (fun fc_mhz ->
      let config =
        { Flow.default_config with Flow.clock_frequency = fc_mhz *. 1e6 }
      in
      let p = Flow.prepare ~config adder in
      match (Dcopt_core.Optimizer.get "joint-grid").Dcopt_core.Optimizer.run
        (Dcopt_core.Scenario.of_prepared p) with
      | None ->
        Dcopt_util.Text_table.add_row table
          [ Printf.sprintf "%.0f MHz" fc_mhz; "-"; "-"; "-"; "-"; "-";
            "infeasible" ]
      | Some sol ->
        let energy = Solution.total_energy sol in
        if !reference = None then reference := Some energy;
        let ratio =
          match !reference with
          | Some r -> Printf.sprintf "%.1fx less" (r /. energy)
          | None -> "-"
        in
        Dcopt_util.Text_table.add_row table
          [
            Printf.sprintf "%.0f MHz" fc_mhz;
            Printf.sprintf "%.2f" (Solution.vdd sol);
            Printf.sprintf "%.0f"
              ((match Solution.vt_values sol p.Flow.env with v :: _ -> v | [] -> nan)
              *. 1000.0);
            Dcopt_util.Si.format ~unit:"J" (Solution.static_energy sol);
            Dcopt_util.Si.format ~unit:"J" (Solution.dynamic_energy sol);
            Dcopt_util.Si.format ~unit:"J" energy;
            ratio;
          ])
    [ 400.0; 200.0; 100.0; 50.0; 25.0 ];
  Dcopt_util.Text_table.print table;
  print_endline
    "\nNote how the optimizer rides Vdd and Vt down as the clock relaxes:\n\
     energy per operation keeps falling until leakage integration over the\n\
     longer cycle balances the switching savings.";
