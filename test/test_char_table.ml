module Char_table = Dcopt_device.Char_table
module Drive = Dcopt_device.Drive
module Tech = Dcopt_device.Tech
module Gate = Dcopt_netlist.Gate

let tech = Tech.default

let nand2 =
  Char_table.characterize tech ~kind:Gate.Nand ~fanin:2 ~width:4.0 ~vdd:1.0
    ~vt:0.15

let analytic_delay ~load ~slew =
  let delay_load =
    {
      Device_ref.fanin_count = 2;
      stack_depth = 2;
      cap_fanout_gates = 0.0;
      cap_wire = load;
      res_wire_terms = 0.0;
      flight_time = 0.0;
      max_fanin_delay = slew;
    }
  in
  Device_ref.gate_delay tech ~vdd:1.0 ~vt:0.15 ~w:4.0 delay_load

let test_exact_on_grid_points () =
  let t = nand2.Char_table.delay_table in
  Array.iteri
    (fun i load ->
      Array.iteri
        (fun j slew ->
          let table_value = t.Char_table.values.(i).(j) in
          let direct = Char_table.cell_delay nand2 ~load ~slew in
          Alcotest.(check (float 1e-18)) "grid point exact" table_value direct;
          Alcotest.(check (float 1e-18)) "matches analytic" table_value
            (analytic_delay ~load ~slew))
        t.Char_table.slew_axis.Char_table.points)
    t.Char_table.load_axis.Char_table.points

let test_interpolation_accuracy_off_grid () =
  (* off-grid queries should stay within a few percent of the analytic
     model (the delay is near-affine in load; the slew axis is log-spaced) *)
  List.iter
    (fun (load, slew) ->
      let interpolated = Char_table.cell_delay nand2 ~load ~slew in
      let exact = analytic_delay ~load ~slew in
      let rel = Float.abs (interpolated -. exact) /. exact in
      Alcotest.(check bool)
        (Printf.sprintf "load %.2g slew %.2g: %.1f%%" load slew (rel *. 100.0))
        true (rel < 0.08))
    [ (3.1e-15, 7e-12); (12e-15, 5e-11); (25e-15, 3e-10); (47e-15, 1.2e-9) ]

let test_clamping_at_edges () =
  let t = nand2.Char_table.delay_table in
  let lo_load = t.Char_table.load_axis.Char_table.points.(0) in
  let lo_slew = t.Char_table.slew_axis.Char_table.points.(0) in
  Alcotest.(check (float 1e-18)) "below-range clamps to corner"
    t.Char_table.values.(0).(0)
    (Char_table.lookup t ~load:(lo_load /. 10.0) ~slew:(lo_slew /. 10.0))

let test_monotone_in_load () =
  let prev = ref 0.0 in
  Array.iter
    (fun load ->
      let d = Char_table.cell_delay nand2 ~load ~slew:1e-11 in
      Alcotest.(check bool) "increasing in load" true (d > !prev);
      prev := d)
    (Dcopt_util.Numeric.linspace ~lo:1e-15 ~hi:60e-15 ~n:15)

let test_cell_metadata () =
  Alcotest.(check (float 1e-20)) "input cap"
    (tech.Tech.c_gate *. 4.0)
    nand2.Char_table.input_capacitance;
  Alcotest.(check bool) "leakage positive" true (nand2.Char_table.leakage > 0.0);
  Alcotest.(check bool) "internal energy positive" true
    (nand2.Char_table.energy_per_transition > 0.0)

let test_characterize_rejects_bad_cells () =
  (match
     Char_table.characterize tech ~kind:Gate.Input ~fanin:0 ~width:2.0
       ~vdd:1.0 ~vt:0.2
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of INPUT");
  match
    Char_table.characterize tech ~kind:Gate.Nand ~fanin:1 ~width:2.0 ~vdd:1.0
      ~vt:0.2
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity rejection"

let test_liberty_dump () =
  let text = Char_table.to_liberty [ nand2 ] in
  let contains needle =
    let ln = String.length needle and lt = String.length text in
    let rec scan i =
      i + ln <= lt && (String.sub text i ln = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "library group" true (contains "library (");
  Alcotest.(check bool) "cell group" true (contains "cell (NAND2_w4_v1000)");
  Alcotest.(check bool) "has values" true (contains "values (");
  Alcotest.(check bool) "balanced braces" true
    (let opens = ref 0 and closes = ref 0 in
     String.iter
       (fun c ->
         if c = '{' then incr opens else if c = '}' then incr closes)
       text;
     !opens = !closes && !opens > 0)

let test_slew_sensitivity_matches_slope_term () =
  (* moving along the slew axis must change the delay exactly through the
     slope coefficient *)
  let d1 = Char_table.cell_delay nand2 ~load:1e-14 ~slew:1e-12 in
  let d2 = Char_table.cell_delay nand2 ~load:1e-14 ~slew:2e-9 in
  let coeff = Drive.slope_coefficient tech ~vdd:1.0 ~vt:0.15 in
  let expected = coeff *. (2e-9 -. 1e-12) in
  Alcotest.(check bool) "slew sensitivity" true
    (Float.abs (d2 -. d1 -. expected) /. expected < 0.05)

let () =
  Alcotest.run "char_table"
    [
      ( "tables",
        [
          Alcotest.test_case "grid exact" `Quick test_exact_on_grid_points;
          Alcotest.test_case "interpolation" `Quick
            test_interpolation_accuracy_off_grid;
          Alcotest.test_case "edge clamping" `Quick test_clamping_at_edges;
          Alcotest.test_case "monotone in load" `Quick test_monotone_in_load;
          Alcotest.test_case "slew sensitivity" `Quick
            test_slew_sensitivity_matches_slope_term;
        ] );
      ( "cells",
        [
          Alcotest.test_case "metadata" `Quick test_cell_metadata;
          Alcotest.test_case "rejects bad cells" `Quick
            test_characterize_rejects_bad_cells;
          Alcotest.test_case "liberty dump" `Quick test_liberty_dump;
        ] );
    ]
