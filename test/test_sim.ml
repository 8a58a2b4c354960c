module Transient = Dcopt_sim.Transient
module Tech = Dcopt_device.Tech

let tech = Tech.default

let test_drain_current_zero_at_zero_vds () =
  Alcotest.(check (float 0.0)) "no vds, no current" 0.0
    (Transient.drain_current tech ~vdd:1.2 ~vt:0.2 ~w:4.0 ~stack:2 ~vds:0.0)

let test_drain_current_saturates () =
  let i_half =
    Transient.drain_current tech ~vdd:1.2 ~vt:0.2 ~w:4.0 ~stack:2 ~vds:0.6
  in
  let i_full =
    Transient.drain_current tech ~vdd:1.2 ~vt:0.2 ~w:4.0 ~stack:2 ~vds:1.2
  in
  Alcotest.(check bool) "monotone in vds" true (i_full >= i_half);
  (* above vdsat the current is flat *)
  let i_above =
    Transient.drain_current tech ~vdd:1.2 ~vt:0.2 ~w:4.0 ~stack:2 ~vds:1.1
  in
  Alcotest.(check bool) "flat in saturation" true
    (Float.abs (i_full -. i_above) /. i_full < 1e-6)

let test_drain_current_scales_with_width () =
  let i1 = Transient.drain_current tech ~vdd:1.2 ~vt:0.2 ~w:2.0 ~stack:2 ~vds:1.2 in
  let i2 = Transient.drain_current tech ~vdd:1.2 ~vt:0.2 ~w:4.0 ~stack:2 ~vds:1.2 in
  Alcotest.(check (float 1e-12)) "linear in w" (2.0 *. i1) i2

let test_waveform_monotone () =
  let wf =
    Transient.simulate_discharge tech ~vdd:1.2 ~vt:0.2 ~w:4.0 ~stack:2
      ~fanin:2 ~c_load:10e-15
  in
  Alcotest.(check bool) "starts at vdd" true
    (Float.abs (wf.Transient.voltages.(0) -. 1.2) < 1e-9);
  let n = Array.length wf.Transient.voltages in
  Alcotest.(check bool) "discharges" true
    (wf.Transient.voltages.(n - 1) < 0.1 *. 1.2);
  for i = 1 to n - 1 do
    Alcotest.(check bool) "non-increasing" true
      (wf.Transient.voltages.(i) <= wf.Transient.voltages.(i - 1) +. 1e-12)
  done

let test_delay_scales_with_load () =
  let d c =
    Transient.discharge_delay tech ~vdd:1.2 ~vt:0.2 ~w:4.0 ~stack:2 ~fanin:2
      ~c_load:c
  in
  let d1 = d 5e-15 and d2 = d 10e-15 in
  Alcotest.(check bool) "roughly linear in load" true
    (d2 /. d1 > 1.8 && d2 /. d1 < 2.2)

let test_stalled_node_never_crosses () =
  (* fanin leakage above drive: the node hangs near vdd *)
  let d =
    Transient.discharge_delay tech ~vdd:0.12 ~vt:0.7 ~w:1.0 ~stack:2
      ~fanin:1000 ~c_load:5e-15
  in
  Alcotest.(check bool) "no crossing" true (d = infinity)

(* The headline validation: analytic eq. A3 switching delay vs RK4 across
   the full operating space, including subthreshold. The analytic model is
   first order, so we assert a band rather than equality; the band is tight
   enough to catch any broken term. *)
let test_model_validation_sweep () =
  List.iter
    (fun (vdd, vt) ->
      List.iter
        (fun w ->
          let { Transient.analytic; simulated; ratio } =
            Transient.compare_switching tech ~vdd ~vt ~w ~stack:2 ~fanin:2
              ~c_load:8e-15
          in
          if analytic <> infinity then
            Alcotest.(check bool)
              (Printf.sprintf "vdd=%.2f vt=%.2f w=%.0f ratio=%.2f" vdd vt w
                 ratio)
              true
              (simulated > 0.0 && ratio > 0.4 && ratio < 2.5))
        [ 1.0; 4.0; 16.0 ])
    [ (3.3, 0.7); (2.0, 0.45); (1.2, 0.2); (0.9, 0.15); (0.6, 0.15);
      (0.25, 0.3) (* subthreshold operation *) ]

let test_comparison_fields_consistent () =
  let c =
    Transient.compare_switching tech ~vdd:1.2 ~vt:0.2 ~w:4.0 ~stack:2 ~fanin:2
      ~c_load:8e-15
  in
  Alcotest.(check (float 1e-9)) "ratio consistent"
    (c.Transient.simulated /. c.Transient.analytic)
    c.Transient.ratio

let () =
  Alcotest.run "sim"
    [
      ( "drain current",
        [
          Alcotest.test_case "zero vds" `Quick test_drain_current_zero_at_zero_vds;
          Alcotest.test_case "saturation" `Quick test_drain_current_saturates;
          Alcotest.test_case "width scaling" `Quick
            test_drain_current_scales_with_width;
        ] );
      ( "transient",
        [
          Alcotest.test_case "waveform" `Quick test_waveform_monotone;
          Alcotest.test_case "load scaling" `Quick test_delay_scales_with_load;
          Alcotest.test_case "leakage stall" `Quick
            test_stalled_node_never_crosses;
        ] );
      ( "model validation",
        [
          Alcotest.test_case "hspice-substitute sweep" `Quick
            test_model_validation_sweep;
          Alcotest.test_case "comparison fields" `Quick
            test_comparison_fields_consistent;
        ] );
    ]
