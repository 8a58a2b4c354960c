module Tech = Dcopt_device.Tech
module Mosfet = Dcopt_device.Mosfet
module Drive = Dcopt_device.Drive
module Body_bias = Dcopt_device.Body_bias

let tech = Tech.default

(* The oracle's load as the operands Drive reads. *)
let gate_of ctx (load : Device_ref.load) =
  Drive.gate tech ctx ~fanin:load.fanin_count ~stack:load.stack_depth
    ~cap_fanout:load.cap_fanout_gates ~cap_wire:load.cap_wire
    ~res_wire:load.res_wire_terms ~flight:load.flight_time
    ~max_fanin_delay:load.max_fanin_delay

(* eq. A3 through a fresh context for the operating point *)
let gate_delay ~vdd ~vt ~w load =
  Drive.gate_delay (gate_of (Drive.make tech ~vdd ~vt) load) ~w

let representative_load =
  {
    Device_ref.fanin_count = 2;
    stack_depth = 2;
    cap_fanout_gates = 3.0e-15;
    cap_wire = 2.0e-15;
    res_wire_terms = 1.0e-13;
    flight_time = 5.0e-14;
    max_fanin_delay = 1.0e-10;
  }

(* ------------------------------------------------------------------ *)
(* Tech                                                               *)

let test_default_valid () =
  match Tech.validate tech with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_validate_catches_bad () =
  let bad = { tech with Tech.alpha = -1.0 } in
  Alcotest.(check bool) "negative alpha" true (Result.is_error (Tech.validate bad));
  let bad = { tech with Tech.vdd_min = 5.0 } in
  Alcotest.(check bool) "empty vdd range" true (Result.is_error (Tech.validate bad));
  let bad = { tech with Tech.w_min = 200.0 } in
  Alcotest.(check bool) "empty w range" true (Result.is_error (Tech.validate bad))

let test_subthreshold_scale () =
  let nvt = Tech.subthreshold_scale tech in
  Alcotest.(check (float 1e-12)) "alpha * S / ln 10"
    (tech.Tech.alpha *. tech.Tech.s_swing /. log 10.0)
    nvt

(* ------------------------------------------------------------------ *)
(* Mosfet                                                             *)

let test_overdrive_limits () =
  (* far above threshold: tends to vgs - vt *)
  let od = Mosfet.overdrive tech ~vgs:3.3 ~vt:0.7 in
  Alcotest.(check bool) "superthreshold limit" true
    (Float.abs (od -. 2.6) < 0.01);
  (* far below: exponentially small but positive *)
  let od_sub = Mosfet.overdrive tech ~vgs:0.0 ~vt:0.7 in
  Alcotest.(check bool) "subthreshold positive" true
    (od_sub > 0.0 && od_sub < 1e-5)

let test_i_drive_monotone_vdd () =
  let prev = ref 0.0 in
  Array.iter
    (fun vdd ->
      let i = Mosfet.i_drive tech ~vdd ~vt:0.3 in
      Alcotest.(check bool) "increasing in vdd" true (i > !prev);
      prev := i)
    (Dcopt_util.Numeric.linspace ~lo:0.2 ~hi:3.3 ~n:20)

let test_i_drive_monotone_vt () =
  let prev = ref infinity in
  Array.iter
    (fun vt ->
      let i = Mosfet.i_drive tech ~vdd:1.5 ~vt in
      Alcotest.(check bool) "decreasing in vt" true (i < !prev);
      prev := i)
    (Dcopt_util.Numeric.linspace ~lo:0.1 ~hi:0.7 ~n:20)

let test_i_off_monotone_and_positive () =
  let prev = ref infinity in
  Array.iter
    (fun vt ->
      let i = Mosfet.i_off tech ~vt in
      Alcotest.(check bool) "positive" true (i > 0.0);
      Alcotest.(check bool) "decreasing in vt" true (i < !prev);
      prev := i)
    (Dcopt_util.Numeric.linspace ~lo:0.05 ~hi:0.8 ~n:30)

let test_i_off_junction_floor () =
  (* at very high vt the junction component dominates *)
  let i = Mosfet.i_off tech ~vt:1.5 in
  Alcotest.(check bool) "floors at junction leakage" true
    (i >= tech.Tech.i_junction
    && i < 2.0 *. tech.Tech.i_junction)

let test_i_off_swing () =
  (* one s_swing of threshold shift changes subthreshold leakage ~10x *)
  let i1 = Mosfet.i_off_subthreshold tech ~vt:0.3 in
  let i2 = Mosfet.i_off_subthreshold tech ~vt:(0.3 +. tech.Tech.s_swing) in
  let decade = i1 /. i2 in
  Alcotest.(check bool) "one decade per swing" true
    (decade > 8.0 && decade < 12.0)

let test_transregional_continuity () =
  (* the composite I-V is smooth through vdd = vt *)
  let vt = 0.4 in
  let below = Mosfet.i_drive tech ~vdd:(vt -. 0.001) ~vt in
  let above = Mosfet.i_drive tech ~vdd:(vt +. 0.001) ~vt in
  Alcotest.(check bool) "continuous at threshold" true
    (above /. below < 1.1 && above > below)

let test_on_off_ratio () =
  let r_high = Mosfet.on_off_ratio tech ~vdd:3.3 ~vt:0.7 in
  let r_low = Mosfet.on_off_ratio tech ~vdd:0.9 ~vt:0.15 in
  Alcotest.(check bool) "high vt has huge ratio" true (r_high > 1e8);
  Alcotest.(check bool) "low vt ratio smaller but >1" true
    (r_low > 10.0 && r_low < r_high)

let test_is_subthreshold () =
  Alcotest.(check bool) "sub" true (Mosfet.is_subthreshold tech ~vdd:0.2 ~vt:0.3);
  Alcotest.(check bool) "super" false
    (Mosfet.is_subthreshold tech ~vdd:1.0 ~vt:0.3)

(* ------------------------------------------------------------------ *)
(* Delay                                                              *)

let test_slope_coefficient_bounds () =
  Array.iter
    (fun vdd ->
      Array.iter
        (fun vt ->
          let c = Drive.slope_coefficient tech ~vdd ~vt in
          Alcotest.(check bool) "in [0, 0.9]" true (c >= 0.0 && c <= 0.9))
        (Dcopt_util.Numeric.linspace ~lo:0.1 ~hi:0.7 ~n:7))
    (Dcopt_util.Numeric.linspace ~lo:0.1 ~hi:3.3 ~n:7)

let test_slope_coefficient_increases_with_vt () =
  let a = Drive.slope_coefficient tech ~vdd:1.0 ~vt:0.1 in
  let b = Drive.slope_coefficient tech ~vdd:1.0 ~vt:0.5 in
  Alcotest.(check bool) "higher vt, larger coefficient" true (b > a)

let test_delay_monotone_in_width () =
  let prev = ref infinity in
  Array.iter
    (fun w ->
      let d = gate_delay ~vdd:1.2 ~vt:0.2 ~w representative_load in
      Alcotest.(check bool) "decreasing in w" true (d <= !prev);
      prev := d)
    (Dcopt_util.Numeric.linspace ~lo:1.0 ~hi:100.0 ~n:30)

let test_delay_monotone_in_vdd () =
  let prev = ref infinity in
  Array.iter
    (fun vdd ->
      let d = gate_delay ~vdd ~vt:0.2 ~w:4.0 representative_load in
      Alcotest.(check bool) "decreasing in vdd" true (d < !prev);
      prev := d)
    (Dcopt_util.Numeric.linspace ~lo:0.4 ~hi:3.3 ~n:20)

let test_delay_monotone_in_vt () =
  let prev = ref 0.0 in
  Array.iter
    (fun vt ->
      let d = gate_delay ~vdd:1.2 ~vt ~w:4.0 representative_load in
      Alcotest.(check bool) "increasing in vt" true (d > !prev);
      prev := d)
    (Dcopt_util.Numeric.linspace ~lo:0.1 ~hi:0.7 ~n:20)

let test_delay_increases_with_load () =
  let light = gate_delay ~vdd:1.2 ~vt:0.2 ~w:4.0 representative_load in
  let heavy =
    gate_delay ~vdd:1.2 ~vt:0.2 ~w:4.0
      { representative_load with Device_ref.cap_wire = 20.0e-15 }
  in
  Alcotest.(check bool) "more wire, more delay" true (heavy > light)

let test_delay_infinite_when_leakage_wins () =
  (* enormous fanin count at tiny overdrive: off-current overwhelms drive *)
  let load = { representative_load with Device_ref.fanin_count = 1000 } in
  let d = gate_delay ~vdd:0.12 ~vt:0.7 ~w:1.0 load in
  Alcotest.(check bool) "infinite" true (d = infinity)

let test_stack_and_slope_terms_present () =
  let base = { Device_ref.no_load with Device_ref.cap_wire = 2e-15 } in
  let with_stack =
    { base with Device_ref.fanin_count = 4; stack_depth = 4 }
  in
  let d1 = gate_delay ~vdd:1.2 ~vt:0.2 ~w:4.0 base in
  let d2 = gate_delay ~vdd:1.2 ~vt:0.2 ~w:4.0 with_stack in
  Alcotest.(check bool) "stack slows the gate" true (d2 > d1);
  let with_slope = { base with Device_ref.max_fanin_delay = 1e-9 } in
  let d3 = gate_delay ~vdd:1.2 ~vt:0.2 ~w:4.0 with_slope in
  Alcotest.(check bool) "input slope slows the gate" true (d3 > d1)

let test_output_capacitance_formula () =
  let c =
    Drive.output_capacitance
      (gate_of (Drive.make tech ~vdd:1.0 ~vt:0.2) representative_load)
      ~w:3.0
  in
  let expected =
    (tech.Tech.c_parasitic *. 3.0)
    +. (1.0 *. tech.Tech.c_intermediate *. 3.0)
    +. 3.0e-15 +. 2.0e-15
  in
  Alcotest.(check (float 1e-20)) "c_out" expected c

(* ------------------------------------------------------------------ *)
(* Energy                                                             *)

let test_static_energy_scaling () =
  let e ~fc ~vdd ~w = Drive.static_energy (Drive.make tech ~vdd ~vt:0.2) ~fc ~w in
  let e1 = e ~fc:300e6 ~vdd:1.0 ~w:2.0 in
  let e2 = e ~fc:300e6 ~vdd:2.0 ~w:2.0 in
  let e3 = e ~fc:300e6 ~vdd:1.0 ~w:4.0 in
  let e4 = e ~fc:600e6 ~vdd:1.0 ~w:2.0 in
  Alcotest.(check (float 1e-25)) "linear in vdd" (2.0 *. e1) e2;
  Alcotest.(check (float 1e-25)) "linear in w" (2.0 *. e1) e3;
  Alcotest.(check (float 1e-25)) "inverse in fc" (e1 /. 2.0) e4

let test_dynamic_energy_scaling () =
  let e vdd a =
    Drive.dynamic_energy
      (gate_of (Drive.make tech ~vdd ~vt:0.2) representative_load)
      ~w:2.0 ~activity:a
  in
  Alcotest.(check (float 1e-25)) "quadratic in vdd" (4.0 *. e 1.0 0.1)
    (e 2.0 0.1);
  Alcotest.(check (float 1e-25)) "linear in activity" (5.0 *. e 1.0 0.1)
    (e 1.0 0.5)

(* The operating points and loads the context is held to its oracle on.
   Besides ordinary gates they reach every early return of eq. A3:

   - a leakage stall: fan-in 1000 at low overdrive, I_eff <= 0;
   - a stuck stack: at vt = 40 V the drive underflows to 0, so a fan-in
     2 gate can neither charge its output nor its internal nodes;
   - a charging term that overflows: a wire load of the largest float;
   - an infinite fanin delay;
   - a context whose slope was set to 0 by hand (the coefficient is
     positive at every point of the default tech), where slope times an
     infinite fanin delay is NaN, and the infinities above must still
     win over it;
   - a zero-depth stack at the stuck point, the one input whose charging
     term is NaN rather than infinite, so the stack's infinity is what
     returns. *)
let oracle_points =
  let grid =
    List.concat_map
      (fun vdd -> List.map (fun vt -> (vdd, vt)) [ 0.1; 0.3; 0.45; 0.7 ])
      [ 0.12; 0.4; 1.0; 3.3 ]
  in
  List.concat_map
    (fun (vdd, vt) ->
      let ctx = Drive.make tech ~vdd ~vt in
      [ (vdd, vt, None, ctx); (vdd, vt, Some 0.0, { ctx with Drive.slope = 0.0 }) ])
    (grid @ [ (0.12, 40.0) ])

let oracle_loads =
  [
    representative_load;
    Device_ref.no_load;
    { representative_load with Device_ref.fanin_count = 4; stack_depth = 4 };
    { representative_load with Device_ref.fanin_count = 1000 };
    { representative_load with Device_ref.max_fanin_delay = infinity };
    {
      representative_load with
      Device_ref.cap_wire = Float.max_float;
      max_fanin_delay = infinity;
    };
    {
      representative_load with
      Device_ref.fanin_count = 1000;
      max_fanin_delay = infinity;
    };
    { representative_load with Device_ref.stack_depth = 0 };
  ]

let describe (vdd, vt, slope, _) (load : Device_ref.load) =
  Printf.sprintf "vdd=%g vt=%g%s fanin=%d stack=%d cap_wire=%g mfd=%g" vdd vt
    (match slope with Some s -> Printf.sprintf " slope=%g" s | None -> "")
    load.fanin_count load.stack_depth load.cap_wire load.max_fanin_delay

(* The context against the uncached formulas it replaced: delays bit for
   bit (infinite and NaN ones included), energies within round-off. *)
let test_context_matches_oracle () =
  let reached = Hashtbl.create 4 in
  List.iter
    (fun ((vdd, vt, slope, ctx) as point) ->
      List.iter
        (fun (load : Device_ref.load) ->
          let g = gate_of ctx load in
          Array.iter
            (fun w ->
              let what = Printf.sprintf "%s w=%g" (describe point load) w in
              let oracle =
                Device_ref.gate_delay ?slope tech ~vdd ~vt ~w load
              in
              let d = Drive.gate_delay g ~w in
              if Int64.bits_of_float oracle <> Int64.bits_of_float d then
                Alcotest.failf "%s delay: oracle %h context %h" what oracle d;
              Hashtbl.replace reached (Float.classify_float d) ();
              (* a NaN or an infinity on either side must be matched
                 exactly *)
              let close name a b =
                if
                  not
                    (if Float.is_finite a && Float.is_finite b then
                       Float.abs (a -. b) <= 1e-15 *. Float.abs a
                     else Float.equal a b)
                then
                  Alcotest.failf "%s %s: oracle %.17g context %.17g" what
                    name a b
              in
              close "static"
                (Device_ref.static_energy tech ~fc:300e6 ~vdd ~vt ~w)
                (Drive.static_energy ctx ~fc:300e6 ~w);
              close "dynamic"
                (Device_ref.dynamic_energy tech ~vdd ~w ~activity:0.3 ~load)
                (Drive.dynamic_energy g ~w ~activity:0.3);
              close "total"
                (Device_ref.total_energy tech ~fc:300e6 ~vdd ~vt ~w
                   ~activity:0.3 ~load)
                (Drive.static_energy ctx ~fc:300e6 ~w
                +. Drive.dynamic_energy g ~w ~activity:0.3))
            [| 1.0; 3.7; 100.0 |])
        oracle_loads)
    oracle_points;
  List.iter
    (fun (cls, name) ->
      if not (Hashtbl.mem reached cls) then
        Alcotest.failf "no input gave a %s delay" name)
    [ (Float.FP_normal, "finite"); (FP_infinite, "infinite"); (FP_nan, "NaN") ]

(* The sizing kernel on the same gates, against the bisection it
   replaces: Numeric.binary_search_min over the gate's own delay. *)
let test_min_width_matches_bisection () =
  let sizer = Drive.sizer tech in
  List.iter
    (fun ((_, _, _, ctx) as point) ->
      List.iter
        (fun load ->
          let g = gate_of ctx load in
          let d = Drive.gate_delay g ~w:3.7 in
          List.iter
            (fun target ->
              let oracle =
                match
                  Dcopt_util.Numeric.binary_search_min
                    ~feasible:(fun w -> Drive.gate_delay g ~w <= target)
                    ~lo:tech.Tech.w_min ~hi:tech.Tech.w_max ~iters:40 ()
                with
                | Some w -> w
                | None -> nan
              in
              let w = Drive.min_width sizer g ~target in
              if
                not
                  ((Float.is_nan oracle && Float.is_nan w)
                  || Int64.bits_of_float oracle = Int64.bits_of_float w)
              then
                Alcotest.failf "%s target=%h: bisection %h kernel %h"
                  (describe point load) target oracle w)
            [ 0.0; 1e-9; d; 2.0 *. d; infinity ])
        oracle_loads)
    oracle_points

(* Of eq. A3's five terms only the output node's charging depends on the
   width; a gate holds the other four already computed. So the charging
   term matches its oracle bit for bit on the same gates, and a finite
   delay less that term does not move with the width. *)
let test_only_switching_depends_on_width () =
  let finite = ref 0 in
  List.iter
    (fun ((vdd, vt, _, ctx) as point) ->
      List.iter
        (fun (load : Device_ref.load) ->
          let g = gate_of ctx load in
          let rests =
            List.filter_map
              (fun w ->
                let oracle =
                  Device_ref.switching_delay tech ~vdd ~vt ~w load
                in
                let s = Drive.switching_delay g ~w in
                if Int64.bits_of_float oracle <> Int64.bits_of_float s then
                  Alcotest.failf "%s w=%g switching: oracle %h context %h"
                    (describe point load) w oracle s;
                let d = Drive.gate_delay g ~w in
                if Float.is_finite d then Some (d, d -. s) else None)
              [ 1.0; 3.7; 100.0 ]
          in
          match rests with
          | [] -> ()
          | (_, r0) :: _ ->
            incr finite;
            (* four roundings in the sum and one in the difference *)
            let scale =
              List.fold_left (fun m (d, _) -> Float.max m d) 0.0 rests
            in
            List.iter
              (fun (_, r) ->
                if Float.abs (r -. r0) > 8.0 *. epsilon_float *. scale then
                  Alcotest.failf "%s: width-independent terms %h vs %h"
                    (describe point load) r0 r)
              rests)
        oracle_loads)
    oracle_points;
  Alcotest.(check bool) "some gates have a finite delay" true (!finite > 0)

let test_power_energy_consistency () =
  let fc = 250e6 in
  let ctx = Drive.make tech ~vdd:1.0 ~vt:0.2 in
  let p = Drive.static_power ctx ~w:2.0 in
  let e = Drive.static_energy ctx ~fc ~w:2.0 in
  Alcotest.(check (float 1e-25)) "P = E * fc" p (e *. fc)

(* ------------------------------------------------------------------ *)
(* Tech file I/O                                                      *)

module Tech_io = Dcopt_device.Tech_io
module Diag = Dcopt_util.Diag

(* [Tech_io.parse] on text that must be well-formed. *)
let parse_ok text =
  match Tech_io.parse text with
  | Ok t -> t
  | Error diags -> Alcotest.fail (Diag.render diags)

(* A malformed tech text reports exactly these (code, line) pairs. *)
let check_diags what expected text =
  match Tech_io.parse ~file:"bad.tech" text with
  | Ok _ -> Alcotest.fail (what ^ ": parsed cleanly")
  | Error diags ->
    Alcotest.(check (list (pair string (option int))))
      what expected
      (List.map (fun d -> (d.Diag.code, d.Diag.line)) diags)

let test_tech_io_roundtrip () =
  let text = Tech_io.to_string tech in
  let parsed = parse_ok text in
  Alcotest.(check bool) "round-trip" true (parsed = tech)

let test_tech_io_partial_override () =
  let parsed = parse_ok "alpha = 1.3\nname = custom\n" in
  Alcotest.(check (float 1e-12)) "overridden" 1.3 parsed.Tech.alpha;
  Alcotest.(check string) "renamed" "custom" parsed.Tech.tech_name;
  Alcotest.(check (float 1e-12)) "inherited" tech.Tech.k_drive
    parsed.Tech.k_drive

let test_tech_io_comments_and_blanks () =
  let parsed = parse_ok "# a comment\n\n  alpha = 1.2  # trailing\n" in
  Alcotest.(check (float 1e-12)) "parsed through noise" 1.2 parsed.Tech.alpha

let test_tech_io_unknown_key () =
  check_diags "unknown key" [ ("tech.key", Some 1) ] "frobnicate = 3\n"

let test_tech_io_bad_number () =
  check_diags "bad number" [ ("tech.number", Some 1) ] "alpha = banana\n"

let test_tech_io_missing_equals () =
  check_diags "missing equals" [ ("tech.syntax", Some 1) ] "just words\n"

let test_tech_io_validation () =
  (* ill-posed physics has no line: the record, not a line, is wrong *)
  check_diags "validation" [ ("tech.validate", None) ] "alpha = -1\n"

let test_temperature_scaling () =
  let hot = Tech.at_temperature tech ~celsius:125.0 in
  let cold = Tech.at_temperature tech ~celsius:0.0 in
  Alcotest.(check bool) "validates" true (Result.is_ok (Tech.validate hot));
  (* 25 C is the reference: identity up to the name *)
  let same = Tech.at_temperature tech ~celsius:25.0 in
  Alcotest.(check (float 1e-12)) "reference swing" tech.Tech.s_swing
    same.Tech.s_swing;
  Alcotest.(check bool) "swing grows with T" true
    (hot.Tech.s_swing > tech.Tech.s_swing
    && cold.Tech.s_swing < tech.Tech.s_swing);
  Alcotest.(check bool) "drive degrades with T" true
    (hot.Tech.k_drive < tech.Tech.k_drive);
  (* leakage at fixed vt grows steeply on the hot die *)
  let leak t = Mosfet.i_off t ~vt:0.2 in
  Alcotest.(check bool) "hot die leaks substantially more" true
    (leak hot > 1.5 *. leak tech);
  Alcotest.(check bool) "cold die leaks less" true (leak cold < leak tech)

let test_tech_scale_properties () =
  let scaled = Tech.scale tech ~factor:0.7 in
  Alcotest.(check bool) "validates" true (Result.is_ok (Tech.validate scaled));
  Alcotest.(check (float 1e-18)) "feature scales"
    (tech.Tech.feature_size *. 0.7) scaled.Tech.feature_size;
  Alcotest.(check (float 1e-12)) "vdd ceiling scales"
    (tech.Tech.vdd_max *. 0.7) scaled.Tech.vdd_max;
  Alcotest.(check (float 1e-12)) "swing does not scale" tech.Tech.s_swing
    scaled.Tech.s_swing;
  Alcotest.(check bool) "wire resistance grows" true
    (scaled.Tech.wire_res_per_m > tech.Tech.wire_res_per_m)

(* ------------------------------------------------------------------ *)
(* Body bias                                                          *)

let test_body_bias_zero () =
  Alcotest.(check (float 1e-12)) "no bias, natural vt" tech.Tech.vt_natural
    (Body_bias.vt_of_bias tech ~vsb:0.0)

let test_body_bias_monotone () =
  let prev = ref 0.0 in
  Array.iter
    (fun vsb ->
      let vt = Body_bias.vt_of_bias tech ~vsb in
      Alcotest.(check bool) "increasing" true (vt > !prev);
      prev := vt)
    (Dcopt_util.Numeric.linspace ~lo:0.1 ~hi:5.0 ~n:20)

let test_body_bias_roundtrip () =
  Array.iter
    (fun vt ->
      match Body_bias.bias_for_vt tech ~vt with
      | Some vsb ->
        Alcotest.(check (float 1e-9)) "round-trip" vt
          (Body_bias.vt_of_bias tech ~vsb)
      | None -> Alcotest.fail "expected reachable")
    (Dcopt_util.Numeric.linspace ~lo:0.1 ~hi:0.3 ~n:10)

let test_body_bias_unreachable () =
  Alcotest.(check bool) "below natural" true
    (Body_bias.bias_for_vt tech ~vt:0.01 = None);
  Alcotest.(check bool) "beyond safety" true
    (Body_bias.bias_for_vt tech ~vt:5.0 = None)

let () =
  Alcotest.run "device"
    [
      ( "tech",
        [
          Alcotest.test_case "default valid" `Quick test_default_valid;
          Alcotest.test_case "validate rejects" `Quick test_validate_catches_bad;
          Alcotest.test_case "subthreshold scale" `Quick test_subthreshold_scale;
        ] );
      ( "mosfet",
        [
          Alcotest.test_case "overdrive limits" `Quick test_overdrive_limits;
          Alcotest.test_case "i_drive vs vdd" `Quick test_i_drive_monotone_vdd;
          Alcotest.test_case "i_drive vs vt" `Quick test_i_drive_monotone_vt;
          Alcotest.test_case "i_off monotone" `Quick
            test_i_off_monotone_and_positive;
          Alcotest.test_case "junction floor" `Quick test_i_off_junction_floor;
          Alcotest.test_case "subthreshold swing" `Quick test_i_off_swing;
          Alcotest.test_case "transregional continuity" `Quick
            test_transregional_continuity;
          Alcotest.test_case "on/off ratio" `Quick test_on_off_ratio;
          Alcotest.test_case "is_subthreshold" `Quick test_is_subthreshold;
        ] );
      ( "delay",
        [
          Alcotest.test_case "slope bounds" `Quick test_slope_coefficient_bounds;
          Alcotest.test_case "slope vs vt" `Quick
            test_slope_coefficient_increases_with_vt;
          Alcotest.test_case "monotone in w" `Quick test_delay_monotone_in_width;
          Alcotest.test_case "monotone in vdd" `Quick test_delay_monotone_in_vdd;
          Alcotest.test_case "monotone in vt" `Quick test_delay_monotone_in_vt;
          Alcotest.test_case "load sensitivity" `Quick
            test_delay_increases_with_load;
          Alcotest.test_case "leakage stall" `Quick
            test_delay_infinite_when_leakage_wins;
          Alcotest.test_case "stack and slope terms" `Quick
            test_stack_and_slope_terms_present;
          Alcotest.test_case "output capacitance" `Quick
            test_output_capacitance_formula;
          Alcotest.test_case "only the charging term depends on w" `Quick
            test_only_switching_depends_on_width;
        ] );
      ( "energy",
        [
          Alcotest.test_case "static scaling" `Quick test_static_energy_scaling;
          Alcotest.test_case "dynamic scaling" `Quick
            test_dynamic_energy_scaling;
          Alcotest.test_case "context = oracle" `Quick
            test_context_matches_oracle;
          Alcotest.test_case "power/energy" `Quick
            test_power_energy_consistency;
          Alcotest.test_case "min_width = bisection" `Quick
            test_min_width_matches_bisection;
        ] );
      ( "tech io",
        [
          Alcotest.test_case "round-trip" `Quick test_tech_io_roundtrip;
          Alcotest.test_case "partial override" `Quick
            test_tech_io_partial_override;
          Alcotest.test_case "comments" `Quick test_tech_io_comments_and_blanks;
          Alcotest.test_case "unknown key" `Quick test_tech_io_unknown_key;
          Alcotest.test_case "bad number" `Quick test_tech_io_bad_number;
          Alcotest.test_case "missing equals" `Quick
            test_tech_io_missing_equals;
          Alcotest.test_case "validation" `Quick test_tech_io_validation;
          Alcotest.test_case "scaling" `Quick test_tech_scale_properties;
          Alcotest.test_case "temperature" `Quick test_temperature_scaling;
        ] );
      ( "body bias",
        [
          Alcotest.test_case "zero bias" `Quick test_body_bias_zero;
          Alcotest.test_case "monotone" `Quick test_body_bias_monotone;
          Alcotest.test_case "round-trip" `Quick test_body_bias_roundtrip;
          Alcotest.test_case "unreachable" `Quick test_body_bias_unreachable;
        ] );
    ]
