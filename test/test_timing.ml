module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate
module Patterns = Dcopt_netlist.Patterns
module Generator = Dcopt_netlist.Generator
module Flat = Dcopt_netlist.Flat
module Flat_sta = Dcopt_timing.Flat_sta
module Kpaths = Dcopt_timing.Kpaths
module Delay_assign = Dcopt_timing.Delay_assign

let diamond () =
  (* a -> {fast, slow1 -> slow2} -> out *)
  Circuit.create ~name:"diamond"
    ~nodes:
      [
        ("a", Gate.Input, []);
        ("fast", Gate.Not, [ "a" ]);
        ("slow1", Gate.Not, [ "a" ]);
        ("slow2", Gate.Not, [ "slow1" ]);
        ("out", Gate.And, [ "fast"; "slow2" ]);
      ]
    ~outputs:[ "out" ]

let delays_of c assoc =
  let d = Array.make (Circuit.size c) 0.0 in
  List.iter (fun (name, v) -> d.(Circuit.find c name) <- v) assoc;
  d

let diamond_delays c =
  delays_of c [ ("fast", 1.0); ("slow1", 2.0); ("slow2", 3.0); ("out", 1.0) ]

(* ------------------------------------------------------------------ *)
(* STA                                                                 *)

let test_sta_arrival () =
  let c = diamond () in
  let r = Flat_sta.analyze (Flat.of_circuit c) ~delays:(diamond_delays c) in
  Alcotest.(check (float 1e-9)) "critical" 6.0 r.Flat_sta.critical_delay;
  Alcotest.(check (float 1e-9)) "out arrival" 6.0
    r.Flat_sta.arrival.(Circuit.find c "out");
  Alcotest.(check (float 1e-9)) "fast arrival" 1.0
    r.Flat_sta.arrival.(Circuit.find c "fast")

let test_sta_slack () =
  let c = diamond () in
  let r = Flat_sta.analyze (Flat.of_circuit c) ~delays:(diamond_delays c) in
  (* critical path gates have zero slack *)
  Alcotest.(check (float 1e-9)) "slow1 slack" 0.0
    r.Flat_sta.slack.(Circuit.find c "slow1");
  Alcotest.(check (float 1e-9)) "slow2 slack" 0.0
    r.Flat_sta.slack.(Circuit.find c "slow2");
  Alcotest.(check (float 1e-9)) "fast slack" 4.0
    (Flat_sta.slack_of_endpoint r (Circuit.find c "fast"))

let test_sta_required_time_override () =
  let c = diamond () in
  let r =
    Flat_sta.analyze ~required_time:10.0 (Flat.of_circuit c)
      ~delays:(diamond_delays c)
  in
  Alcotest.(check (float 1e-9)) "extra slack" 4.0
    r.Flat_sta.slack.(Circuit.find c "out")

let test_sta_critical_path () =
  let c = diamond () in
  let f = Flat.of_circuit c in
  let delays = diamond_delays c in
  let arrival, _ = Flat_sta.forward f ~delays in
  let path =
    List.map
      (fun id -> (Circuit.node c id).Circuit.name)
      (Flat_sta.critical_path_of_arrival f ~arrival ~delays)
  in
  Alcotest.(check (list string)) "path" [ "slow1"; "slow2"; "out" ] path

let test_sta_meets () =
  let c = diamond () in
  let delays = diamond_delays c in
  Alcotest.(check bool) "meets 7" true (Sta_ref.meets c ~delays ~cycle_time:7.0);
  Alcotest.(check bool) "misses 5" false
    (Sta_ref.meets c ~delays ~cycle_time:5.0);
  (* the oracle's verdict is the flat engine's critical delay *)
  let _, critical = Flat_sta.forward (Flat.of_circuit c) ~delays in
  Alcotest.(check (float 0.0)) "critical delay" 6.0 critical

(* ------------------------------------------------------------------ *)
(* K paths                                                             *)

let test_effective_fanout_floor () =
  let c = diamond () in
  (* out is a PO with no gate fanouts: effective fanout 1 *)
  Alcotest.(check int) "po gate" 1
    (Kpaths.effective_fanout c (Circuit.find c "out"))

let test_kpaths_diamond () =
  let c = diamond () in
  let paths = List.of_seq (Kpaths.enumerate c) in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  (* criticality sums: fast path = f(fast)+f(out) = 1+1; slow = 1+1+1 *)
  match paths with
  | [ p1; p2 ] ->
    Alcotest.(check int) "most critical first" 3 p1.Kpaths.criticality;
    Alcotest.(check int) "then the short one" 2 p2.Kpaths.criticality
  | _ -> Alcotest.fail "expected exactly two"

let test_kpaths_nonincreasing_property =
  QCheck.Test.make ~name:"paths emitted in non-increasing criticality"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c =
        Circuit.combinational_core
          (Generator.generate
             {
               Generator.profile_name = "kp";
               primary_inputs = 4;
               primary_outputs = 3;
               flip_flops = 2;
               gates = 30;
               logic_depth = 5;
               seed = Some (Int64.of_int seed);
             })
      in
      let paths = List.of_seq (Kpaths.enumerate ~max_paths:200 c) in
      let rec non_increasing = function
        | a :: (b :: _ as rest) ->
          a.Kpaths.criticality >= b.Kpaths.criticality && non_increasing rest
        | _ -> true
      in
      non_increasing paths)

let test_kpaths_paths_are_connected =
  QCheck.Test.make ~name:"every emitted path is a fanin chain ending at a PO"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c =
        Circuit.combinational_core
          (Generator.generate
             {
               Generator.profile_name = "kpc";
               primary_inputs = 4;
               primary_outputs = 2;
               flip_flops = 3;
               gates = 40;
               logic_depth = 6;
               seed = Some (Int64.of_int seed);
             })
      in
      let ok_path p =
        let rec chained = function
          | a :: (b :: _ as rest) ->
            Array.exists (fun g -> g = b) (Circuit.fanouts c a) && chained rest
          | _ -> true
        in
        let ends_at_po =
          match List.rev p.Kpaths.gate_ids with
          | last :: _ -> Circuit.is_output c last
          | [] -> false
        in
        let crit_ok =
          p.Kpaths.criticality
          = List.fold_left
              (fun acc id -> acc + Kpaths.effective_fanout c id)
              0 p.Kpaths.gate_ids
        in
        chained p.Kpaths.gate_ids && ends_at_po && crit_ok
      in
      Kpaths.enumerate ~max_paths:100 c |> List.of_seq |> List.for_all ok_path)

let test_kpaths_ladder_count () =
  (* the ladder is a chain of 5 gates, each with its own fresh input, so
     there is exactly one PI-to-PO path per possible start gate *)
  let c = Patterns.and_or_ladder ~rungs:5 in
  let paths = List.of_seq (Kpaths.enumerate c) in
  Alcotest.(check int) "path count" 5 (List.length paths)

let test_most_critical () =
  let c = diamond () in
  match Kpaths.most_critical c with
  | Some p -> Alcotest.(check int) "criticality" 3 p.Kpaths.criticality
  | None -> Alcotest.fail "expected a path"

(* ------------------------------------------------------------------ *)
(* Delay assignment (Procedure 1)                                      *)

let test_assign_diamond () =
  let c = diamond () in
  let b = Delay_assign.assign ~skew_factor:1.0 c ~cycle_time:6.0 in
  let t = b.Delay_assign.t_max in
  (* slow path (3 gates, fanouts 1,1,1) splits 6.0 into three equal parts *)
  Alcotest.(check (float 1e-9)) "slow1" 2.0 (t.(Circuit.find c "slow1"));
  Alcotest.(check (float 1e-9)) "slow2" 2.0 (t.(Circuit.find c "slow2"));
  Alcotest.(check (float 1e-9)) "out" 2.0 (t.(Circuit.find c "out"));
  (* the fast path then gets the remaining budget: 6 - 2 = 4 *)
  Alcotest.(check (float 1e-9)) "fast" 4.0 (t.(Circuit.find c "fast"))

let test_assign_weights_by_fanout () =
  (* two-gate chain where the first gate has fanout 2 *)
  let c =
    Circuit.create ~name:"weighted"
      ~nodes:
        [
          ("a", Gate.Input, []);
          ("g1", Gate.Not, [ "a" ]);
          ("g2", Gate.And, [ "g1"; "a" ]);
          ("g3", Gate.Or, [ "g1"; "g2" ]);
        ]
      ~outputs:[ "g3" ]
  in
  let b = Delay_assign.assign ~skew_factor:1.0 c ~cycle_time:4.0 in
  let t = b.Delay_assign.t_max in
  (* most critical path g1(fo 2), g2(fo 1), g3(fo 1): shares 2:1:1 *)
  Alcotest.(check (float 1e-9)) "g1 twice the share" 2.0
    (t.(Circuit.find c "g1"));
  Alcotest.(check (float 1e-9)) "g2" 1.0 (t.(Circuit.find c "g2"));
  Alcotest.(check (float 1e-9)) "g3" 1.0 (t.(Circuit.find c "g3"))

let budgets_meet_cycle_property =
  QCheck.Test.make
    ~name:"assigned budgets never exceed the cycle on any path" ~count:40
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, depth_extra) ->
      let c =
        Circuit.combinational_core
          (Generator.generate
             {
               Generator.profile_name = "budget";
               primary_inputs = 5;
               primary_outputs = 4;
               flip_flops = 3;
               gates = 60;
               logic_depth = 5 + depth_extra;
               seed = Some (Int64.of_int seed);
             })
      in
      let b = Delay_assign.assign c ~cycle_time:3.33e-9 in
      Delay_assign.verify c b ~cycle_time:3.33e-9)

let budgets_positive_property =
  QCheck.Test.make ~name:"every gate gets a positive budget" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c =
        Circuit.combinational_core
          (Generator.generate
             {
               Generator.profile_name = "pos";
               primary_inputs = 4;
               primary_outputs = 3;
               flip_flops = 2;
               gates = 50;
               logic_depth = 6;
               seed = Some (Int64.of_int seed);
             })
      in
      let b = Delay_assign.assign c ~cycle_time:3.33e-9 in
      Array.for_all
        (fun nd ->
          match nd.Circuit.kind with
          | Gate.Input | Gate.Dff -> true
          | _ -> b.Delay_assign.t_max.(nd.Circuit.id) > 0.0)
        (Circuit.nodes c))

let test_assign_rejects_bad_args () =
  let c = diamond () in
  (match Delay_assign.assign c ~cycle_time:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cycle_time 0");
  match Delay_assign.assign ~skew_factor:1.5 c ~cycle_time:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "skew 1.5"

let test_assign_dangling_gets_fallback () =
  let c =
    Circuit.create ~name:"dangling"
      ~nodes:
        [
          ("a", Gate.Input, []);
          ("g1", Gate.Not, [ "a" ]);
          ("dead", Gate.Not, [ "g1" ]); (* drives nothing, not a PO *)
          ("out", Gate.Not, [ "g1" ]);
        ]
      ~outputs:[ "out" ]
  in
  let b = Delay_assign.assign ~skew_factor:1.0 c ~cycle_time:2.0 in
  Alcotest.(check bool) "dead gate budgeted" true
    (b.Delay_assign.t_max.(Circuit.find c "dead") > 0.0);
  Alcotest.(check int) "one fallback" 1 b.Delay_assign.fallback_gates

(* ------------------------------------------------------------------ *)
(* Incremental STA                                                     *)

(* Regression: a [recompute] that raises mid-bucket (the optimizers'
   Guard.Non_finite abort path) must not strand still-queued gates.
   Before the fix, ids after the raising one kept queued=true while the
   bucket accounting had already been reset, so mark_dirty skipped them
   forever and the engine silently stopped updating their timing. *)
let test_incr_sta_raise_mid_bucket () =
  let module Incr_sta = Dcopt_timing.Incr_sta in
  (* g1 fans out to two gates at the same level, so one move queues a
     two-entry bucket and the raise can happen on its first entry. *)
  let c =
    Circuit.create ~name:"fork"
      ~nodes:
        [
          ("a", Gate.Input, []);
          ("g1", Gate.Not, [ "a" ]);
          ("g2a", Gate.Not, [ "g1" ]);
          ("g2b", Gate.Not, [ "g1" ]);
        ]
      ~outputs:[ "g2a"; "g2b" ]
  in
  let g1 = Circuit.find c "g1" in
  let g2a = Circuit.find c "g2a" and g2b = Circuit.find c "g2b" in
  let ist = Incr_sta.create (Flat.of_circuit c) in
  Incr_sta.refresh ist ~recompute:(fun ~id:_ ~max_fanin_delay:_ -> 1.0);
  Incr_sta.commit ist;
  (* Move: g1's delay becomes 2.0; recompute blows up on the level-2
     bucket, i.e. after g1 was stepped and both fanouts were queued. *)
  Incr_sta.mark_dirty ist g1;
  (try
     ignore
       (Incr_sta.propagate ist ~recompute:(fun ~id ~max_fanin_delay:_ ->
            if id = g1 then 2.0 else raise Exit));
     Alcotest.fail "expected the recompute to raise"
   with Exit -> Incr_sta.rollback ist);
  let arrival = Incr_sta.arrivals ist in
  Alcotest.(check (float 0.0)) "rolled back" 2.0 arrival.(g2a);
  (* Same move again with healthy physics: every gate of the cone must
     be recomputed, including the ones abandoned by the raise. *)
  Incr_sta.mark_dirty ist g1;
  let processed =
    Incr_sta.propagate ist ~recompute:(fun ~id ~max_fanin_delay:_ ->
        if id = g1 then 2.0 else 1.0)
  in
  Incr_sta.commit ist;
  Alcotest.(check int) "full cone recomputed" 3 processed;
  Alcotest.(check (float 0.0)) "g1 arrival" 2.0 arrival.(g1);
  Alcotest.(check (float 0.0)) "g2a arrival" 3.0 arrival.(g2a);
  Alcotest.(check (float 0.0)) "g2b arrival" 3.0 arrival.(g2b)

let () =
  Alcotest.run "timing"
    [
      ( "sta",
        [
          Alcotest.test_case "arrival" `Quick test_sta_arrival;
          Alcotest.test_case "slack" `Quick test_sta_slack;
          Alcotest.test_case "required override" `Quick
            test_sta_required_time_override;
          Alcotest.test_case "critical path" `Quick test_sta_critical_path;
          Alcotest.test_case "meets" `Quick test_sta_meets;
        ] );
      ( "kpaths",
        [
          Alcotest.test_case "effective fanout" `Quick
            test_effective_fanout_floor;
          Alcotest.test_case "diamond" `Quick test_kpaths_diamond;
          Alcotest.test_case "ladder count" `Quick test_kpaths_ladder_count;
          Alcotest.test_case "most critical" `Quick test_most_critical;
          QCheck_alcotest.to_alcotest test_kpaths_nonincreasing_property;
          QCheck_alcotest.to_alcotest test_kpaths_paths_are_connected;
        ] );
      ( "delay assignment",
        [
          Alcotest.test_case "diamond shares" `Quick test_assign_diamond;
          Alcotest.test_case "fanout weighting" `Quick
            test_assign_weights_by_fanout;
          Alcotest.test_case "bad arguments" `Quick test_assign_rejects_bad_args;
          Alcotest.test_case "dangling fallback" `Quick
            test_assign_dangling_gets_fallback;
          QCheck_alcotest.to_alcotest budgets_meet_cycle_property;
          QCheck_alcotest.to_alcotest budgets_positive_property;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "raise mid-bucket leaves engine usable" `Quick
            test_incr_sta_raise_mid_bucket;
        ] );
    ]
