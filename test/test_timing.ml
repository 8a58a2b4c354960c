module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate
module Patterns = Dcopt_netlist.Patterns
module Generator = Dcopt_netlist.Generator
module Flat = Dcopt_netlist.Flat
module Flat_sta = Dcopt_timing.Flat_sta
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
(* Differential against the brute-force oracle (test/proc1_ref.ml)     *)

let generated ~gates ~seed =
  Circuit.combinational_core
    (Generator.generate
       {
         Generator.profile_name = "proc1";
         primary_inputs = 4;
         primary_outputs = 3;
         flip_flops = 2;
         gates;
         logic_depth = 6;
         seed = Some (Int64.of_int seed);
       })

let dag ~gates seed =
  Generator.random_dag (Generator.default_dag ~seed ~gates ())

(* Every suite core but s1488, whose 381,017 paths are too many to list,
   and seeded 200-gate DAGs, which have dead gates. *)
let oracle_inputs =
  lazy
    (List.filter_map
       (fun (name, c) ->
         if name = "s1488" then None
         else Some (name, Circuit.combinational_core c))
       (Dcopt_suite.Suite.all ())
    @ List.map
        (fun seed -> (Printf.sprintf "dag200/%Ld" seed, dag ~gates:200 seed))
        [ 1L; 2L; 3L ])

let bits a = Array.to_list (Array.map Int64.bits_of_float a)

let matches_oracle ?(label = "") c =
  let cycle_time = 1.0 /. 300e6 in
  let b = Delay_assign.assign c ~cycle_time in
  let r = Proc1_ref.assign c ~cycle_time in
  Alcotest.(check (list int64)) (label ^ " t_max bits") (bits r.Proc1_ref.t_max)
    (bits b.Delay_assign.t_max);
  Alcotest.(check int) (label ^ " paths used") r.Proc1_ref.paths_used
    b.Delay_assign.paths_used;
  Alcotest.(check int) (label ^ " fallback gates") r.Proc1_ref.fallback_gates
    b.Delay_assign.fallback_gates;
  Alcotest.(check int) (label ^ " slope adjusted") r.Proc1_ref.slope_adjusted
    b.Delay_assign.slope_adjusted

let test_assign_matches_oracle () =
  List.iter
    (fun (label, c) -> matches_oracle ~label c)
    (Lazy.force oracle_inputs)

let generated_matches_oracle_property =
  QCheck.Test.make ~name:"generated 30-60-gate circuits = oracle" ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 30 60))
    (fun (seed, gates) ->
      matches_oracle (generated ~gates ~seed);
      true)

(* Procedure 1's own definition, independent of the tie rule: replaying
   the oracle's consumed paths, each holds a gate no earlier path holds,
   and no path holding such a gate is more critical; at the end every
   gate on a path is covered. *)
let consumed_paths_most_critical c =
  let all = Proc1_ref.paths c in
  let covered = Array.make (Circuit.size c) false in
  let fresh p = Array.exists (fun g -> not covered.(g)) p.Proc1_ref.gates in
  List.for_all
    (fun p ->
      let best =
        Array.fold_left
          (fun acc q -> if fresh q then max acc q.Proc1_ref.criticality else acc)
          (-1) all
      in
      let ok = fresh p && p.Proc1_ref.criticality = best in
      Array.iter (fun g -> covered.(g) <- true) p.Proc1_ref.gates;
      ok)
    (Proc1_ref.assign c ~cycle_time:1e-9).Proc1_ref.consumed
  && not (Array.exists fresh all)

let test_consumed_paths_most_critical () =
  List.iter
    (fun (label, c) ->
      Alcotest.(check bool) label true (consumed_paths_most_critical c))
    (Lazy.force oracle_inputs)

(* Gates from which no primary output is reachable, by reverse
   reachability from the outputs over fanin records. *)
let dead_gate_count c =
  let live = Array.make (Circuit.size c) false in
  let rec mark id =
    if not live.(id) then begin
      live.(id) <- true;
      Array.iter mark (Circuit.node c id).Circuit.fanins
    end
  in
  Array.iter mark (Circuit.outputs c);
  Array.fold_left
    (fun acc nd ->
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> acc
      | _ -> if live.(nd.Circuit.id) then acc else acc + 1)
    0 (Circuit.nodes c)

let test_fallback_counts_dead_gates () =
  let c = dag ~gates:2000 4L in
  let dead = dead_gate_count c in
  Alcotest.(check bool) "the DAG has dead gates" true (dead > 0);
  Alcotest.(check int) "2000-gate DAG" dead
    (Delay_assign.assign c ~cycle_time:(1.0 /. 60e6)).Delay_assign.fallback_gates;
  List.iter
    (fun (name, c) ->
      let c = Circuit.combinational_core c in
      Alcotest.(check int) name 0 (dead_gate_count c);
      Alcotest.(check int) name 0
        (Delay_assign.assign c ~cycle_time:(1.0 /. 300e6))
          .Delay_assign.fallback_gates)
    (Dcopt_suite.Suite.all ())

(* ------------------------------------------------------------------ *)
(* Procedure 1's paths                                                 *)

let test_effective_fanout_counts_output () =
  (* g1 is a primary output and drives g2: its effective fanout is 2,
     one consuming pin plus one for the output *)
  let c =
    Circuit.create ~name:"po-tap"
      ~nodes:
        [
          ("a", Gate.Input, []);
          ("g1", Gate.Not, [ "a" ]);
          ("g2", Gate.Not, [ "g1" ]);
        ]
      ~outputs:[ "g1"; "g2" ]
  in
  let b = Delay_assign.assign ~skew_factor:1.0 c ~cycle_time:3.0 in
  let t = b.Delay_assign.t_max in
  Alcotest.(check (float 0.0)) "g1 twice the share" 2.0 t.(Circuit.find c "g1");
  Alcotest.(check (float 0.0)) "g2" 1.0 t.(Circuit.find c "g2");
  (* [g1] alone is a PI-to-PO path too, but [g1; g2] is more critical
     and covers both *)
  Alcotest.(check int) "paths used" 1 b.Delay_assign.paths_used

let test_diamond_paths () =
  let c = diamond () in
  let ids = List.map (Circuit.find c) in
  let consumed =
    (Proc1_ref.assign c ~cycle_time:6.0).Proc1_ref.consumed
    |> List.map (fun p ->
           (Array.to_list p.Proc1_ref.gates, p.Proc1_ref.criticality))
  in
  (* criticality sums: slow path 1 + 1 + 1, then the fast path 1 + 1 *)
  Alcotest.(check (list (pair (list int) int)))
    "slow path first, then the fast one"
    [ (ids [ "slow1"; "slow2"; "out" ], 3); (ids [ "fast"; "out" ], 2) ]
    consumed;
  Alcotest.(check int) "paths used" 2
    (Delay_assign.assign c ~cycle_time:6.0).Delay_assign.paths_used

let test_ladder_paths () =
  (* the ladder is a chain of 5 gates, each with its own fresh input, so
     there is one PI-to-PO path per start gate; the longest covers them
     all and, every fanout being 1, splits the budget evenly *)
  let c = Patterns.and_or_ladder ~rungs:5 in
  Alcotest.(check int) "PI-to-PO paths" 5 (Array.length (Proc1_ref.paths c));
  let b = Delay_assign.assign c ~cycle_time:1e-9 in
  Alcotest.(check int) "paths used" 1 b.Delay_assign.paths_used;
  Alcotest.(check int) "fallback gates" 0 b.Delay_assign.fallback_gates;
  let t = b.Delay_assign.t_max in
  let r0 = t.(Circuit.find c "r0") in
  for i = 1 to 4 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "r%d = r0" i) r0
      t.(Circuit.find c (Printf.sprintf "r%d" i))
  done

let consumed_nonincreasing_property =
  QCheck.Test.make ~name:"paths consumed in non-increasing criticality"
    ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 30 60))
    (fun (seed, gates) ->
      let rec non_increasing = function
        | a :: (b :: _ as rest) ->
          a.Proc1_ref.criticality >= b.Proc1_ref.criticality
          && non_increasing rest
        | _ -> true
      in
      non_increasing
        (Proc1_ref.assign (generated ~gates ~seed) ~cycle_time:1e-9)
          .Proc1_ref.consumed)

let consumed_connected_property =
  QCheck.Test.make
    ~name:"every consumed path is a fanout chain from a PI to a PO" ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 30 60))
    (fun (seed, gates) ->
      let c = generated ~gates ~seed in
      let is_pi id = (Circuit.node c id).Circuit.kind = Gate.Input in
      let ok_path p =
        let ids = p.Proc1_ref.gates in
        let len = Array.length ids in
        let chained = ref true in
        for i = 0 to len - 2 do
          if not (Array.mem ids.(i + 1) (Circuit.fanouts c ids.(i))) then
            chained := false
        done;
        len > 0 && !chained
        && Array.exists is_pi (Circuit.node c ids.(0)).Circuit.fanins
        && Circuit.is_output c ids.(len - 1)
        && p.Proc1_ref.criticality
           = Array.fold_left
               (fun acc id -> acc + Int.max 1 (Circuit.fanout_count c id))
               0 ids
      in
      let consumed = (Proc1_ref.assign c ~cycle_time:1e-9).Proc1_ref.consumed in
      consumed <> [] && List.for_all ok_path consumed)

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

(* The guarantee on generated DAGs, not just the ISCAS shapes: seeded
   sizes, clocks and skew factors. *)
let dag_budgets_verify_property =
  QCheck.Test.make ~name:"budgets on generated DAGs meet b * T_c" ~count:24
    QCheck.(
      pair (int_bound 10_000) (triple (int_bound 2) (int_bound 2) (int_bound 2)))
    (fun (seed, (size, clock, skew)) ->
      let c =
        Generator.random_dag
          (Generator.default_dag ~seed:(Int64.of_int seed)
             ~gates:[| 30; 200; 1000 |].(size) ())
      in
      let cycle_time = [| 1e-9; 3.33e-9; 2e-8 |].(clock) in
      let skew_factor = [| 0.7; 0.95; 1.0 |].(skew) in
      let b = Delay_assign.assign ~skew_factor c ~cycle_time in
      Delay_assign.verify c b ~cycle_time:(skew_factor *. cycle_time))

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
      ( "procedure 1 paths",
        [
          Alcotest.test_case "effective fanout counts an output" `Quick
            test_effective_fanout_counts_output;
          Alcotest.test_case "diamond" `Quick test_diamond_paths;
          Alcotest.test_case "ladder" `Quick test_ladder_paths;
          QCheck_alcotest.to_alcotest consumed_nonincreasing_property;
          QCheck_alcotest.to_alcotest consumed_connected_property;
        ] );
      ( "procedure 1 oracle",
        [
          Alcotest.test_case "suite and DAG bits" `Quick
            test_assign_matches_oracle;
          QCheck_alcotest.to_alcotest generated_matches_oracle_property;
          Alcotest.test_case "consumed paths most critical" `Quick
            test_consumed_paths_most_critical;
          Alcotest.test_case "fallback counts dead gates" `Quick
            test_fallback_counts_dead_gates;
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
          QCheck_alcotest.to_alcotest dag_budgets_verify_property;
        ] );
    ]
