module Gate = Dcopt_netlist.Gate
module Circuit = Dcopt_netlist.Circuit
module Bench_format = Dcopt_netlist.Bench_format
module Generator = Dcopt_netlist.Generator
module Patterns = Dcopt_netlist.Patterns
module Stats = Dcopt_netlist.Circuit_stats
module Diag = Dcopt_util.Diag

(* [Bench_format.parse] on text that must be well-formed. *)
let parse_ok ~name text =
  match Bench_format.parse ~name text with
  | Ok c -> c
  | Error diags -> Alcotest.fail (Diag.render diags)

(* ------------------------------------------------------------------ *)
(* Gate                                                               *)

let test_gate_eval_truth_tables () =
  let t = true and f = false in
  Alcotest.(check bool) "and" true (Gate.eval Gate.And [| t; t |]);
  Alcotest.(check bool) "and f" false (Gate.eval Gate.And [| t; f |]);
  Alcotest.(check bool) "nand" false (Gate.eval Gate.Nand [| t; t |]);
  Alcotest.(check bool) "or" true (Gate.eval Gate.Or [| f; t |]);
  Alcotest.(check bool) "nor" true (Gate.eval Gate.Nor [| f; f |]);
  Alcotest.(check bool) "not" true (Gate.eval Gate.Not [| f |]);
  Alcotest.(check bool) "buf" false (Gate.eval Gate.Buf [| f |]);
  Alcotest.(check bool) "xor odd" true (Gate.eval Gate.Xor [| t; f; f |]);
  Alcotest.(check bool) "xor even" false (Gate.eval Gate.Xor [| t; t |]);
  Alcotest.(check bool) "xnor" true (Gate.eval Gate.Xnor [| t; t |])

let test_gate_eval_rejects_input () =
  Alcotest.check_raises "input" (Invalid_argument "Gate.eval: not a combinational gate")
    (fun () -> ignore (Gate.eval Gate.Input [||]))

let test_gate_strings_roundtrip () =
  List.iter
    (fun k ->
      match Gate.of_string (Gate.to_string k) with
      | Some k' -> Alcotest.(check bool) (Gate.to_string k) true (k = k')
      | None -> Alcotest.fail "of_string failed")
    Gate.all

let test_gate_of_string_aliases () =
  Alcotest.(check bool) "INV" true (Gate.of_string "inv" = Some Gate.Not);
  Alcotest.(check bool) "BUFF" true (Gate.of_string "BUFF" = Some Gate.Buf);
  Alcotest.(check bool) "garbage" true (Gate.of_string "FOO" = None)

let test_gate_arity () =
  Alcotest.(check bool) "input 0" true (Gate.arity_ok Gate.Input 0);
  Alcotest.(check bool) "input 1" false (Gate.arity_ok Gate.Input 1);
  Alcotest.(check bool) "not 1" true (Gate.arity_ok Gate.Not 1);
  Alcotest.(check bool) "not 2" false (Gate.arity_ok Gate.Not 2);
  Alcotest.(check bool) "and 1" false (Gate.arity_ok Gate.And 1);
  Alcotest.(check bool) "and 4" true (Gate.arity_ok Gate.And 4)

let test_gate_stack_depth () =
  Alcotest.(check int) "nand3" 3 (Gate.series_stack_depth Gate.Nand 3);
  Alcotest.(check int) "not" 1 (Gate.series_stack_depth Gate.Not 1);
  Alcotest.(check int) "xor" 2 (Gate.series_stack_depth Gate.Xor 2)

(* ------------------------------------------------------------------ *)
(* Circuit construction and validation                                 *)

let tiny () =
  Circuit.create ~name:"tiny"
    ~nodes:
      [
        ("a", Gate.Input, []); ("b", Gate.Input, []);
        ("n1", Gate.Nand, [ "a"; "b" ]); ("o", Gate.Not, [ "n1" ]);
      ]
    ~outputs:[ "o" ]

let test_create_ok () =
  let c = tiny () in
  Alcotest.(check int) "size" 4 (Circuit.size c);
  Alcotest.(check int) "gates" 2 (Circuit.gate_count c);
  Alcotest.(check int) "inputs" 2 (Array.length (Circuit.inputs c));
  Alcotest.(check int) "outputs" 1 (Array.length (Circuit.outputs c));
  Alcotest.(check bool) "comb" true (Circuit.is_combinational c)

let expect_invalid f =
  match f () with
  | exception Circuit.Invalid _ -> ()
  | _ -> Alcotest.fail "expected Circuit.Invalid"

let test_create_duplicate_name () =
  expect_invalid (fun () ->
      Circuit.create ~name:"dup"
        ~nodes:[ ("a", Gate.Input, []); ("a", Gate.Input, []) ]
        ~outputs:[ "a" ])

let test_create_undefined_fanin () =
  expect_invalid (fun () ->
      Circuit.create ~name:"undef"
        ~nodes:[ ("a", Gate.Input, []); ("g", Gate.Not, [ "zzz" ]) ]
        ~outputs:[ "g" ])

let test_create_bad_arity () =
  expect_invalid (fun () ->
      Circuit.create ~name:"arity"
        ~nodes:[ ("a", Gate.Input, []); ("g", Gate.And, [ "a" ]) ]
        ~outputs:[ "g" ])

let test_create_combinational_cycle () =
  expect_invalid (fun () ->
      Circuit.create ~name:"cycle"
        ~nodes:
          [
            ("a", Gate.Input, []);
            ("g1", Gate.And, [ "a"; "g2" ]);
            ("g2", Gate.Not, [ "g1" ]);
          ]
        ~outputs:[ "g2" ])

let test_registered_feedback_allowed () =
  let c =
    Circuit.create ~name:"feedback"
      ~nodes:
        [
          ("a", Gate.Input, []);
          ("ff", Gate.Dff, [ "g" ]);
          ("g", Gate.And, [ "a"; "ff" ]);
        ]
      ~outputs:[ "g" ]
  in
  Alcotest.(check int) "dffs" 1 (Array.length (Circuit.dffs c));
  Alcotest.(check bool) "sequential" false (Circuit.is_combinational c)

let test_topo_order_respects_fanins () =
  let c = tiny () in
  let order = Circuit.topo_order c in
  let position = Array.make (Circuit.size c) 0 in
  Array.iteri (fun i id -> position.(id) <- i) order;
  Array.iter
    (fun nd ->
      match nd.Circuit.kind with
      | Gate.Dff -> ()
      | _ ->
        Array.iter
          (fun f ->
            Alcotest.(check bool) "fanin before gate" true
              (position.(f) < position.(nd.Circuit.id)))
          nd.Circuit.fanins)
    (Circuit.nodes c)

let test_levels_and_depth () =
  let c = tiny () in
  Alcotest.(check int) "depth" 2 (Circuit.depth c);
  Alcotest.(check int) "input level" 0 (Circuit.level c (Circuit.find c "a"));
  Alcotest.(check int) "nand level" 1 (Circuit.level c (Circuit.find c "n1"));
  Alcotest.(check int) "not level" 2 (Circuit.level c (Circuit.find c "o"))

let test_fanouts () =
  let c = tiny () in
  let a = Circuit.find c "a" in
  Alcotest.(check int) "a fanout" 1 (Array.length (Circuit.fanouts c a));
  let o = Circuit.find c "o" in
  Alcotest.(check int) "o fanout_count counts pin" 1 (Circuit.fanout_count c o)

let test_combinational_core () =
  let seq =
    Circuit.create ~name:"seq"
      ~nodes:
        [
          ("a", Gate.Input, []);
          ("ff", Gate.Dff, [ "g" ]);
          ("g", Gate.Nor, [ "a"; "ff" ]);
        ]
      ~outputs:[ "g" ]
  in
  let core = Circuit.combinational_core seq in
  Alcotest.(check bool) "core comb" true (Circuit.is_combinational core);
  Alcotest.(check int) "core inputs = PI + DFF" 2
    (Array.length (Circuit.inputs core));
  (* the DFF data net becomes a pseudo primary output *)
  Alcotest.(check int) "core outputs" 2 (Array.length (Circuit.outputs core));
  Alcotest.(check int) "gate count preserved" (Circuit.gate_count seq)
    (Circuit.gate_count core)

let test_core_idempotent_on_combinational () =
  let c = tiny () in
  Alcotest.(check bool) "same value" true (Circuit.combinational_core c == c)

let test_eval_tiny () =
  let c = tiny () in
  let values = Circuit.eval c [| true; true |] in
  Alcotest.(check bool) "nand(1,1)=0" false values.(Circuit.find c "n1");
  Alcotest.(check bool) "not(0)=1" true values.(Circuit.find c "o");
  Alcotest.(check (array bool)) "outputs" [| true |]
    (Circuit.output_values c [| true; true |])

(* ------------------------------------------------------------------ *)
(* Patterns: functional correctness                                    *)

let adder_value c a b cin bits =
  (* drive the adder and read the sum as an integer *)
  let inputs = Circuit.inputs c in
  let input_values =
    Array.map
      (fun id ->
        let name = (Circuit.node c id).Circuit.name in
        if name = "cin" then cin
        else
          let bit = int_of_string (String.sub name 1 (String.length name - 1)) in
          if name.[0] = 'a' then (a lsr bit) land 1 = 1
          else (b lsr bit) land 1 = 1)
      inputs
  in
  let out = Circuit.output_values c input_values in
  let sum = ref 0 in
  for i = 0 to bits - 1 do
    if out.(i) then sum := !sum lor (1 lsl i)
  done;
  if out.(bits) then sum := !sum lor (1 lsl bits);
  !sum

let adder_property =
  QCheck.Test.make ~name:"ripple-carry adder adds" ~count:300
    QCheck.(triple (int_bound 255) (int_bound 255) bool)
    (fun (a, b, cin) ->
      let c = Patterns.ripple_carry_adder ~bits:8 in
      adder_value c a b cin 8 = a + b + if cin then 1 else 0)

let parity_property =
  QCheck.Test.make ~name:"parity tree computes parity" ~count:200
    QCheck.(list_of_size (Gen.return 9) bool)
    (fun bits ->
      let c = Patterns.parity_tree ~leaves:9 in
      let expected = List.fold_left (fun acc b -> if b then not acc else acc) false bits in
      (Circuit.output_values c (Array.of_list bits)).(0) = expected)

let mux_property =
  QCheck.Test.make ~name:"mux tree selects" ~count:200
    QCheck.(pair (list_of_size (Gen.return 8) bool) (int_bound 7))
    (fun (data, sel) ->
      let c = Patterns.mux_tree ~select_bits:3 in
      (* inputs order: d0..d7 then s0..s2 *)
      let input_values =
        Array.of_list
          (data @ List.init 3 (fun b -> (sel lsr b) land 1 = 1))
      in
      (Circuit.output_values c input_values).(0) = List.nth data sel)

let decoder_property =
  QCheck.Test.make ~name:"decoder is one-hot" ~count:100
    QCheck.(int_bound 7)
    (fun code ->
      let c = Patterns.decoder ~bits:3 in
      let input_values = Array.init 3 (fun b -> (code lsr b) land 1 = 1) in
      let out = Circuit.output_values c input_values in
      Array.length out = 8
      && Array.to_list out
         |> List.mapi (fun i v -> v = (i = code))
         |> List.for_all Fun.id)

let multiplier_property =
  QCheck.Test.make ~name:"array multiplier multiplies" ~count:200
    QCheck.(pair (int_bound 31) (int_bound 31))
    (fun (a, b) ->
      let c = Patterns.array_multiplier ~bits:5 in
      let input_values =
        Array.map
          (fun id ->
            let name = (Circuit.node c id).Circuit.name in
            let bit = int_of_string (String.sub name 1 (String.length name - 1)) in
            if name.[0] = 'a' then (a lsr bit) land 1 = 1
            else (b lsr bit) land 1 = 1)
          (Circuit.inputs c)
      in
      let out = Circuit.output_values c input_values in
      let p = ref 0 in
      Array.iteri (fun i v -> if v then p := !p lor (1 lsl i)) out;
      !p = a * b)

let barrel_shifter_property =
  QCheck.Test.make ~name:"barrel shifter shifts with zero fill" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 7))
    (fun (d, sh) ->
      let c = Patterns.barrel_shifter ~bits:3 in
      let input_values =
        Array.map
          (fun id ->
            let name = (Circuit.node c id).Circuit.name in
            let bit = int_of_string (String.sub name 1 (String.length name - 1)) in
            if name.[0] = 'd' then (d lsr bit) land 1 = 1
            else (sh lsr bit) land 1 = 1)
          (Circuit.inputs c)
      in
      let out = Circuit.output_values c input_values in
      let y = ref 0 in
      Array.iteri (fun i v -> if v then y := !y lor (1 lsl i)) out;
      !y = (d lsl sh) land 255)

let test_multiplier_1bit_top_is_zero () =
  let c = Patterns.array_multiplier ~bits:1 in
  List.iter
    (fun (a, b) ->
      let out = Circuit.output_values c [| a; b |] in
      Alcotest.(check bool) "p0" (a && b) out.(0);
      Alcotest.(check bool) "p1 constant zero" false out.(1))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_inverter_chain () =
  let c = Patterns.inverter_chain ~stages:5 in
  Alcotest.(check int) "depth" 5 (Circuit.depth c);
  Alcotest.(check (array bool)) "odd inversions" [| true |]
    (Circuit.output_values c [| false |])

let test_and_or_ladder () =
  let c = Patterns.and_or_ladder ~rungs:7 in
  Alcotest.(check int) "depth" 7 (Circuit.depth c);
  Alcotest.(check int) "gates" 7 (Circuit.gate_count c)

(* ------------------------------------------------------------------ *)
(* Bench format                                                        *)

let test_parse_simple () =
  let text =
    "# comment\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)  # trailing\n"
  in
  let c = parse_ok ~name:"x" text in
  Alcotest.(check int) "gates" 1 (Circuit.gate_count c);
  Alcotest.(check bool) "kind" true
    ((Circuit.node c (Circuit.find c "y")).Circuit.kind = Gate.Nand)

let test_parse_crlf_and_case () =
  (* Windows line endings and mixed-case keywords both parse *)
  let text = "INPUT(a)\r\ninput(b)\r\nOUTPUT(y)\r\ny = nand(a, b)\r\n" in
  let c = parse_ok ~name:"crlf" text in
  Alcotest.(check int) "two inputs" 2 (Array.length (Circuit.inputs c));
  Alcotest.(check int) "one gate" 1 (Circuit.gate_count c)

let test_generator_depth_one () =
  let c =
    Generator.generate
      {
        Generator.profile_name = "flat";
        primary_inputs = 4;
        primary_outputs = 2;
        flip_flops = 0;
        gates = 6;
        logic_depth = 1;
        seed = Some 5L;
      }
  in
  Alcotest.(check int) "depth 1" 1 (Circuit.depth c);
  Alcotest.(check int) "six gates" 6 (Circuit.gate_count c)

let test_parse_errors () =
  (* every diagnostic of each text, in order, with its code and line *)
  let bad expected text =
    match Bench_format.parse ~file:"bad.bench" ~name:"bad" text with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed cleanly" text)
    | Error diags ->
      Alcotest.(check (list (pair string (option int))))
        text expected
        (List.map (fun d -> (d.Diag.code, d.Diag.line)) diags)
  in
  bad [ ("bench.syntax", Some 1); ("bench.empty", None) ] "garbage here";
  bad [ ("bench.gate", Some 2) ] "INPUT(a)\ny = FROB(a, a)\n";
  bad [ ("bench.syntax", Some 1); ("bench.empty", None) ] "INPUT(a, b)\n";
  bad [ ("bench.syntax", Some 2) ] "INPUT(a)\n= NAND(a, a)\n";
  (* a cycle has no line of its own *)
  bad [ ("bench.cycle", None) ]
    "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = AND(a, y)\n"

let roundtrip_property =
  let profile_gen =
    QCheck.Gen.(
      map2
        (fun gates seed ->
          {
            Generator.profile_name = "rt";
            primary_inputs = 4;
            primary_outputs = 3;
            flip_flops = 2;
            gates = 20 + gates;
            logic_depth = 5;
            seed = Some (Int64.of_int seed);
          })
        (int_bound 60) (int_bound 10_000))
  in
  QCheck.Test.make ~name:"bench round-trip preserves structure" ~count:50
    (QCheck.make profile_gen)
    (fun profile ->
      let c = Generator.generate profile in
      let c' = parse_ok ~name:"rt" (Bench_format.to_string c) in
      let s = Stats.compute c and s' = Stats.compute c' in
      s.Stats.gates = s'.Stats.gates
      && s.Stats.depth = s'.Stats.depth
      && s.Stats.primary_inputs = s'.Stats.primary_inputs
      && s.Stats.primary_outputs = s'.Stats.primary_outputs
      && s.Stats.flip_flops = s'.Stats.flip_flops
      && s.Stats.total_fanout = s'.Stats.total_fanout)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

let generator_profile_property =
  let profile_gen =
    QCheck.Gen.(
      map
        (fun (pi, po, ff, extra_gates, depth, seed) ->
          {
            Generator.profile_name = "gen";
            primary_inputs = 1 + pi;
            primary_outputs = 1 + po;
            flip_flops = ff;
            gates = depth + 1 + extra_gates;
            logic_depth = 1 + depth;
            seed = Some (Int64.of_int seed);
          })
        (tup6 (int_bound 8) (int_bound 8) (int_bound 10) (int_bound 150)
           (int_bound 11) (int_bound 100_000)))
  in
  QCheck.Test.make ~name:"generator matches profile exactly" ~count:100
    (QCheck.make profile_gen)
    (fun p ->
      (* gates >= logic_depth required: gates = depth+1+extra > depth+1 ok *)
      let c = Generator.generate p in
      let s = Stats.compute c in
      s.Stats.primary_inputs = p.Generator.primary_inputs
      && s.Stats.primary_outputs = p.Generator.primary_outputs
      && s.Stats.flip_flops = p.Generator.flip_flops
      && s.Stats.gates = p.Generator.gates
      && s.Stats.depth = p.Generator.logic_depth)

let test_generator_deterministic () =
  let p =
    {
      Generator.profile_name = "det";
      primary_inputs = 3;
      primary_outputs = 2;
      flip_flops = 4;
      gates = 50;
      logic_depth = 6;
      seed = None;
    }
  in
  let a = Bench_format.to_string (Generator.generate p) in
  let b = Bench_format.to_string (Generator.generate p) in
  Alcotest.(check string) "same netlist" a b

let test_generator_validate () =
  let p =
    {
      Generator.profile_name = "bad";
      primary_inputs = 0;
      primary_outputs = 1;
      flip_flops = 0;
      gates = 5;
      logic_depth = 2;
      seed = None;
    }
  in
  Alcotest.(check bool) "rejects 0 inputs" true
    (Result.is_error (Generator.validate p))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_tiny () =
  let s = Stats.compute (tiny ()) in
  Alcotest.(check int) "gates" 2 s.Stats.gates;
  Alcotest.(check int) "depth" 2 s.Stats.depth;
  Alcotest.(check (float 1e-9)) "mean fanin" 1.5 s.Stats.mean_fanin;
  Alcotest.(check bool) "string mentions name" true
    (String.length (Stats.to_string s) > 0)

let () =
  Alcotest.run "netlist"
    [
      ( "gate",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_eval_truth_tables;
          Alcotest.test_case "eval rejects input" `Quick
            test_gate_eval_rejects_input;
          Alcotest.test_case "string round-trip" `Quick
            test_gate_strings_roundtrip;
          Alcotest.test_case "aliases" `Quick test_gate_of_string_aliases;
          Alcotest.test_case "arity" `Quick test_gate_arity;
          Alcotest.test_case "stack depth" `Quick test_gate_stack_depth;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "create ok" `Quick test_create_ok;
          Alcotest.test_case "duplicate name" `Quick test_create_duplicate_name;
          Alcotest.test_case "undefined fanin" `Quick
            test_create_undefined_fanin;
          Alcotest.test_case "bad arity" `Quick test_create_bad_arity;
          Alcotest.test_case "combinational cycle" `Quick
            test_create_combinational_cycle;
          Alcotest.test_case "registered feedback" `Quick
            test_registered_feedback_allowed;
          Alcotest.test_case "topo order" `Quick test_topo_order_respects_fanins;
          Alcotest.test_case "levels" `Quick test_levels_and_depth;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "combinational core" `Quick
            test_combinational_core;
          Alcotest.test_case "core idempotent" `Quick
            test_core_idempotent_on_combinational;
          Alcotest.test_case "eval" `Quick test_eval_tiny;
        ] );
      ( "patterns",
        [
          QCheck_alcotest.to_alcotest adder_property;
          QCheck_alcotest.to_alcotest parity_property;
          QCheck_alcotest.to_alcotest mux_property;
          QCheck_alcotest.to_alcotest decoder_property;
          QCheck_alcotest.to_alcotest multiplier_property;
          QCheck_alcotest.to_alcotest barrel_shifter_property;
          Alcotest.test_case "1-bit multiplier zero pad" `Quick
            test_multiplier_1bit_top_is_zero;
          Alcotest.test_case "inverter chain" `Quick test_inverter_chain;
          Alcotest.test_case "and-or ladder" `Quick test_and_or_ladder;
        ] );
      ( "bench format",
        [
          Alcotest.test_case "parse simple" `Quick test_parse_simple;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "crlf and case" `Quick test_parse_crlf_and_case;
          QCheck_alcotest.to_alcotest roundtrip_property;
        ] );
      ( "generator",
        [
          QCheck_alcotest.to_alcotest generator_profile_property;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "depth one" `Quick test_generator_depth_one;
          Alcotest.test_case "validate" `Quick test_generator_validate;
        ] );
      ( "stats", [ Alcotest.test_case "tiny" `Quick test_stats_tiny ] );
    ]
