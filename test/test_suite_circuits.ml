module Suite = Dcopt_suite.Suite
module Circuit = Dcopt_netlist.Circuit
module Stats = Dcopt_netlist.Circuit_stats
module Gate = Dcopt_netlist.Gate

let test_s27_structure () =
  let c = Suite.s27 () in
  let s = Stats.compute c in
  Alcotest.(check int) "PI" 4 s.Stats.primary_inputs;
  Alcotest.(check int) "PO" 1 s.Stats.primary_outputs;
  Alcotest.(check int) "DFF" 3 s.Stats.flip_flops;
  Alcotest.(check int) "gates" 10 s.Stats.gates

let test_s27_logic () =
  (* functional spot check of the real netlist: with all PIs 0 and all
     state bits 0, G11 = NOR(G5=0, G9) and G17 = NOT(G11). *)
  let core = Circuit.combinational_core (Suite.s27 ()) in
  let input_ids = Circuit.inputs core in
  Alcotest.(check int) "core inputs" 7 (Array.length input_ids);
  let values = Circuit.eval core (Array.make 7 false) in
  let v name = values.(Circuit.find core name) in
  (* hand-evaluated: G14=NOT(0)=1, G8=AND(1,0)=0, G12=NOR(0,0)=1,
     G15=OR(1,0)=1, G16=OR(0,0)=0, G9=NAND(0,1)=1, G11=NOR(0,1)=0,
     G17=NOT(0)=1 *)
  Alcotest.(check bool) "G14" true (v "G14");
  Alcotest.(check bool) "G8" false (v "G8");
  Alcotest.(check bool) "G12" true (v "G12");
  Alcotest.(check bool) "G9" true (v "G9");
  Alcotest.(check bool) "G11" false (v "G11");
  Alcotest.(check bool) "G17" true (v "G17")

let test_table_circuit_profiles_match () =
  List.iter
    (fun name ->
      match Suite.profile name with
      | None -> Alcotest.fail ("missing profile for " ^ name)
      | Some p ->
        let s = Stats.compute (Suite.find_exn name) in
        Alcotest.(check int) (name ^ " PI") p.Dcopt_netlist.Generator.primary_inputs
          s.Stats.primary_inputs;
        Alcotest.(check int) (name ^ " PO") p.Dcopt_netlist.Generator.primary_outputs
          s.Stats.primary_outputs;
        Alcotest.(check int) (name ^ " DFF") p.Dcopt_netlist.Generator.flip_flops
          s.Stats.flip_flops;
        Alcotest.(check int) (name ^ " gates") p.Dcopt_netlist.Generator.gates
          s.Stats.gates;
        Alcotest.(check int) (name ^ " depth") p.Dcopt_netlist.Generator.logic_depth
          s.Stats.depth)
    Suite.table_circuits

let test_published_iscas_sizes () =
  (* spot-check against the published ISCAS-89 numbers *)
  let expect name pi po ff gates =
    let s = Stats.compute (Suite.find_exn name) in
    Alcotest.(check int) (name ^ " PI") pi s.Stats.primary_inputs;
    Alcotest.(check int) (name ^ " PO") po s.Stats.primary_outputs;
    Alcotest.(check int) (name ^ " DFF") ff s.Stats.flip_flops;
    Alcotest.(check int) (name ^ " gates") gates s.Stats.gates
  in
  expect "s298" 3 6 14 119;
  expect "s344" 9 11 15 160;
  expect "s382" 3 6 21 158;
  expect "s510" 19 7 6 211

let test_extended_profiles_match () =
  List.iter
    (fun name ->
      match Suite.profile name with
      | None -> Alcotest.fail ("missing profile for " ^ name)
      | Some p ->
        let s = Stats.compute (Suite.find_exn name) in
        Alcotest.(check int) (name ^ " gates")
          p.Dcopt_netlist.Generator.gates s.Stats.gates;
        Alcotest.(check int) (name ^ " depth")
          p.Dcopt_netlist.Generator.logic_depth s.Stats.depth)
    Suite.extended_circuits

let test_extended_circuits_optimizable () =
  (* the wider suite must at least close timing and beat the fixed-Vt
     baseline; very deep circuits (s1488) legitimately gain less because
     300 MHz leaves no room for voltage scaling *)
  List.iter
    (fun name ->
      let p = Dcopt_core.Flow.prepare (Suite.find_exn name) in
      match
        ( (Dcopt_core.Optimizer.get "baseline").Dcopt_core.Optimizer.run
    (Dcopt_core.Scenario.of_prepared p),
          (Dcopt_core.Optimizer.get "joint-grid").Dcopt_core.Optimizer.run
            (Dcopt_core.Scenario.of_prepared p) )
      with
      | Some b, Some j ->
        let savings = Dcopt_opt.Solution.savings ~baseline:b j in
        Alcotest.(check bool)
          (Printf.sprintf "%s savings %.1fx > 2" name savings)
          true (savings > 2.0)
      | None, _ -> Alcotest.fail (name ^ " baseline infeasible")
      | _, None -> Alcotest.fail (name ^ " joint infeasible"))
    Suite.extended_circuits

let test_find_unknown () =
  (match Suite.find "s9999" with
  | Error msg ->
    (* the typed error should name the offending circuit *)
    let contains needle hay =
      let n = String.length needle and h = String.length hay in
      let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "error names the circuit" true (contains "s9999" msg)
  | Ok _ -> Alcotest.fail "expected Error for unknown circuit");
  match Suite.find_exn "s9999" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_find_cached () =
  Alcotest.(check bool) "physically cached" true
    (Suite.find_exn "s298" == Suite.find_exn "s298")

let test_all_lists_everything () =
  let all = Suite.all () in
  Alcotest.(check int) "count" (List.length Suite.names) (List.length all);
  List.iter
    (fun (name, c) ->
      Alcotest.(check string) "name matches" name (Circuit.name c))
    all

let test_profile_none_for_s27 () =
  Alcotest.(check bool) "s27 is embedded, not generated" true
    (Suite.profile "s27" = None)

let test_cores_are_optimizable () =
  (* every suite circuit's core must be a valid combinational network with
     every gate reachable by the analyses *)
  List.iter
    (fun (name, c) ->
      let core = Circuit.combinational_core c in
      Alcotest.(check bool) (name ^ " comb") true (Circuit.is_combinational core);
      Alcotest.(check bool)
        (name ^ " nonempty")
        true
        (Circuit.gate_count core > 0);
      (* no gate with a DFF kind survives *)
      Array.iter
        (fun nd ->
          Alcotest.(check bool) "no dff in core" true (nd.Circuit.kind <> Gate.Dff))
        (Circuit.nodes core))
    (Suite.all ())

let test_data_files_roundtrip () =
  (* the shipped data/*.bench files must parse back to the same structure
     the suite generates *)
  let dir = "../../../data" in
  if Sys.file_exists dir then
    List.iter
      (fun name ->
        let path = Filename.concat dir (name ^ ".bench") in
        if Sys.file_exists path then begin
          let parsed =
            match Dcopt_netlist.Bench_format.parse_file_checked path with
            | Ok c -> c
            | Error diags -> Alcotest.fail (Dcopt_util.Diag.render diags)
          in
          let s1 = Stats.compute parsed and s2 = Stats.compute (Suite.find_exn name) in
          Alcotest.(check int) (name ^ " gates") s2.Stats.gates s1.Stats.gates;
          Alcotest.(check int) (name ^ " depth") s2.Stats.depth s1.Stats.depth;
          Alcotest.(check int) (name ^ " fanout") s2.Stats.total_fanout
            s1.Stats.total_fanout
        end)
      Suite.names

let () =
  Alcotest.run "suite"
    [
      ( "s27",
        [
          Alcotest.test_case "structure" `Quick test_s27_structure;
          Alcotest.test_case "logic" `Quick test_s27_logic;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "generated match profiles" `Quick
            test_table_circuit_profiles_match;
          Alcotest.test_case "published sizes" `Quick test_published_iscas_sizes;
          Alcotest.test_case "s27 not generated" `Quick test_profile_none_for_s27;
          Alcotest.test_case "extended profiles" `Quick
            test_extended_profiles_match;
          Alcotest.test_case "extended optimizable" `Slow
            test_extended_circuits_optimizable;
        ] );
      ( "registry",
        [
          Alcotest.test_case "unknown" `Quick test_find_unknown;
          Alcotest.test_case "cached" `Quick test_find_cached;
          Alcotest.test_case "all" `Quick test_all_lists_everything;
          Alcotest.test_case "cores optimizable" `Quick
            test_cores_are_optimizable;
          Alcotest.test_case "data files round-trip" `Quick
            test_data_files_roundtrip;
        ] );
    ]
