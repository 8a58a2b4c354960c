(* Fast checks of the end-to-end benchmark's pure parts; no workload
   pass runs here. *)

open Dcopt_bench_e2e
module Json = Dcopt_util.Json
module Generator = Dcopt_netlist.Generator
module Bench_format = Dcopt_netlist.Bench_format

let close = Alcotest.float 1e-12

let test_summary () =
  let s = Summary.summarize [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.check close "median" 3.0 s.Summary.median;
  Alcotest.check close "q1" 2.0 s.Summary.q1;
  Alcotest.check close "q3" 4.0 s.Summary.q3;
  Alcotest.(check int) "n" 5 s.Summary.n;
  Alcotest.check close "spread" (2.0 /. 3.0) (Summary.spread s);
  let even = Summary.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.check close "even median interpolates" 2.5 even.Summary.median;
  Alcotest.check close "single sample" 7.0 (Summary.median [ 7.0 ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Summary.summarize: no samples")
    (fun () -> ignore (Summary.summarize []))

let test_gc_parser () =
  let fleet = In_channel.with_open_bin "fleet_gc_stderr.txt" In_channel.input_all in
  Alcotest.(check (list int)) "one block per process of a 2-worker fleet"
    [ 100247; 91924; 18500 ] (Summary.top_heap_words fleet);
  Alcotest.check close "summed, 8 bytes a word"
    (float_of_int (8 * (100247 + 91924 + 18500)) /. 1e6)
    (Summary.peak_heap_mb fleet);
  let noisy =
    "wrote 30-gate DAG\ntop_heap_words: 12\nheap_words: 99\n\
     top_heap_words: not-a-number\nxtop_heap_words: 5\ntop_heap_words: 30\n"
  in
  Alcotest.(check (list int)) "ignores other lines" [ 12; 30 ] (Summary.top_heap_words noisy);
  Alcotest.check close "no stats, no heap" 0.0 (Summary.peak_heap_mb "")

let workload name = Option.get (Spec.find_workload name)

let dag_texts w ~seed =
  List.map
    (fun (d : Spec.dag) ->
      Bench_format.to_string
        (Generator.random_dag
           (Generator.default_dag
              ~name:(Filename.remove_extension d.Spec.file)
              ~seed:d.Spec.dag_seed ~gates:d.Spec.gates ())))
    (Spec.dags w ~seed)

let test_seed_determinism () =
  let sweep = workload "iscas-sweep" in
  let jobs seed = Spec.jsonl (Spec.jobs sweep ~seed) in
  Alcotest.(check string) "same seed, same sweep jobs" (jobs 1) (jobs 1);
  Alcotest.(check bool) "other seed, other sweep jobs" false (jobs 1 = jobs 2);
  Alcotest.(check int) "13 circuits x 6 optimizers" 78 (List.length (Spec.jobs sweep ~seed:1));
  let joint = workload "dag-joint" in
  Alcotest.(check (list string)) "same seed, same DAG text" (dag_texts joint ~seed:1)
    (dag_texts joint ~seed:1);
  Alcotest.(check bool) "other seed, other DAG text" false
    (dag_texts joint ~seed:1 = dag_texts joint ~seed:2);
  let fleet = workload "iscas-sweep-fleet" in
  Alcotest.(check string) "fleet runs the sweep's jobs" (jobs 3)
    (Spec.jsonl (Spec.jobs fleet ~seed:3));
  Alcotest.(check int) "half the jobs pre-warmed" 39
    (List.length (Spec.prewarm_jobs fleet ~seed:3))

let test_stratified_clocks () =
  let clocks seed = List.sort compare (Array.to_list (Spec.sweep_clocks ~seed 78)) in
  Alcotest.(check (list (float 0.0))) "every seed deals the same clock mix" (clocks 1)
    (clocks 9)

let s median q1 q3 = { Summary.median; q1; q3; n = 5 }

let test_verdicts () =
  let v better a b = Summary.verdict_to_string (Summary.verdict ~better ~bound:0.1 a b) in
  let base = s 10.0 9.9 10.1 in
  Alcotest.(check string) "within bound" "same" (v Spec.Lower base (s 10.5 10.4 10.6));
  Alcotest.(check string) "slower" "worse" (v Spec.Lower base (s 11.5 11.4 11.6));
  Alcotest.(check string) "faster" "better" (v Spec.Lower base (s 8.5 8.4 8.6));
  Alcotest.(check string) "higher is better" "worse" (v Spec.Higher base (s 8.5 8.4 8.6));
  Alcotest.(check string) "noisy new run" "unresolved" (v Spec.Lower base (s 10.0 9.0 11.0));
  Alcotest.(check string) "noisy base run" "unresolved" (v Spec.Lower (s 10.0 9.0 11.0) base);
  Alcotest.(check string) "zero stays zero" "same" (v Spec.Lower (s 0.0 0.0 0.0) (s 0.0 0.0 0.0));
  Alcotest.(check string) "from zero" "worse" (v Spec.Lower (s 0.0 0.0 0.0) (s 1.0 1.0 1.0))

(* Several runs a side: judged on the runs' medians, so host drift
   between runs shows as spread even when every run is steady inside. *)
let test_run_sets () =
  let v a b = Summary.verdict_to_string (Summary.verdict ~better:Spec.Lower ~bound:0.1 a b) in
  let steady m = s m (m *. 0.99) (m *. 1.01) in
  Alcotest.(check bool) "one run stands for itself" true
    (Summary.side [ steady 5.0 ] = steady 5.0);
  let drifting = Summary.side [ steady 4.0; steady 5.0; steady 7.0; steady 5.0 ] in
  Alcotest.check close "median of run medians" 5.0 drifting.Summary.median;
  Alcotest.(check int) "one sample per run" 4 drifting.Summary.n;
  Alcotest.(check string) "drift between runs is unresolved" "unresolved"
    (v drifting (Summary.side [ steady 5.0; steady 5.1; steady 5.0 ]));
  Alcotest.(check string) "steady run sets agree" "same"
    (v (Summary.side [ steady 5.0; steady 5.1; steady 5.0 ])
       (Summary.side [ steady 5.1; steady 5.0; steady 5.2 ]));
  Alcotest.(check string) "steady run sets, slower" "worse"
    (v (Summary.side [ steady 5.0; steady 5.1; steady 5.0 ])
       (Summary.side [ steady 6.0; steady 6.1; steady 5.9 ]))

(* Energy and solved share repeat exactly at one seed, so compare holds
   them to the same-seed tolerance, not to the cross-seed bound. *)
let test_compare_bounds () =
  let bound name =
    Spec.compare_bound
      (List.find (fun ((m : Spec.metric), _) -> m.Spec.name = name) Spec.end_to_end)
  in
  Alcotest.check close "energy" Spec.same_seed_tolerance (bound "energy_fj_geomean");
  Alcotest.check close "solved" Spec.same_seed_tolerance (bound "solved_frac");
  Alcotest.check close "wall time keeps its bound" 0.25 (bound "wall_s");
  let e a = s a a a in
  let verdict name a b =
    Summary.verdict_to_string
      (Summary.verdict ~better:Spec.Lower ~bound:(bound name) (e a) (e b))
  in
  Alcotest.(check string) "energy 1% worse" "worse" (verdict "energy_fj_geomean" 100.0 101.0);
  Alcotest.(check string) "energy unchanged" "same" (verdict "energy_fj_geomean" 100.0 100.0);
  Alcotest.(check string) "one job of 78 unsolved" "worse"
    (Summary.verdict_to_string
       (Summary.verdict ~better:Spec.Higher ~bound:(bound "solved_frac") (e 1.0)
          (e (77.0 /. 78.0))))

(* BENCHMARK.json at the repository root declares the benchmark's
   workloads and metrics; it must say exactly what the code measures. *)
let test_benchmark_json () =
  let doc = Json.of_string_exn (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let list name = Option.get (Option.bind (Json.field name doc) Json.get_list) in
  let str name j = Option.get (Option.bind (Json.field name j) Json.get_string) in
  Alcotest.(check (list (pair string string))) "workloads"
    (List.map (fun (w : Spec.workload) -> (w.Spec.name, w.Spec.why)) Spec.workloads)
    (List.map (fun j -> (str "name" j, str "why" j)) (list "workloads"));
  let metric (m : Spec.metric) = (m.Spec.name, m.Spec.unit_, Spec.better_to_string m.Spec.better) in
  let triple j = (str "name" j, str "unit" j, str "better" j) in
  Alcotest.(check (list (triple string string string))) "end-to-end metrics"
    (List.map (fun (m, _) -> metric m) Spec.end_to_end)
    (List.map triple (list "end_to_end"));
  Alcotest.(check (list (float 0.0))) "bounds"
    (List.map snd Spec.end_to_end)
    (List.map (fun j -> Option.get (Option.bind (Json.field "bound" j) Json.get_float)) (list "end_to_end"));
  Alcotest.(check (list (triple string string string))) "per-layer metrics"
    (List.map metric Spec.per_layer)
    (List.map triple (list "per_layer"))

let () =
  Alcotest.run "bench-e2e"
    [
      ( "summary",
        [
          Alcotest.test_case "median and quartiles" `Quick test_summary;
          Alcotest.test_case "GC statistics parser" `Quick test_gc_parser;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
          Alcotest.test_case "compare run sets" `Quick test_run_sets;
          Alcotest.test_case "compare bounds" `Quick test_compare_bounds;
        ] );
      ( "spec",
        [
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "stratified clocks" `Quick test_stratified_clocks;
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json;
        ] );
    ]
