(* The domain pool and the determinism guarantee of its call sites:
   --jobs 4 must be bit-identical to --jobs 1, including telemetry
   streams, because every parallel site computes pure results in index
   order and emits/folds sequentially. *)

module Par = Dcopt_par.Par
module Circuit = Dcopt_netlist.Circuit
module Tech = Dcopt_device.Tech
module Activity = Dcopt_activity.Activity
module Delay_assign = Dcopt_timing.Delay_assign
module Power_model = Dcopt_opt.Power_model
module Budget_repair = Dcopt_opt.Budget_repair
module Heuristic = Dcopt_opt.Heuristic
module Annealing = Dcopt_opt.Annealing
module Yield = Dcopt_opt.Yield
module Solution = Dcopt_opt.Solution
module Telemetry = Dcopt_obs.Telemetry
module Metrics = Dcopt_obs.Metrics

let tech = Tech.default
let fc = 300e6

let setup ?(name = "s27") () =
  let core = Circuit.combinational_core (Dcopt_suite.Suite.find_exn name) in
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  let env = Power_model.make_env ~tech ~fc core profile in
  let raw =
    (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max
  in
  let budgets =
    match
      Budget_repair.repair env ~budgets:raw ~vdd:tech.Tech.vdd_max
        ~vt:tech.Tech.vt_min
    with
    | Budget_repair.Repaired { budgets; _ } -> budgets
    | Budget_repair.Infeasible _ -> raw
  in
  (env, budgets)

let with_jobs n fn =
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) fn

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)

(* Pool domains resolve suite circuits (the experiment tables fan rows
   out over Par): concurrent first lookups of one name must all get the
   circuit the cache keeps. No other case of this process asks for these
   names, so the pool fills the cache here. *)
let test_suite_cache_concurrent () =
  let names =
    [| "s1488"; "s820"; "s1488"; "s832"; "s1488"; "s820"; "s1488"; "s832" |]
  in
  let got = Par.map ~jobs:4 Dcopt_suite.Suite.find_exn names in
  Array.iteri
    (fun i c ->
      if c != Dcopt_suite.Suite.find_exn names.(i) then
        Alcotest.failf "lookup %d of %s is not the cached circuit" i names.(i))
    got

let test_map_order () =
  let input = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 7) input in
  let got = Par.map ~jobs:4 (fun i -> (i * i) + 7) input in
  Alcotest.(check (array int)) "index-ordered results" expected got

let test_map_list_order () =
  let input = List.init 23 (fun i -> i) in
  let expected = List.map string_of_int input in
  let got = Par.map_list ~jobs:4 string_of_int input in
  Alcotest.(check (list string)) "list order preserved" expected got

let test_map_covers_all () =
  let n = 64 in
  let hits = Array.make n 0 in
  ignore
    (Par.map ~jobs:4 (fun i -> hits.(i) <- hits.(i) + 1) (Array.init n Fun.id));
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "index %d once" i) 1 h)
    hits

exception Boom of int

let test_exception_propagates () =
  let raised =
    try
      ignore
        (Par.map ~jobs:4 (fun i -> if i = 17 then raise (Boom i))
           (Array.init 32 Fun.id));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "task exception reaches caller" (Some 17)
    raised;
  (* the pool must stay usable after a failed batch *)
  let got = Par.map ~jobs:4 (fun i -> i + 1) (Array.init 8 (fun i -> i)) in
  Alcotest.(check (array int)) "pool reusable after exception"
    (Array.init 8 (fun i -> i + 1))
    got

let test_nested_map_degenerates () =
  (* inner calls from inside a running task must complete sequentially
     instead of deadlocking on the one global pool *)
  let got =
    Par.map ~jobs:4
      (fun i ->
        Array.fold_left ( + ) 0
          (Par.map ~jobs:4 (fun j -> (10 * i) + j) (Array.init 5 Fun.id)))
      (Array.init 12 Fun.id)
  in
  let expected =
    Array.init 12 (fun i ->
        Array.fold_left ( + ) 0 (Array.init 5 (fun j -> (10 * i) + j)))
  in
  Alcotest.(check (array int)) "nested map correct" expected got

let test_set_jobs_validates () =
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Par.set_jobs: jobs < 1") (fun () -> Par.set_jobs 0)

(* Task latencies are elapsed time: a wall-clock step inside a task (a
   forward one; Clock.now_ns clamps a backward step) does not reach the
   per-site histogram. *)
let test_latency_ignores_wall_clock_step () =
  let h = Metrics.histogram "par.latency.test.clock_step" in
  ignore
    (Par.map ~site:"test.clock_step" ~jobs:2
       (fun _ -> Dcopt_util.Clock.jump_wall_ns 3_600_000_000_000L)
       [| 0; 1 |]);
  let samples = Metrics.samples h in
  Alcotest.(check int) "one sample per task" 2 (Array.length samples);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "under a minute" true (s >= 0.0 && s < 60.0))
    samples

(* ------------------------------------------------------------------ *)
(* Call-site determinism: jobs=4 bit-identical to jobs=1               *)

let check_same_solution what a b =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b ->
    Alcotest.(check bool) (what ^ ": vdd identical") true
      (Solution.vdd a = Solution.vdd b);
    Alcotest.(check bool) (what ^ ": vt identical") true
      (a.Solution.design.Power_model.vt = b.Solution.design.Power_model.vt);
    Alcotest.(check bool) (what ^ ": widths identical") true
      (a.Solution.design.Power_model.widths
      = b.Solution.design.Power_model.widths);
    Alcotest.(check bool) (what ^ ": energy identical") true
      (Solution.total_energy a = Solution.total_energy b)
  | _ -> Alcotest.fail (what ^ ": one run solved, the other did not")

let check_same_telemetry what a b =
  Alcotest.(check int)
    (what ^ ": trial count identical")
    (Telemetry.count a) (Telemetry.count b);
  Alcotest.(check bool)
    (what ^ ": iteration stream identical")
    true
    (Telemetry.iterations a = Telemetry.iterations b)

let test_grid_determinism () =
  let env, budgets = setup () in
  let options =
    { Heuristic.default_options with strategy = Heuristic.Grid_refine;
      m_steps = 8 }
  in
  let run jobs =
    with_jobs jobs (fun () ->
        let rec_ = Telemetry.recorder () in
        let sol =
          Heuristic.optimize ~observer:(Telemetry.record rec_) ~options env
            ~budgets
        in
        (sol, rec_))
  in
  let sol1, rec1 = run 1 in
  let sol4, rec4 = run 4 in
  check_same_solution "grid_refine" sol1 sol4;
  check_same_telemetry "grid_refine" rec1 rec4

let test_yield_determinism () =
  let env, budgets = setup () in
  let design =
    match
      Heuristic.optimize
        ~options:{ Heuristic.default_options with m_steps = 6 }
        env ~budgets
    with
    | Some s -> s.Solution.design
    | None -> Power_model.uniform_design env ~vdd:1.0 ~vt:0.2 ~w:6.0
  in
  let run jobs =
    with_jobs jobs (fun () ->
        Yield.monte_carlo env design ~sigma_fraction:0.08 ~samples:64)
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "yield report identical" true (r1 = r4)

let test_annealing_determinism () =
  let env, _ = setup () in
  let options = { Annealing.passes = 3; moves_per_pass = 150 } in
  let run jobs =
    with_jobs jobs (fun () ->
        let rec_ = Telemetry.recorder () in
        let sol =
          Annealing.optimize ~observer:(Telemetry.record rec_) ~options env
        in
        (sol, rec_))
  in
  let sol1, rec1 = run 1 in
  let sol4, rec4 = run 4 in
  check_same_solution "annealing" sol1 sol4;
  check_same_telemetry "annealing" rec1 rec4

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves index order" `Quick test_map_order;
          Alcotest.test_case "map_list preserves order" `Quick
            test_map_list_order;
          Alcotest.test_case "map covers every index once" `Quick
            test_map_covers_all;
          Alcotest.test_case "task exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested map degenerates" `Quick
            test_nested_map_degenerates;
          Alcotest.test_case "set_jobs validates" `Quick test_set_jobs_validates;
          Alcotest.test_case "latency ignores a wall-clock step" `Quick
            test_latency_ignores_wall_clock_step;
          Alcotest.test_case "suite cache under the pool" `Quick
            test_suite_cache_concurrent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "grid_refine jobs 4 = jobs 1" `Quick
            test_grid_determinism;
          Alcotest.test_case "yield jobs 4 = jobs 1" `Quick
            test_yield_determinism;
          Alcotest.test_case "annealing jobs 4 = jobs 1" `Quick
            test_annealing_determinism;
        ] );
    ]
