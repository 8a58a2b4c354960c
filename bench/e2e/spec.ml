(* What the end-to-end benchmark measures: its metrics (mirrored, bounds
   included, in BENCHMARK.json at the repository root) and its four
   workloads, with the seeded generation of every input they feed to
   minpower. Everything here is a pure function of the workload seed. *)

module Json = Dcopt_util.Json
module Prng = Dcopt_util.Prng

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* End-to-end metrics with the share of the parent's median by which each
   may worsen, where the medians are taken over runs at ten different
   seeds. The bounds must hold the spread across those seeds, measured
   on a 2-vCPU VM (see README.md). The solved_frac bound is below one job
   in the largest workload (1/78), so one newly unsolved job is worse. *)
let end_to_end =
  [
    (m "wall_s" "s" Lower, 0.25);
    (m "cpu_s" "s" Lower, 0.25);
    (m "peak_heap_mb" "MB" Lower, 0.25);
    (m "setup_s" "s" Lower, 0.25);
    (m "solved_frac" "ratio" Higher, 0.01);
    (m "energy_fj_geomean" "fJ" Lower, 0.25);
  ]

(* These two are functions of the seed alone: runs at one seed agree on
   them to the last digit. [main.exe compare] pits runs of one seed
   against each other, so there they may not move by more than this
   share, and any energy drift or newly unsolved job is worse. *)
let seed_determined = [ "solved_frac"; "energy_fj_geomean" ]
let same_seed_tolerance = 1e-6

let compare_bound ((m : metric), bound) =
  if List.mem m.name seed_determined then same_seed_tolerance else bound

(* Per-layer metrics of the traced pass. Every workload reports every
   one; a layer a workload barely crosses reads near zero, which is the
   prediction (README.md maps each to the end-to-end metric it moves). *)
let per_layer =
  [
    m "flow.parse_s" "s" Lower;
    m "flow.core_s" "s" Lower;
    m "flow.activity_s" "s" Lower;
    m "flow.make_env_s" "s" Lower;
    m "delay_assign.assign_s" "s" Lower;
    m "delay_assign.paths_used" "count" Lower;
    m "delay_assign.fallback_gates" "count" Lower;
    m "delay_assign.fallback_share" "ratio" Lower;
    m "delay_assign.slope_adjusted" "count" Lower;
    m "budget_repair.repair_s" "s" Lower;
    m "budget_repair.iterations" "count" Lower;
    m "budget_repair.lifted" "count" Lower;
    m "search.optimize_s" "s" Lower;
    m "search.trials" "count" Lower;
    m "search.feasible_share" "ratio" Higher;
    m "search.us_per_trial" "us" Lower;
    m "incr.moves" "count" Lower;
    m "incr.dirty_per_move" "count" Lower;
    m "incr.full_fallbacks" "count" Lower;
    m "solution.to_json_s" "s" Lower;
    m "compute.sum_s" "s" Lower;
    m "compute.p50_s" "s" Lower;
    m "service.batch_s" "s" Lower;
    m "service.execute_s" "s" Lower;
    m "service.pipeline_s" "s" Lower;
    m "store.digest_us_p50" "us" Lower;
    m "store.find_us_p50" "us" Lower;
    m "store.put_us_p50" "us" Lower;
    m "store.hit_share" "ratio" Higher;
    m "store.write_failed" "count" Lower;
    m "store.corrupt" "count" Lower;
    m "fleet.batch_s" "s" Lower;
    m "fleet.speedup_vs_inproc" "ratio" Higher;
    m "fleet.spawned" "count" Lower;
    m "fleet.dispatched" "count" Lower;
    m "fleet.requeued" "count" Lower;
    m "fleet.worker_lost" "count" Lower;
    m "fleet.fallback" "count" Lower;
    m "trace.pass_s" "s" Lower;
    m "trace.coverage" "ratio" Higher;
    m "trace.overhead_share" "ratio" Lower;
  ]

type kind = Dag_joint | Dag_tilos | Iscas_sweep | Iscas_fleet
type workload = { name : string; kind : kind; why : string }

let workloads =
  [
    {
      name = "dag-joint";
      kind = Dag_joint;
      why =
        "six 2000-gate DAGs, joint at 60 MHz: Procedure 1 budgeting is \
         ~40% of the time, the heuristic search the rest, with the largest \
         working set";
    };
    {
      name = "dag-tilos";
      kind = Dag_tilos;
      why =
        "thirty-two 20-gate DAGs through TILOS: ~99% of the time is TILOS on \
         the incremental engine, so a Procedure-1 change must show no \
         effect here";
    };
    {
      name = "iscas-sweep";
      kind = Iscas_sweep;
      why =
        "78 small jobs (13 suite circuits x 6 optimizers) into an empty \
         store: many-small-jobs throughput where every store access is a \
         write";
    };
    {
      name = "iscas-sweep-fleet";
      kind = Iscas_fleet;
      why =
        "the same 78 jobs on 2 fleet workers with half of them already in \
         the store: worker spawn, dispatch, wire and store reads";
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* Inputs *)

let jobs_file = "jobs.jsonl"
let prewarm_file = "prewarm.jsonl"

type dag = { file : string; gates : int; dag_seed : int64 }

(* Several DAGs per pass rather than one: the energy of one random DAG
   swings by ~15-30% with its seed (random logic switches more or less),
   and averaging over several keeps the seed-to-seed spread inside the
   metric bounds. *)
let dag_shape = function
  | Dag_joint -> Some (6, 2000)
  | Dag_tilos -> Some (32, 20)
  | Iscas_sweep | Iscas_fleet -> None

let dags w ~seed =
  match dag_shape w.kind with
  | None -> []
  | Some (count, gates) ->
    let rng = Prng.create (Int64.of_int seed) in
    List.init count (fun i ->
        {
          file = Printf.sprintf "dag%d.bench" i;
          gates;
          dag_seed = Int64.of_int (Prng.int rng 1_000_000_000);
        })

(* Pinned here rather than read from the suite, so a circuit added to
   the suite later does not change the workload. *)
let iscas_circuits =
  [ "s27"; "s298"; "s344"; "s349"; "s382"; "s386"; "s400"; "s444"; "s510";
    "s526"; "s820"; "s832"; "s1488" ]

(* TILOS is left out: one s1488 TILOS job alone takes minutes. *)
let iscas_optimizers =
  [ "joint"; "joint-grid"; "baseline"; "multi-vt"; "multi-vdd"; "annealing" ]

(* One clock per (circuit, optimizer) from 120-280 MHz in 10 MHz steps.
   The draw is stratified — the 17 clocks are dealt round-robin and the
   deal is shuffled — so every seed sees the same mix of clocks and only
   which job gets which one varies; a plain draw lets the mix, and with
   it the energy geomean, wander from seed to seed. *)
let sweep_clocks ~seed n =
  let grid = Array.init 17 (fun i -> float_of_int (120 + (10 * i)) *. 1e6) in
  let deal = Array.init n (fun i -> grid.(i mod Array.length grid)) in
  Prng.shuffle (Prng.create (Int64.of_int seed)) deal;
  deal

let job ~id ~circuit ~optimizer config =
  Json.Obj
    [
      ("id", Json.String id);
      ("circuit", Json.String circuit);
      ("optimizer", Json.String optimizer);
      ("config", Json.Obj config);
    ]

let jobs w ~seed =
  match w.kind with
  | Dag_joint ->
    List.mapi
      (fun i d ->
        job ~id:(Printf.sprintf "dag%d" i) ~circuit:d.file ~optimizer:"joint"
          [ ("clock_frequency", Json.Float 60e6) ])
      (dags w ~seed)
  | Dag_tilos ->
    (* m_steps 8 (64 operating points, not 256) buys four times the DAGs
       per pass; the time is still TILOS moves *)
    List.mapi
      (fun i d ->
        job ~id:(Printf.sprintf "dag%d" i) ~circuit:d.file ~optimizer:"tilos"
          [ ("clock_frequency", Json.Float 100e6); ("m_steps", Json.Int 8) ])
      (dags w ~seed)
  | Iscas_sweep | Iscas_fleet ->
    let pairs =
      List.concat_map
        (fun c -> List.map (fun o -> (c, o)) iscas_optimizers)
        iscas_circuits
    in
    let clocks = sweep_clocks ~seed (List.length pairs) in
    List.mapi
      (fun i (c, o) ->
        job ~id:(c ^ "-" ^ o) ~circuit:c ~optimizer:o
          [ ("clock_frequency", Json.Float clocks.(i)) ])
      pairs

(* The jobs the fleet workload's store holds before its passes: the
   even-indexed half, so half the pass is store reads. *)
let prewarm_jobs w ~seed =
  match w.kind with
  | Iscas_fleet -> List.filteri (fun i _ -> i mod 2 = 0) (jobs w ~seed)
  | Dag_joint | Dag_tilos | Iscas_sweep -> []

let jsonl docs = String.concat "" (List.map (fun j -> Json.to_string j ^ "\n") docs)

(* The minpower argv of one pass after the executable: the in-process
   domain pool or the fleet on its default unix-socket transport, either
   way two-way parallel to match the two cores the benchmark was sized
   on. *)
let pass_args w ~store =
  [ "batch"; jobs_file; "--store"; store ]
  @
  match w.kind with
  | Iscas_fleet -> [ "--workers"; "2" ]
  | Dag_joint | Dag_tilos | Iscas_sweep -> [ "--jobs"; "2" ]
