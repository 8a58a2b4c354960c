(* End-to-end benchmark of the minpower CLI.

   Runs the real minpower binary as a subprocess on seeded workloads
   (Spec), one pass at a time (a closed loop with one client), and
   reports each end-to-end metric as median, quartiles and sample count.
   With --trace 1 it then re-runs the workload once in-process with
   every layer timed (Layers) and reports the per-layer metrics. Every
   pass's output is checked: identical across passes, every solved row
   re-evaluated, the traced and fleet rows identical to the CLI's.

   Usage (from the repository root; run.sh builds first):
     bash bench/e2e/run.sh [--workload NAME|all] [--seed N] [--seconds S]
                           [--trace 0|1] [--out FILE]
     bash bench/e2e/run.sh compare BASE.json NEW.json
     bash bench/e2e/run.sh compare BASE1.json ... -- NEW1.json ...

   The last line of stdout is one JSON object: correct, attempted,
   failed and the metrics. Exit status 1 when any check failed. *)

open Dcopt_bench_e2e
module Json = Dcopt_util.Json
module Stats = Dcopt_util.Stats
module Text_table = Dcopt_util.Text_table
module Clock = Dcopt_util.Clock
module Job = Dcopt_service.Job
module Store = Dcopt_service.Store
module Service = Dcopt_service.Service
module Span = Dcopt_obs.Span
module Power_model = Dcopt_opt.Power_model
module Solution = Dcopt_opt.Solution
module Flow = Dcopt_core.Flow

let setup_reps = 5
let min_passes = 3

(* ------------------------------------------------------------------ *)
(* Files *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* Store directories are flat: one document per entry. *)
let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun n -> write_file (Filename.concat dst n) (read_file (Filename.concat src n)))
    (Sys.readdir src)

(* Every input file under [dir], sorted, with its bytes. *)
let rec snapshot dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun n ->
         let p = if dir = "." then n else Filename.concat dir n in
         if Sys.is_directory p then snapshot p
         else if String.starts_with ~prefix:"proc." n then []
         else [ (p, read_file p) ])

(* ------------------------------------------------------------------ *)
(* Running minpower *)

type proc = {
  wall_s : float;
  cpu_s : float;
  status : Unix.process_status;
  out : string;
  err : string;
}

(* The environment of every minpower process: GC statistics at exit, no
   inherited fault plan or fleet tuning, and temporary files, the fleet's
   unix socket among them, in the working directory. TMPDIR is relative
   so the socket path stays short: an absolute one too long for a unix
   socket would send the fleet to /tmp. *)
let child_env () =
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun v ->
           not
             (List.exists
                (fun prefix -> String.starts_with ~prefix v)
                [ "OCAMLRUNPARAM="; "DCOPT_"; "TMPDIR=" ]))
  in
  Array.of_list
    (inherited @ [ "OCAMLRUNPARAM=v=0x400"; "TMPDIR=" ^ Filename.current_dir_name ])

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Spawn to exit. CPU is the user+sys time of the process tree: fleet
   workers are reaped by their coordinator, so they fold into its child
   times before it is reaped here. *)
let run argv =
  let open_out_fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let out_fd = open_out_fd "proc.out" and err_fd = open_out_fd "proc.err" in
  let env = child_env () in
  let before = Unix.times () in
  let t0 = Clock.monotonic_ns () in
  let pid = Unix.create_process_env argv.(0) argv env Unix.stdin out_fd err_fd in
  Unix.close out_fd;
  Unix.close err_fd;
  let status = waitpid pid in
  let wall_s = Layers.since t0 in
  let after = Unix.times () in
  {
    wall_s;
    cpu_s =
      after.Unix.tms_cutime -. before.Unix.tms_cutime
      +. (after.Unix.tms_cstime -. before.Unix.tms_cstime);
    status;
    out = read_file "proc.out";
    err = read_file "proc.err";
  }

let exited_ok p = p.status = Unix.WEXITED 0

let run_ok what argv =
  let p = run argv in
  if not (exited_ok p) then
    failwith
      (Printf.sprintf "%s failed (%s): %s" what
         (String.concat " " (Array.to_list argv))
         (String.trim p.err));
  p

(* ------------------------------------------------------------------ *)
(* Set-up: everything a workload's passes read, made from the seed *)

let setup (w : Spec.workload) ~seed ~minpower =
  List.iter
    (fun (d : Spec.dag) ->
      ignore
        (run_ok "generate"
           [| minpower; "generate"; "--gates"; string_of_int d.Spec.gates;
              "--seed"; Int64.to_string d.Spec.dag_seed;
              "--name"; Filename.remove_extension d.Spec.file; "-o"; d.Spec.file |]))
    (Spec.dags w ~seed);
  write_file Spec.jobs_file (Spec.jsonl (Spec.jobs w ~seed));
  (match w.Spec.kind with
  | Spec.Iscas_sweep | Spec.Iscas_fleet ->
    (* fail here, not as 78 failed rows, when a circuit is unknown *)
    let listed =
      String.split_on_char '\n' (run_ok "list" [| minpower; "list" |]).out
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' l with n :: _ when n <> "" -> Some n | _ -> None)
    in
    List.iter
      (fun c ->
        if not (List.mem c listed) then
          failwith (Printf.sprintf "minpower list does not know %s" c))
      Spec.iscas_circuits
  | Spec.Dag_joint | Spec.Dag_tilos -> ());
  match Spec.prewarm_jobs w ~seed with
  | [] -> ()
  | pre ->
    write_file Spec.prewarm_file (Spec.jsonl pre);
    ignore
      (run_ok "pre-warm"
         [| minpower; "batch"; Spec.prewarm_file; "--store"; "warm"; "--jobs"; "2" |])

(* The store a pass starts from: empty, or a copy of the pre-warmed one. *)
let fresh_store (w : Spec.workload) dir =
  rm_rf dir;
  match w.Spec.kind with
  | Spec.Iscas_fleet -> copy_dir "warm" dir
  | Spec.Dag_joint | Spec.Dag_tilos | Spec.Iscas_sweep -> ()

let pass w ~minpower =
  fresh_store w "store";
  run (Array.of_list (minpower :: Spec.pass_args w ~store:"store"))

(* ------------------------------------------------------------------ *)
(* Audit of one pass's output *)

type audit = {
  solved : int;
  failed : int;  (** failed, unparsable, misplaced, missing or unverified rows *)
  energies_fj : float list;
  problems : string list;
}

let audit_tolerance = 1e-9

(* Re-evaluate every solved row on the environment Flow.prepare builds
   from its job's config and require the same feasibility verdict and
   total energy. The multi-vdd evaluation includes level converters
   Power_model does not model, so those rows only have to meet the cycle
   time. *)
let audit (jobs : Job.t list) out =
  let envs = Hashtbl.create 16 in
  let env_of (job : Job.t) =
    let key =
      job.Job.circuit ^ "\n"
      ^ Option.fold ~none:"" ~some:Json.to_string job.Job.config
    in
    match Hashtbl.find_opt envs key with
    | Some e -> e
    | None ->
      let e =
        match (Service.resolve_circuit job.Job.circuit, Layers.config_of_job job) with
        | Ok circuit, Ok config -> (
          match Flow.prepare ~config circuit with
          | p -> Ok (config, p.Flow.env)
          | exception Invalid_argument msg -> Error msg)
        | Error msg, _ | _, Error msg -> Error msg
      in
      Hashtbl.add envs key e;
      e
  in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  let unverified (job : Job.t) sol =
    let where = job.Job.circuit ^ "/" ^ job.Job.optimizer in
    match env_of job with
    | Error msg -> Some (Printf.sprintf "%s: cannot rebuild its environment: %s" where msg)
    | Ok (config, env) ->
      let cycle = 1.0 /. config.Flow.clock_frequency in
      let ev = sol.Solution.evaluation in
      if job.Job.optimizer = "multi-vdd" then
        if ev.Power_model.critical_delay <= cycle then None
        else
          Some
            (Printf.sprintf "%s: critical delay %g s over the %g s cycle" where
               ev.Power_model.critical_delay cycle)
      else
        let re = Power_model.evaluate env sol.Solution.design in
        let e0 = ev.Power_model.total_energy and e1 = re.Power_model.total_energy in
        if re.Power_model.feasible <> ev.Power_model.feasible then
          Some
            (Printf.sprintf "%s: row says feasible=%b, re-evaluation %b" where
               ev.Power_model.feasible re.Power_model.feasible)
        else if not (Float.abs (e1 -. e0) <= audit_tolerance *. Float.abs e1) then
          Some
            (Printf.sprintf "%s: row energy %.17g J, re-evaluation %.17g J" where e0 e1)
        else None
  in
  let rec go jobs lines solved failed energies =
    match (jobs, lines) with
    | [], [] -> (solved, failed, energies)
    | [], _ :: rest ->
      problem "unexpected extra row";
      go [] rest solved (failed + 1) energies
    | _ :: rest, [] ->
      problem "row missing";
      go rest [] solved (failed + 1) energies
    | (job : Job.t) :: jrest, line :: lrest -> (
      let expected_id = Option.value job.Job.id ~default:"" in
      let bad msg =
        problem msg;
        go jrest lrest solved (failed + 1) energies
      in
      match Result.bind (Json.of_string line) Job.row_of_json with
      | Error msg -> bad (Printf.sprintf "%s: unparsable row: %s" expected_id msg)
      | Ok row when row.Job.job_id <> expected_id ->
        bad (Printf.sprintf "row %s where %s was expected" row.Job.job_id expected_id)
      | Ok row -> (
        match row.Job.outcome with
        | Job.Failed { error; _ } -> bad (Printf.sprintf "%s: failed: %s" expected_id error)
        | Job.Infeasible -> go jrest lrest solved failed energies
        | Job.Solved sol ->
          let failed =
            match unverified job sol with
            | None -> failed
            | Some msg ->
              problem msg;
              failed + 1
          in
          go jrest lrest (solved + 1) failed
            ((Solution.total_energy sol *. 1e15) :: energies)))
  in
  let solved, failed, energies = go jobs lines 0 0 [] in
  { solved; failed; energies_fj = List.rev energies; problems = List.rev !problems }

(* ------------------------------------------------------------------ *)
(* One workload *)

type check = { check : string; ok : bool; detail : string }

type result = {
  workload : Spec.workload;
  attempted : int;
  failed : int;
  checks : check list;
  end_to_end : (Spec.metric * float list) list;  (** samples per metric *)
  per_layer : (Spec.metric * float) list;
  per_optimizer : (string * float) list;
}

let geomean = function
  | [] -> 0.0
  | xs -> Stats.geometric_mean (Array.of_list xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let e2e name = fst (List.find (fun ((m : Spec.metric), _) -> m.Spec.name = name) Spec.end_to_end)

let per_layer_metrics (w : Spec.workload) ~jobs ~minpower ~median_wall =
  fresh_store w "trace-store";
  Span.reset ();
  Span.set_enabled true;
  let t =
    Fun.protect
      ~finally:(fun () -> Span.set_enabled false)
      (fun () -> Layers.traced_batch ~store:(Store.open_ "trace-store") jobs)
  in
  Span.write_chrome (w.Spec.name ^ ".trace.json");
  rm_rf "probe-store";
  let digest_us, find_us, put_us =
    Layers.store_probe ~store_dir:"trace-store" ~scratch_dir:"probe-store" jobs t.Layers.rows
  in
  fresh_store w "fleet-store";
  let (fleet_rendered, fleet_s), fleet_counters =
    Layers.fleet_batch ~binary:minpower ~store_dir:"fleet-store" jobs
  in
  let g = Layers.get t.Layers.tally in
  let c name = List.assoc name t.Layers.counters in
  let fc name = List.assoc ("service.fleet." ^ name) fleet_counters in
  let med = function [] -> 0.0 | xs -> Summary.median xs in
  let compute_sum = List.fold_left ( +. ) 0.0 t.Layers.compute_s in
  (* The traced pass's wall time as the timed layers account for it: the
     task layers ran on the pool's domains side by side, so their summed
     time counts once per domain. Whatever the layers leave out (pool
     start and imbalance, the compute's untimed glue) lowers coverage. *)
  let attributed =
    g "flow.parse_s" +. g "solution.to_json_s"
    +. (t.Layers.batch_s -. t.Layers.execute_s)
    +. List.fold_left
         (fun acc l -> acc +. g (l ^ "_s"))
         0.0
         [ "flow.core"; "flow.activity"; "flow.make_env"; "delay_assign.assign";
           "budget_repair.repair"; "search.optimize" ]
       /. float_of_int (Dcopt_par.Par.jobs ())
  in
  let rows = t.Layers.rows in
  let hits = List.length (List.filter (fun r -> r.Job.cache_hit) rows) in
  let values =
    [
      ("flow.parse_s", g "flow.parse_s");
      ("flow.core_s", g "flow.core_s");
      ("flow.activity_s", g "flow.activity_s");
      ("flow.make_env_s", g "flow.make_env_s");
      ("delay_assign.assign_s", g "delay_assign.assign_s");
      ("delay_assign.paths_used", g "delay_assign.paths_used");
      ("delay_assign.fallback_gates", g "delay_assign.fallback_gates");
      ("delay_assign.fallback_share", ratio (g "delay_assign.fallback_gates") (g "gates"));
      ("delay_assign.slope_adjusted", g "delay_assign.slope_adjusted");
      ("budget_repair.repair_s", g "budget_repair.repair_s");
      ("budget_repair.iterations", g "budget_repair.iterations");
      ("budget_repair.lifted", g "budget_repair.lifted");
      ("search.optimize_s", g "search.optimize_s");
      ("search.trials", g "search.trials");
      ("search.feasible_share", ratio (g "search.feasible_trials") (g "search.trials"));
      ("search.us_per_trial", 1e6 *. ratio (g "search.reporting_s") (g "search.trials"));
      ("incr.moves", c "incr.moves");
      ("incr.dirty_per_move", ratio (c "incr.dirty_gates") (c "incr.moves"));
      ("incr.full_fallbacks", c "incr.full_fallbacks");
      ("solution.to_json_s", g "solution.to_json_s");
      ("compute.sum_s", compute_sum);
      ("compute.p50_s", med t.Layers.compute_s);
      ("service.batch_s", t.Layers.batch_s);
      ("service.execute_s", t.Layers.execute_s);
      ("service.pipeline_s", t.Layers.batch_s -. t.Layers.execute_s);
      ("store.digest_us_p50", med digest_us);
      ("store.find_us_p50", med find_us);
      ("store.put_us_p50", med put_us);
      ("store.hit_share", ratio (float_of_int hits) (float_of_int (List.length rows)));
      ("store.write_failed", c "service.store.write_failed");
      ("store.corrupt", c "service.store.corrupt");
      ("fleet.batch_s", fleet_s);
      ("fleet.speedup_vs_inproc", ratio t.Layers.batch_s fleet_s);
      ("fleet.spawned", fc "spawned");
      ("fleet.dispatched", fc "dispatched");
      ("fleet.requeued", fc "requeued");
      ("fleet.worker_lost", fc "worker_lost");
      ("fleet.fallback", fc "fallback");
      ("trace.pass_s", t.Layers.pass_s);
      ("trace.coverage", ratio attributed t.Layers.pass_s);
      ("trace.overhead_share", ratio t.Layers.pass_s median_wall -. 1.0);
    ]
  in
  let per_layer =
    List.map (fun (m : Spec.metric) -> (m, List.assoc m.Spec.name values)) Spec.per_layer
  in
  let per_optimizer =
    Hashtbl.fold
      (fun k v acc ->
        let prefix = "compute_s@" in
        if String.starts_with ~prefix k then
          (String.sub k (String.length prefix) (String.length k - String.length prefix), v)
          :: acc
        else acc)
      t.Layers.tally []
    |> List.sort compare
  in
  (t.Layers.rendered, fleet_rendered, per_layer, per_optimizer)

let run_workload (w : Spec.workload) ~seed ~seconds ~trace ~minpower =
  (* each set-up starts from an empty directory, emptied untimed: what
     an earlier run or set-up left there is no part of the workload's
     set-up *)
  let setup_s, snapshots =
    List.split
      (List.init setup_reps (fun _ ->
           Array.iter rm_rf (Sys.readdir ".");
           let t0 = Clock.monotonic_ns () in
           setup w ~seed ~minpower;
           let s = Layers.since t0 in
           (s, snapshot ".")))
  in
  let jobs =
    String.split_on_char '\n' (read_file Spec.jobs_file)
    |> List.filter (( <> ) "")
    |> List.map (fun line ->
           match Result.bind (Json.of_string line) Job.of_json with
           | Ok j -> j
           | Error msg -> failwith ("jobs file: " ^ msg))
  in
  let n_jobs = List.length jobs in
  let warm = pass w ~minpower in
  let reference = warm.out in
  let t_start = Clock.monotonic_ns () in
  let rec timed acc =
    if List.length acc >= min_passes && Layers.since t_start >= seconds then List.rev acc
    else timed (pass w ~minpower :: acc)
  in
  let passes = timed [] in
  let a = audit jobs reference in
  let pass_failed p =
    if exited_ok p && p.out = reference then a.failed else n_jobs
  in
  let failed = List.fold_left (fun acc p -> acc + pass_failed p) 0 passes in
  let identical = List.for_all (fun p -> p.out = reference) passes in
  let checks =
    [
      {
        check = "set-up is deterministic";
        ok = List.for_all (( = ) (List.hd snapshots)) snapshots;
        detail = Printf.sprintf "%d set-ups of seed %d" setup_reps seed;
      };
      {
        check = "every pass exits 0";
        ok = List.for_all exited_ok (warm :: passes);
        detail = Printf.sprintf "%d passes" (1 + List.length passes);
      };
      {
        check = "passes print identical rows";
        ok = identical;
        detail = Printf.sprintf "%d bytes" (String.length reference);
      };
      {
        check = "rows audited";
        ok = a.failed = 0;
        detail =
          (match a.problems with
          | [] -> Printf.sprintf "%d rows, %d solved" n_jobs a.solved
          | p :: _ -> Printf.sprintf "%d bad: %s" a.failed p);
      };
    ]
  in
  let samples f = List.map f passes in
  let end_to_end =
    [
      (e2e "wall_s", samples (fun p -> p.wall_s));
      (e2e "cpu_s", samples (fun p -> p.cpu_s));
      (e2e "peak_heap_mb", samples (fun p -> Summary.peak_heap_mb p.err));
      (e2e "setup_s", setup_s);
      (e2e "solved_frac", [ ratio (float_of_int a.solved) (float_of_int n_jobs) ]);
      (e2e "energy_fj_geomean", [ geomean a.energies_fj ]);
    ]
  in
  let attempted = n_jobs * List.length passes in
  if not trace then
    { workload = w; attempted; failed; checks; end_to_end; per_layer = []; per_optimizer = [] }
  else
    let median_wall = Summary.median (samples (fun p -> p.wall_s)) in
    let traced_rows, fleet_rows, per_layer, per_optimizer =
      per_layer_metrics w ~jobs ~minpower ~median_wall
    in
    let traced_ok = traced_rows = reference and fleet_ok = fleet_rows = traced_rows in
    let checks =
      checks
      @ [
          {
            check = "traced rows equal the CLI's";
            ok = traced_ok;
            detail = w.Spec.name ^ ".trace.json written";
          };
          { check = "fleet rows equal in-process rows"; ok = fleet_ok; detail = "2 workers" };
        ]
    in
    {
      workload = w;
      attempted = attempted + (2 * n_jobs);
      failed =
        failed + (if traced_ok then 0 else n_jobs) + if fleet_ok then 0 else n_jobs;
      checks;
      end_to_end;
      per_layer;
      per_optimizer;
    }

let correct r = r.failed = 0 && List.for_all (fun c -> c.ok) r.checks

(* ------------------------------------------------------------------ *)
(* Reporting *)

let fmt v = Printf.sprintf "%.6g" v

let print_result r =
  Printf.printf "\n== %s: %s\n" r.workload.Spec.name r.workload.Spec.why;
  let t = Text_table.create ~headers:[ "metric"; "unit"; "median"; "q1"; "q3"; "n" ] in
  Text_table.set_align t
    Text_table.[ Left; Left; Right; Right; Right; Right ];
  List.iter
    (fun ((m : Spec.metric), samples) ->
      let s = Summary.summarize samples in
      Text_table.add_row t
        [ m.Spec.name; m.Spec.unit_; fmt s.Summary.median; fmt s.Summary.q1;
          fmt s.Summary.q3; string_of_int s.Summary.n ])
    r.end_to_end;
  Text_table.print t;
  if r.per_layer <> [] then begin
    let t = Text_table.create ~headers:[ "layer metric"; "unit"; "value" ] in
    Text_table.set_align t Text_table.[ Left; Left; Right ];
    List.iter
      (fun ((m : Spec.metric), v) -> Text_table.add_row t [ m.Spec.name; m.Spec.unit_; fmt v ])
      r.per_layer;
    List.iter
      (fun (opt, v) -> Text_table.add_row t [ "compute.sum_s@" ^ opt; "s"; fmt v ])
      r.per_optimizer;
    Text_table.print t
  end;
  List.iter
    (fun c -> Printf.printf "  [%s] %s (%s)\n" (if c.ok then "ok" else "FAIL") c.check c.detail)
    r.checks;
  Printf.printf "  %d rows attempted, %d failed\n%!" r.attempted r.failed

let result_to_json r =
  let metric_json ((m : Spec.metric), samples) =
    (m.Spec.name, Summary.summary_to_json ~unit_:m.Spec.unit_ ~samples (Summary.summarize samples))
  in
  Json.Obj
    [
      ("name", Json.String r.workload.Spec.name);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "checks",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [ ("check", Json.String c.check); ("ok", Json.Bool c.ok);
                   ("detail", Json.String c.detail) ])
             r.checks) );
      ("end_to_end", Json.Obj (List.map metric_json r.end_to_end));
      ( "per_layer",
        Json.Obj
          (List.map
             (fun ((m : Spec.metric), v) ->
               (m.Spec.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.Spec.unit_) ]))
             r.per_layer) );
      ( "compute_s_by_optimizer",
        Json.Obj (List.map (fun (o, v) -> (o, Json.Float v)) r.per_optimizer) );
    ]

(* The last stdout line: medians of the end-to-end metrics, or the
   per-layer values of the traced run. Metric names are prefixed with
   the workload when more than one ran. *)
let summary_line ~trace results =
  let prefix r = match results with [ _ ] -> "" | _ -> r.workload.Spec.name ^ "/" in
  let value_json unit_ v = Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ] in
  let metrics =
    List.concat_map
      (fun r ->
        if trace then
          List.map
            (fun ((m : Spec.metric), v) -> (prefix r ^ m.Spec.name, value_json m.Spec.unit_ v))
            r.per_layer
        else
          List.map
            (fun ((m : Spec.metric), samples) ->
              (prefix r ^ m.Spec.name, value_json m.Spec.unit_ (Summary.median samples)))
            r.end_to_end)
      results
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all correct results));
         ("attempted", Json.Int (List.fold_left (fun n r -> n + r.attempted) 0 results));
         ("failed", Json.Int (List.fold_left (fun n r -> n + r.failed) 0 results));
         ("metrics", Json.Obj metrics);
       ])

(* ------------------------------------------------------------------ *)
(* compare BASE NEW *)

(* Each side is one or more --out files of one seed. With one run a
   side, the verdict rests on each run's own quartiles, which cannot see
   the host drifting between the two runs; several runs a side, made
   alternately (base, new, base, new, ...), are judged on their medians
   and the spread between them. *)
let compare_files base_paths new_paths =
  let load path =
    match Json.read_file path with
    | Error msg -> failwith (path ^ ": " ^ msg)
    | Ok doc ->
      ( Option.bind (Json.field "seed" doc) Json.get_int,
        Option.value ~default:[] (Option.bind (Json.field "workloads" doc) Json.get_list) )
  in
  let base = List.map load base_paths and next = List.map load new_paths in
  (match List.sort_uniq compare (List.map fst (base @ next)) with
  | [ Some _ ] -> ()
  | _ -> failwith "every file must come from a run at one and the same seed");
  let by_name (_, docs) name =
    List.find_opt
      (fun d -> Option.bind (Json.field "name" d) Json.get_string = Some name)
      docs
  in
  let summary run wl metric =
    match by_name run wl with
    | None -> failwith (Printf.sprintf "workload %s missing" wl)
    | Some d -> (
      match
        Option.map Summary.summary_of_json
          (Option.bind (Json.field "end_to_end" d) (Json.field metric))
      with
      | Some (Ok s) -> s
      | Some (Error msg) -> failwith (Printf.sprintf "%s/%s: %s" wl metric msg)
      | None -> failwith (Printf.sprintf "%s/%s missing" wl metric))
  in
  let t =
    Text_table.create
      ~headers:[ "workload"; "metric"; "base median [q1, q3]"; "new median [q1, q3]"; "bound"; "verdict" ]
  in
  Text_table.set_align t Text_table.[ Left; Left; Right; Right; Right; Left ];
  let show s = Printf.sprintf "%s [%s, %s]" (fmt s.Summary.median) (fmt s.Summary.q1) (fmt s.Summary.q3) in
  let worse = ref false in
  List.iter
    (fun (w : Spec.workload) ->
      if List.for_all (fun run -> by_name run w.Spec.name <> None) base then
        List.iter
          (fun (((m : Spec.metric), _) as e) ->
            let side runs = Summary.side (List.map (fun run -> summary run w.Spec.name m.Spec.name) runs) in
            let a = side base and b = side next and bound = Spec.compare_bound e in
            let v = Summary.verdict ~better:m.Spec.better ~bound a b in
            if v = Summary.Worse then worse := true;
            Text_table.add_row t
              [ w.Spec.name; m.Spec.name; show a; show b; fmt bound; Summary.verdict_to_string v ])
          Spec.end_to_end)
    Spec.workloads;
  Printf.printf "%d base run(s), %d new run(s)\n" (List.length base) (List.length next);
  Text_table.print t;
  if !worse then 1 else 0

(* ------------------------------------------------------------------ *)
(* Command line *)

(* The build tree holds bench/e2e/main.exe and bin/minpower.exe side by
   side under _build/default; the source tree is two levels above it. *)
let locate () =
  let exe =
    if Filename.is_relative Sys.executable_name then
      Filename.concat (Sys.getcwd ()) Sys.executable_name
    else Sys.executable_name
  in
  let build_root = Filename.dirname (Filename.dirname (Filename.dirname exe)) in
  let minpower = Filename.concat build_root (Filename.concat "bin" "minpower.exe") in
  let source_root = Filename.dirname (Filename.dirname build_root) in
  (minpower, Filename.concat source_root (Filename.concat "bench" (Filename.concat "e2e" "_work")))

let main () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 15.0 in
  let trace = ref 0 and out = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       "NAME  one of " ^ String.concat ", " (List.map (fun w -> w.Spec.name) Spec.workloads) ^ ", or all (default)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  time to spend on timed passes per workload (default 15)");
      ("--trace", Arg.Set_int trace, "0|1  run the traced in-process pass and report per-layer metrics");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  write every sample and summary as JSON");
    ]
  in
  let usage = "main.exe [options] | main.exe compare BASE.json NEW.json" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let selected =
    if !workload = "all" then Spec.workloads
    else
      match Spec.find_workload !workload with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "unknown workload %S\n%s\n" !workload (Arg.usage_string spec usage);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if not (!seconds > 0.0) then (prerr_endline "--seconds must be positive"; exit 2);
  let minpower, workdir = locate () in
  if not (Sys.file_exists minpower) then begin
    Printf.eprintf "%s is not built (run through bench/e2e/run.sh)\n" minpower;
    exit 2
  end;
  let out = Option.map (fun f -> if Filename.is_relative f then Filename.concat (Sys.getcwd ()) f else f) !out in
  Dcopt_par.Par.set_jobs 2;
  (* the traced run's in-process fleet puts its socket where the
     minpower processes put theirs: see child_env *)
  Filename.set_temp_dir_name Filename.current_dir_name;
  let results =
    List.map
      (fun (w : Spec.workload) ->
        let dir = Filename.concat workdir w.Spec.name in
        mkdir_p dir;
        Sys.chdir dir;
        let r = run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~minpower in
        print_result r;
        r)
      selected
  in
  Option.iter
    (fun path ->
      Json.write_file path
        (Json.Obj
           [
             ("version", Json.Int 1);
             ("seed", Json.Int !seed);
             ("seconds", Json.Float !seconds);
             ("trace", Json.Bool (!trace = 1));
             ("workloads", Json.List (List.map result_to_json results));
           ]))
    out;
  print_endline (summary_line ~trace:(!trace = 1) results);
  exit (if List.for_all correct results then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: args -> (
    let rec split acc = function
      | "--" :: rest when not (List.mem "--" rest) -> Some (List.rev acc, rest)
      | x :: rest when x <> "--" -> split (x :: acc) rest
      | _ -> None
    in
    let sides =
      match args with
      | [ a; b ] when a <> "--" && b <> "--" -> Some ([ a ], [ b ])
      | _ -> split [] args
    in
    match sides with
    | Some ((_ :: _ as base), (_ :: _ as next)) -> (
      match compare_files base next with
      | code -> exit code
      | exception Failure msg ->
        prerr_endline ("compare: " ^ msg);
        exit 2)
    | _ ->
      prerr_endline
        "usage: main.exe compare BASE.json NEW.json\n\
        \       main.exe compare BASE1.json BASE2.json ... -- NEW1.json NEW2.json ...";
      exit 2)
  | _ -> (
    try main ()
    with Failure msg ->
      prerr_endline ("bench/e2e: " ^ msg);
      exit 1)
