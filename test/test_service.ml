module Flow = Dcopt_core.Flow
module Optimizer = Dcopt_core.Optimizer
module Solution = Dcopt_opt.Solution
module Power_model = Dcopt_opt.Power_model
module Suite = Dcopt_suite.Suite
module Tech = Dcopt_device.Tech
module Tech_io = Dcopt_device.Tech_io
module Json = Dcopt_util.Json
module Service = Dcopt_service.Service
module Job = Dcopt_service.Job
module Store = Dcopt_service.Store
module Telemetry = Dcopt_obs.Telemetry
module Metrics = Dcopt_obs.Metrics
module Par = Dcopt_par.Par

let rows_to_string rows =
  String.concat "\n" (List.map (fun r -> Json.to_string (Job.row_to_json r)) rows)

(* fresh relative store directories inside the dune sandbox *)
let temp_store =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "service_test_store_%d" !n in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

(* --- exact JSON round-trips ------------------------------------------- *)

let test_config_roundtrip () =
  let check config =
    let j1 = Flow.config_to_json config in
    match Flow.config_of_json j1 with
    | Error msg -> Alcotest.fail msg
    | Ok config' ->
      Alcotest.(check string)
        "config json round-trips byte-exactly" (Json.to_string j1)
        (Json.to_string (Flow.config_to_json config'))
  in
  check Flow.default_config;
  check
    {
      Flow.default_config with
      Flow.clock_frequency = 123.456789e6;
      engine = Flow.Monte_carlo { vectors = 77; seed = 42L };
      skew_factor = 0.875;
      include_short_circuit = true;
    }

let test_config_partial_override () =
  match
    Flow.config_of_json
      (Json.Obj
         [ ("version", Json.Int 1); ("clock_frequency", Json.Float 2e8) ])
  with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    Alcotest.(check (float 0.0)) "overridden" 2e8 c.Flow.clock_frequency;
    Alcotest.(check (float 0.0))
      "others kept" Flow.default_config.Flow.input_density c.Flow.input_density

let test_tech_roundtrip () =
  let tech = Tech.scale Tech.default ~factor:0.7 in
  let j1 = Tech_io.to_json tech in
  match Tech_io.of_json j1 with
  | Error msg -> Alcotest.fail msg
  | Ok tech' ->
    Alcotest.(check string)
      "tech json round-trips byte-exactly" (Json.to_string j1)
      (Json.to_string (Tech_io.to_json tech'))

let test_solution_roundtrip () =
  let solve ?(config = Flow.default_config) optimizer =
    let p = Flow.prepare ~config (Suite.find_exn "s27") in
    match
      (Dcopt_core.Optimizer.get optimizer).Dcopt_core.Optimizer.run
        (Dcopt_core.Scenario.of_prepared p)
    with
    | None -> Alcotest.failf "s27 %s infeasible" optimizer
    | Some sol -> sol
  in
  let roundtrip what sol =
    let j1 = Solution.to_json sol in
    match Solution.of_json j1 with
    | Error msg -> Alcotest.fail msg
    | Ok sol' ->
      Alcotest.(check string)
        (what ^ " solution json round-trips byte-exactly") (Json.to_string j1)
        (Json.to_string (Solution.to_json sol'));
      sol'
  in
  let one = roundtrip "one-rail" (solve "baseline") in
  Alcotest.(check bool) "no rail member, one rail" true
    (one.Solution.design.Power_model.rail = None);
  let two =
    solve ~config:{ Flow.default_config with Flow.clock_frequency = 270e6 }
      "multi-vdd"
  in
  let two' = roundtrip "two-rail" two in
  Alcotest.(check bool) "the rail survives" true
    (two'.Solution.design.Power_model.rail <> None);
  (* a [low] array one flag short of [vt] is refused *)
  let shorten = function
    | Json.List (_ :: rest) -> Json.List rest
    | j -> j
  in
  let rec edit path f json =
    match (path, json) with
    | [], j -> f j
    | key :: rest, Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = key then (k, edit rest f v) else (k, v))
           fields)
    | _, j -> j
  in
  match
    Solution.of_json
      (edit [ "design"; "rail"; "low" ] shorten (Solution.to_json two))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a low array shorter than vt must be rejected"

let test_job_and_row_roundtrip () =
  let job =
    Job.make ~id:"a" ~optimizer:"joint-grid"
      ~config:(Json.Obj [ ("input_density", Json.Float 0.25) ])
      ~timeout_s:1.5 ~retries:2 "s27"
  in
  (match Job.of_json (Job.to_json job) with
  | Error msg -> Alcotest.fail msg
  | Ok job' ->
    Alcotest.(check string)
      "job spec round-trips" (Json.to_string (Job.to_json job))
      (Json.to_string (Job.to_json job')));
  let rows = Service.run_batch [ Job.make "s27" ] in
  List.iter
    (fun row ->
      match Job.row_of_json (Job.row_to_json row) with
      | Error msg -> Alcotest.fail msg
      | Ok row' ->
        Alcotest.(check string)
          "result row round-trips" (Json.to_string (Job.row_to_json row))
          (Json.to_string (Job.row_to_json row')))
    rows

let test_job_rejects_unknown_field () =
  match
    Job.of_json (Json.Obj [ ("circuit", Json.String "s27");
                            ("timeout", Json.Float 1.0) ])
  with
  | Error msg ->
    Alcotest.(check bool) "names the field" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected an error for the misspelled field"

(* --- batch semantics -------------------------------------------------- *)

let batch_jobs () =
  [
    Job.make ~optimizer:"joint" "s27";
    Job.make ~optimizer:"baseline" "s27";
    Job.make ~optimizer:"joint"
      ~config:(Json.Obj [ ("input_density", Json.Float 0.5) ])
      "s27";
  ]

let test_jobs_count_invariance () =
  let seq = Service.run_batch (batch_jobs ()) in
  Par.set_jobs 4;
  let par =
    Fun.protect
      ~finally:(fun () -> Par.set_jobs 1)
      (fun () -> Service.run_batch (batch_jobs ()))
  in
  Alcotest.(check string)
    "batch rows are byte-identical at --jobs 4 and --jobs 1"
    (rows_to_string seq) (rows_to_string par)

let test_warm_run_all_hits () =
  let store = Store.open_ (temp_store ()) in
  let cold = Service.run_batch ~store (batch_jobs ()) in
  List.iter
    (fun r -> Alcotest.(check bool) "cold is a miss" false r.Job.cache_hit)
    cold;
  let warm = Service.run_batch ~store (batch_jobs ()) in
  List.iter
    (fun r -> Alcotest.(check bool) "warm is a hit" true r.Job.cache_hit)
    warm;
  let strip rows =
    List.map
      (fun r -> Json.to_string (Job.row_to_json { r with Job.cache_hit = false }))
      rows
  in
  Alcotest.(check (list string))
    "cache replay is byte-identical to the computed rows" (strip cold)
    (strip warm)

let test_within_batch_dedup () =
  let rows = Service.run_batch [ Job.make "s27"; Job.make "s27" ] in
  match rows with
  | [ a; b ] ->
    Alcotest.(check string) "same digest" a.Job.digest b.Job.digest;
    Alcotest.(check bool) "first computes" false a.Job.cache_hit;
    Alcotest.(check bool) "duplicate hits" true b.Job.cache_hit;
    Alcotest.(check string)
      "same outcome"
      (Json.to_string (Job.row_to_json { a with Job.job_id = ""; cache_hit = false }))
      (Json.to_string (Job.row_to_json { b with Job.job_id = ""; cache_hit = false }))
  | _ -> Alcotest.fail "expected two rows"

let test_digest_sensitivity () =
  let digest_of ~optimizer config =
    Store.digest ~optimizer ~config (Suite.find_exn "s27")
  in
  let d0 = digest_of ~optimizer:"joint" Flow.default_config in
  Alcotest.(check bool) "optimizer changes the key" true
    (d0 <> digest_of ~optimizer:"baseline" Flow.default_config);
  Alcotest.(check bool) "config changes the key" true
    (d0
    <> digest_of ~optimizer:"joint"
         { Flow.default_config with Flow.input_density = 0.2 });
  Alcotest.(check string) "key is stable" d0
    (digest_of ~optimizer:"joint" Flow.default_config)

(* --- isolation, retry, timeout ---------------------------------------- *)

let test_fault_injection_and_isolation () =
  let calls = Atomic.make 0 in
  Optimizer.register
    {
      Optimizer.name = "test-flaky";
      doc = "fails twice, then delegates to the baseline";
      run =
        (fun ?observer:_ s ->
          if Atomic.fetch_and_add calls 1 < 2 then failwith "injected fault";
          (Dcopt_core.Optimizer.get "baseline").Dcopt_core.Optimizer.run s);
    };
  Optimizer.register
    {
      Optimizer.name = "test-broken";
      doc = "always raises";
      run = (fun ?observer:_ _ -> failwith "always broken");
    };
  Metrics.reset ();
  let rows =
    Service.run_batch
      [
        Job.make ~id:"flaky" ~optimizer:"test-flaky" ~retries:2 "s27";
        Job.make ~id:"broken" ~optimizer:"test-broken" ~retries:1 "s27";
        Job.make ~id:"healthy" ~optimizer:"baseline" "s27";
      ]
  in
  (match rows with
  | [ flaky; broken; healthy ] ->
    (match flaky.Job.outcome with
    | Job.Solved _ -> ()
    | _ -> Alcotest.fail "flaky job should succeed on its third attempt");
    (match broken.Job.outcome with
    | Job.Failed { attempts; error } ->
      Alcotest.(check int) "broken used both attempts" 2 attempts;
      Alcotest.(check bool) "error is reported" true
        (String.length error > 0)
    | _ -> Alcotest.fail "broken job should fail");
    (match healthy.Job.outcome with
    | Job.Solved _ -> ()
    | _ -> Alcotest.fail "sibling job must be unaffected")
  | _ -> Alcotest.fail "expected three rows");
  Alcotest.(check int) "flaky retried twice, broken once" 3
    (Metrics.value (Metrics.counter "service.retries"));
  Alcotest.(check int) "one failure recorded" 1
    (Metrics.value (Metrics.counter "service.failed"))

let test_timeout () =
  Optimizer.register
    {
      Optimizer.name = "test-spin";
      doc = "spins forever, cooperatively observable";
      run =
        (fun ?observer _ ->
          let observe = Option.value observer ~default:Telemetry.null in
          let it =
            {
              Telemetry.optimizer = "test-spin";
              index = 0;
              vdd = 1.0;
              vt = 0.1;
              static_energy = 0.0;
              dynamic_energy = 0.0;
              total_energy = 0.0;
              feasible = false;
            }
          in
          while true do
            observe it
          done;
          None);
    };
  let rows =
    Service.run_batch
      [
        Job.make ~id:"spin" ~optimizer:"test-spin" ~timeout_s:0.05 ~retries:1
          "s27";
        Job.make ~id:"healthy" ~optimizer:"baseline" "s27";
      ]
  in
  match rows with
  | [ spin; healthy ] ->
    (match spin.Job.outcome with
    | Job.Failed { attempts; error } ->
      Alcotest.(check int) "both attempts timed out" 2 attempts;
      Alcotest.(check bool) "reported as a timeout" true
        (String.length error >= 9 && String.sub error 0 9 = "timed out")
    | _ -> Alcotest.fail "spinning job should time out");
    (match healthy.Job.outcome with
    | Job.Solved _ -> ()
    | _ -> Alcotest.fail "sibling job must be unaffected")
  | _ -> Alcotest.fail "expected two rows"

(* The job deadline reaches optimizers that delegate to the heuristic:
   multi-vt and multi-vdd pass the service's observer on. *)
let test_timeout_multi_optimizers () =
  let rows =
    Service.run_batch
      [
        Job.make ~id:"mvt" ~optimizer:"multi-vt" ~timeout_s:0.001 "s1488";
        Job.make ~id:"mvdd" ~optimizer:"multi-vdd" ~timeout_s:0.001 "s1488";
      ]
  in
  List.iter
    (fun r ->
      match r.Job.outcome with
      | Job.Failed { error; _ } ->
        Alcotest.(check bool)
          (r.Job.job_id ^ " reported as a timeout")
          true
          (String.length error >= 9 && String.sub error 0 9 = "timed out")
      | _ -> Alcotest.fail (r.Job.job_id ^ " should time out"))
    rows

(* An optimizer that steps the wall clock an hour, reports one trial
   (where the service checks a job's deadline), then delegates to the
   baseline. The step is forward only: Clock.now_ns clamps a backward
   step, so it would read 1 ns apart for the rest of the run. *)
let register_clock_step () =
  Optimizer.register
    {
      Optimizer.name = "test-clock-step";
      doc = "steps the wall clock an hour, then delegates to the baseline";
      run =
        (fun ?observer s ->
          Dcopt_util.Clock.jump_wall_ns 3_600_000_000_000L;
          let observe = Option.value observer ~default:Telemetry.null in
          observe
            {
              Telemetry.optimizer = "test-clock-step";
              index = 0;
              vdd = 1.0;
              vt = 0.1;
              static_energy = 0.0;
              dynamic_energy = 0.0;
              total_energy = 0.0;
              feasible = false;
            };
          (Optimizer.get "baseline").Optimizer.run ?observer s);
    }

let run_clock_step ?timeout_s () =
  register_clock_step ();
  match
    Service.run_batch
      [ Job.make ~id:"step" ~optimizer:"test-clock-step" ?timeout_s "s27" ]
  with
  | [ { Job.outcome = Job.Solved _; _ } ] -> ()
  | [ { Job.outcome = Job.Failed { error; attempts }; _ } ] ->
    Alcotest.failf "failed after %d attempt(s): %s" attempts error
  | _ -> Alcotest.fail "expected one solved row"

(* A job's deadline is elapsed time: an hour's wall-clock step in the
   middle of a job with a 60 s timeout must not time it out. *)
let test_wall_clock_step_is_not_a_timeout () = run_clock_step ~timeout_s:60.0 ()

(* Nor does the step reach the job's measured compute time. *)
let test_job_latency_ignores_wall_clock_step () =
  Metrics.reset ();
  run_clock_step ();
  Alcotest.(check bool) "service.latency under a minute" true
    (Metrics.quantile (Metrics.histogram "service.latency") 1.0 < 60.0);
  Alcotest.(check bool) "service.job.wall_ns under a minute" true
    (Metrics.quantile (Metrics.histogram "service.job.wall_ns") 1.0 < 60e9)

(* A row re-evaluated from its own JSON, with Power_model.evaluate on
   the env Flow.prepare builds from its job's config, reproduces the
   row's evaluation bit for bit (Solution JSON round-trips floats
   exactly, so equal strings are equal bits). *)
let check_row_reevaluates (job : Job.t) row =
  let what = Option.value job.Job.id ~default:job.Job.circuit in
  match
    Result.bind (Json.of_string (Json.to_string (Job.row_to_json row)))
      Job.row_of_json
  with
  | Ok { Job.outcome = Job.Solved sol; _ } ->
    let config =
      match job.Job.config with
      | None -> Flow.default_config
      | Some overrides -> Result.get_ok (Flow.config_of_json overrides)
    in
    let p = Flow.prepare ~config (Suite.find_exn job.Job.circuit) in
    let again =
      { sol with
        Solution.evaluation = Power_model.evaluate p.Flow.env sol.Solution.design }
    in
    Alcotest.(check string) (what ^ " re-evaluates bit for bit")
      (Json.to_string (Solution.to_json sol))
      (Json.to_string (Solution.to_json again))
  | Ok _ -> Alcotest.failf "%s: expected a solved row" what
  | Error msg -> Alcotest.failf "%s: %s" what msg

let rails (sol : Solution.t) =
  match sol.Solution.design.Power_model.rail with Some _ -> 2 | None -> 1

let solved row =
  match row.Job.outcome with
  | Job.Solved sol -> sol
  | _ -> Alcotest.failf "%s: expected a solution" row.Job.job_id

(* The multi-vdd jobs of the seed-1 iscas-sweep workload of bench/e2e:
   every row re-evaluates to itself, the two-rail ones included. *)
let test_multivdd_rows_reevaluate () =
  let jobs =
    List.map
      (fun (circuit, fc) ->
        Job.make ~id:(circuit ^ "-multi-vdd") ~optimizer:"multi-vdd"
          ~config:(Json.Obj [ ("clock_frequency", Json.Float fc) ])
          circuit)
      [ ("s27", 270e6); ("s298", 140e6); ("s344", 200e6); ("s349", 140e6);
        ("s382", 270e6); ("s386", 260e6); ("s400", 170e6); ("s444", 220e6);
        ("s510", 220e6); ("s526", 230e6); ("s820", 240e6); ("s832", 190e6);
        ("s1488", 160e6) ]
  in
  let rows = Service.run_batch jobs in
  List.iter2 check_row_reevaluates jobs rows;
  Alcotest.(check bool) "some rows have two rails" true
    (List.exists (fun r -> rails (solved r) = 2) rows)

(* With the crowbar term on, two-rail candidates are scored with it too:
   on s298 at 300 MHz none then beats the single-rail design, whose
   short-circuit energy the row reports. *)
let test_multivdd_short_circuit () =
  let job =
    Job.make ~id:"s298-sc" ~optimizer:"multi-vdd"
      ~config:(Json.Obj [ ("include_short_circuit", Json.Bool true) ])
      "s298"
  in
  match Service.run_batch [ job ] with
  | [ row ] ->
    let sol = solved row in
    Alcotest.(check bool) "short-circuit energy reported" true
      (sol.Solution.evaluation.Power_model.short_circuit_energy > 0.0);
    check_row_reevaluates job row
  | _ -> Alcotest.fail "expected one row"

(* Corners re-evaluate a multi-vdd design rail by rail: two corners at
   vt_factor 1.0 return the plain job's two-rail solution bit for bit,
   and a leaky/slow pair solves and is stored. *)
let test_multivdd_corners () =
  let scenarios corners =
    Json.Obj
      [
        ("version", Json.Int 1);
        ( "corners",
          Json.List
            (List.map
               (fun (name, f) ->
                 Json.Obj
                   [ ("name", Json.String name); ("vt_factor", Json.Float f) ])
               corners) );
      ]
  in
  let job ?scenarios id =
    Job.make ~id ~optimizer:"multi-vdd" ?scenarios
      ~config:(Json.Obj [ ("clock_frequency", Json.Float 270e6) ])
      "s27"
  in
  let store = Store.open_ (temp_store ()) in
  let rows =
    Service.run_batch ~store
      [
        job "plain";
        job ~scenarios:(scenarios [ ("a", 1.0); ("b", 1.0) ]) "twin";
        job ~scenarios:(scenarios [ ("leaky", 0.9); ("slow", 1.1) ]) "corners";
      ]
  in
  let json sol = Json.to_string (Solution.to_json sol) in
  match rows with
  | [ plain; twin; corners ] ->
    Alcotest.(check int) "the plain design has two rails" 2
      (rails (solved plain));
    Alcotest.(check string) "1.0/1.0 corners = plain job, bit for bit"
      (json (solved plain)) (json (solved twin));
    Alcotest.(check bool) "leaky/slow solves" true
      (Solution.feasible (solved corners));
    Alcotest.(check bool) "leaky/slow row stored" true
      (Store.find store corners.Job.digest <> None)
  | _ -> Alcotest.fail "expected three rows"

let test_unknown_inputs_become_rows () =
  let rows =
    Service.run_batch
      [
        Job.make ~id:"nocirc" "s9999";
        Job.make ~id:"noopt" ~optimizer:"bogus" "s27";
        Job.make ~id:"badcfg"
          ~config:(Json.Obj [ ("no_such_field", Json.Int 1) ])
          "s27";
        Job.make ~id:"m0" ~config:(Json.Obj [ ("m_steps", Json.Int 0) ]) "s27";
      ]
  in
  List.iter
    (fun r ->
      match r.Job.outcome with
      | Job.Failed { attempts; _ } ->
        Alcotest.(check int) "never attempted" 0 attempts
      | _ -> Alcotest.fail (r.Job.job_id ^ " should be a failure row"))
    rows;
  (* the config error carries one prefix, not one per layer *)
  match List.rev rows with
  | { Job.outcome = Job.Failed { error; _ }; _ } :: _ ->
    Alcotest.(check string) "config error text" "config: m_steps must be >= 1"
      error
  | _ -> Alcotest.fail "m0 should be a failure row"

(* A malformed netlist is a failed row with every located diagnostic of
   the file; its sibling still solves, with the row it has alone. *)
let test_bad_netlist_is_a_row () =
  let path = "service_test_cyc.bench" in
  let oc = open_out path in
  output_string oc "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = AND(a, y)\n";
  close_out oc;
  let rows =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Service.run_batch [ Job.make ~id:"cyc" path; Job.make ~id:"s27" "s27" ])
  in
  match rows with
  | [ cyc; s27 ] ->
    (match cyc.Job.outcome with
    | Job.Failed { error; attempts } ->
      Alcotest.(check string) "located diagnostic"
        "service_test_cyc.bench: error[bench.cycle]: circuit contains a \
         combinational cycle"
        error;
      Alcotest.(check int) "never attempted" 0 attempts
    | _ -> Alcotest.fail "the cyclic netlist should be a failed row");
    Alcotest.(check string) "sibling row as if alone"
      (rows_to_string (Service.run_batch [ Job.make ~id:"s27" "s27" ]))
      (rows_to_string [ s27 ]);
    (match s27.Job.outcome with
    | Job.Solved _ -> ()
    | _ -> Alcotest.fail "s27 should solve")
  | _ -> Alcotest.fail "expected two rows"

(* An SDC file's warnings reach the event log once per job: the batch
   logs them under the job's id, and a fleet worker's step on the same
   job logs none (its coordinator has), answering the same row. *)
let test_warnings_logged_once () =
  let module Events = Dcopt_obs.Events in
  let sdc = "service_test_warn.sdc" and log = "service_test_warn.jsonl" in
  let oc = open_out sdc in
  output_string oc
    "create_clock -period 5 -name clk\nset_load 0.01 G17\n\
     set_min_delay 4.9 -to [get_ports G17]\n";
  close_out oc;
  let job =
    Job.make ~id:"w"
      ~scenarios:
        (Json.Obj [ ("version", Json.Int 1); ("sdc", Json.String sdc) ])
      "s27"
  in
  (* the job.warning events the run logs, as (job_id, code) pairs *)
  let warnings_of run =
    if Sys.file_exists log then Sys.remove log;
    Events.open_file ~min_level:Events.Warn log;
    let rows = Fun.protect ~finally:Events.close run in
    let ic = open_in log in
    let rec read acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        List.rev acc
      | line ->
        let ev = Json.of_string_exn line in
        let str k = Option.bind (Json.field k ev) Json.get_string in
        if str "event" = Some "job.warning" then
          read ((str "job_id", str "code") :: acc)
        else read acc
    in
    (rows, read [])
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove sdc;
      Sys.remove log)
    (fun () ->
      let rows, logged = warnings_of (fun () -> Service.run_batch [ job ]) in
      Alcotest.(check (list (pair (option string) (option string))))
        "one event per warning, under the job's id"
        [
          (Some "w", Some "sdc.unsupported");
          (Some "w", Some "sdc.unsupported");
        ]
        logged;
      let row, again =
        warnings_of (fun () -> Service.run_assigned ~batch_id:1 job)
      in
      Alcotest.(check int) "the worker's step logs none" 0
        (List.length again);
      Alcotest.(check string) "the worker's step answers the same row"
        (rows_to_string rows) (rows_to_string [ row ]))

(* --- fleet wire protocol ---------------------------------------------- *)

module Wire = Dcopt_service.Wire

let test_wire_roundtrip () =
  let job =
    Job.make ~id:"t1" ~optimizer:"joint" ~timeout_s:1.5 ~retries:2
      ~config:(Json.Obj [ ("clock_frequency", Json.Float 2e8) ])
      "s27"
  in
  List.iter
    (fun frame ->
      let line = Wire.encode (Wire.to_worker_to_json frame) in
      match Wire.to_worker_of_line line with
      | Ok frame' ->
        Alcotest.(check bool) "coordinator frame round-trips" true
          (frame = frame')
      | Error e -> Alcotest.fail e)
    [
      Wire.Assign { seq = 7; batch_id = 3; job };
      Wire.Shutdown;
      Wire.Refused { why = "worker w0 is quarantined" };
    ];
  let row =
    {
      Job.job_id = "t1";
      row_circuit = "s27";
      row_optimizer = "joint";
      digest = "abc123";
      cache_hit = false;
      outcome = Job.Failed { error = "boom"; attempts = 2 };
    }
  in
  List.iter
    (fun frame ->
      let line = Wire.encode (Wire.from_worker_to_json frame) in
      match Wire.from_worker_of_line line with
      | Ok frame' ->
        Alcotest.(check bool) "worker frame round-trips" true (frame = frame')
      | Error e -> Alcotest.fail e)
    [
      Wire.Hello { worker_id = "w0"; pid = 123; version = Wire.protocol_version };
      Wire.Heartbeat;
      Wire.Result { seq = 7; row };
    ]

let test_wire_rejects_malformed () =
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " should not parse")
  in
  (* payload-level rejection: a valid envelope around a bad document *)
  let framed s = Wire.frame_line s in
  expect_error "garbage" (Wire.to_worker_of_line (framed "not json"));
  expect_error "no frame member" (Wire.to_worker_of_line (framed "{\"seq\":1}"));
  expect_error "unknown kind"
    (Wire.to_worker_of_line (framed "{\"frame\":\"nope\"}"));
  expect_error "missing seq"
    (Wire.to_worker_of_line (framed "{\"frame\":\"job\",\"batch_id\":1}"));
  expect_error "bad job"
    (Wire.to_worker_of_line
       (framed "{\"frame\":\"job\",\"seq\":1,\"batch_id\":1,\"job\":{\"x\":1}}"));
  expect_error "missing row"
    (Wire.from_worker_of_line (framed "{\"frame\":\"result\",\"seq\":1}"));
  expect_error "refused without a reason"
    (Wire.to_worker_of_line (framed "{\"frame\":\"refused\"}"));
  expect_error "non-json worker frame" (Wire.from_worker_of_line (framed "\x00\x01"));
  (* envelope-level rejection: bare payloads (the protocol-1 shape) and
     forged or damaged checksums never reach the JSON layer *)
  expect_error "bare payload (no envelope)"
    (Wire.to_worker_of_line "{\"frame\":\"shutdown\"}");
  expect_error "empty line" (Wire.to_worker_of_line "");
  let good = Wire.encode (Wire.to_worker_to_json Wire.Shutdown) in
  (match Wire.to_worker_of_line good with
  | Ok Wire.Shutdown -> ()
  | _ -> Alcotest.fail "sane envelope should parse");
  (* flip one payload byte: the checksum must catch it *)
  let corrupted = Bytes.of_string good in
  let last = Bytes.length corrupted - 1 in
  Bytes.set corrupted last (Char.chr (Char.code (Bytes.get corrupted last) lxor 0x20));
  expect_error "bit-flipped payload" (Wire.to_worker_of_line (Bytes.to_string corrupted));
  (* truncate mid-payload: length/sum both disagree *)
  expect_error "truncated frame"
    (Wire.to_worker_of_line (String.sub good 0 (String.length good - 3)));
  expect_error "forged checksum"
    (Wire.to_worker_of_line
       ("!0000000000000000:" ^ Json.to_string (Wire.to_worker_to_json Wire.Shutdown)))

let test_wire_addr () =
  let check what want got =
    Alcotest.(check bool) what true (want = got)
  in
  check "host:port is tcp" (Ok (Wire.Tcp ("localhost", 7070)))
    (Wire.addr_of_string "localhost:7070");
  check "path stays unix"
    (Ok (Wire.Unix_path "/tmp/x.sock"))
    (Wire.addr_of_string "/tmp/x.sock");
  check "path with colon-int suffix but slash stays unix"
    (Ok (Wire.Unix_path "/tmp/x:1"))
    (Wire.addr_of_string "/tmp/x:1");
  check "bracketed v6 literal"
    (Ok (Wire.Tcp ("::1", 9000)))
    (Wire.addr_of_string "[::1]:9000");
  check "v6 round-trips through string_of_addr" "[::1]:9000"
    (Wire.string_of_addr (Wire.Tcp ("::1", 9000)));
  check "port 0 accepted (ephemeral listen)"
    (Ok (Wire.Tcp ("127.0.0.1", 0)))
    (Wire.addr_of_string "127.0.0.1:0");
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " should be an address error")
  in
  (* the old parser silently fell back to a unix path on every one of
     these — each is far more plausibly a typo'd TCP address *)
  expect_error "non-numeric port" (Wire.addr_of_string "foo:bar");
  expect_error "out-of-range port" (Wire.addr_of_string "host:70000");
  expect_error "empty host" (Wire.addr_of_string ":8080");
  expect_error "unbracketed v6" (Wire.addr_of_string "::1:9000");
  (* resolution errors carry a located story, not an exception *)
  (match Wire.sockaddr_of (Wire.Tcp ("no-such-host.invalid", 80)) with
  | Error msg ->
    Alcotest.(check bool)
      "resolution error names the problem" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "bogus hostname should not resolve");
  match Wire.connect (Wire.Tcp ("127.0.0.1", 0)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connecting to port 0 should be refused"

(* a unix socket path in the test's working directory, private to this
   process and short enough for sun_path *)
let sock_path name = Printf.sprintf "svc_%d_%s.sock" (Unix.getpid ()) name

let listen_ok addr =
  match Wire.listen addr with
  | Ok fd -> fd
  | Error msg -> Alcotest.fail msg

(* The listener of both the fleet and [serve --socket]: it takes over a
   path a dead server left behind, then carries a frame end to end. *)
let test_wire_listen_unix () =
  let path = sock_path "listen" in
  let addr = Wire.Unix_path path in
  Out_channel.with_open_bin path (fun oc -> output_string oc "stale");
  Unix.close (listen_ok addr);
  (* the closed listener's socket file is stale in turn *)
  let fd = listen_ok addr in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Sys.remove path)
    (fun () ->
      Alcotest.(check bool) "bound_addr keeps the path" true
        (Wire.bound_addr fd addr = addr);
      match Wire.connect addr with
      | Error msg -> Alcotest.fail msg
      | Ok client ->
        let server, _ = Unix.accept fd in
        Wire.send ~site:"test" client (Wire.to_worker_to_json Wire.Shutdown);
        let line = input_line (Unix.in_channel_of_descr server) in
        Unix.close client;
        Unix.close server;
        match Wire.to_worker_of_line line with
        | Ok Wire.Shutdown -> ()
        | _ -> Alcotest.fail "frame did not cross the socket intact")

let test_wire_listen_tcp_ephemeral () =
  let asked = Wire.Tcp ("127.0.0.1", 0) in
  let fd = listen_ok asked in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Wire.bound_addr fd asked with
      | Wire.Tcp ("127.0.0.1", port) as bound when port > 0 -> (
        match Wire.connect bound with
        | Error msg -> Alcotest.fail msg
        | Ok client ->
          let server, _ = Unix.accept fd in
          Unix.close server;
          Unix.close client)
      | bound ->
        Alcotest.failf "port 0 bound %s" (Wire.string_of_addr bound))

(* --- fault plans ------------------------------------------------------- *)

module Faults = Dcopt_service.Faults

let test_faults_parse () =
  (match Faults.parse "seed=42;w0/wire.send.result@2:drop;store.put@*:enospc" with
  | Ok plan ->
    Alcotest.(check bool) "seed parsed" true (plan.Faults.seed = 42L);
    Alcotest.(check int) "two entries" 2 (List.length plan.Faults.entries)
  | Error e -> Alcotest.fail e);
  (match Faults.parse "clock.tick@1:jump=-3600" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("negative jump should parse: " ^ e));
  let expect_error what spec =
    match Faults.parse spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ " should be rejected")
  in
  expect_error "unknown site" "wire.send.bogus@1:drop";
  expect_error "unknown action" "store.put@1:explode";
  expect_error "missing occurrence" "store.put:enospc";
  expect_error "zero occurrence" "store.put@0:enospc";
  expect_error "drop takes no arg" "store.put@1:drop=3";
  expect_error "delay needs an arg" "wire.send.result@1:delay"

let test_faults_schedule () =
  (match Faults.parse "seed=7;wire.send.result@2:drop;store.put@*:eio" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Faults.arm plan;
    Alcotest.(check bool) "occurrence 1 clean" true
      (Faults.fire "wire.send.result" = []);
    Alcotest.(check bool) "occurrence 2 fires" true
      (Faults.fire "wire.send.result" = [ Faults.Drop ]);
    Alcotest.(check bool) "occurrence 3 clean again" true
      (Faults.fire "wire.send.result" = []);
    Alcotest.(check bool) "every occurrence fires" true
      (Faults.fire "store.put" = [ Faults.Eio ]
      && Faults.fire "store.put" = [ Faults.Eio ]);
    Alcotest.(check bool) "other sites untouched" true
      (Faults.fire "store.find" = []);
    (* re-arming the same plan resets occurrence counters *)
    Faults.arm plan;
    Alcotest.(check bool) "re-arm resets counts" true
      (Faults.fire "wire.send.result" = []));
  (* a role guard restricts the entry to one process identity *)
  (match Faults.parse "w0/worker.job@*:exit" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Faults.arm plan;
    Faults.set_role "w3";
    Alcotest.(check bool) "wrong role never fires" true
      (Faults.fire "worker.job" = []);
    Faults.set_role "w0";
    Alcotest.(check bool) "guarded role fires" true
      (Faults.fire "worker.job" = [ Faults.Exit ]);
    Faults.set_role "coord");
  Faults.disarm ();
  Alcotest.(check bool) "disarmed fires nothing" true
    (Faults.fire "store.put" = [])

let test_faults_corrupt_deterministic () =
  let line = Wire.encode (Wire.to_worker_to_json Wire.Shutdown) ^ "\n" in
  let a = Faults.corrupt_string line in
  let b = Faults.corrupt_string line in
  Alcotest.(check string) "corruption is deterministic" a b;
  Alcotest.(check bool) "corruption changes bytes" true (a <> line);
  Alcotest.(check bool) "newline framing survives" true
    (a.[String.length a - 1] = '\n'
    && not (String.contains (String.sub a 0 (String.length a - 1)) '\n'))

(* --- retry/quarantine policy math -------------------------------------- *)

module Policy = Dcopt_service.Policy
module Prng = Dcopt_util.Prng

let test_policy_backoff () =
  (* property: over many attempts and seeds, every delay is positive,
     capped, and no larger than the un-jittered exponential envelope *)
  let base_s = 0.1 and cap_s = 5.0 in
  for seed = 1 to 25 do
    let prng = Prng.create (Int64.of_int seed) in
    for attempt = 1 to 40 do
      let d = Policy.backoff_delay_s ~base_s ~cap_s ~prng ~attempt () in
      if not (d > 0.0 && d <= cap_s) then
        Alcotest.failf "seed %d attempt %d: delay %g outside (0, %g]" seed
          attempt d cap_s;
      let envelope =
        Float.min cap_s (base_s *. (2.0 ** float_of_int (min 62 (attempt - 1))))
      in
      if d > envelope then
        Alcotest.failf "seed %d attempt %d: delay %g above envelope %g" seed
          attempt d envelope
    done
  done;
  (* determinism: the same worker id replays the same schedule *)
  let schedule id =
    let prng = Prng.of_string id in
    List.init 10 (fun i -> Policy.backoff_delay_s ~prng ~attempt:(i + 1) ())
  in
  Alcotest.(check (list (float 0.0))) "per-id schedule is deterministic"
    (schedule "w1") (schedule "w1");
  Alcotest.(check bool) "different ids decorrelate" true
    (schedule "w1" <> schedule "w2");
  (* no jitter: exact doubling until the cap *)
  let prng = Prng.create 1L in
  let exact =
    List.init 8 (fun i ->
        Policy.backoff_delay_s ~base_s:0.5 ~cap_s:10.0 ~jitter_frac:0.0 ~prng
          ~attempt:(i + 1) ())
  in
  Alcotest.(check (list (float 1e-9))) "un-jittered doubling"
    [ 0.5; 1.0; 2.0; 4.0; 8.0; 10.0; 10.0; 10.0 ]
    exact

let test_policy_quarantine () =
  let q = Policy.quarantine ~after:2 () in
  Alcotest.(check bool) "fresh id not quarantined" false
    (Policy.quarantined q "w0");
  Alcotest.(check int) "first loss" 1 (Policy.note_loss q "w0");
  Alcotest.(check bool) "one loss is not enough" false
    (Policy.quarantined q "w0");
  Alcotest.(check int) "second loss" 2 (Policy.note_loss q "w0");
  Alcotest.(check bool) "second loss quarantines" true
    (Policy.quarantined q "w0");
  (* monotone: further losses never un-quarantine *)
  ignore (Policy.note_loss q "w0");
  Alcotest.(check bool) "still quarantined" true (Policy.quarantined q "w0");
  Alcotest.(check bool) "ids are independent" false (Policy.quarantined q "w1")

(* byte-identity of run_batch against a fleet-shaped executor that
   computes tasks out of order on the calling domain — the library half
   of the fleet invariant, no processes involved *)
let test_run_batch_via_out_of_order () =
  let jobs =
    List.concat_map
      (fun fc ->
        [
          Job.make ~id:(Printf.sprintf "a%d" fc) ~optimizer:"baseline"
            ~config:(Json.Obj [ ("clock_frequency", Json.Float (float fc *. 1e6)) ])
            "s27";
        ])
      [ 150; 175; 200; 150 ]
  in
  let reference = Service.run_batch jobs in
  let scrambled =
    Service.run_batch_via
      ~execute:(fun ~batch_id tasks ->
        let n = Array.length tasks in
        let out = Array.make n None in
        (* reverse order, like a slow worker finishing last *)
        for i = n - 1 downto 0 do
          out.(i) <- Some (Service.compute_task ~batch_id tasks.(i))
        done;
        Array.map Option.get out)
      jobs
  in
  Alcotest.(check string)
    "rows byte-identical under an out-of-order executor"
    (rows_to_string reference) (rows_to_string scrambled)

(* --- worker exit -------------------------------------------------------- *)

module Worker = Dcopt_service.Worker

(* A worker session driven in-process: a coordinator stub accepts the
   dial, reads the hello and answers with [frame]. Returns the worker's
   result and the seconds it took to return after the frame was sent.
   Worker.run sets the process's event-log worker id and fault role, so
   these cases run last. *)
let worker_after frame =
  let path = sock_path "worker" in
  let listener = listen_ok (Wire.Unix_path path) in
  let result = ref None in
  let worker =
    Thread.create
      (fun () ->
        result :=
          Some
            (Worker.run ~connect:(Wire.Unix_path path) ~worker_id:"wtest" ()))
      ()
  in
  let coordinator, _ = Unix.accept listener in
  (match
     Wire.from_worker_of_line
       (input_line (Unix.in_channel_of_descr coordinator))
   with
  | Ok (Wire.Hello { worker_id = "wtest"; _ }) -> ()
  | _ -> Alcotest.fail "expected the worker's hello");
  let t0 = Unix.gettimeofday () in
  Wire.send ~site:"test" coordinator (Wire.to_worker_to_json frame);
  Thread.join worker;
  let waited = Unix.gettimeofday () -. t0 in
  Unix.close coordinator;
  Unix.close listener;
  Sys.remove path;
  (Option.get !result, waited)

(* The heartbeat thread waits out its 0.5 s interval on a pipe the
   session writes to as it ends, so the worker returns well inside one
   interval. *)
let check_prompt what waited =
  if waited > 0.25 then
    Alcotest.failf "%s: the worker returned %.3f s after the frame" what
      waited

let test_worker_shutdown_prompt () =
  let clean, waited = worker_after Wire.Shutdown in
  Alcotest.(check bool) "a shutdown is a clean exit" true clean;
  check_prompt "shutdown" waited

let test_worker_refused_prompt () =
  let clean, waited = worker_after (Wire.Refused { why = "test refusal" }) in
  Alcotest.(check bool) "a refusal is not a clean exit" false clean;
  check_prompt "refusal" waited

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "config round-trip" `Quick test_config_roundtrip;
          Alcotest.test_case "config partial override" `Quick
            test_config_partial_override;
          Alcotest.test_case "tech round-trip" `Quick test_tech_roundtrip;
          Alcotest.test_case "solution round-trip" `Quick
            test_solution_roundtrip;
          Alcotest.test_case "job and row round-trip" `Quick
            test_job_and_row_roundtrip;
          Alcotest.test_case "unknown job field" `Quick
            test_job_rejects_unknown_field;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs-count invariance" `Quick
            test_jobs_count_invariance;
          Alcotest.test_case "warm run hits the store" `Quick
            test_warm_run_all_hits;
          Alcotest.test_case "within-batch dedup" `Quick
            test_within_batch_dedup;
          Alcotest.test_case "digest sensitivity" `Quick
            test_digest_sensitivity;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "wire frame round-trip" `Quick
            test_wire_roundtrip;
          Alcotest.test_case "wire rejects malformed frames" `Quick
            test_wire_rejects_malformed;
          Alcotest.test_case "wire address parsing" `Quick test_wire_addr;
          Alcotest.test_case "wire listen takes over a stale path" `Quick
            test_wire_listen_unix;
          Alcotest.test_case "wire listen on an ephemeral port" `Quick
            test_wire_listen_tcp_ephemeral;
          Alcotest.test_case "out-of-order executor byte-identity" `Quick
            test_run_batch_via_out_of_order;
        ] );
      ( "faults",
        [
          Alcotest.test_case "plan parsing" `Quick test_faults_parse;
          Alcotest.test_case "fire schedule" `Quick test_faults_schedule;
          Alcotest.test_case "deterministic corruption" `Quick
            test_faults_corrupt_deterministic;
        ] );
      ( "policy",
        [
          Alcotest.test_case "backoff properties" `Quick test_policy_backoff;
          Alcotest.test_case "quarantine threshold" `Quick
            test_policy_quarantine;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "fault injection and retry" `Quick
            test_fault_injection_and_isolation;
          Alcotest.test_case "cooperative timeout" `Quick test_timeout;
          Alcotest.test_case "timeout reaches multi-vt and multi-vdd" `Quick
            test_timeout_multi_optimizers;
          Alcotest.test_case "wall-clock step is not a timeout" `Quick
            test_wall_clock_step_is_not_a_timeout;
          Alcotest.test_case "job latency ignores a wall-clock step" `Quick
            test_job_latency_ignores_wall_clock_step;
          Alcotest.test_case "multi-vdd corners" `Quick
            test_multivdd_corners;
          Alcotest.test_case "multi-vdd rows re-evaluate" `Quick
            test_multivdd_rows_reevaluate;
          Alcotest.test_case "multi-vdd short circuit" `Quick
            test_multivdd_short_circuit;
          Alcotest.test_case "unknown inputs" `Quick
            test_unknown_inputs_become_rows;
          Alcotest.test_case "malformed netlist" `Quick
            test_bad_netlist_is_a_row;
          Alcotest.test_case "warnings logged once" `Quick
            test_warnings_logged_once;
        ] );
      ( "worker",
        [
          Alcotest.test_case "shutdown ends the worker at once" `Quick
            test_worker_shutdown_prompt;
          Alcotest.test_case "refusal ends the worker at once" `Quick
            test_worker_refused_prompt;
        ] );
    ]
