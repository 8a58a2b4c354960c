(* minpower: command-line front end of the device-circuit power optimizer.

   Examples:
     minpower optimize s298
     minpower optimize path/to/netlist.bench --fc 200e6 --activity 0.3
     minpower baseline s382 --vt 0.7
     minpower compare s400
     minpower profile s298 --trace trace.json --metrics
     minpower stats s510
     minpower list *)

module Flow = Dcopt_core.Flow
module Optimizer = Dcopt_core.Optimizer
module Scenario = Dcopt_core.Scenario
module Sdc = Dcopt_timing.Sdc
module Constraints = Dcopt_timing.Constraints
module Diag = Dcopt_util.Diag
module Solution = Dcopt_opt.Solution
module Suite = Dcopt_suite.Suite
module Json = Dcopt_util.Json
module Service = Dcopt_service.Service
module Job = Dcopt_service.Job
module Store = Dcopt_service.Store
module Checkpoint = Dcopt_service.Checkpoint
module Circuit = Dcopt_netlist.Circuit
module Stats = Dcopt_netlist.Circuit_stats
module Span = Dcopt_obs.Span
module Metrics = Dcopt_obs.Metrics
module Telemetry = Dcopt_obs.Telemetry
module Clock = Dcopt_util.Clock
module Si = Dcopt_util.Si
module Text_table = Dcopt_util.Text_table
open Cmdliner

(* Observability and runtime plumbing shared by every subcommand: the
   Logs reporter with -v/--verbosity, --trace FILE (enables span
   recording and writes a Chrome trace at exit), --metrics (prints the
   metrics registry at exit), --open-metrics FILE (writes the OpenMetrics
   exposition at exit), --events FILE / --events-level (JSONL event log
   with correlation IDs), --run-id (the chain's root) and --jobs (sizes
   the Par domain pool). *)

type obs = {
  trace : string option;
  metrics : bool;
  open_metrics : string option;
  jobs_flag : int option;  (** --jobs as given, for oversubscription checks *)
  worker_passthrough : string list;
      (** observability argv to forward to spawned fleet workers, so the
          whole fleet logs into one correlation chain *)
}

let obs_term =
  let trace_arg =
    let doc =
      "Record hierarchical spans of the run and write them as Chrome \
       trace-event JSON to $(docv) (open in chrome://tracing or Perfetto). \
       Spans from parallel workers appear on their own tid rows."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc =
      "Print the global metrics registry (counters and histograms with \
       quantiles) when the command finishes."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let open_metrics_arg =
    let doc =
      "Write the global metrics registry in OpenMetrics text exposition \
       format to $(docv) when the command finishes."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "open-metrics" ] ~docv:"FILE" ~doc)
  in
  let events_arg =
    let doc =
      "Append a structured JSONL event log to $(docv): one object per \
       event with monotonic timestamp, severity and the \
       run_id/batch_id/job_id correlation chain."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let events_level_arg =
    let doc =
      "Minimum severity written to the event log: debug, info, warn or \
       error. At debug, optimizer iteration events are included."
    in
    let level =
      let parse s =
        match Dcopt_obs.Events.level_of_string s with
        | Some l -> Ok l
        | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown level %S (expected debug, info, warn or error)" s))
      in
      let print ppf l =
        Format.pp_print_string ppf (Dcopt_obs.Events.level_to_string l)
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt level Dcopt_obs.Events.Info
      & info [ "events-level" ] ~docv:"LEVEL" ~doc)
  in
  let run_id_arg =
    let doc =
      "Run identifier stamped on every event (the root of the correlation \
       chain). Defaults to a pid-and-start-time-derived id."
    in
    Arg.(value & opt (some string) None & info [ "run-id" ] ~docv:"ID" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for the parallel optimizer sites (grid scans, \
       Monte-Carlo samples, annealing restarts, sweeps). Defaults to \
       $(b,DCOPT_JOBS), or 1 (fully sequential). Any value produces \
       bit-identical results; only the wall clock changes."
    in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let setup level trace metrics open_metrics events events_level run_id jobs =
    Fmt_tty.setup_std_outputs ();
    (* stdout carries results only (rows, JSON, tables); every log line,
       application level included, goes to stderr *)
    Logs.set_reporter (Logs_fmt.reporter ~app:Format.err_formatter ());
    Logs.set_level level;
    if trace <> None then Span.set_enabled true;
    (match jobs with
    | Some n when n >= 1 -> Dcopt_par.Par.set_jobs n
    | Some n -> Logs.warn (fun m -> m "--jobs %d ignored (must be >= 1)" n)
    | None -> ());
    let run_id =
      match run_id with
      | Some id -> id
      | None -> Printf.sprintf "run-%d-%Ld" (Unix.getpid ()) (Clock.now_ns ())
    in
    Dcopt_obs.Events.set_run_id run_id;
    (match events with
    | Some path -> Dcopt_obs.Events.open_file ~min_level:events_level path
    | None -> ());
    (* what a spawned fleet worker needs to join this run's correlation
       chain: same run id, same event log (O_APPEND keeps concurrent
       whole-line writers safe), same threshold *)
    let worker_passthrough =
      [ "--run-id"; run_id ]
      @ (match events with
        | Some path ->
          [
            "--events"; path;
            "--events-level";
            Dcopt_obs.Events.level_to_string events_level;
          ]
        | None -> [])
    in
    { trace; metrics; open_metrics; jobs_flag = jobs; worker_passthrough }
  in
  Term.(
    const setup $ Logs_cli.level () $ trace_arg $ metrics_arg
    $ open_metrics_arg $ events_arg $ events_level_arg $ run_id_arg $ jobs_arg)

let finish obs code =
  if obs.metrics then print_string (Metrics.render ());
  let code =
    match obs.open_metrics with
    | None -> code
    | Some path -> (
      try
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Metrics.render_openmetrics ()));
        Logs.app (fun m -> m "wrote OpenMetrics exposition to %s" path);
        code
      with Sys_error msg ->
        Logs.err (fun m -> m "cannot write OpenMetrics file: %s" msg);
        if code = 0 then 1 else code)
  in
  Dcopt_obs.Events.close ();
  match obs.trace with
  | None -> code
  | Some path -> (
    try
      Span.write_chrome path;
      Logs.app (fun m -> m "wrote Chrome trace to %s" path);
      code
    with Sys_error msg ->
      Logs.err (fun m -> m "cannot write trace: %s" msg);
      if code = 0 then 1 else code)

let with_circuit spec f =
  match Service.resolve_circuit spec with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok circuit -> f circuit

(* Every diagnostic of one input on stderr, one located line each, then a
   roll-up naming the input; the command exits 2. *)
let report_diags (source, diags) =
  Printf.eprintf "%s%s: %s\n" (Diag.render diags) source (Diag.summary diags);
  2

let ( let* ) = Result.bind

let circuit_arg =
  let doc =
    "Circuit to optimize: a suite name (see $(b,minpower list)) or a path \
     to an ISCAS-89 .bench file."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let fc_arg =
  let doc = "Clock frequency in Hz." in
  Arg.(value & opt float 300e6 & info [ "fc"; "frequency" ] ~docv:"HZ" ~doc)

let cycle_target_arg =
  let doc =
    "Cycle-time target in seconds (an alternative to $(b,--fc); exactly      the scalar constraint $(b,--fc)'s reciprocal sets)."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "cycle-target" ] ~docv:"SECONDS" ~doc)

let sdc_arg =
  let doc =
    "SDC-lite constraint file: clock periods, per-endpoint      set_max_delay, false paths and I/O delays; set_min_delay and the      other unmodelled commands are checked, then ignored with a warning      on stderr. The      tightest clock period defines the clock frequency; conflicts with      $(b,--cycle-target)."
  in
  Arg.(value & opt (some file) None & info [ "sdc" ] ~docv:"FILE" ~doc)

let corners_arg =
  let doc =
    "Process corners to optimize across, comma-separated: presets      $(b,nominal) (1.0), $(b,slow) (1.1), $(b,leaky)/$(b,fast) (0.9) or      explicit $(i,name:factor) threshold multipliers. The first corner      books the energy objective; feasibility must hold at every corner."
  in
  Arg.(value & opt (some string) None & info [ "corners" ] ~docv:"SPEC" ~doc)

let activity_arg =
  let doc = "Transition density at every primary input (per cycle)." in
  Arg.(value & opt float 0.1 & info [ "activity" ] ~docv:"D" ~doc)

let probability_arg =
  let doc = "Signal probability at every primary input." in
  Arg.(value & opt float 0.5 & info [ "probability" ] ~docv:"P" ~doc)

let m_steps_arg =
  let doc = "Binary-search steps (the paper's M)." in
  Arg.(value & opt int 16 & info [ "m-steps" ] ~docv:"M" ~doc)

let exact_arg =
  let doc = "Use BDD-exact transition densities when the circuit is small \
             enough." in
  Arg.(value & flag & info [ "exact-activity" ] ~doc)

let grid_arg =
  let doc = "Use the grid-refine search instead of the paper's nested \
             binary search." in
  Arg.(value & flag & info [ "grid" ] ~doc)

let vt_arg =
  let doc = "Fixed threshold voltage for the baseline, in volts." in
  Arg.(value & opt float 0.7 & info [ "vt" ] ~docv:"V" ~doc)

let n_vt_arg =
  let doc = "Number of distinct threshold voltages (n_v)." in
  Arg.(value & opt int 1 & info [ "n-vt" ] ~docv:"N" ~doc)

let tech_arg =
  let doc = "Technology file (key = value format; see `minpower tech`)." in
  Arg.(value & opt (some file) None & info [ "tech" ] ~docv:"FILE" ~doc)

(* The run configuration of the shared flags. A --tech file that does not
   parse, or a configuration that Flow.validate_config refuses, comes back
   as the input's name and its located diagnostics, so no command reaches
   Flow.prepare with it. *)
let config_of ?tech fc activity probability m_steps exact =
  let* tech =
    match tech with
    | None -> Ok Dcopt_device.Tech.default
    | Some path ->
      Result.map_error
        (fun diags -> (path, diags))
        (Dcopt_device.Tech_io.parse_file_checked path)
  in
  let config =
    {
      Flow.default_config with
      Flow.tech;
      Flow.clock_frequency = fc;
      input_density = activity;
      input_probability = probability;
      m_steps;
      engine = (if exact then Flow.Exact_when_small else Flow.First_order);
    }
  in
  match Diag.errors (Flow.validate_config config) with
  | [] -> Ok config
  | errors ->
    let source = "<command-line>" in
    Error
      (source, List.map (fun d -> { d with Diag.file = Some source }) errors)

let with_prepared spec config f =
  match config with
  | Error e -> report_diags e
  | Ok config ->
    with_circuit spec (fun circuit -> f (Flow.prepare ~config circuit))

(* Shared --json convention: commands that produce a solution can emit it
   as the versioned machine-readable document of Solution.to_json instead
   of the human report. *)
let json_arg =
  let doc =
    "Print results as JSON (the versioned schema of the service layer) \
     instead of the human-readable report."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let print_solution ?(json = false) p = function
  | Some sol ->
    if json then print_endline (Json.to_string_hum (Solution.to_json sol))
    else print_endline (Flow.report p sol);
    0
  | None ->
    if json then
      print_endline
        (Json.to_string_hum
           (Json.Obj [ ("feasible", Json.Bool false) ]))
    else
      Printf.printf
        "no feasible design at %.0f MHz: the cycle time is unreachable at \
         this corner\n"
        (p.Flow.config.Flow.clock_frequency /. 1e6);
    1

(* --sdc and --cycle-target both define the timing target; the combo is
   refused with a located diagnostic (the config.oversubscribe pattern)
   rather than silently letting one win. *)
let check_sdc_cycle_target sdc cycle_target =
  match (sdc, cycle_target) with
  | Some path, Some t ->
    Some
      (Diag.errorf ~file:"<command-line>" ~code:"config.conflict"
         "--sdc %s with --cycle-target %g: both set the timing target; \
          drop --cycle-target (the SDC clock period defines the cycle) or \
          drop --sdc"
         path t)
  | _ -> None

let optimize_cmd =
  let run spec fc cycle_target sdc corners_spec activity probability m_steps
      exact grid n_vt tech json obs =
    match check_sdc_cycle_target sdc cycle_target with
    | Some diag ->
      Printf.eprintf "%s\n" (Diag.to_string diag);
      finish obs 2
    | None -> (
      match cycle_target with
      | Some t when not (Float.is_finite t && t > 0.0) ->
        Printf.eprintf "%s\n"
          (Diag.to_string
             (Diag.errorf ~file:"<command-line>" ~code:"config.range"
                "--cycle-target %g: the cycle time must be positive and \
                 finite"
                t));
        finish obs 2
      | _ -> (
        match Option.map Scenario.corners_of_spec corners_spec with
        | Some (Error diags) ->
          List.iter
            (fun d -> Printf.eprintf "%s\n" (Diag.to_string d))
            diags;
          finish obs 2
        | corners_result ->
          let corners =
            match corners_result with Some (Ok ks) -> Some ks | _ -> None
          in
          finish obs
            (with_circuit spec (fun circuit ->
                 let run =
                   let* constraints, warnings =
                     match sdc with
                     | None -> Ok (None, [])
                     | Some path -> (
                       match Sdc.parse_file_checked ~circuit path with
                       | Ok (c, warnings) -> Ok (Some c, warnings)
                       | Error diags -> Error (path, diags))
                   in
                   (* ignored commands and options: said, not fatal *)
                   prerr_string (Diag.render warnings);
                   let fc =
                     match (cycle_target, constraints) with
                     | Some t, _ -> 1.0 /. t
                     | None, Some c -> (
                       match Constraints.default_period c with
                       | Some period -> 1.0 /. period
                       | None -> fc)
                     | None, None -> fc
                   in
                   let* config =
                     config_of ?tech fc activity probability m_steps exact
                   in
                   let p = Flow.prepare ~config ?constraints circuit in
                   let s =
                     match corners with
                     | None -> Scenario.of_prepared p
                     | Some ks -> Scenario.make ~corners:ks p
                   in
                   (* dispatch through the registry so the CLI exercises
                      the same descriptors as the batch service; --n-vt
                      composes the multi-vt engine with an explicit count *)
                   let sol =
                     if n_vt > 1 then
                       let pv = Scenario.prepared_view s in
                       Scenario.finalize s
                         (Flow.run_with_budgets ~name:"multi-vt" pv
                            (fun budgets ->
                              Dcopt_opt.Multi_vt.optimize
                                ~m_steps:pv.Flow.config.Flow.m_steps ~n_vt
                                pv.Flow.env ~budgets))
                     else
                       let name = if grid then "joint-grid" else "joint" in
                       (Optimizer.get name).Optimizer.run s
                   in
                   Ok (print_solution ~json p sol)
                 in
                 match run with Ok code -> code | Error e -> report_diags e))))
  in
  let doc = "Jointly optimize Vdd, Vt and device widths (Procedure 2)." in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const run $ circuit_arg $ fc_arg $ cycle_target_arg $ sdc_arg
      $ corners_arg $ activity_arg $ probability_arg $ m_steps_arg
      $ exact_arg $ grid_arg $ n_vt_arg $ tech_arg $ json_arg $ obs_term)

(* the CLI baseline pins --vt, so it composes the engine with
   Flow.run_with_budgets instead of using the registry's default *)
let run_baseline_at ~vt p =
  Flow.run_with_budgets ~name:"baseline" ~vt p (fun budgets ->
      Dcopt_opt.Baseline.optimize ~vt ~m_steps:p.Flow.config.Flow.m_steps
        p.Flow.env ~budgets)

let baseline_cmd =
  let run spec fc activity probability m_steps exact vt json obs =
    let config = config_of fc activity probability m_steps exact in
    finish obs
      (with_prepared spec config (fun p ->
           print_solution ~json p (run_baseline_at ~vt p)))
  in
  let doc = "Optimize only Vdd and widths at a fixed threshold (Table 1)." in
  Cmd.v
    (Cmd.info "baseline" ~doc)
    Term.(
      const run $ circuit_arg $ fc_arg $ activity_arg $ probability_arg
      $ m_steps_arg $ exact_arg $ vt_arg $ json_arg $ obs_term)

let compare_cmd =
  let run spec fc activity probability m_steps exact vt json obs =
    let config = config_of fc activity probability m_steps exact in
    finish obs
      (with_prepared spec config (fun p ->
           let base = run_baseline_at ~vt p in
           let joint =
             (Optimizer.get "joint-grid").Optimizer.run
               (Scenario.of_prepared p)
           in
           match (base, joint) with
           | Some base, Some joint ->
             if json then
               print_endline
                 (Json.to_string_hum
                    (Json.Obj
                       [
                         ("baseline", Solution.to_json base);
                         ("joint", Solution.to_json joint);
                         ( "savings",
                           Json.Float (Solution.savings ~baseline:base joint)
                         );
                       ]))
             else begin
               print_endline (Flow.report p base);
               print_endline "";
               print_endline (Flow.report p joint);
               Printf.printf "\npower savings: %.1fx\n"
                 (Solution.savings ~baseline:base joint)
             end;
             0
           | None, _ ->
             print_endline "baseline infeasible at this threshold/frequency";
             1
           | _, None ->
             print_endline "joint optimization infeasible";
             1))
  in
  let doc = "Run baseline and joint optimization and report the savings." in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(
      const run $ circuit_arg $ fc_arg $ activity_arg $ probability_arg
      $ m_steps_arg $ exact_arg $ vt_arg $ json_arg $ obs_term)

(* profile: run one optimizer end-to-end with tracing forced on and print
   where the time and the iterations went. *)

let ns_pct part whole =
  if Int64.compare whole 0L <= 0 then 0.0
  else 100.0 *. Int64.to_float part /. Int64.to_float whole

let print_phase_breakdown ~wall_ns =
  let spans =
    List.sort
      (fun a b -> Int64.compare a.Span.start_ns b.Span.start_ns)
      (Span.spans ())
  in
  let table = Text_table.create ~headers:[ "Phase"; "Time"; "% of wall" ] in
  Text_table.set_align table [ Text_table.Left; Text_table.Right;
                               Text_table.Right ];
  List.iter
    (fun s ->
      Text_table.add_row table
        [
          String.make (2 * s.Span.depth) ' ' ^ s.Span.name;
          Si.format ~unit:"s" (Clock.ns_to_s s.Span.dur_ns);
          Printf.sprintf "%.1f%%" (ns_pct s.Span.dur_ns wall_ns);
        ])
    spans;
  let accounted = Span.top_level_total_ns () in
  Text_table.add_separator table;
  Text_table.add_row table
    [
      "total (top-level spans)";
      Si.format ~unit:"s" (Clock.ns_to_s accounted);
      Printf.sprintf "%.1f%%" (ns_pct accounted wall_ns);
    ];
  Text_table.print table;
  Printf.printf "spans account for %s of %s wall clock (%.1f%%)\n\n"
    (Si.format ~unit:"s" (Clock.ns_to_s accounted))
    (Si.format ~unit:"s" (Clock.ns_to_s wall_ns))
    (ns_pct accounted wall_ns)

let print_iteration_summary recorder =
  let its = Telemetry.iterations recorder in
  if Array.length its = 0 then
    print_endline "no optimizer iterations recorded\n"
  else begin
    let order = ref [] in
    let by_name : (string, Telemetry.iteration list ref) Hashtbl.t =
      Hashtbl.create 4
    in
    Array.iter
      (fun it ->
        let name = it.Telemetry.optimizer in
        (match Hashtbl.find_opt by_name name with
        | Some r -> r := it :: !r
        | None ->
          Hashtbl.add by_name name (ref [ it ]);
          order := name :: !order))
      its;
    let table =
      Text_table.create
        ~headers:
          [ "Optimizer"; "Trials"; "Feasible"; "Best energy"; "Best Vdd (V)";
            "Best Vt (mV)" ]
    in
    List.iter
      (fun name ->
        let its = List.rev !(Hashtbl.find by_name name) in
        let feasible = List.filter (fun it -> it.Telemetry.feasible) its in
        let best =
          List.fold_left
            (fun acc it ->
              match acc with
              | Some b when b.Telemetry.total_energy <= it.Telemetry.total_energy
                -> acc
              | _ -> Some it)
            None feasible
        in
        Text_table.add_row table
          [
            name;
            string_of_int (List.length its);
            string_of_int (List.length feasible);
            (match best with
            | Some b -> Si.format ~unit:"J" b.Telemetry.total_energy
            | None -> "-");
            (match best with
            | Some b -> Printf.sprintf "%.2f" b.Telemetry.vdd
            | None -> "-");
            (match best with
            | Some b -> Printf.sprintf "%.0f" (b.Telemetry.vt *. 1000.0)
            | None -> "-");
          ])
      (List.rev !order);
    Text_table.print table;
    print_newline ()
  end

let profile_cmd =
  let run spec fc activity probability m_steps exact optimizer tech obs =
    Span.set_enabled true;
    Span.reset ();
    let config = config_of ?tech fc activity probability m_steps exact in
    let t0 = Clock.now_ns () in
    finish obs
      (with_prepared spec config (fun p ->
           let recorder = Telemetry.recorder () in
           let observer =
             Telemetry.tee
               (Telemetry.record recorder)
               (Telemetry.tee (Telemetry.to_metrics ()) (Telemetry.to_events ()))
           in
           let sol =
             optimizer.Optimizer.run ~observer (Scenario.of_prepared p)
           in
           let wall_ns = Int64.sub (Clock.now_ns ()) t0 in
           print_phase_breakdown ~wall_ns;
           print_iteration_summary recorder;
           print_solution p sol))
  in
  let doc =
    "Run a circuit through the full flow with span tracing forced on and \
     print the phase time breakdown and optimizer convergence summary \
     (combine with $(b,--trace) and $(b,--metrics))."
  in
  let optimizer =
    (* resolved through the registry, so anything the batch service can
       run can also be profiled *)
    let parse name =
      match Optimizer.find name with
      | Some o -> Ok o
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown optimizer %S (known: %s)" name
                (String.concat ", " (Optimizer.names ()))))
    in
    let print ppf o = Format.pp_print_string ppf o.Optimizer.name in
    let doc =
      Printf.sprintf "Optimizer to profile: %s."
        (String.concat ", " (Optimizer.names ()))
    in
    Arg.(
      value
      & opt (conv (parse, print)) (Optimizer.get "joint")
      & info [ "optimizer" ] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run $ circuit_arg $ fc_arg $ activity_arg $ probability_arg
      $ m_steps_arg $ exact_arg $ optimizer $ tech_arg $ obs_term)

let stats_cmd =
  let run spec obs =
    finish obs
      (with_circuit spec (fun circuit ->
           print_endline (Stats.to_string (Stats.compute circuit));
           let core = Circuit.combinational_core circuit in
           print_endline ("core: " ^ Stats.to_string (Stats.compute core));
           0))
  in
  let doc = "Print structural statistics of a circuit." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ circuit_arg $ obs_term)

let list_cmd =
  let run obs =
    List.iter
      (fun name ->
        let c = Suite.find_exn name in
        Printf.printf "%-6s %s\n" name (Stats.to_string (Stats.compute c)))
      Suite.names;
    finish obs 0
  in
  let doc = "List the built-in benchmark circuits." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ obs_term)

let body_bias_cmd =
  let run vt obs =
    let tech = Dcopt_device.Tech.default in
    (match Dcopt_device.Body_bias.bias_for_vt tech ~vt with
    | Some vsb ->
      Printf.printf
        "threshold %.0f mV from natural %.0f mV requires %.2f V reverse \
         body bias (substrate/n-well, Fig. 1 scheme)\n"
        (vt *. 1000.0)
        (tech.Dcopt_device.Tech.vt_natural *. 1000.0)
        vsb
    | None ->
      Printf.printf
        "threshold %.0f mV is not reachable by reverse body bias (natural \
         %.0f mV, max %.0f mV)\n"
        (vt *. 1000.0)
        (tech.Dcopt_device.Tech.vt_natural *. 1000.0)
        (Dcopt_device.Body_bias.max_reachable_vt tech *. 1000.0));
    finish obs 0
  in
  let doc = "Translate an optimizer threshold into a static body bias." in
  let vt =
    Arg.(
      required
      & pos 0 (some float) None
      & info [] ~docv:"VT" ~doc:"Target threshold, V.")
  in
  Cmd.v (Cmd.info "body-bias" ~doc) Term.(const run $ vt $ obs_term)

let dump_cmd =
  let run spec max_fanin obs =
    finish obs
      (with_circuit spec (fun circuit ->
           let circuit =
             match max_fanin with
             | Some k -> Dcopt_netlist.Tech_map.decompose ~max_fanin:k circuit
             | None -> circuit
           in
           print_string (Dcopt_netlist.Bench_format.to_string circuit);
           0))
  in
  let doc = "Write a circuit as ISCAS-89 .bench text to stdout." in
  let max_fanin =
    Arg.(
      value
      & opt (some int) None
      & info [ "decompose" ] ~docv:"K"
          ~doc:"Decompose to gates of at most $(docv) fanins first.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc)
    Term.(const run $ circuit_arg $ max_fanin $ obs_term)

let generate_cmd =
  let module G = Dcopt_netlist.Generator in
  let run gates inputs outputs depth seed max_fanin max_fanout name out obs =
    finish obs
      (let d = G.default_dag ~name ~seed ~gates () in
       let d =
         {
           d with
           G.dag_inputs = Option.value inputs ~default:d.G.dag_inputs;
           G.dag_outputs = Option.value outputs ~default:d.G.dag_outputs;
           G.dag_depth = Option.value depth ~default:d.G.dag_depth;
           G.dag_max_fanin = Option.value max_fanin ~default:d.G.dag_max_fanin;
           G.dag_max_fanout =
             Option.value max_fanout ~default:d.G.dag_max_fanout;
         }
       in
       match G.validate_dag d with
       | Error msg ->
         Printf.eprintf "generate: %s\n" msg;
         1
       | Ok () ->
         let circuit = G.random_dag d in
         (match out with
         | None -> print_string (Dcopt_netlist.Bench_format.to_string circuit)
         | Some path ->
           Dcopt_netlist.Bench_format.write_file path circuit;
           Logs.app (fun m ->
               m "wrote %d-gate DAG (depth %d, seed %Ld) to %s" d.G.dag_gates
                 d.G.dag_depth d.G.dag_seed path));
         0)
  in
  let doc =
    "Generate a deterministic random logic DAG as ISCAS-89 .bench text. \
     Equal flag sets produce byte-identical netlists; unset interface \
     flags default to an ISCAS-like shape scaled to the gate count \
     (inputs ~ 2*sqrt(gates), depth ~ 2*log2(gates))."
  in
  let gates =
    Arg.(
      value & opt int 10_000
      & info [ "gates"; "n" ] ~docv:"N" ~doc:"Combinational gate count.")
  in
  let inputs =
    Arg.(
      value
      & opt (some int) None
      & info [ "inputs" ] ~docv:"N" ~doc:"Primary input count.")
  in
  let outputs =
    Arg.(
      value
      & opt (some int) None
      & info [ "outputs" ] ~docv:"N" ~doc:"Primary output count.")
  in
  let depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"D" ~doc:"Exact logic depth.")
  in
  let seed =
    Arg.(
      value & opt int64 1L
      & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed (64-bit).")
  in
  let max_fanin =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-fanin" ] ~docv:"K" ~doc:"Hard per-gate fanin bound.")
  in
  let max_fanout =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-fanout" ] ~docv:"K"
          ~doc:"Soft per-node fanout bound (re-draws, never fails).")
  in
  let name_arg =
    Arg.(
      value & opt string "rdag"
      & info [ "name" ] ~docv:"NAME" ~doc:"Circuit name in the .bench header.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      const run $ gates $ inputs $ outputs $ depth $ seed $ max_fanin
      $ max_fanout $ name_arg $ out $ obs_term)

let pareto_cmd =
  let run spec activity probability m_steps points fc_lo fc_hi obs =
    (* the sweep and every point's configuration are checked before the
       first point runs *)
    let configs =
      let* frequencies =
        if points >= 2 && fc_lo > 0.0 && fc_hi >= fc_lo then
          Ok
            (Dcopt_util.Numeric.log_interp_points ~lo:fc_lo ~hi:fc_hi
               ~n:points)
        else
          let source = "<command-line>" in
          Error
            ( source,
              [
                Diag.errorf ~file:source ~code:"config.range"
                  "--points %d --fc-min %g --fc-max %g: a sweep needs at \
                   least 2 points and 0 < fc-min <= fc-max"
                  points fc_lo fc_hi;
              ] )
      in
      Array.fold_right
        (fun fc acc ->
          let* config = config_of fc activity probability m_steps false in
          let* configs = acc in
          Ok (config :: configs))
        frequencies (Ok [])
    in
    match configs with
    | Error e -> finish obs (report_diags e)
    | Ok configs ->
    finish obs
      (with_circuit spec (fun circuit ->
           let table =
             Text_table.create
               ~headers:
                 [ "Clock"; "Vdd (V)"; "Vt (mV)"; "Energy/cycle"; "Power";
                   "Energy*Delay" ]
           in
           List.iter
             (fun config ->
               let fc = config.Flow.clock_frequency in
               let p = Flow.prepare ~config circuit in
               match
                 (Optimizer.get "joint-grid").Optimizer.run
                   (Scenario.of_prepared p)
               with
               | None ->
                 Text_table.add_row table
                   [ Printf.sprintf "%.0f MHz" (fc /. 1e6); "-"; "-"; "-";
                     "-"; "infeasible" ]
               | Some sol ->
                 let e = Solution.total_energy sol in
                 Text_table.add_row table
                   [
                     Printf.sprintf "%.0f MHz" (fc /. 1e6);
                     Printf.sprintf "%.2f" (Solution.vdd sol);
                     Printf.sprintf "%.0f"
                       ((match Solution.vt_values sol p.Flow.env with
                        | v :: _ -> v
                        | [] -> nan)
                       *. 1000.0);
                     Si.format ~unit:"J" e;
                     Si.format ~unit:"W" (e *. fc);
                     Si.format ~unit:"Js" (e /. fc);
                   ])
             configs;
           Text_table.print table;
           0))
  in
  let doc = "Sweep the clock target and print the energy-performance \
             Pareto frontier of the joint optimizer." in
  let points =
    Arg.(value & opt int 6 & info [ "points" ] ~docv:"N" ~doc:"Sweep points.")
  in
  let fc_lo =
    Arg.(value & opt float 25e6 & info [ "fc-min" ] ~docv:"HZ" ~doc:"Lowest clock.")
  in
  let fc_hi =
    Arg.(value & opt float 400e6 & info [ "fc-max" ] ~docv:"HZ" ~doc:"Highest clock.")
  in
  Cmd.v
    (Cmd.info "pareto" ~doc)
    Term.(
      const run $ circuit_arg $ activity_arg $ probability_arg $ m_steps_arg
      $ points $ fc_lo $ fc_hi $ obs_term)

let characterize_cmd =
  let run vdd vt width obs =
    let tech = Dcopt_device.Tech.default in
    let cells =
      List.concat_map
        (fun (kind, fanin) ->
          [ Dcopt_device.Char_table.characterize tech ~kind ~fanin ~width
              ~vdd ~vt ])
        [ (Dcopt_netlist.Gate.Not, 1); (Dcopt_netlist.Gate.Nand, 2);
          (Dcopt_netlist.Gate.Nand, 3); (Dcopt_netlist.Gate.Nor, 2);
          (Dcopt_netlist.Gate.And, 2); (Dcopt_netlist.Gate.Or, 2);
          (Dcopt_netlist.Gate.Xor, 2) ]
    in
    print_string (Dcopt_device.Char_table.to_liberty cells);
    finish obs 0
  in
  let doc = "Characterize the standard gate set at an operating point and \
             print liberty-flavoured lookup tables." in
  let vdd =
    Arg.(value & opt float 1.0 & info [ "vdd" ] ~docv:"V" ~doc:"Supply voltage.")
  in
  let vt =
    Arg.(value & opt float 0.15 & info [ "vt" ] ~docv:"V" ~doc:"Threshold voltage.")
  in
  let width =
    Arg.(value & opt float 4.0 & info [ "width" ] ~docv:"W" ~doc:"Device width, w-units.")
  in
  Cmd.v
    (Cmd.info "characterize" ~doc)
    Term.(const run $ vdd $ vt $ width $ obs_term)

let spice_cmd =
  let run spec vdd vt optimize obs =
    finish obs
      (with_circuit spec (fun circuit ->
           let core = Circuit.combinational_core circuit in
           let tech = Dcopt_device.Tech.default in
           let widths =
             if not optimize then None
             else
               let p = Flow.prepare circuit in
               (Optimizer.get "joint-grid").Optimizer.run
                 (Scenario.of_prepared p)
               |> Option.map (fun sol ->
                      sol.Solution.design.Dcopt_opt.Power_model.widths)
           in
           print_string
             (Dcopt_device.Spice_export.deck ~vdd ~vt ?widths tech core);
           0))
  in
  let doc = "Expand the combinational core to transistors and print a \
             level-1 SPICE deck (sized from the optimizer with \
             $(b,--optimize))." in
  let vdd =
    Arg.(value & opt float 1.0 & info [ "vdd" ] ~docv:"V" ~doc:"Supply voltage.")
  in
  let vt =
    Arg.(value & opt float 0.15 & info [ "vt" ] ~docv:"V" ~doc:"Threshold voltage.")
  in
  let optimize =
    Arg.(value & flag & info [ "optimize" ] ~doc:"Size widths with the joint optimizer first.")
  in
  Cmd.v
    (Cmd.info "spice" ~doc)
    Term.(const run $ circuit_arg $ vdd $ vt $ optimize $ obs_term)

let equiv_cmd =
  let run spec_a spec_b obs =
    finish obs
      (match
         (Service.resolve_circuit spec_a, Service.resolve_circuit spec_b)
       with
      | Error msg, _ | _, Error msg ->
        prerr_endline msg;
        2
      | Ok a, Ok b -> (
        let core_a = Circuit.combinational_core a in
        let core_b = Circuit.combinational_core b in
        match Dcopt_activity.Equiv.check core_a core_b with
        | Dcopt_activity.Equiv.Equivalent ->
          print_endline "equivalent";
          0
        | Dcopt_activity.Equiv.Different { output_index; witness } ->
          Printf.printf "DIFFERENT at output %d; witness inputs:\n"
            output_index;
          Array.iteri
            (fun i id ->
              Printf.printf "  %s = %d\n"
                (Circuit.node core_a id).Circuit.name
                (if witness.(i) then 1 else 0))
            (Circuit.inputs core_a);
          1
        | Dcopt_activity.Equiv.Inconclusive reason ->
          Printf.printf "inconclusive: %s\n" reason;
          2))
  in
  let doc = "Check two circuits for combinational equivalence (BDD-based; \
             inputs matched by name, outputs by position)." in
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc:"First circuit.") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc:"Second circuit.") in
  Cmd.v (Cmd.info "equiv" ~doc) Term.(const run $ a $ b $ obs_term)

(* batch/serve: the JSONL front of Dcopt_service. A jobs file holds one
   job spec per line; unparsable lines become failure rows in place, so
   one bad spec never kills the batch. *)

let store_arg =
  let doc =
    "Directory of the content-addressed result store; solved and \
     infeasible outcomes are served from and persisted to it (created \
     when missing)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let checkpoint_arg =
  let doc =
    "Directory of per-job crash-safe checkpoints (created when missing). \
     Completed jobs are recorded there the moment they finish; on SIGINT \
     or SIGTERM the batch prints the rows already answerable and exits, \
     and re-running the same batch with the same directory resumes — \
     skipping completed jobs and producing output byte-identical to an \
     uninterrupted run."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let workers_arg =
  let doc =
    "Distribute the batch over $(docv) spawned worker processes (a \
     multi-process fleet with work stealing, backpressure and crash \
     recovery) instead of the in-process domain pool. Rows are \
     byte-identical at any worker count, including across worker \
     crashes. Mutually exclusive with $(b,--jobs) > 1: fleet \
     parallelism replaces the pool."
  in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

(* --workers N and --jobs M is oversubscription: N worker processes *and*
   M domains per process thrash one another on the same cores. The combo
   is refused with a located diagnostic rather than silently degrading. *)
let check_workers_jobs workers obs =
  match (workers, obs.jobs_flag) with
  | Some n, _ when n < 1 ->
    Some
      (Dcopt_util.Diag.errorf ~file:"<command-line>"
         ~code:"config.fleet_size" "--workers %d: a fleet needs at least 1 \
                                    worker" n)
  | Some n, Some m when m > 1 ->
    Some
      (Dcopt_util.Diag.errorf ~file:"<command-line>"
         ~code:"config.oversubscribe"
         "--workers %d with --jobs %d oversubscribes: fleet workers run \
          jobs=1 internally (fleet parallelism replaces the domain pool); \
          drop --jobs or use the in-process path without --workers"
         n m)
  | _ -> None

let listen_arg =
  let doc =
    "Fleet listen address: $(i,host:port) for TCP (port 0 binds an \
     ephemeral port) or a filesystem path for a unix-domain socket. \
     Defaults to a private unix socket. A TCP address lets external \
     workers ($(b,minpower worker --connect host:port)) join the fleet \
     from other machines."
  in
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)

let fault_plan_arg =
  let doc =
    "Arm a deterministic fault-injection plan (also: $(b,DCOPT_FAULT_PLAN) \
     in the environment): semicolon-separated \
     $(i,[role/]site@occ:action[=arg]) entries, e.g. \
     $(b,w0/wire.send.result@2:drop;store.put@*:enospc). Spawned fleet \
     workers inherit the plan. For testing the degraded paths; see \
     DESIGN.md §14."
  in
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN" ~doc)

(* Arm a --fault-plan / DCOPT_FAULT_PLAN fault plan before any fleet or
   store activity. The flag wins over the environment; either way the
   plan is re-exported so spawned workers inherit it verbatim. Returns a
   located diagnostic on a malformed plan instead of arming nothing. *)
let arm_fault_plan flag =
  let spec =
    match flag with Some s -> Some s | None -> Sys.getenv_opt "DCOPT_FAULT_PLAN"
  in
  match spec with
  | None -> None
  | Some spec -> (
    match Dcopt_service.Faults.parse spec with
    | Ok plan ->
      Dcopt_service.Faults.arm plan;
      Unix.putenv "DCOPT_FAULT_PLAN" spec;
      None
    | Error msg ->
      Some
        (Dcopt_util.Diag.errorf ~file:"<command-line>" ~code:"config.fault_plan"
           "--fault-plan: %s" msg))

(* Parse --listen into a Wire.addr, refusing what Fleet.create would
   refuse but with a located diagnostic instead of an exception. *)
let parse_listen = function
  | None -> Ok None
  | Some s -> (
    match Dcopt_service.Wire.addr_of_string s with
    | Ok addr -> Ok (Some addr)
    | Error msg ->
      Error
        (Dcopt_util.Diag.errorf ~file:"<command-line>" ~code:"config.addr"
           "--listen %s: %s" s msg))

(* Run [open_] on the path an argument names. A jobs file that cannot be
   read, or a store or checkpoint path that cannot be a directory, is a
   located diagnostic naming the argument, not an uncaught Sys_error. *)
let open_path ~arg open_ path =
  try Ok (open_ path)
  with Sys_error msg ->
    let msg =
      if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg
    in
    Error
      (Dcopt_util.Diag.errorf ~file:"<command-line>" ~code:"config.path"
         "%s: %s" arg msg)

let open_dir_opt ~arg open_ = function
  | None -> Ok None
  | Some path -> Result.map Option.some (open_path ~arg open_ path)

let fleet_of ~workers ?listen obs =
  Dcopt_service.Fleet.create
    (Dcopt_service.Fleet.options ~workers ~worker_args:obs.worker_passthrough
       ?listen ())

let read_lines ic =
  let rec go acc n =
    match input_line ic with
    | line -> go ((n, line) :: acc) (n + 1)
    | exception End_of_file -> List.rev acc
  in
  go [] 1

let batch_cmd =
  let run jobs_path store checkpoint workers listen fault_plan table
      require_cached obs =
    let early_diag =
      match check_workers_jobs workers obs with
      | Some d -> Some d
      | None -> (
        match arm_fault_plan fault_plan with
        | Some d -> Some d
        | None -> (
          match parse_listen listen with Error d -> Some d | Ok _ -> None))
    in
    match early_diag with
    | Some diag ->
      Printf.eprintf "%s\n" (Dcopt_util.Diag.to_string diag);
      finish obs 2
    | None ->
    let listen = Result.get_ok (parse_listen listen) in
    let opened =
      let* lines =
        if jobs_path = "-" then Ok (read_lines stdin)
        else
          open_path ~arg:"JOBS"
            (fun p -> In_channel.with_open_text p read_lines)
            jobs_path
      in
      let* store = open_dir_opt ~arg:"--store" Store.open_ store in
      let* checkpoint =
        open_dir_opt ~arg:"--checkpoint" Checkpoint.open_ checkpoint
      in
      Ok (lines, store, checkpoint)
    in
    match opened with
    | Error diag ->
      Printf.eprintf "%s\n" (Dcopt_util.Diag.to_string diag);
      finish obs 2
    | Ok (lines, store, checkpoint) ->
    let entries =
      List.filter_map
        (fun (line_no, line) ->
          if String.trim line = "" then None
          else
            match Result.bind (Json.of_string line) Job.of_json with
            | Ok job -> Some (`Job job)
            | Error msg ->
              Some
                (`Row
                   (Service.failed_line_row ~line_no
                      (Printf.sprintf "%s:%d: %s" jobs_path line_no msg))))
        lines
    in
    let jobs =
      List.filter_map (function `Job j -> Some j | `Row _ -> None) entries
    in
    (* With a checkpoint, an interrupt is a clean partial exit: flush what
       is already answerable as JSONL, point at the resume command, and
       die with the conventional 128+signal status. Everything the signal
       handler reads is on disk (worker writes are atomic), so this is
       safe whenever the signal lands. *)
    (match checkpoint with
    | None -> ()
    | Some ck ->
      let interrupted signal =
        let rows = Service.partial_rows ?store ~checkpoint:ck jobs in
        List.iter
          (fun row -> print_endline (Json.to_string (Job.row_to_json row)))
          rows;
        flush stdout;
        Printf.eprintf
          "interrupted: %d of %d jobs answerable; resume with --checkpoint \
           %s\n\
           %!"
          (List.length rows) (List.length jobs) (Checkpoint.dir ck);
        Stdlib.exit (if signal = Sys.sigterm then 143 else 130)
      in
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle interrupted))
        [ Sys.sigint; Sys.sigterm ]);
    let rows =
      match workers with
      | None -> Service.run_batch ?store ?checkpoint jobs
      | Some n ->
        let fleet = fleet_of ~workers:n ?listen obs in
        Fun.protect
          ~finally:(fun () -> Dcopt_service.Fleet.shutdown fleet)
          (fun () ->
            Dcopt_service.Fleet.run_batch fleet ?store ?checkpoint jobs)
    in
    let rec merge entries rows =
      match (entries, rows) with
      | [], _ -> []
      | `Row r :: tl, rows -> r :: merge tl rows
      | `Job _ :: tl, r :: rows -> r :: merge tl rows
      | `Job _ :: _, [] -> assert false
    in
    let rows = merge entries rows in
    if table then print_string (Job.render_rows rows)
    else
      List.iter
        (fun row -> print_endline (Json.to_string (Job.row_to_json row)))
        rows;
    let any_failed =
      List.exists
        (fun r -> match r.Job.outcome with Job.Failed _ -> true | _ -> false)
        rows
    in
    let any_miss = List.exists (fun r -> not r.Job.cache_hit) rows in
    finish obs
      (if require_cached && any_miss then 3 else if any_failed then 1 else 0)
  in
  let doc =
    "Run a batch of optimization jobs from a JSONL file (one job spec \
     per line, e.g. {\"circuit\":\"s27\",\"optimizer\":\"joint\"}; \
     optional members: id, config, timeout_s, retries; $(b,-) reads \
     stdin). Results come out as JSONL in job order, byte-identical at \
     any $(b,--jobs) count; failures are rows, not batch aborts."
  in
  let jobs_path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOBS" ~doc:"Job-spec file (JSONL), or - for stdin.")
  in
  let table =
    Arg.(
      value & flag
      & info [ "table" ] ~doc:"Print a human-readable table instead of JSONL.")
  in
  let require_cached =
    Arg.(
      value & flag
      & info [ "require-cached" ]
          ~doc:
            "Exit with status 3 unless every row was answered from the \
             result store (warm-cache assertion for scripts and tests).")
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(
      const run $ jobs_path $ store_arg $ checkpoint_arg $ workers_arg
      $ listen_arg $ fault_plan_arg $ table $ require_cached $ obs_term)

let serve_cmd =
  let run store socket workers listen fault_plan obs =
    let early_diag =
      match check_workers_jobs workers obs with
      | Some d -> Some d
      | None -> (
        match arm_fault_plan fault_plan with
        | Some d -> Some d
        | None -> (
          match parse_listen listen with Error d -> Some d | Ok _ -> None))
    in
    match early_diag with
    | Some diag ->
      Printf.eprintf "%s\n" (Dcopt_util.Diag.to_string diag);
      finish obs 2
    | None ->
      match open_dir_opt ~arg:"--store" Store.open_ store with
      | Error diag ->
        Printf.eprintf "%s\n" (Dcopt_util.Diag.to_string diag);
        finish obs 2
      | Ok store ->
      let listen = Result.get_ok (parse_listen listen) in
      let run_jobs =
        match workers with
        | None -> None
        | Some n ->
          (* the pool is persistent across the whole serve session:
             spawned lazily at the first job that needs computing,
             replaced as workers die, reused by every subsequent job *)
          let fleet = fleet_of ~workers:n ?listen obs in
          at_exit (fun () -> Dcopt_service.Fleet.shutdown fleet);
          Some (fun jobs -> Dcopt_service.Fleet.run_batch fleet ?store jobs)
      in
      (match socket with
      | Some path -> Service.serve_unix_socket ?store ?run:run_jobs path
      | None -> Service.serve ?store ?run:run_jobs stdin stdout);
      finish obs 0
  in
  let doc =
    "Serve optimization jobs as a long-running loop: one JSON job spec \
     per input line, one JSON result row per output line, until EOF \
     (default stdin/stdout; $(b,--socket) listens on a unix domain \
     socket instead). With $(b,--workers), jobs are executed by a \
     persistent multi-process fleet."
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a unix domain socket at $(docv).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ store_arg $ socket $ workers_arg $ listen_arg
      $ fault_plan_arg $ obs_term)

let worker_cmd =
  let run connect worker_id reconnect _store obs =
    (* fleet parallelism replaces the domain pool: a worker computes one
       job at a time unless --jobs explicitly says otherwise *)
    if obs.jobs_flag = None then Dcopt_par.Par.set_jobs 1;
    let worker_id =
      match worker_id with
      | Some id -> id
      | None -> Printf.sprintf "w-pid%d" (Unix.getpid ())
    in
    match Dcopt_service.Wire.addr_of_string connect with
    | Error msg ->
      let diag =
        Dcopt_util.Diag.errorf ~file:"<command-line>" ~code:"config.addr"
          "--connect %s: %s" connect msg
      in
      Printf.eprintf "%s\n" (Dcopt_util.Diag.to_string diag);
      finish obs 2
    | Ok addr -> (
      match Dcopt_service.Worker.run ~reconnect ~connect:addr ~worker_id () with
      | clean -> finish obs (if clean then 0 else 1)
      | exception Failure msg ->
        (* Worker.run refuses addresses it cannot use (resolution
           failure, the ephemeral port 0) with the located story *)
        let diag =
          Dcopt_util.Diag.errorf ~file:"<command-line>" ~code:"config.addr"
            "--connect %s: %s" connect msg
        in
        Printf.eprintf "%s\n" (Dcopt_util.Diag.to_string diag);
        finish obs 2
      | exception (Unix.Unix_error _ | Sys_error _) ->
        Logs.err (fun m ->
            m "worker %s: cannot reach coordinator at %s" worker_id connect);
        finish obs 1)
  in
  let doc =
    "Run as a fleet worker: connect to a coordinator address (spawned \
     automatically by $(b,minpower batch --workers) / $(b,minpower serve \
     --workers); invoked by hand with $(b,--connect host:port) to join a \
     TCP fleet from another machine), pull job frames, compute them and \
     stream result rows back; the coordinator owns the result store. \
     Defaults the domain pool to jobs=1."
  in
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Coordinator address: a unix socket path, $(i,host:port), or \
             $(i,[v6::literal]:port) for TCP.")
  in
  let worker_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "worker-id" ] ~docv:"ID"
          ~doc:
            "Identity in the fleet protocol and the event-log correlation \
             chain (defaults to a pid-derived id).")
  in
  let reconnect =
    Arg.(
      value & opt int 0
      & info [ "reconnect" ] ~docv:"N"
          ~doc:
            "Retry a lost or refused coordinator connection up to $(docv) \
             times under capped exponential backoff with per-worker seeded \
             jitter (default 0: spawned workers are respawned by their \
             coordinator instead). A clean shutdown frame never \
             reconnects.")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Ignored: a worker never reads or writes the result store (its \
             coordinator serves hits and persists results). Accepted so \
             existing worker command lines keep working.")
  in
  Cmd.v
    (Cmd.info "worker" ~doc)
    Term.(const run $ connect $ worker_id $ reconnect $ store $ obs_term)

let tech_cmd =
  let run scale_factor obs =
    let tech = Dcopt_device.Tech.default in
    let tech =
      match scale_factor with
      | Some f -> Dcopt_device.Tech.scale tech ~factor:f
      | None -> tech
    in
    print_string (Dcopt_device.Tech_io.to_string tech);
    finish obs 0
  in
  let doc = "Print the default technology as an editable tech file \
             (optionally constant-field scaled)." in
  let factor =
    Arg.(
      value
      & opt (some float) None
      & info [ "scale" ] ~docv:"F" ~doc:"Constant-field scale factor (< 1).")
  in
  Cmd.v (Cmd.info "tech" ~doc) Term.(const run $ factor $ obs_term)

let () =
  let doc =
    "Device-circuit optimization for minimal energy in CMOS random logic \
     (Pant, De & Chatterjee, DAC 1997)."
  in
  let info = Cmd.info "minpower" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ optimize_cmd; baseline_cmd; compare_cmd; batch_cmd; serve_cmd;
            worker_cmd; profile_cmd; stats_cmd; list_cmd; body_bias_cmd;
            dump_cmd;
            generate_cmd; pareto_cmd; characterize_cmd; spice_cmd;
            tech_cmd; equiv_cmd ]))
