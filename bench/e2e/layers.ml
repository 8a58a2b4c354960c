(* The traced pass: a workload's batch re-run in-process, with the
   compute step rebuilt from each layer's public calls — Flow.prepare's
   front end call by call, Procedure 1, budget repair, the registry
   optimizer — so every layer gets its own "bench.<layer>" span and time.
   Rows must come out byte-identical to the minpower process's, which
   proves the rebuilt compute is the real one. Nothing here reaches
   inside lib/. *)

module Flow = Dcopt_core.Flow
module Optimizer = Dcopt_core.Optimizer
module Scenario = Dcopt_core.Scenario
module Service = Dcopt_service.Service
module Job = Dcopt_service.Job
module Store = Dcopt_service.Store
module Fleet = Dcopt_service.Fleet
module Circuit = Dcopt_netlist.Circuit
module Activity = Dcopt_activity.Activity
module Power_model = Dcopt_opt.Power_model
module Budget_repair = Dcopt_opt.Budget_repair
module Delay_assign = Dcopt_timing.Delay_assign
module Constraints = Dcopt_timing.Constraints
module Tech = Dcopt_device.Tech
module Span = Dcopt_obs.Span
module Metrics = Dcopt_obs.Metrics
module Telemetry = Dcopt_obs.Telemetry
module Par = Dcopt_par.Par
module Clock = Dcopt_util.Clock
module Json = Dcopt_util.Json

let since t0 = Int64.to_float (Int64.sub (Clock.monotonic_ns ()) t0) /. 1e9

(* Named sums of one task's layer times and counts. Each task fills its
   own on whichever pool domain runs it; they are merged afterwards on
   the main domain. *)
type tally = (string, float) Hashtbl.t

let add (tally : tally) name v =
  Hashtbl.replace tally name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt tally name))

let get (tally : tally) name = Option.value ~default:0.0 (Hashtbl.find_opt tally name)

let merge_into (dst : tally) (src : tally) = Hashtbl.iter (add dst) src

(* Time one layer call into [tally] as [<layer>_s], inside a span. *)
let timed tally layer f =
  Span.with_ ("bench." ^ layer) @@ fun () ->
  let t0 = Clock.monotonic_ns () in
  let r = f () in
  add tally (layer ^ "_s") (since t0);
  r

let config_of_job (job : Job.t) =
  match job.Job.config with
  | None -> Ok Flow.default_config
  | Some overrides -> Flow.config_of_json overrides

type front = {
  core : Circuit.t;
  profile : Activity.profile;
  env : Power_model.env;
  constraints : Constraints.t;
}

(* Flow.prepare's front end, call by call, for the first-order activity
   engine every workload uses. *)
let front tally (config : Flow.config) circuit =
  let time layer f = timed tally layer f in
  (match config.Flow.engine with
  | Flow.First_order -> ()
  | _ -> invalid_arg "Layers.front: only the first-order activity engine");
  let constraints = Constraints.of_cycle_time (1.0 /. config.Flow.clock_frequency) in
  let core = time "flow.core" (fun () -> Circuit.combinational_core circuit) in
  let profile =
    time "flow.activity" (fun () ->
        Activity.local_profile core
          (Activity.uniform_inputs core ~probability:config.Flow.input_probability
             ~density:config.Flow.input_density))
  in
  let env =
    time "flow.make_env" (fun () ->
        Power_model.make_env ~include_short_circuit:config.Flow.include_short_circuit
          ~constraints ~tech:config.Flow.tech ~fc:config.Flow.clock_frequency core
          profile)
  in
  { core; profile; env; constraints }

(* One task's compute, rebuilt from the layers. Budget repair is timed
   as a probe at the fast corner, (vdd_max, vt_min) — where the joint
   optimizers repair — and then repeated inside the registry optimizer,
   which is the only way to reach every optimizer unchanged; the probe
   costs well under 1% of a task. *)
let compute (job : Job.t) circuit =
  let tally = Hashtbl.create 32 in
  let time layer f = timed tally layer f in
  let t0 = Clock.monotonic_ns () in
  let outcome =
    Span.with_ "bench.compute" ~args:[ ("optimizer", job.Job.optimizer) ]
    @@ fun () ->
    match
      let config =
        match config_of_job job with Ok c -> c | Error msg -> failwith msg
      in
      let f = front tally config circuit in
      let budget =
        time "delay_assign.assign" (fun () ->
            Delay_assign.assign ~skew_factor:config.Flow.skew_factor
              ~constraints:f.constraints f.core
              ~cycle_time:(1.0 /. config.Flow.clock_frequency))
      in
      add tally "delay_assign.paths_used" (float_of_int budget.Delay_assign.paths_used);
      add tally "delay_assign.fallback_gates"
        (float_of_int budget.Delay_assign.fallback_gates);
      add tally "delay_assign.slope_adjusted"
        (float_of_int budget.Delay_assign.slope_adjusted);
      add tally "gates" (float_of_int (Circuit.gate_count f.core));
      let tech = config.Flow.tech in
      (match
         time "budget_repair.repair" (fun () ->
             Budget_repair.repair f.env ~budgets:budget.Delay_assign.t_max
               ~vdd:tech.Tech.vdd_max ~vt:tech.Tech.vt_min)
       with
      | Budget_repair.Repaired { lifted; iterations; _ } ->
        add tally "budget_repair.lifted" (float_of_int lifted);
        add tally "budget_repair.iterations" (float_of_int iterations)
      | Budget_repair.Infeasible _ -> ());
      let prepared =
        {
          Flow.config;
          core = f.core;
          profile = f.profile;
          used_exact_activity = false;
          env = f.env;
          budget;
        }
      in
      let recorder = Telemetry.recorder () in
      let t_search = Clock.monotonic_ns () in
      let sol =
        time "search.optimize" (fun () ->
            (Optimizer.get job.Job.optimizer).Optimizer.run
              ~observer:(Telemetry.record recorder)
              (Scenario.of_prepared prepared))
      in
      let its = Telemetry.iterations recorder in
      if Array.length its > 0 then begin
        (* multi-vt and multi-vdd take no observer: only optimizers that
           report trials enter the per-trial cost *)
        add tally "search.trials" (float_of_int (Array.length its));
        add tally "search.feasible_trials"
          (float_of_int
             (Array.fold_left
                (fun n it -> if it.Telemetry.feasible then n + 1 else n)
                0 its));
        add tally "search.reporting_s" (since t_search)
      end;
      sol
    with
    | Some sol -> Job.Solved sol
    | None -> Job.Infeasible
    | exception e -> Job.Failed { error = Printexc.to_string e; attempts = 1 }
  in
  let wall_ns = Int64.sub (Clock.monotonic_ns ()) t0 in
  add tally "compute_s" (Int64.to_float wall_ns /. 1e9);
  add tally ("compute_s@" ^ job.Job.optimizer) (Int64.to_float wall_ns /. 1e9);
  let computed =
    {
      Service.comp_outcome = outcome;
      comp_attempts = 1;
      comp_latency_s = Int64.to_float wall_ns /. 1e9;
      comp_wall_ns = wall_ns;
      comp_alloc_bytes = 0.0;
    }
  in
  (computed, tally)

let render_rows rows =
  String.concat "" (List.map (fun r -> Json.to_string (Job.row_to_json r) ^ "\n") rows)

let counter name = Metrics.value (Metrics.counter name)

let counter_delta names f =
  let before = List.map counter names in
  let r = f () in
  (r, List.map2 (fun name b -> (name, float_of_int (counter name - b))) names before)

type traced = {
  rows : Job.row list;
  rendered : string;
  tally : tally;  (** every task's tally merged, plus the parse layer *)
  compute_s : float list;  (** per computed task *)
  batch_s : float;
  execute_s : float;
  pass_s : float;
  counters : (string * float) list;
}

let traced_counters =
  [ "incr.moves"; "incr.dirty_gates"; "incr.full_fallbacks";
    "service.store.write_failed"; "service.store.corrupt" ]

(* The in-process batch: Service.run_batch_via (resolve, dedup, digest,
   store lookups, row assembly) around a bench-supplied executor that
   runs the rebuilt compute over the same two-domain pool the service
   would use. Circuits are re-resolved on the main domain first — the
   suite cache is not safe to fill from pool domains. *)
let traced_batch ?store jobs =
  let tally = Hashtbl.create 32 in
  let compute_s = ref [] in
  let execute_s = ref 0.0 in
  let execute ~batch_id:_ tasks =
    let t0 = Clock.monotonic_ns () in
    let jobs = Array.map Service.task_job tasks in
    let circuits =
      Array.map
        (fun (j : Job.t) ->
          timed tally "flow.parse" (fun () -> Service.resolve_circuit j.Job.circuit))
        jobs
    in
    let results =
      Par.map ~site:"bench.e2e"
        (fun i ->
          match circuits.(i) with
          | Ok circuit -> compute jobs.(i) circuit
          | Error error ->
            ( {
                Service.comp_outcome = Job.Failed { error; attempts = 1 };
                comp_attempts = 1;
                comp_latency_s = 0.0;
                comp_wall_ns = 0L;
                comp_alloc_bytes = 0.0;
              },
              Hashtbl.create 1 ))
        (Array.init (Array.length tasks) Fun.id)
    in
    Array.iter (fun (_, t) -> merge_into tally t) results;
    compute_s := Array.to_list (Array.map (fun (_, t) -> get t "compute_s") results);
    execute_s := since t0;
    Array.map fst results
  in
  let (rows, rendered, batch_s, pass_s), counters =
    counter_delta traced_counters @@ fun () ->
    let t0 = Clock.monotonic_ns () in
    let rows =
      Span.with_ "bench.service.batch" (fun () ->
          Service.run_batch_via ?store ~execute jobs)
    in
    let batch_s = since t0 in
    let rendered = timed tally "solution.to_json" (fun () -> render_rows rows) in
    (rows, rendered, batch_s, since t0)
  in
  {
    rows;
    rendered;
    tally;
    compute_s = !compute_s;
    batch_s;
    execute_s = !execute_s;
    pass_s;
    counters;
  }

(* Per-call cost of the store on this workload's own keys and documents:
   digest every job, find every row's key in the traced pass's store,
   put every cacheable outcome into an empty one. Microseconds. *)
let store_probe ~store_dir ~scratch_dir jobs rows =
  let time_us f =
    let t0 = Clock.monotonic_ns () in
    ignore (Sys.opaque_identity (f ()));
    since t0 *. 1e6
  in
  let digest_us =
    List.filter_map
      (fun (job : Job.t) ->
        match (Service.resolve_circuit job.Job.circuit, config_of_job job) with
        | Ok circuit, Ok config ->
          Some
            (time_us (fun () ->
                 Store.digest ~optimizer:job.Job.optimizer ~config circuit))
        | _ -> None)
      jobs
  in
  let store = Store.open_ store_dir and scratch = Store.open_ scratch_dir in
  let keyed = List.filter (fun r -> r.Job.digest <> "") rows in
  let find_us = List.map (fun r -> time_us (fun () -> Store.find store r.Job.digest)) keyed in
  let put_us =
    List.filter_map
      (fun r ->
        Option.map
          (fun doc -> time_us (fun () -> Store.put scratch r.Job.digest doc))
          (Job.outcome_to_store_json r.Job.outcome))
      keyed
  in
  (digest_us, find_us, put_us)

let fleet_counters =
  [ "service.fleet.spawned"; "service.fleet.dispatched"; "service.fleet.requeued";
    "service.fleet.worker_lost"; "service.fleet.fallback" ]

(* The same jobs on a 2-worker fleet over its default unix-socket
   transport (spawn included in the time, shutdown not), from the same
   store state the traced pass started from; its rows must equal the
   in-process ones. *)
let fleet_batch ~binary ~store_dir jobs =
  counter_delta fleet_counters @@ fun () ->
  let t0 = Clock.monotonic_ns () in
  let fleet =
    Fleet.create
      (Fleet.options ~binary ~worker_args:[ "--store"; store_dir ] ~workers:2 ())
  in
  match Fleet.run_batch fleet ~store:(Store.open_ store_dir) jobs with
  | rows ->
    let s = since t0 in
    Fleet.shutdown fleet;
    (render_rows rows, s)
  | exception e ->
    Fleet.shutdown fleet;
    raise e
