module Flow = Dcopt_core.Flow
module Optimizer = Dcopt_core.Optimizer
module Scenario = Dcopt_core.Scenario
module Sdc = Dcopt_timing.Sdc
module Constraints = Dcopt_timing.Constraints
module Diag = Dcopt_util.Diag
module Par = Dcopt_par.Par
module Metrics = Dcopt_obs.Metrics
module Span = Dcopt_obs.Span
module Clock = Dcopt_util.Clock
module Events = Dcopt_obs.Events
module Json = Dcopt_util.Json

let jobs_c = Metrics.counter ~help:"Jobs submitted to the service" "service.jobs"
let solved_c = Metrics.counter ~help:"Jobs that found a design" "service.solved"

let infeasible_c =
  Metrics.counter ~help:"Jobs whose optimizer closed no timing" "service.infeasible"

let failed_c =
  Metrics.counter ~help:"Jobs that failed after all retries" "service.failed"

let retries_c =
  Metrics.counter ~help:"Re-attempts after a crash or timeout" "service.retries"

let cache_hits_c =
  Metrics.counter ~help:"Jobs answered from the result store or an identical \
                         sibling" "service.cache.hits"

let cache_misses_c =
  Metrics.counter ~help:"Jobs that had to compute" "service.cache.misses"

let queue_depth_g =
  Metrics.gauge ~help:"Distinct computations scheduled by the running batch"
    "service.queue_depth"

let in_flight_g =
  Metrics.gauge ~help:"Worker domains occupied by the running batch"
    "service.in_flight"

let latency_h =
  Metrics.histogram ~help:"Per-job compute seconds (all attempts)"
    "service.latency"

let attempts_h =
  Metrics.histogram ~help:"Attempts per computed job" "service.attempts"

let wall_ns_h =
  Metrics.histogram ~help:"Per-job compute wall-clock nanoseconds"
    "service.job.wall_ns"

let alloc_bytes_h =
  Metrics.histogram
    ~help:"Per-job bytes allocated on the computing domain's minor+major heap"
    "service.job.alloc_bytes"

(* Monotonic batch sequence for the correlation chain: every run_batch —
   including each single-job batch a serve loop runs — gets a fresh id
   that all its events carry. *)
let batch_seq = Atomic.make 0

exception Timed_out

(* Diagnostics as one row-sized line: every one, in order, each with
   its own location. *)
let diags_line diags = String.concat "; " (List.map Diag.to_string diags)

let resolve_circuit spec =
  if Sys.file_exists spec then
    Result.map_error diags_line
      (Dcopt_netlist.Bench_format.parse_file_checked spec)
  else Dcopt_suite.Suite.find spec

(* A job whose inputs all resolved: ready to digest and run. *)
type resolved = {
  optimizer : Optimizer.t;
  config : Flow.config;
  circuit : Dcopt_netlist.Circuit.t;
  constraints : Constraints.t option;
  corners : Scenario.corner list option;
  warnings : Diag.t list;  (** input warnings, logged and never in rows *)
  key : string;
  timeout_s : float option;
  retries : int;
}

let ( let* ) = Result.bind

let scenarios_schema_version = 1

(* The [scenarios] job field: both members optional, any resolution
   failure (unreadable/diagnosed SDC, bad corner entry) is a typed
   per-job error; a clean SDC file's warnings come back beside it. *)
let resolve_scenarios circuit = function
  | None -> Ok (None, [], None)
  | Some sc ->
    let* () =
      match Json.get_obj sc with
      | None -> Error "scenarios: must be an object"
      | Some members ->
        List.fold_left
          (fun acc (name, _) ->
            let* () = acc in
            match name with
            | "version" | "sdc" | "corners" -> Ok ()
            | other ->
              Error (Printf.sprintf "scenarios: unknown field %S" other))
          (Ok ()) members
    in
    let* () =
      match Json.field "version" sc with
      | Some v when Json.get_int v = Some scenarios_schema_version -> Ok ()
      | Some _ -> Error "scenarios: unsupported schema version"
      | None -> Error "scenarios: missing \"version\""
    in
    let* constraints, warnings =
      match Json.field "sdc" sc with
      | None -> Ok (None, [])
      | Some v -> (
        match Json.get_string v with
        | None -> Error "scenarios: \"sdc\" must be a file path"
        | Some path -> (
          match Sdc.parse_file_checked ~circuit path with
          | Ok (c, warnings) -> Ok (Some c, warnings)
          | Error diags -> Error ("sdc: " ^ diags_line diags)))
    in
    let* corners =
      match Json.field "corners" sc with
      | None -> Ok None
      | Some v -> (
        match Scenario.corners_of_json v with
        | Ok ks -> Ok (Some ks)
        | Error msg -> Error msg)
    in
    Ok (constraints, warnings, corners)

(* A canonical scenario rendering for the store key — present only for
   jobs that carry a [scenarios] field, so scenario-less digests (and
   every cached pre-scenario row) are unchanged. *)
let scenario_digest_string constraints corners =
  let c_part =
    match constraints with
    | None -> "-"
    | Some c -> Json.to_string (Constraints.to_json c)
  in
  let k_part =
    match corners with
    | None -> "-"
    | Some ks -> Scenario.corners_digest_string ks
  in
  "scenario\n" ^ c_part ^ "\n" ^ k_part

let resolve_job (job : Job.t) =
  let* circuit = resolve_circuit job.Job.circuit in
  let* optimizer =
    match Optimizer.find job.Job.optimizer with
    | Some o -> Ok o
    | None ->
      Error
        (Printf.sprintf "unknown optimizer %S (known: %s)" job.Job.optimizer
           (String.concat ", " (Optimizer.names ())))
  in
  let* config =
    match job.Job.config with
    | None -> Ok Flow.default_config
    | Some overrides -> Flow.config_of_json overrides
  in
  let* constraints, warnings, corners =
    resolve_scenarios circuit job.Job.scenarios
  in
  let scenario =
    match job.Job.scenarios with
    | None -> None
    | Some _ -> Some (scenario_digest_string constraints corners)
  in
  let key =
    Store.digest ?scenario ~optimizer:optimizer.Optimizer.name ~config circuit
  in
  Ok
    {
      optimizer;
      config;
      circuit;
      constraints;
      corners;
      warnings;
      key;
      timeout_s = job.Job.timeout_s;
      retries = job.Job.retries;
    }

(* Store/checkpoint entries share one value format (Job); a document
   that exists but decodes to no outcome is a corrupt entry: a counted
   miss, never a crash. *)
let outcome_of_store doc =
  match Job.outcome_of_store_json doc with
  | Some _ as r -> r
  | None ->
    Store.note_corrupt ();
    None

type computed = {
  comp_outcome : Job.outcome;
  comp_attempts : int;
  comp_latency_s : float;
  comp_wall_ns : int64;
  comp_alloc_bytes : float;
}

let outcome_status = function
  | Job.Solved _ -> "solved"
  | Job.Infeasible -> "infeasible"
  | Job.Failed _ -> "failed"

(* One computation, fully isolated: any exception out of prepare or the
   optimizer — including the cooperative [Timed_out] the injected
   observer raises past the deadline — is retried up to [retries] times
   and then recorded as [Failed]. Runs on a pool worker, so it touches
   only counters (atomic), spans (per-domain) and events (mutexed sink) —
   never gauges/histograms; wall time and allocation are measured here
   and folded into histograms after the pool barrier, on the main domain.
   The deadline and the wall time are elapsed times, so they read the
   monotonic clock: a wall-clock step mid-job moves neither.
   [Gc.allocated_bytes] is per-domain and a task never migrates, so the
   delta is this job's allocation (plus any event/span bookkeeping, which
   is noise at job scale). *)
let compute r =
  let t0 = Clock.monotonic_ns () in
  let alloc0 = Gc.allocated_bytes () in
  Events.info "job.start"
    ~fields:
      [
        ("optimizer", Json.String r.optimizer.Optimizer.name);
        ("digest", Json.String r.key);
      ];
  let attempts_allowed = r.retries + 1 in
  let rec go attempt =
    let deadline =
      match r.timeout_s with
      | None -> Int64.max_int
      | Some s -> Int64.add (Clock.monotonic_ns ()) (Int64.of_float (s *. 1e9))
    in
    let observer _it =
      if Int64.compare (Clock.monotonic_ns ()) deadline > 0 then
        raise Timed_out
    in
    match
      let p = Flow.prepare ~config:r.config ?constraints:r.constraints
          r.circuit in
      let s =
        match r.corners with
        | None -> Scenario.of_prepared p
        | Some corners -> Scenario.make ~corners p
      in
      r.optimizer.Optimizer.run ~observer s
    with
    | Some sol -> (Job.Solved sol, attempt)
    | None -> (Job.Infeasible, attempt)
    | exception e ->
      let error =
        match e with
        | Timed_out ->
          Printf.sprintf "timed out after %gs"
            (match r.timeout_s with Some s -> s | None -> 0.0)
        | e -> Printexc.to_string e
      in
      if attempt < attempts_allowed then begin
        Metrics.incr retries_c;
        Events.warn "job.retry"
          ~fields:
            [ ("attempt", Json.Int attempt); ("error", Json.String error) ];
        go (attempt + 1)
      end
      else (Job.Failed { error; attempts = attempt }, attempt)
  in
  let outcome, attempts =
    Span.with_ "service.job"
      ~args:[ ("optimizer", r.optimizer.Optimizer.name); ("digest", r.key) ]
      (fun () -> go 1)
  in
  let wall_ns = Int64.sub (Clock.monotonic_ns ()) t0 in
  let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
  (match outcome with
  | Job.Failed { error; _ } ->
    Events.error "job.failed"
      ~fields:
        [ ("attempts", Json.Int attempts); ("error", Json.String error) ]
  | Job.Solved _ | Job.Infeasible ->
    Events.info "job.done"
      ~fields:
        [
          ("status", Json.String (outcome_status outcome));
          ("attempts", Json.Int attempts);
          ("wall_ns", Json.Int (Int64.to_int wall_ns));
          ("alloc_bytes", Json.Float alloc_bytes);
        ]);
  {
    comp_outcome = outcome;
    comp_attempts = attempts;
    comp_latency_s = Clock.ns_to_s wall_ns;
    comp_wall_ns = wall_ns;
    comp_alloc_bytes = alloc_bytes;
  }

let cacheable = function
  | Job.Solved _ | Job.Infeasible -> true
  | Job.Failed _ -> false

(* One distinct computation of a batch: the first occurrence of its
   digest, carrying that occurrence's job_id as its event-log identity.
   Executors receive these opaquely — enough to run the job locally
   ([compute_task]) or to ship it to a worker process ([task_job]) and
   match the answer back up ([task_digest]). *)
type task = { task_id : string; task_job : Job.t; task_res : resolved }

let task_id t = t.task_id
let task_digest t = t.task_res.key

let task_job t =
  (* ship the first occurrence's identity with the spec, so a worker
     process joins the coordinator's correlation chain under the same
     job_id that the coordinator's rows and events use *)
  { t.task_job with Job.id = Some t.task_id }

let compute_task ~batch_id t =
  Events.with_scope ~batch_id ~job_id:t.task_id @@ fun () ->
  compute t.task_res

let fresh_batch_id () = 1 + Atomic.fetch_and_add batch_seq 1

(* A job's row and event-log identity: its own id, else its batch index. *)
let job_id_at i (job : Job.t) =
  match job.Job.id with Some id -> id | None -> Printf.sprintf "job%d" i

(* The batch pipeline with the compute step abstracted out: resolution,
   dedup, store/checkpoint lookups, bookkeeping and row assembly all
   happen here (on the calling domain), and [execute] turns the deduped
   task array into one [computed] per task — by any means. The default
   executor is the in-process domain pool; the fleet executor ships
   tasks to worker processes. Rows depend only on what [execute]
   returns, never on how it scheduled — the byte-identity invariant
   across [--jobs]/[--workers] paths lives here. *)
let run_batch_via ?store ?checkpoint ?batch_id ~execute jobs =
  Span.with_ "service.batch" @@ fun () ->
  let batch_id =
    match batch_id with Some id -> id | None -> fresh_batch_id ()
  in
  Events.with_scope ~batch_id @@ fun () ->
  let jobs = Array.of_list jobs in
  Metrics.incr ~by:(Array.length jobs) jobs_c;
  Events.info "batch.start"
    ~fields:[ ("jobs", Json.Int (Array.length jobs)) ];
  let resolved = Array.map resolve_job jobs in
  let job_id_at i = job_id_at i jobs.(i) in
  Array.iteri
    (fun i r ->
      match r with
      | Ok r when r.warnings <> [] ->
        Events.with_scope ~job_id:(job_id_at i) (fun () ->
            List.iter
              (fun d ->
                Events.warn "job.warning"
                  ~fields:
                    [
                      ("code", Json.String d.Diag.code);
                      ("diagnostic", Json.String (Diag.to_string d));
                    ])
              r.warnings)
      | _ -> ())
    resolved;
  (* first-occurrence order of each distinct digest; later identical
     jobs reuse the first one's outcome, so cache_hit flags and results
     never depend on scheduling. Each unique computation carries the
     job_id of its first occurrence as its event-log identity. *)
  let first_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let unique = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Ok r when not (Hashtbl.mem first_index r.key) ->
        Hashtbl.add first_index r.key i;
        unique :=
          { task_id = job_id_at i; task_job = jobs.(i); task_res = r }
          :: !unique
      | _ -> ())
    resolved;
  let unique = List.rev !unique in
  (* store lookups happen on the main domain, before scheduling *)
  let from_store : (string, Job.outcome) Hashtbl.t = Hashtbl.create 16 in
  (match store with
  | None -> ()
  | Some st ->
    List.iter
      (fun t ->
        let r = t.task_res in
        match Option.bind (Store.find st r.key) outcome_of_store with
        | Some outcome ->
          Hashtbl.add from_store r.key outcome;
          Events.with_scope ~job_id:t.task_id (fun () ->
              Events.info "job.store_hit"
                ~fields:[ ("digest", Json.String r.key) ])
        | None -> ())
      unique);
  (* Checkpoint hits replace the computation but keep [cache_hit = false]
     — the resumed batch must be byte-identical to the uninterrupted one,
     which computed these rows cold. *)
  let from_ckpt : (string, Job.outcome) Hashtbl.t = Hashtbl.create 16 in
  (match checkpoint with
  | None -> ()
  | Some ck ->
    List.iter
      (fun t ->
        let r = t.task_res in
        if not (Hashtbl.mem from_store r.key) then
          match Checkpoint.find ck r.key with
          | Some outcome ->
            Hashtbl.add from_ckpt r.key outcome;
            Events.with_scope ~job_id:t.task_id (fun () ->
                Events.info "job.checkpoint_hit"
                  ~fields:[ ("digest", Json.String r.key) ]);
            (* a resumed outcome is as good as a computed one: persist it
               to the warm store too *)
            (match store with
            | Some st -> (
              match Job.outcome_to_store_json outcome with
              | Some doc -> Store.put st r.key doc
              | None -> ())
            | None -> ())
          | None -> ())
      unique);
  let to_compute =
    Array.of_list
      (List.filter
         (fun t ->
           let key = t.task_res.key in
           not (Hashtbl.mem from_store key || Hashtbl.mem from_ckpt key))
         unique)
  in
  Metrics.set queue_depth_g (float_of_int (Array.length to_compute));
  let computed = execute ~batch_id to_compute in
  if Array.length computed <> Array.length to_compute then
    invalid_arg
      (Printf.sprintf "Service executor returned %d results for %d tasks"
         (Array.length computed) (Array.length to_compute));
  Metrics.set queue_depth_g 0.0;
  Metrics.set in_flight_g 0.0;
  (* post-batch bookkeeping, main domain only: histograms, store writes *)
  let by_key : (string, computed) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key outcome ->
      (* seeded as zero-cost computations: no latency/attempts samples
         (nothing ran), and the row path below reports them cache-cold *)
      Hashtbl.replace by_key key
        {
          comp_outcome = outcome;
          comp_attempts = 0;
          comp_latency_s = 0.0;
          comp_wall_ns = 0L;
          comp_alloc_bytes = 0.0;
        })
    from_ckpt;
  Array.iteri
    (fun i c ->
      Metrics.observe latency_h c.comp_latency_s;
      Metrics.observe attempts_h (float_of_int c.comp_attempts);
      Metrics.observe wall_ns_h (Int64.to_float c.comp_wall_ns);
      Metrics.observe alloc_bytes_h c.comp_alloc_bytes;
      (match store with
      | Some st -> (
        match Job.outcome_to_store_json c.comp_outcome with
        | Some doc -> Store.put st to_compute.(i).task_res.key doc
        | None -> ())
      | None -> ());
      Hashtbl.replace by_key to_compute.(i).task_res.key c)
    computed;
  (* emit rows in job order *)
  let rows =
  List.mapi
    (fun i (job : Job.t) ->
      let job_id = job_id_at i in
      let digest, cache_hit, outcome =
        match resolved.(i) with
        | Error msg -> ("", false, Job.Failed { error = msg; attempts = 0 })
        | Ok r -> (
          match Hashtbl.find_opt from_store r.key with
          | Some outcome -> (r.key, true, outcome)
          | None ->
            let c = Hashtbl.find by_key r.key in
            let duplicate = Hashtbl.find first_index r.key <> i in
            (r.key, duplicate && cacheable c.comp_outcome, c.comp_outcome))
      in
      Metrics.incr (if cache_hit then cache_hits_c else cache_misses_c);
      Metrics.incr
        (match outcome with
        | Job.Solved _ -> solved_c
        | Job.Infeasible -> infeasible_c
        | Job.Failed _ -> failed_c);
      Job.row ~job ~job_id ~digest ~cache_hit outcome)
    (Array.to_list jobs)
  in
  Events.info "batch.done"
    ~fields:
      [
        ("rows", Json.Int (List.length rows));
        ("computed", Json.Int (Array.length computed));
        ("store_hits", Json.Int (Hashtbl.length from_store));
        ("checkpoint_hits", Json.Int (Hashtbl.length from_ckpt));
      ];
  rows

(* The default executor: the in-process domain pool. *)
let in_process_execute ?checkpoint ~batch_id tasks =
  Metrics.set in_flight_g
    (float_of_int (min (Par.jobs ()) (Array.length tasks)));
  Par.map ~site:"service"
    (fun t ->
      (* worker-side: the enclosing batch scope is domain-local, so the
         chain is re-established inside the task closure *)
      let c = compute_task ~batch_id t in
      (* the moment the job completes: a kill between here and the pool
         barrier loses nothing already paid for *)
      (match checkpoint with
      | Some ck -> Checkpoint.record ck t.task_res.key c.comp_outcome
      | None -> ());
      c)
    tasks

let run_batch ?store ?checkpoint ?batch_id jobs =
  run_batch_via ?store ?checkpoint ?batch_id
    ~execute:(in_process_execute ?checkpoint)
    jobs

(* A fleet worker's step: compute the one job its coordinator assigned,
   under the coordinator's batch id, and nothing else. Dedup, the store,
   the checkpoint, the batch counters and events, the job's warnings and
   the row the batch prints all stay with the coordinator. The row
   carries the digest this process resolved the spec to, so the
   coordinator can refuse a result computed over other inputs (a worker
   reads the job's files itself; only the spec travels). *)
let run_assigned ~batch_id (job : Job.t) =
  let job_id = job_id_at 0 job in
  match resolve_job job with
  | Error msg ->
    Job.row ~job ~job_id (Job.Failed { error = msg; attempts = 0 })
  | Ok r ->
    let c =
      compute_task ~batch_id { task_id = job_id; task_job = job; task_res = r }
    in
    Job.row ~job ~job_id ~digest:r.key c.comp_outcome

(* The rows of a batch that are already answerable without computing
   anything: resolution failures, store hits, checkpoint hits. This is
   the signal-handler path — an interrupted [minpower batch --checkpoint]
   emits these as its partial result, in job order, silently skipping
   jobs whose outcome is not on disk yet. Flags match [run_batch]: a
   store hit reads as a cache hit, a checkpoint hit as a cold compute.
   Deliberately touches no batch counters/gauges — only the checkpoint
   and store read-side counters fire. *)
let partial_rows ?store ?checkpoint jobs =
  List.filter_map Fun.id
    (List.mapi
       (fun i (job : Job.t) ->
         let row ?digest ?cache_hit outcome =
           Some
             (Job.row ~job ~job_id:(job_id_at i job) ?digest ?cache_hit
                outcome)
         in
         match resolve_job job with
         | Error msg -> row (Job.Failed { error = msg; attempts = 0 })
         | Ok r -> (
           let from_store =
             match store with
             | Some st -> Option.bind (Store.find st r.key) outcome_of_store
             | None -> None
           in
           match from_store with
           | Some outcome -> row ~digest:r.key ~cache_hit:true outcome
           | None -> (
             match Option.bind checkpoint (fun ck -> Checkpoint.find ck r.key) with
             | Some outcome -> row ~digest:r.key outcome
             | None -> None)))
       jobs)

let failed_line_row ~line_no error =
  Job.row ~job_id:(Printf.sprintf "line%d" line_no)
    (Job.Failed { error; attempts = 0 })

(* Control requests ride the job protocol as bare words (a job line is
   always a JSON object, so the streams cannot collide):

     metrics  → OpenMetrics text; its own "# EOF" line is the framing,
                so a client reads until that marker
     status   → one JSON line with the service counters and gauges

   Both answer from the live registry mid-session, so a client watching
   a long serve process can poll between (or while queueing) jobs. *)
let serve_status_json () =
  Json.Obj
    [
      ("status", Json.String "ok");
      ("jobs", Json.Int (Metrics.value jobs_c));
      ("solved", Json.Int (Metrics.value solved_c));
      ("infeasible", Json.Int (Metrics.value infeasible_c));
      ("failed", Json.Int (Metrics.value failed_c));
      ("retries", Json.Int (Metrics.value retries_c));
      ("cache_hits", Json.Int (Metrics.value cache_hits_c));
      ("cache_misses", Json.Int (Metrics.value cache_misses_c));
      ("queue_depth", Json.Float (Metrics.gauge_value queue_depth_g));
      ("in_flight", Json.Float (Metrics.gauge_value in_flight_g));
    ]

let serve ?store ?run ic oc =
  let run_jobs =
    match run with Some f -> f | None -> fun jobs -> run_batch ?store jobs
  in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       let trimmed = String.trim line in
       if trimmed <> "" then
         if trimmed.[0] <> '{' then begin
           (* bare word: a control request *)
           (match trimmed with
           | "metrics" -> output_string oc (Metrics.render_openmetrics ())
           | "status" ->
             output_string oc (Json.to_string (serve_status_json ()));
             output_char oc '\n'
           | other ->
             let row =
               failed_line_row ~line_no:!line_no
                 (Printf.sprintf
                    "unknown control request %S (known: metrics, status)"
                    other)
             in
             output_string oc (Json.to_string (Job.row_to_json row));
             output_char oc '\n');
           flush oc
         end
         else begin
           (* Any one bad line — unparsable JSON, a shape-invalid job, or
              an exception escaping the runner — answers as a failed row
              for that line and the session continues: a client can never
              take the serve loop down with a malformed frame. *)
           let rows =
             match Json.of_string line with
             | Error msg -> [ failed_line_row ~line_no:!line_no msg ]
             | Ok json -> (
               match Job.of_json json with
               | Error msg -> [ failed_line_row ~line_no:!line_no msg ]
               | Ok job -> (
                 try run_jobs [ job ]
                 with e ->
                   [
                     failed_line_row ~line_no:!line_no
                       ("internal error: " ^ Printexc.to_string e);
                   ]))
           in
           List.iter
             (fun row ->
               output_string oc (Json.to_string (Job.row_to_json row));
               output_char oc '\n')
             rows;
           flush oc
         end
     done
   with End_of_file -> ());
  flush oc

let serve_unix_socket ?store ?run path =
  let sock =
    match Wire.listen (Wire.Unix_path path) with
    | Ok fd -> fd
    | Error msg -> failwith msg
  in
  Logs.app (fun m -> m "serving on unix socket %s" path);
  while true do
    let fd, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (* a dropped or misbehaving client ends its own session only; the
       accept loop survives anything a connection throws at it *)
    (try serve ?store ?run ic oc
     with Sys_error _ | Unix.Unix_error _ | End_of_file -> ());
    (* closing the out channel flushes and closes the shared fd *)
    close_out_noerr oc
  done
