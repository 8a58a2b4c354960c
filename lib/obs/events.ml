module Clock = Dcopt_util.Clock
module Json = Dcopt_util.Json

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* One process-global sink. Events come from any domain (pool workers
   emit inside batch tasks), so the channel write is mutex-protected and
   each event is flushed as one whole line — a crashed process leaves a
   valid JSONL prefix, and lines from different domains never shear. *)
type sink = { chan : out_channel; min_level : level }

let sink_mutex = Mutex.create ()
let current : sink option ref = ref None

let close () =
  Mutex.lock sink_mutex;
  (match !current with
  | Some s ->
    (try flush s.chan with Sys_error _ -> ());
    close_out_noerr s.chan;
    current := None
  | None -> ());
  Mutex.unlock sink_mutex

let open_file ?(min_level = Info) path =
  close ();
  let chan =
    open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
  in
  Mutex.lock sink_mutex;
  current := Some { chan; min_level };
  Mutex.unlock sink_mutex

let active level =
  match !current with
  | None -> false
  | Some s -> level_rank level >= level_rank s.min_level

(* Correlation scope. Domain-local so a pool worker task can carry the
   batch/job identity of the work it is running without racing other
   workers; [with_scope] layers onto the enclosing scope (unset fields
   inherit), so [run_id] set at process level survives into per-job
   scopes set inside worker closures. *)
type scope = {
  run_id : string option;
  batch_id : int option;
  worker_id : string option;
  job_id : string option;
}

let empty_scope =
  { run_id = None; batch_id = None; worker_id = None; job_id = None }

let scope_key = Domain.DLS.new_key (fun () -> empty_scope)

(* The run id is one per process (set at CLI startup, before the pool
   exists), so it lives outside the domain-local scopes: every domain
   inherits it without threading it through each task closure. A scoped
   run_id still overrides it. The worker id works the same way: a fleet
   worker process is one worker for its whole life, so [minpower worker]
   sets it once and every event the process emits carries it. *)
let global_run_id = ref None
let set_run_id id = global_run_id := Some id
let global_worker_id = ref None
let set_worker_id id = global_worker_id := Some id

let with_scope ?run_id ?batch_id ?worker_id ?job_id fn =
  let outer = Domain.DLS.get scope_key in
  let merged =
    {
      run_id = (match run_id with Some _ -> run_id | None -> outer.run_id);
      batch_id =
        (match batch_id with Some _ -> batch_id | None -> outer.batch_id);
      worker_id =
        (match worker_id with Some _ -> worker_id | None -> outer.worker_id);
      job_id = (match job_id with Some _ -> job_id | None -> outer.job_id);
    }
  in
  Domain.DLS.set scope_key merged;
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key outer) fn

let current_scope () =
  let s = Domain.DLS.get scope_key in
  let run_id =
    match s.run_id with Some _ -> s.run_id | None -> !global_run_id
  in
  (run_id, s.batch_id, s.job_id)

let emit ?(fields = []) level event =
  match !current with
  | None -> ()
  | Some s when level_rank level < level_rank s.min_level -> ()
  | Some s ->
    let scope = Domain.DLS.get scope_key in
    let run_id =
      match scope.run_id with Some _ -> scope.run_id | None -> !global_run_id
    in
    let worker_id =
      match scope.worker_id with
      | Some _ -> scope.worker_id
      | None -> !global_worker_id
    in
    let opt k v f = match v with Some x -> [ (k, f x) ] | None -> [] in
    let line =
      Json.Obj
        (("ts_ns", Json.Int (Int64.to_int (Clock.now_ns ())))
        :: ("level", Json.String (level_to_string level))
        :: ("event", Json.String event)
        :: (opt "run_id" run_id (fun x -> Json.String x)
           @ opt "batch_id" scope.batch_id (fun x -> Json.Int x)
           @ opt "worker_id" worker_id (fun x -> Json.String x)
           @ opt "job_id" scope.job_id (fun x -> Json.String x)
           @ fields))
    in
    let rendered = Json.to_string line in
    Mutex.lock sink_mutex;
    (* re-check under the lock: close () may have raced the emit *)
    (match !current with
    | Some s' when s' == s ->
      (try
         output_string s.chan rendered;
         output_char s.chan '\n';
         flush s.chan
       with Sys_error _ -> ())
    | _ -> ());
    Mutex.unlock sink_mutex

let debug ?fields event = emit ?fields Debug event
let info ?fields event = emit ?fields Info event
let warn ?fields event = emit ?fields Warn event
let error ?fields event = emit ?fields Error event
