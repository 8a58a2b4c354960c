(* End-to-end smoke for the multi-process fleet: the same 64-job batch
   through the in-process path, a 1-worker fleet, a 4-worker fleet, and
   a 3-worker fleet where one worker SIGKILLs itself mid-batch (the
   fault plan "w1/worker.result@2:kill" makes the crash deterministic:
   the worker.result seam fires after the job is fully computed and
   before the result frame is sent — the harshest loss the coordinator
   can take). Every run must produce byte-identical
   result rows, and the crash run must show the recovery machinery
   firing in its OpenMetrics exposition.

   Then what a worker may not do. It computes and nothing else: a
   2-worker batch logs one batch.start and one batch.done, and store
   faults armed for the workers never fire, because only the
   coordinator touches the store. And a result is accepted only for
   the job the coordinator resolved: an external worker that joins from
   a directory where the job's netlist is another circuit is refused,
   and neither the rows nor the store see its answers.

   And a worker process ends with its session: its worker.exit event
   follows the end of its batch, or its refusal, within a quarter of a
   second, not after the rest of a heartbeat interval.

   argv.(1) is the minpower binary (the dune rule passes
   %{exe:../bin/minpower.exe}). *)

(* absolute, because the external worker runs from another directory *)
let minpower =
  let p = Sys.argv.(1) in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

(* the ts_ns field of an event line *)
let ts_ns line =
  let key = "\"ts_ns\":" in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then fail "no ts_ns in %s" line
    else if String.sub line i n = key then i + n
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9'
  do incr stop done;
  int_of_string (String.sub line start (!stop - start))

let is_event name = contains ~needle:(Printf.sprintf "\"event\":%S" name)

(* Every worker.exit in [lines] comes within 0.25 s of the first [since]
   event, and there is at least one. *)
let check_exit_follows ~what ~since lines =
  let start =
    match List.find_opt (is_event since) lines with
    | Some line -> ts_ns line
    | None -> fail "%s logged no %s event" what since
  in
  match List.filter (is_event "worker.exit") lines with
  | [] -> fail "%s logged no worker.exit event" what
  | exits ->
    List.iter
      (fun line ->
        let gap_s = float_of_int (ts_ns line - start) *. 1e-9 in
        if gap_s > 0.25 then
          fail "%s: worker.exit came %.3f s after %s: %s" what gap_s since
            line)
      exits

let clean_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let jobs_path = "fleet_smoke_jobs.jsonl"

(* 64 jobs: 56 distinct operating points plus 8 repeats, so the fleet
   path is exercised against within-batch dedup too (duplicates must
   read as cache hits whatever worker computed the first occurrence) *)
let write_jobs () =
  let oc = open_out jobs_path in
  for i = 0 to 63 do
    let fc = 150 + (i mod 56) in
    Printf.fprintf oc
      "{\"id\":\"j%02d\",\"circuit\":\"s27\",\"optimizer\":\"%s\",\"config\":{\"clock_frequency\":%de6}}\n"
      i
      (if i mod 3 = 0 then "baseline" else "joint")
      fc
  done;
  close_out oc

let spawn_batch ~tag ~jobs extra =
  let out_path = Printf.sprintf "fleet_smoke_%s.out" tag in
  let out_fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list (minpower :: "batch" :: jobs :: extra) in
  let pid = Unix.create_process minpower argv Unix.stdin out_fd Unix.stderr in
  Unix.close out_fd;
  (pid, out_path)

(* wait for a batch; its stdout must hold result rows and nothing else *)
let batch_rows ~tag (pid, out_path) =
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "batch %s exited %d" tag n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "batch %s got signal %d" tag n);
  let lines = read_lines out_path in
  List.iter
    (fun line ->
      if String.length line = 0 || line.[0] <> '{' then
        fail "batch %s printed a line that is not a row: %S" tag line)
    lines;
  lines

(* run `minpower batch` with extra args; return its rows *)
let run_batch ?(jobs = jobs_path) ~tag extra =
  batch_rows ~tag (spawn_batch ~tag ~jobs extra)

(* the value of a `name value` sample line *)
let metric_value om_path name =
  let prefix = name ^ " " in
  match
    List.find_opt
      (fun line ->
        String.length line > String.length prefix
        && String.sub line 0 (String.length prefix) = prefix)
      (read_lines om_path)
  with
  | Some line ->
    float_of_string
      (String.sub line (String.length prefix)
         (String.length line - String.length prefix))
  | None -> fail "%s has no sample %s" om_path name

let check_identical ~tag a b =
  if List.length a <> List.length b then
    fail "%s: %d rows vs %d" tag (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      if x <> y then fail "%s: row %d differs:\n  %s\n  %s" tag i x y)
    (List.combine a b)

(* A worker only computes: one batch's events, whoever computed its
   jobs, and no store access outside the coordinator. Store faults armed
   for both workers must therefore never fire. *)
let compute_only_drill ~baseline =
  let events = "fleet_smoke_compute_only.events.jsonl" in
  let store = "fleet_smoke_compute_only_store" in
  if Sys.file_exists events then Sys.remove events;
  clean_dir store;
  let rows =
    run_batch ~tag:"compute_only"
      [
        "--workers"; "2"; "--store"; store; "--events"; events;
        "--fault-plan";
        "w0/store.find@*:eio;w0/store.put@*:enospc;w1/store.find@*:eio;\
         w1/store.put@*:enospc";
      ]
  in
  check_identical ~tag:"in-process vs compute-only fleet" baseline rows;
  let ev = read_lines events in
  let count name = List.length (List.filter (is_event name) ev) in
  if count "batch.start" <> 1 || count "batch.done" <> 1 then
    fail "a 2-worker batch logged %d batch.start and %d batch.done events"
      (count "batch.start") (count "batch.done");
  check_exit_follows ~what:"the 2-worker batch" ~since:"batch.done" ev;
  List.iter
    (fun line ->
      if contains ~needle:"\"event\":\"fault.fired\"" line
         && contains ~needle:"\"worker_id\"" line
      then fail "a worker touched the store: %s" line)
    ev

let generate ~seed path =
  let pid =
    Unix.create_process minpower
      [| minpower; "generate"; "--gates"; "300"; "--seed"; string_of_int seed;
         "-o"; path |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "generate --seed %d failed" seed

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_substring b s i (String.length s - i)
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* An external worker joins from a directory whose c.bench is another
   circuit, so it resolves the same spec to other inputs. Every result
   it sends names another digest: the coordinator counts it lost (twice,
   then quarantines it), requeues its jobs, and the rows — and what the
   store then serves — are the in-process ones. The spawned worker's
   results are slowed so the external one gets jobs to answer. Once
   quarantined, the worker's next hello is refused with the reason, and
   it stops there: it exits 1 without spending another reconnect. *)
let external_worker_drill () =
  let jobs = "fleet_smoke_ext_jobs.jsonl" in
  let ext_dir = "fleet_smoke_ext" in
  let store = "fleet_smoke_ext_store" in
  let events = "fleet_smoke_ext.events.jsonl" in
  (* relative to ext_dir, where the worker runs *)
  let ext_events = "ext.events.jsonl" in
  if not (Sys.file_exists ext_dir) then Sys.mkdir ext_dir 0o755;
  let ext_events_path = Filename.concat ext_dir ext_events in
  if Sys.file_exists ext_events_path then Sys.remove ext_events_path;
  generate ~seed:1 "c.bench";
  generate ~seed:2 (Filename.concat ext_dir "c.bench");
  let oc = open_out jobs in
  for i = 0 to 9 do
    Printf.fprintf oc
      "{\"id\":\"x%d\",\"circuit\":\"c.bench\",\"optimizer\":\"%s\",\"config\":{\"clock_frequency\":%de6,\"m_steps\":8}}\n"
      i
      (if i mod 2 = 0 then "baseline" else "joint")
      (100 + i)
  done;
  close_out oc;
  let reference = run_batch ~jobs ~tag:"ext_inproc" [] in
  clean_dir store;
  if Sys.file_exists events then Sys.remove events;
  let sock =
    let name = Printf.sprintf "fleet-smoke-%d.sock" (Unix.getpid ()) in
    let path = Filename.concat (Filename.get_temp_dir_name ()) name in
    if String.length path < 100 then path else Filename.concat "/tmp" name
  in
  let coordinator =
    spawn_batch ~tag:"ext_fleet" ~jobs
      [
        "--workers"; "1"; "--listen"; sock; "--store"; store; "--events";
        events; "--fault-plan"; "w0/wire.send.result@*:delay=0.5";
      ]
  in
  let rec await_socket n =
    if not (Sys.file_exists sock) then
      if n = 0 then fail "the coordinator never bound %s" sock
      else begin
        Unix.sleepf 0.05;
        await_socket (n - 1)
      end
  in
  await_socket 200;
  Sys.chdir ext_dir;
  let ext =
    Unix.create_process minpower
      [| minpower; "worker"; "--connect"; sock; "--worker-id"; "ext";
         "--reconnect"; "3"; "--events"; ext_events |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  Sys.chdir Filename.parent_dir_name;
  let rows = batch_rows ~tag:"ext_fleet" coordinator in
  (match Unix.waitpid [] ext with
  | _, Unix.WEXITED 1 -> ()
  | _, Unix.WEXITED n -> fail "ext exited %d after its refusal, want 1" n
  | _ -> fail "ext was killed by a signal");
  (* the refusal names the quarantine, and ext dials no more after it *)
  let rec after_refusal = function
    | [] -> fail "ext logged no worker.refused event naming the quarantine"
    | line :: rest ->
      if
        contains ~needle:"\"event\":\"worker.refused\"" line
        && contains ~needle:"quarantined" line
      then rest
      else after_refusal rest
  in
  let ext_lines = read_lines ext_events_path in
  List.iter
    (fun line ->
      if contains ~needle:"\"event\":\"worker.reconnect\"" line then
        fail "ext reconnected after it was refused: %s" line)
    (after_refusal ext_lines);
  check_exit_follows ~what:"ext" ~since:"worker.refused" ext_lines;
  check_identical ~tag:"in-process vs fleet with a foreign worker" reference
    rows;
  let digests =
    List.map
      (fun row ->
        let key = "\"digest\":\"" in
        let rec find i =
          if String.sub row i (String.length key) = key then
            i + String.length key
          else find (i + 1)
        in
        let start = find 0 in
        String.sub row start (String.index_from row start '"' - start))
      reference
  in
  if
    not
      (List.exists
         (fun line ->
           contains ~needle:"\"event\":\"fleet.worker_lost\"" line
           && contains ~needle:"\"worker_id\":\"ext\"" line
           && List.exists (fun d -> contains ~needle:d line) digests)
         (read_lines events))
  then fail "no fleet.worker_lost event for ext names the job's digest";
  let replay =
    run_batch ~jobs ~tag:"ext_replay" [ "--store"; store; "--require-cached" ]
  in
  check_identical ~tag:"in-process vs the fleet's stored results" reference
    (List.map
       (replace_all ~sub:"\"cache_hit\":true" ~by:"\"cache_hit\":false")
       replay)

let () =
  ignore (Unix.alarm 300);
  write_jobs ();
  let baseline = run_batch ~tag:"inproc" [] in
  if List.length baseline <> 64 then
    fail "expected 64 rows, got %d" (List.length baseline);
  let w1 = run_batch ~tag:"w1" [ "--workers"; "1" ] in
  check_identical ~tag:"in-process vs 1 worker" baseline w1;
  let w4 = run_batch ~tag:"w4" [ "--workers"; "4" ] in
  check_identical ~tag:"in-process vs 4 workers" baseline w4;
  (* crash drill: worker w1 of 3 kills itself -9 in place of delivering
     its 2nd result; the coordinator must requeue its in-flight jobs
     onto the survivors and still produce the identical batch *)
  let om = "fleet_smoke_chaos.om" in
  let chaos =
    run_batch ~tag:"chaos"
      [
        "--workers"; "3"; "--fault-plan"; "w1/worker.result@2:kill";
        "--open-metrics"; om;
      ]
  in
  check_identical ~tag:"in-process vs crashed fleet" baseline chaos;
  (* w1 is respawned mid-batch under the same id and inherits the plan,
     which kills the replacement too (a fresh process, fresh occurrence
     count), so the exact loss/spawn totals depend on scheduling: at
     least one loss, at least the initial 3 spawns, and never more
     deaths than the quarantine budget (2) allows for w1 *)
  let lost = metric_value om "service_fleet_worker_lost_total" in
  if lost < 1.0 || lost > 2.0 then
    fail "expected 1..2 worker losses, saw %g" lost;
  if metric_value om "service_fleet_spawned_total" < 3.0 then
    fail "expected at least 3 spawns";
  (* the un-delivered job was in flight when the worker died, so at
     least one requeue is guaranteed *)
  if metric_value om "service_fleet_requeued_total" < 1.0 then
    fail "worker loss did not requeue anything";
  compute_only_drill ~baseline;
  external_worker_drill ();
  print_endline
    "fleet smoke: 64-job rows byte-identical across in-process, 1-worker, \
     4-worker and SIGKILL-crashed 3-worker runs; loss and requeue \
     counters fired; workers log no batch and touch no store; a foreign \
     worker's results were refused; workers exit with their session"
