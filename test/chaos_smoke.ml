(* Chaos matrix for the fault-injection layer: drive the real minpower
   binary through a set of deterministic fault plans — frame drops,
   corruption, truncation, worker exits and stalls, store ENOSPC/EIO,
   clock jumps — over unix and TCP fleets, cold and warm stores, 1 to 4
   workers. Under EVERY plan the batch must complete with JSONL rows
   byte-identical to the fault-free in-process run, and the recovery
   machinery (loss, requeue, quarantine, fallback) must be visible in
   the OpenMetrics exposition and the event log.

   argv.(1) is the minpower binary (the dune rule passes
   %{exe:../bin/minpower.exe}). *)

let minpower = Sys.argv.(1)

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

let jobs_path = "chaos_smoke_jobs.jsonl"

(* 24 distinct jobs: enough to keep a 4-worker fleet busy past several
   injected failures, all distinct so fallback/requeue counters have a
   predictable ceiling *)
let write_jobs () =
  let oc = open_out jobs_path in
  for i = 0 to 23 do
    Printf.fprintf oc
      "{\"id\":\"c%02d\",\"circuit\":\"s27\",\"optimizer\":\"%s\",\"config\":{\"clock_frequency\":%de6}}\n"
      i
      (if i mod 3 = 0 then "baseline" else "joint")
      (150 + i)
  done;
  close_out oc

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

(* run `minpower batch` with extra args; returns its JSONL rows, and
   fails on a stdout line that is not one *)
let run_batch ?(env = []) ?(expect_exit = 0) ~tag extra =
  let out_path = Printf.sprintf "chaos_smoke_%s.out" tag in
  let out_fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list (minpower :: "batch" :: jobs_path :: extra) in
  let environment = Array.append (Unix.environment ()) (Array.of_list env) in
  let pid =
    Unix.create_process_env minpower argv environment Unix.stdin out_fd
      Unix.stderr
  in
  Unix.close out_fd;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED n when n = expect_exit -> ()
  | Unix.WEXITED n -> fail "batch %s exited %d (want %d)" tag n expect_exit
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "batch %s got signal %d" tag n);
  let lines = read_lines out_path in
  List.iter
    (fun line ->
      if String.length line = 0 || line.[0] <> '{' then
        fail "batch %s printed a line that is not a row: %S" tag line)
    lines;
  lines

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

(* one chaos case: run under a plan, demand byte-identity with the
   baseline and check counter bounds on the coordinator's exposition *)
let case ~baseline ~tag ?(env = []) ?(extra = []) ~plan checks =
  let om = Printf.sprintf "chaos_smoke_%s.om" tag in
  let env = Printf.sprintf "DCOPT_FAULT_PLAN=%s" plan :: env in
  let rows = run_batch ~env ~tag (extra @ [ "--open-metrics"; om ]) in
  check_identical ~tag baseline rows;
  List.iter
    (fun (metric, check, what) ->
      let v = metric_value om metric in
      if not (check v) then fail "%s: %s %g %s" tag metric v what)
    checks;
  Printf.printf "  %-16s rows identical (%s)\n%!" tag plan

let () =
  ignore (Unix.alarm 300);
  write_jobs ();
  List.iter
    (fun d ->
      if Sys.file_exists d then begin
        Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
      end)
    [ "chaos_store_enospc"; "chaos_store_eio"; "chaos_store_fleet" ];

  let baseline = run_batch ~tag:"inproc" [] in
  if List.length baseline <> 24 then
    fail "expected 24 baseline rows, got %d" (List.length baseline);

  (* TCP fleet parity, no faults: --listen host:port with an ephemeral
     port, spawned workers dialing back over TCP *)
  let tcp =
    run_batch ~tag:"tcp_clean"
      [ "--workers"; "4"; "--listen"; "127.0.0.1:0" ]
  in
  check_identical ~tag:"tcp_clean" baseline tcp;
  Printf.printf "  %-16s rows identical (no faults, 4 workers)\n%!" "tcp_clean";

  let hb1 = [ "DCOPT_FLEET_HEARTBEAT_S=1" ] in
  let ge n = (fun v -> v >= float_of_int n) in
  let eq n = (fun v -> v = float_of_int n) in

  (* a silently dropped result: the worker looks alive until it goes
     idle, then its stuck in-flight job times out and is requeued *)
  case ~baseline ~tag:"drop" ~env:hb1 ~extra:[ "--workers"; "2" ]
    ~plan:"w0/wire.send.result@2:drop"
    [
      ("service_fleet_worker_lost_total", ge 1, "want >= 1");
      ("service_fleet_requeued_total", ge 1, "want >= 1");
    ];

  (* a bit flipped in transit over TCP: the checksum envelope turns it
     into a parse error, the sender is counted lost *)
  case ~baseline ~tag:"corrupt_tcp" ~env:hb1
    ~extra:[ "--workers"; "4"; "--listen"; "127.0.0.1:0" ]
    ~plan:"seed=11;w1/wire.send.result@1:corrupt"
    [
      ("service_fleet_worker_lost_total", ge 1, "want >= 1");
      ("service_fleet_requeued_total", ge 1, "want >= 1");
    ];

  (* a frame cut mid-line: reassembles with the next frame's bytes into
     a line that fails its checksum *)
  case ~baseline ~tag:"truncate" ~env:hb1 ~extra:[ "--workers"; "2" ]
    ~plan:"w0/wire.send.result@1:truncate=10"
    [ ("service_fleet_worker_lost_total", ge 1, "want >= 1") ];

  (* a crash-looping worker: the only worker exits on every job, is
     respawned once under the same id, exits again, and is quarantined;
     the coordinator then degrades to computing everything in-process *)
  case ~baseline ~tag:"exit_quarantine" ~extra:[ "--workers"; "1" ]
    ~plan:"w0/worker.job@*:exit"
    [
      ("service_fleet_worker_lost_total", eq 2, "want exactly 2");
      ("service_fleet_quarantined_total", eq 1, "want exactly 1");
      ("service_fleet_fallback_total", ge 20, "want >= 20");
    ];

  (* a wedged worker: stalls before computing (so it sends neither
     heartbeats nor results), trips the monotonic heartbeat deadline *)
  let events = "chaos_smoke_stall.events.jsonl" in
  case ~baseline ~tag:"stall" ~env:hb1
    ~extra:
      [
        "--workers"; "2"; "--events"; events; "--events-level"; "warn";
        "--run-id"; "chaos-stall";
      ]
    ~plan:"w0/worker.job@1:stall=5"
    [
      ("service_fleet_worker_lost_total", ge 1, "want >= 1");
      ("service_fleet_requeued_total", ge 1, "want >= 1");
    ];
  (* the cross-process correlation chain: the worker's fault.fired and
     the coordinator's loss/requeue events land in one log under one
     run id, carrying worker and job identities *)
  let ev = read_lines events in
  if ev = [] then fail "stall case wrote no events";
  List.iter
    (fun line ->
      if not (contains ~needle:"chaos-stall" line) then
        fail "event outside the run's correlation chain: %s" line)
    ev;
  let has needle what =
    if not (List.exists (contains ~needle) ev) then
      fail "event log is missing %s" what
  in
  has "fault.fired" "the worker-side fault.fired event";
  has "fleet.worker_lost" "the coordinator's fleet.worker_lost event";
  has "fleet.requeue" "the coordinator's fleet.requeue event";
  has "\"worker_id\"" "a worker_id field";
  has "\"job_id\"" "a job_id field";

  (* wall-clock jumps (NTP step, DST): scheduling runs on the monotonic
     clock, so a displaced wall clock must cause zero losses *)
  case ~baseline ~tag:"clock_jump" ~env:hb1 ~extra:[ "--workers"; "2" ]
    ~plan:"clock.tick@1:jump=3600;clock.tick@3:jump=-7200"
    [
      ("service_fleet_worker_lost_total", eq 0, "want exactly 0");
      ("service_fleet_fallback_total", eq 0, "want exactly 0");
      ("faults_clock_total", ge 2, "want >= 2");
    ];

  (* pure latency: delayed frames slow the batch but lose nothing *)
  case ~baseline ~tag:"delay" ~extra:[ "--workers"; "2" ]
    ~plan:"w0/wire.send.result@*:delay=0.05"
    [ ("service_fleet_worker_lost_total", eq 0, "want exactly 0") ];

  (* a full disk under an in-process batch: every put abandoned, batch
     completes, store left with no entries and no temp litter *)
  case ~baseline ~tag:"enospc" ~extra:[ "--store"; "chaos_store_enospc" ]
    ~plan:"store.put@*:enospc"
    [
      ("service_store_write_failed_total", ge 1, "want >= 1");
      ("faults_store_total", ge 1, "want >= 1");
    ];
  Array.iter
    (fun f -> fail "ENOSPC run left %s in the store" f)
    (Sys.readdir "chaos_store_enospc");

  (* a full disk under a fleet batch: the coordinator, the only process
     that writes the store, fails every put; rows still byte-identical *)
  case ~baseline ~tag:"enospc_fleet" ~env:hb1
    ~extra:[ "--workers"; "2"; "--store"; "chaos_store_fleet" ]
    ~plan:"store.put@*:enospc"
    [ ("service_fleet_worker_lost_total", eq 0, "want exactly 0") ];
  Array.iter
    (fun f -> fail "fleet ENOSPC run left %s in the store" f)
    (Sys.readdir "chaos_store_fleet");

  (* a rotting warm store: every read-back errors, so the whole batch
     recomputes — rows identical to the cold run, corruption counted *)
  let populate =
    run_batch ~tag:"eio_populate" [ "--store"; "chaos_store_eio" ]
  in
  check_identical ~tag:"eio_populate" baseline populate;
  case ~baseline ~tag:"eio_warm" ~extra:[ "--store"; "chaos_store_eio" ]
    ~plan:"store.find@*:eio"
    [ ("service_store_corrupt_total", ge 24, "want >= 24") ];

  (* front-door validation: a malformed plan and a malformed address are
     located config diagnostics, not crashes or silently-armed nothing *)
  ignore
    (run_batch ~tag:"bad_plan" ~expect_exit:2
       [ "--fault-plan"; "wire.send.bogus@1:drop" ]);
  ignore
    (run_batch ~tag:"bad_listen" ~expect_exit:2
       [ "--workers"; "2"; "--listen"; "nohost:notaport" ]);

  print_endline
    "chaos smoke: rows byte-identical to the fault-free run under drop, \
     corrupt, truncate, exit+quarantine, stall, clock-jump, delay, \
     ENOSPC (in-process and fleet) and EIO-warm plans, over unix and \
     TCP fleets; recovery counters and the event chain all verified"
