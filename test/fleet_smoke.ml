(* End-to-end smoke for the multi-process fleet: the same 64-job batch
   through the in-process path, a 1-worker fleet, a 4-worker fleet, and
   a 3-worker fleet where one worker SIGKILLs itself mid-batch (the
   fault plan "w1/worker.result@2:kill" makes the crash deterministic:
   the worker.result seam fires after the job is fully computed and
   before the result frame is sent — the harshest loss the coordinator
   can take). Every run must produce byte-identical
   result rows, and the crash run must show the recovery machinery
   firing in its OpenMetrics exposition.

   argv.(1) is the minpower binary (the dune rule passes
   %{exe:../bin/minpower.exe}). *)

let minpower = Sys.argv.(1)

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

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

(* run `minpower batch` with extra args; return the JSONL rows (stdout
   lines that are JSON objects — Logs lines like the OpenMetrics notice
   are not rows) *)
let run_batch ~tag extra =
  let out_path = Printf.sprintf "fleet_smoke_%s.out" tag in
  let out_fd =
    Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list ((minpower :: "batch" :: jobs_path :: extra)) in
  let pid = Unix.create_process minpower argv Unix.stdin out_fd Unix.stderr in
  Unix.close out_fd;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "batch %s exited %d" tag n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "batch %s got signal %d" tag n);
  let ic = open_in out_path in
  let rec go acc =
    match input_line ic with
    | line -> go (if String.length line > 0 && line.[0] = '{' then line :: acc else acc)
    | exception End_of_file -> List.rev acc
  in
  let rows = go [] in
  close_in ic;
  rows

(* the value of a `name value` sample line *)
let metric_value om_path name =
  let ic = open_in om_path in
  let prefix = name ^ " " in
  let rec go =
    function
    | () -> (
      match input_line ic with
      | line when String.length line > String.length prefix
                  && String.sub line 0 (String.length prefix) = prefix ->
        float_of_string
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      | _ -> go ()
      | exception End_of_file -> fail "%s has no sample %s" om_path name)
  in
  let v = go () in
  close_in ic;
  v

let check_identical ~tag a b =
  if List.length a <> List.length b then
    fail "%s: %d rows vs %d" tag (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      if x <> y then fail "%s: row %d differs:\n  %s\n  %s" tag i x y)
    (List.combine a b)

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
  print_endline
    "fleet smoke: 64-job rows byte-identical across in-process, 1-worker, \
     4-worker and SIGKILL-crashed 3-worker runs; loss and requeue \
     counters fired"
