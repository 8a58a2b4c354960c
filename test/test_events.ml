(* Tests for the structured event log: JSONL sink validity, level
   filtering, scope layering, and the correlation chain
   run_id → batch_id → job_id threaded through a real batch — including
   retries and a checkpoint resume, which is where the log earns its
   keep. *)

module Events = Dcopt_obs.Events
module Metrics = Dcopt_obs.Metrics
module Service = Dcopt_service.Service
module Job = Dcopt_service.Job
module Checkpoint = Dcopt_service.Checkpoint
module Optimizer = Dcopt_core.Optimizer
module Flow = Dcopt_core.Flow
module Guard = Dcopt_opt.Guard
module Json = Dcopt_util.Json

(* fresh relative paths inside the dune sandbox *)
let temp_path =
  let n = ref 0 in
  fun stem ->
    incr n;
    Printf.sprintf "events_test_%s_%d.jsonl" stem !n

let clean_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

(* open a fresh sink on [path], run [fn], close — the sink is process
   state, so every test scopes it *)
let with_sink ?min_level path fn =
  if Sys.file_exists path then Sys.remove path;
  Events.open_file ?min_level path;
  Fun.protect ~finally:(fun () -> Events.close ()) fn

let read_events path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (Json.of_string_exn line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let str k ev = Option.bind (Json.field k ev) Json.get_string
let int_f k ev = Option.bind (Json.field k ev) Json.get_int
let named name ev = str "event" ev = Some name
let find_all name evs = List.filter (named name) evs

let find_one name evs =
  match find_all name evs with
  | [ ev ] -> ev
  | evs ->
    Alcotest.fail
      (Printf.sprintf "%d %S events, want exactly 1" (List.length evs) name)

let check_str what expect k ev =
  Alcotest.(check (option string)) what expect (str k ev)

(* --- sink, scope layering, field order -------------------------------- *)

let test_sink_and_scope () =
  let path = temp_path "scope" in
  Events.set_run_id "test-run";
  with_sink ~min_level:Events.Debug path (fun () ->
      Alcotest.(check bool) "debug active" true (Events.active Events.Debug);
      Events.info "plain";
      Events.with_scope ~batch_id:7 (fun () ->
          Events.warn ~fields:[ ("x", Json.Int 1) ] "in-batch";
          Events.with_scope ~run_id:"override" ~job_id:"j1" (fun () ->
              Alcotest.(check
                          (triple (option string) (option int) (option string)))
                "scope resolves"
                (Some "override", Some 7, Some "j1")
                (Events.current_scope ());
              Events.debug "in-job"));
      Events.error "after");
  Alcotest.(check bool) "closed sink is inactive" false
    (Events.active Events.Error);
  let evs = read_events path in
  Alcotest.(check int) "four events" 4 (List.length evs);
  Alcotest.(check (list string)) "order preserved"
    [ "plain"; "in-batch"; "in-job"; "after" ]
    (List.filter_map (str "event") evs);
  let plain = find_one "plain" evs in
  check_str "global run_id" (Some "test-run") "run_id" plain;
  check_str "level" (Some "info") "level" plain;
  Alcotest.(check (option int)) "no batch scope" None (int_f "batch_id" plain);
  let in_batch = find_one "in-batch" evs in
  Alcotest.(check (option int)) "batch scope" (Some 7)
    (int_f "batch_id" in_batch);
  check_str "no job scope" None "job_id" in_batch;
  Alcotest.(check (option int)) "custom field" (Some 1) (int_f "x" in_batch);
  let in_job = find_one "in-job" evs in
  check_str "scoped run_id overrides" (Some "override") "run_id" in_job;
  Alcotest.(check (option int)) "batch_id inherited" (Some 7)
    (int_f "batch_id" in_job);
  check_str "job scope" (Some "j1") "job_id" in_job;
  (match Json.get_obj in_job with
  | Some kvs ->
    Alcotest.(check (list string)) "deterministic field order"
      [ "ts_ns"; "level"; "event"; "run_id"; "batch_id"; "job_id" ]
      (List.map fst kvs)
  | None -> Alcotest.fail "event is not an object");
  let after = find_one "after" evs in
  check_str "scope restored" (Some "test-run") "run_id" after;
  Alcotest.(check (option int)) "batch scope popped" None
    (int_f "batch_id" after);
  (* timestamps strictly increase across the log *)
  let ts =
    List.map
      (fun ev ->
        match int_f "ts_ns" ev with
        | Some t -> t
        | None -> Alcotest.fail "ts_ns missing")
      evs
  in
  ignore
    (List.fold_left
       (fun prev t ->
         Alcotest.(check bool) "ts_ns strictly increasing" true (t > prev);
         t)
       min_int ts)

let test_level_filtering () =
  let path = temp_path "levels" in
  with_sink ~min_level:Events.Warn path (fun () ->
      Alcotest.(check bool) "info inactive under warn" false
        (Events.active Events.Info);
      Events.debug "d";
      Events.info "i";
      Events.warn "w";
      Events.error "e");
  Alcotest.(check (list string)) "only warn and above written" [ "w"; "e" ]
    (List.filter_map (str "event") (read_events path))

(* --- correlation chain through a real batch --------------------------- *)

let () =
  Optimizer.register
    {
      Optimizer.name = "ev-flaky";
      doc = "fails twice, then delegates to the baseline";
      run =
        (let calls = Atomic.make 0 in
         fun ?observer:_ s ->
           if Atomic.fetch_and_add calls 1 < 2 then failwith "injected fault";
           (Dcopt_core.Optimizer.get "baseline").Dcopt_core.Optimizer.run s);
    }

let test_batch_correlation_chain () =
  Events.set_run_id "test-run";
  let ckpt_dir = "events_test_ckpt" in
  clean_dir ckpt_dir;
  let job () = Job.make ~id:"evjob" ~optimizer:"ev-flaky" ~retries:2 "s27" in
  let path1 = temp_path "batch" in
  let rows1 =
    with_sink ~min_level:Events.Debug path1 (fun () ->
        Service.run_batch ~checkpoint:(Checkpoint.open_ ckpt_dir) [ job () ])
  in
  let evs = read_events path1 in
  (* every event of the batch carries the full chain *)
  let start = find_one "batch.start" evs in
  let batch_id = int_f "batch_id" start in
  Alcotest.(check bool) "batch_id assigned" true (batch_id <> None);
  Alcotest.(check (option int)) "one job announced" (Some 1)
    (int_f "jobs" start);
  List.iter
    (fun ev ->
      check_str "run_id on every event" (Some "test-run") "run_id" ev;
      Alcotest.(check (option int)) "batch_id on every event" batch_id
        (int_f "batch_id" ev))
    evs;
  List.iter
    (fun name ->
      List.iter
        (fun ev -> check_str (name ^ " carries job_id") (Some "evjob") "job_id" ev)
        (find_all name evs))
    [ "job.start"; "job.retry"; "job.done" ];
  (* two injected faults → two retry events naming the fault *)
  let retries = find_all "job.retry" evs in
  Alcotest.(check int) "two retries narrated" 2 (List.length retries);
  Alcotest.(check (list (option int))) "attempts numbered"
    [ Some 1; Some 2 ]
    (List.map (int_f "attempt") retries);
  List.iter
    (fun ev ->
      check_str "fault message" (Some "Failure(\"injected fault\")") "error" ev)
    retries;
  let done_ev = find_one "job.done" evs in
  Alcotest.(check (option int)) "third attempt succeeded" (Some 3)
    (int_f "attempts" done_ev);
  check_str "solved" (Some "solved") "status" done_ev;
  Alcotest.(check bool) "wall time measured" true
    (match int_f "wall_ns" done_ev with Some w -> w > 0 | None -> false);
  let finish = find_one "batch.done" evs in
  Alcotest.(check (option int)) "computed once" (Some 1)
    (int_f "computed" finish);
  Alcotest.(check (option int)) "no checkpoint hits cold" (Some 0)
    (int_f "checkpoint_hits" finish);
  (* resume: same checkpoint directory answers without computing, the log
     says so under the same job_id, and the rows are byte-identical *)
  let path2 = temp_path "resume" in
  let rows2 =
    with_sink ~min_level:Events.Debug path2 (fun () ->
        Service.run_batch ~checkpoint:(Checkpoint.open_ ckpt_dir) [ job () ])
  in
  let evs2 = read_events path2 in
  let hit = find_one "job.checkpoint_hit" evs2 in
  check_str "hit carries job_id" (Some "evjob") "job_id" hit;
  Alcotest.(check bool) "fresh batch_id on resume" true
    (int_f "batch_id" hit <> batch_id);
  Alcotest.(check int) "no job.start on resume" 0
    (List.length (find_all "job.start" evs2));
  Alcotest.(check (option int)) "resume computed nothing" (Some 0)
    (int_f "computed" (find_one "batch.done" evs2));
  Alcotest.(check (option int)) "resume hit the checkpoint" (Some 1)
    (int_f "checkpoint_hits" (find_one "batch.done" evs2));
  let render rows =
    String.concat "\n"
      (List.map (fun r -> Json.to_string (Job.row_to_json r)) rows)
  in
  Alcotest.(check string) "resumed rows byte-identical" (render rows1)
    (render rows2)

(* --- guard trips join the log ----------------------------------------- *)

let test_guard_trip_event () =
  let path = temp_path "guard" in
  Metrics.reset ();
  with_sink path (fun () ->
      Events.with_scope ~job_id:"g1" (fun () ->
          let v = Guard.clamp ~site:"test.site" nan in
          Alcotest.(check bool) "clamped to +inf" true (v = infinity)));
  let ev = find_one "guard.non_finite" (read_events path) in
  check_str "warn severity" (Some "warn") "level" ev;
  check_str "site named" (Some "test.site") "site" ev;
  check_str "action named" (Some "clamped") "action" ev;
  check_str "joins the job scope" (Some "g1") "job_id" ev;
  Metrics.reset ()

(* A +inf is a gate that cannot switch at a scanned point: counted, both
   where it is clamped and where it raises, but no event, so a real NaN
   trip is not lost among them. *)
let test_guard_inf_counted_quietly () =
  let path = temp_path "guard_inf" in
  let non_finite = Metrics.counter "guard.non_finite" in
  let clamped = Metrics.counter "guard.clamped" in
  Metrics.reset ();
  with_sink ~min_level:Events.Debug path (fun () ->
      Alcotest.(check bool) "clamp keeps +inf" true
        (Guard.clamp ~site:"test.site" infinity = infinity);
      match Guard.check ~site:"test.site" infinity with
      | _ -> Alcotest.fail "check must raise on +inf"
      | exception Guard.Non_finite _ -> ());
  Alcotest.(check int) "both trips counted" 2 (Metrics.value non_finite);
  Alcotest.(check int) "the clamp counted" 1 (Metrics.value clamped);
  Alcotest.(check int) "no guard event" 0
    (List.length (find_all "guard.non_finite" (read_events path)));
  Metrics.reset ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "events"
    [
      ( "sink",
        [
          Alcotest.test_case "scope layering and field order" `Quick
            test_sink_and_scope;
          Alcotest.test_case "level filtering" `Quick test_level_filtering;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "batch chain with retries and resume" `Quick
            test_batch_correlation_chain;
          Alcotest.test_case "guard trip" `Quick test_guard_trip_event;
          Alcotest.test_case "+inf guard trip counted quietly" `Quick
            test_guard_inf_counted_quietly;
        ] );
    ]
