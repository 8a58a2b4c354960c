(* Robustness: recovering diagnostics, guardrails on degenerate physics,
   corrupt-store handling and crash-safe checkpoints. *)

module Bench_format = Dcopt_netlist.Bench_format
module Tech = Dcopt_device.Tech
module Tech_io = Dcopt_device.Tech_io
module Sdc = Dcopt_timing.Sdc
module Flow = Dcopt_core.Flow
module Diag = Dcopt_util.Diag
module Json = Dcopt_util.Json
module Guard = Dcopt_opt.Guard
module Power_model = Dcopt_opt.Power_model
module Solution = Dcopt_opt.Solution
module Suite = Dcopt_suite.Suite
module Service = Dcopt_service.Service
module Job = Dcopt_service.Job
module Store = Dcopt_service.Store
module Checkpoint = Dcopt_service.Checkpoint
module Metrics = Dcopt_obs.Metrics

(* module-level handles to the counters the robustness layer bumps
   (find-or-create: these are the same instruments the library holds) *)
let corrupt_c = Metrics.counter "service.store.corrupt"
let non_finite_c = Metrics.counter "guard.non_finite"
let aborted_c = Metrics.counter "guard.trials_aborted"

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let dir = Printf.sprintf "%s_%d" prefix !n in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let rows_to_string rows =
  String.concat "\n"
    (List.map (fun r -> Json.to_string (Job.row_to_json r)) rows)

(* --- recovering diagnostics ------------------------------------------- *)

(* The acceptance case: three injected errors, three located diagnostics
   in one parse. *)
let test_bench_three_errors () =
  let text =
    "INPUT(a)\n\
     INPUT(b)\n\
     OUTPUT(y)\n\
     y = AND(a, b)\n\
     z = FROB(a)\n\
     w = AND(a, ghost)\n\
     y = OR(a, b)\n"
  in
  match Bench_format.parse ~file:"bad.bench" ~name:"bad" text with
  | Ok _ -> Alcotest.fail "three injected errors parsed cleanly"
  | Error diags ->
    Alcotest.(check int) "one diagnostic per injected error" 3
      (List.length diags);
    List.iter
      (fun (d : Diag.t) ->
        Alcotest.(check bool)
          (Printf.sprintf "located: %s" (Diag.to_string d))
          true
          (d.Diag.line <> None && d.Diag.file = Some "bad.bench"))
      diags;
    let lines =
      List.sort compare (List.filter_map (fun d -> d.Diag.line) diags)
    in
    Alcotest.(check (list int)) "each error's own line" [ 5; 6; 7 ] lines

let test_bench_empty_and_io () =
  (match Bench_format.parse ~name:"empty" "# nothing here\n" with
  | Ok _ -> Alcotest.fail "empty netlist accepted"
  | Error diags ->
    Alcotest.(check bool) "bench.empty" true
      (List.exists (fun d -> d.Diag.code = "bench.empty") diags));
  match Bench_format.parse_file_checked "no_such_file.bench" with
  | Ok _ -> Alcotest.fail "missing file parsed"
  | Error [ d ] -> Alcotest.(check string) "bench.io" "bench.io" d.Diag.code
  | Error _ -> Alcotest.fail "missing file: expected exactly one diagnostic"

(* Every front door reads files through one reader, which names a
   directory for what it is. *)
let input_dir () =
  let dir = "robust_input_dir" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let check_dir_diag ~code dir = function
  | Ok _ -> Alcotest.fail "a directory parsed"
  | Error [ d ] ->
    Alcotest.(check string) "code" code d.Diag.code;
    Alcotest.(check string) "message" (dir ^ ": is a directory") d.Diag.message
  | Error _ -> Alcotest.fail "a directory: expected exactly one diagnostic"

let test_bench_dir () =
  let dir = input_dir () in
  check_dir_diag ~code:"bench.io" dir (Bench_format.parse_file_checked dir)

let test_tech_dir () =
  let dir = input_dir () in
  check_dir_diag ~code:"tech.io" dir (Tech_io.parse_file_checked dir)

let test_sdc_dir () =
  let dir = input_dir () in
  check_dir_diag ~code:"sdc.io" dir (Sdc.parse_file_checked dir)

let test_json_dir () =
  let dir = input_dir () in
  Alcotest.(check (result reject string))
    "the reader's message" (Error (dir ^ ": is a directory"))
    (Result.map (fun _ -> ()) (Json.read_file dir))

let test_tech_collects_all_problems () =
  let text = "frobnicate = 1\nalpha = banana\nvt_min = 5.0\n" in
  match Tech_io.parse ~file:"bad.tech" text with
  | Ok _ -> Alcotest.fail "bad tech text parsed cleanly"
  | Error diags ->
    let codes = List.map (fun d -> d.Diag.code) diags in
    (* one unknown key, one bad number, and the surviving vt_min = 5.0
       flagged as ill-posed physics (>= vdd_max) — all in one parse *)
    List.iter
      (fun c -> Alcotest.(check bool) c true (List.mem c codes))
      [ "tech.key"; "tech.number"; "tech.validate" ]

(* --- degenerate physics is rejected before any optimizer runs --------- *)

let degenerate_configs =
  let t = Tech.default in
  [
    ( "vt = vdd",
      { Flow.default_config with tech = { t with vt_min = t.vdd_max } } );
    ( "vt > vdd",
      { Flow.default_config with
        tech = { t with vt_min = t.vdd_max +. 0.5; vt_max = t.vdd_max +. 0.6 }
      } );
    ("zero cycle target", { Flow.default_config with clock_frequency = 0.0 });
    ( "negative cycle target",
      { Flow.default_config with clock_frequency = -300e6 } );
    ( "wmin > wmax",
      { Flow.default_config with tech = { t with w_min = t.w_max +. 1.0 } } );
  ]

let test_degenerate_configs_rejected () =
  List.iter
    (fun (label, config) ->
      (match Diag.errors (Flow.validate_config config) with
      | [] -> Alcotest.fail (label ^ ": validate_config found nothing")
      | _ :: _ -> ());
      (* prepare refuses them as a typed Invalid_argument, never NaN *)
      match Flow.prepare ~config (Suite.s27 ()) with
      | _ -> Alcotest.fail (label ^ ": prepare accepted ill-posed physics")
      | exception Invalid_argument _ -> ())
    degenerate_configs

let test_degenerate_config_json_rejected () =
  (* the same guardrail through the service-facing JSON entry point *)
  match
    Flow.config_of_json (Json.Obj [ ("clock_frequency", Json.Float 0.0) ])
  with
  | Ok _ -> Alcotest.fail "zero clock accepted through config_of_json"
  | Error msg ->
    Alcotest.(check bool) "mentions clock_frequency" true
      (String.length msg > 0)

(* wmin = wmax is a legal (pinned-width) corner, not an error: the flow
   must run it to a typed result with finite numbers. *)
let test_pinned_width_corner_runs () =
  let t = Tech.default in
  let config =
    { Flow.default_config with tech = { t with w_max = t.w_min } }
  in
  Alcotest.(check (list string)) "wmin = wmax is well-posed" []
    (List.map Diag.to_string (Diag.errors (Flow.validate_config config)));
  let p = Flow.prepare ~config (Suite.s27 ()) in
  match (Dcopt_core.Optimizer.get "joint").Dcopt_core.Optimizer.run
      (Dcopt_core.Scenario.of_prepared p) with
  | None -> () (* infeasible is a typed result too *)
  | Some sol ->
    Alcotest.(check bool) "finite energy" true
      (Float.is_finite (Solution.total_energy sol));
    Alcotest.(check bool) "finite vdd" true (Float.is_finite (Solution.vdd sol))

(* --- guardrails at the evaluation boundary ---------------------------- *)

let check_not_nan ev =
  List.iter
    (fun (label, v) ->
      Alcotest.(check bool) (label ^ " is not NaN") false (Float.is_nan v))
    [
      ("critical delay", ev.Power_model.critical_delay);
      ("static energy", ev.Power_model.static_energy);
      ("dynamic energy", ev.Power_model.dynamic_energy);
      ("total energy", ev.Power_model.total_energy);
    ]

(* A design with vt at vdd has essentially no drive: the softplus device
   model keeps the delay finite but enormous, so the result must come
   back as a typed infeasible evaluation, never NaN. A genuinely
   non-finite input (a NaN width, the overflow case) must trip the
   guard: counted, clamped to +inf, forced infeasible. *)
let test_evaluate_poison_safe () =
  let p = Flow.prepare (Suite.s27 ()) in
  let tech = Power_model.tech p.Flow.env in
  let env = p.Flow.env in
  let degenerate =
    Power_model.uniform_design env ~vdd:tech.Tech.vdd_min
      ~vt:tech.Tech.vdd_min ~w:tech.Tech.w_min
  in
  let ev = Power_model.evaluate env degenerate in
  Alcotest.(check bool) "vt = vdd is infeasible" false ev.Power_model.feasible;
  check_not_nan ev;
  let poisoned =
    Power_model.uniform_design env ~vdd:tech.Tech.vdd_max
      ~vt:tech.Tech.vt_min ~w:tech.Tech.w_min
  in
  let gate = (Power_model.gate_ids env).(0) in
  poisoned.Power_model.widths.(gate) <- Float.nan;
  let before = Metrics.value non_finite_c in
  let ev = Power_model.evaluate env poisoned in
  Alcotest.(check bool) "NaN width is infeasible" false
    ev.Power_model.feasible;
  check_not_nan ev;
  Alcotest.(check bool) "guard.non_finite counted" true
    (Metrics.value non_finite_c > before)

let test_guard_protect () =
  Alcotest.(check (option int)) "pass-through" (Some 7)
    (Guard.protect (fun () -> Some 7));
  let before = Metrics.value aborted_c in
  Alcotest.(check (option int)) "trip becomes None" None
    (Guard.protect (fun () ->
         ignore (Guard.check ~site:"test" nan);
         Some 7));
  Alcotest.(check bool) "guard.trials_aborted counted" true
    (Metrics.value aborted_c > before);
  Alcotest.(check bool) "clamp forces +inf" true
    (Guard.clamp ~site:"test" nan = Float.infinity);
  Alcotest.(check (float 0.0)) "clamp is identity on finite" 1.5
    (Guard.clamp ~site:"test" 1.5)

(* --- suite near-miss suggestions -------------------------------------- *)

let test_suite_suggestions () =
  Alcotest.(check (list string)) "case slip" [ "s27" ] (Suite.suggestions "S27");
  Alcotest.(check bool) "one-typo slip" true
    (List.mem "s298" (Suite.suggestions "s29"));
  Alcotest.(check (list string)) "nothing close" []
    (Suite.suggestions "c6288");
  match Suite.find "S27" with
  | Ok _ -> Alcotest.fail "case-slipped name resolved"
  | Error msg ->
    Alcotest.(check bool) "did-you-mean in the error" true
      (let sub = "did you mean s27" in
       let rec has i =
         i + String.length sub <= String.length msg
         && (String.sub msg i (String.length sub) = sub || has (i + 1))
       in
       has 0)

(* --- corrupt store entries are counted misses ------------------------- *)

let test_store_corruption_is_a_counted_miss () =
  let st = Store.open_ (fresh_dir "robust_store") in
  let key = "deadbeefdeadbeefdeadbeefdeadbeef" in
  Store.put st key (Json.Obj [ ("version", Json.Int 1) ]);
  Alcotest.(check bool) "intact entry hits" true (Store.find st key <> None);
  let path = Filename.concat (Store.dir st) (key ^ ".json") in
  (* bit-flip the first byte *)
  let text = read_file path in
  let b = Bytes.of_string text in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  write_file path (Bytes.to_string b);
  let before = Metrics.value corrupt_c in
  Alcotest.(check bool) "bit-flipped entry misses" true
    (Store.find st key = None);
  Alcotest.(check bool) "corruption counted" true
    (Metrics.value corrupt_c > before);
  (* truncation is the same story *)
  write_file path (String.sub text 0 (String.length text / 2));
  let before = Metrics.value corrupt_c in
  Alcotest.(check bool) "truncated entry misses" true
    (Store.find st key = None);
  Alcotest.(check bool) "truncation counted" true
    (Metrics.value corrupt_c > before);
  (* absent entries stay quiet *)
  let before = Metrics.value corrupt_c in
  Alcotest.(check bool) "absent entry misses quietly" true
    (Store.find st "00000000000000000000000000000000" = None);
  Alcotest.(check int) "no corruption counted for absence" before
    (Metrics.value corrupt_c)

(* a checkpoint entry that parses as JSON but not as an outcome is
   corrupt too *)
let test_checkpoint_shape_corruption () =
  let ck = Checkpoint.open_ (fresh_dir "robust_ckpt_shape") in
  let key = "feedfacefeedfacefeedfacefeedface" in
  Checkpoint.record ck key Job.Infeasible;
  Alcotest.(check bool) "intact entry decodes" true
    (Checkpoint.find ck key = Some Job.Infeasible);
  write_file
    (Filename.concat (Checkpoint.dir ck) (key ^ ".json"))
    "{\"version\":1,\"status\":\"no-such-status\"}";
  let before = Metrics.value corrupt_c in
  Alcotest.(check bool) "shape-invalid entry misses" true
    (Checkpoint.find ck key = None);
  Alcotest.(check bool) "shape corruption counted" true
    (Metrics.value corrupt_c > before)

(* --- batch checkpoint resume ------------------------------------------ *)

let test_batch_checkpoint_resume_identical () =
  let jobs =
    [
      Job.make ~id:"a" ~optimizer:"baseline" "s27";
      Job.make ~id:"b" ~optimizer:"joint" "s27";
      Job.make ~id:"bad" "no_such_circuit";
    ]
  in
  let dir = fresh_dir "robust_batch_ckpt" in
  let cold = Service.run_batch jobs in
  let ck = Checkpoint.open_ dir in
  let first = Service.run_batch ~checkpoint:ck jobs in
  Alcotest.(check string) "checkpointed run matches a plain run"
    (rows_to_string cold) (rows_to_string first);
  (* everything computable is now on disk: a partial emission recovers
     the full row set, and a resumed batch is byte-identical *)
  Alcotest.(check string) "partial rows recover every answerable row"
    (rows_to_string first)
    (rows_to_string (Service.partial_rows ~checkpoint:ck jobs));
  let resumed = Service.run_batch ~checkpoint:ck jobs in
  Alcotest.(check string) "resume is byte-identical" (rows_to_string first)
    (rows_to_string resumed)

let () =
  Alcotest.run "robust"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "three injected bench errors" `Quick
            test_bench_three_errors;
          Alcotest.test_case "empty and unreadable bench" `Quick
            test_bench_empty_and_io;
          Alcotest.test_case "tech collects all problems" `Quick
            test_tech_collects_all_problems;
          Alcotest.test_case "bench reader names a directory" `Quick
            test_bench_dir;
          Alcotest.test_case "tech reader names a directory" `Quick
            test_tech_dir;
          Alcotest.test_case "sdc reader names a directory" `Quick
            test_sdc_dir;
          Alcotest.test_case "json reader names a directory" `Quick
            test_json_dir;
        ] );
      ( "degenerate physics",
        [
          Alcotest.test_case "ill-posed configs rejected" `Quick
            test_degenerate_configs_rejected;
          Alcotest.test_case "rejected through JSON too" `Quick
            test_degenerate_config_json_rejected;
          Alcotest.test_case "pinned-width corner runs" `Quick
            test_pinned_width_corner_runs;
          Alcotest.test_case "evaluate is poison-safe" `Quick
            test_evaluate_poison_safe;
          Alcotest.test_case "guard protect/clamp/check" `Quick
            test_guard_protect;
        ] );
      ( "front door",
        [
          Alcotest.test_case "suite near-miss suggestions" `Quick
            test_suite_suggestions;
        ] );
      ( "crash safety",
        [
          Alcotest.test_case "corrupt store entry is a counted miss" `Quick
            test_store_corruption_is_a_counted_miss;
          Alcotest.test_case "shape-corrupt checkpoint entry" `Quick
            test_checkpoint_shape_corruption;
          Alcotest.test_case "batch checkpoint resume" `Quick
            test_batch_checkpoint_resume_identical;
        ] );
    ]
