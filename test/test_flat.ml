(* Differential tests of the data-oriented netlist core.

   The flat levelized analyzer (Flat_sta, C sweep kernels over the
   struct-of-arrays view) promises results bit-identical to the
   record-walking reference (Sta_ref). These tests hold it to that
   promise — full analysis under the scalar target, a deadline and
   input-delay seeds, the forward pass alone, and the critical-path walk
   — across the whole ISCAS suite and seeded random DAGs at 1k and 10k
   gates, drive the incremental engine through a 200-move
   transaction/rollback sequence on a generated DAG, and check that an
   analysis leaves the sta.level.* / flat.alloc_bytes metrics
   populated. *)

module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Generator = Dcopt_netlist.Generator
module Suite = Dcopt_suite.Suite
module Flat_sta = Dcopt_timing.Flat_sta
module Tech = Dcopt_device.Tech
module Activity = Dcopt_activity.Activity
module Power_model = Dcopt_opt.Power_model
module Incr = Dcopt_opt.Power_model.Incr
module Metrics = Dcopt_obs.Metrics
module Prng = Dcopt_util.Prng

(* Bitwise float comparison: stricter than (=), which conflates 0. with
   -0. and can never match NaN. The determinism contract is about the
   produced bytes, so that is what we compare. *)
let check_bits what expected got =
  if Int64.bits_of_float expected <> Int64.bits_of_float got then
    Alcotest.failf "%s: expected %.17g (%Lx) got %.17g (%Lx)" what expected
      (Int64.bits_of_float expected)
      got
      (Int64.bits_of_float got)

let check_array_bits what expected got =
  if Array.length expected <> Array.length got then
    Alcotest.failf "%s: length %d vs %d" what (Array.length expected)
      (Array.length got);
  Array.iteri
    (fun i e -> check_bits (Printf.sprintf "%s[%d]" what i) e got.(i))
    expected

let check_result_bits what (a : Flat_sta.result) (b : Flat_sta.result) =
  check_bits (what ^ " critical_delay") a.Flat_sta.critical_delay
    b.Flat_sta.critical_delay;
  check_array_bits (what ^ " arrival") a.Flat_sta.arrival b.Flat_sta.arrival;
  check_array_bits (what ^ " required") a.Flat_sta.required
    b.Flat_sta.required;
  check_array_bits (what ^ " slack") a.Flat_sta.slack b.Flat_sta.slack

let check_forward_bits what (a, ca) (b, cb) =
  check_bits (what ^ " critical_delay") ca cb;
  check_array_bits (what ^ " arrival") a b

let check_path what expected got =
  if expected <> got then
    Alcotest.failf "%s: paths differ:\n  [%s]\n  [%s]" what
      (String.concat " " (List.map string_of_int expected))
      (String.concat " " (List.map string_of_int got))

let random_delays seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> Prng.float rng 1e-9)

(* Input-delay seeds: a random offset at every primary input, and a
   value at every other node that the forward sweep must overwrite. *)
let random_offsets seed c =
  let rng = Prng.create seed in
  Array.init (Circuit.size c) (fun _ -> Prng.float rng 0.5e-9)

(* One circuit, one delay assignment: the flat analyzer must reproduce
   the reference bit for bit. *)
let check_circuit what c =
  let delays = random_delays 7L (Circuit.size c) in
  let f = Flat.of_circuit c in
  let check label reference flat =
    check_result_bits (what ^ label ^ " flat vs reference") reference flat
  in
  check "" (Sta_ref.analyze c ~delays) (Flat_sta.analyze f ~delays);
  (* an explicit deadline changes required/slack *)
  check " deadline"
    (Sta_ref.analyze ~required_time:0.5e-9 c ~delays)
    (Flat_sta.analyze ~required_time:0.5e-9 f ~delays);
  (* input-delay seeds move every arrival downstream of the inputs *)
  let arrival_offsets = random_offsets 8L c in
  check " offsets"
    (Sta_ref.analyze ~arrival_offsets c ~delays)
    (Flat_sta.analyze ~arrival_offsets f ~delays);
  (* the forward pass alone, and the critical-path walk over it *)
  let ((arrival, _) as reference) = Sta_ref.forward c ~delays in
  let flat = Flat_sta.forward f ~delays in
  check_forward_bits (what ^ " forward flat vs reference") reference flat;
  check_path (what ^ " critical path flat vs reference")
    (Sta_ref.critical_path_of_arrival c ~arrival ~delays)
    (Flat_sta.critical_path_of_arrival f ~arrival:(fst flat) ~delays);
  (* a walk over offset-seeded arrivals starts from other inputs *)
  let arrival =
    (Sta_ref.analyze ~arrival_offsets c ~delays).Flat_sta.arrival
  in
  check_path (what ^ " offset critical path flat vs reference")
    (Sta_ref.critical_path_of_arrival c ~arrival ~delays)
    (Flat_sta.critical_path_of_arrival f ~arrival ~delays);
  (* unit delays make a gate's arrival its level, so fanins and outputs
     tie at the maximum and the first-hit-in-pin-order and first-output
     rules decide the path *)
  let delays = Array.make (Circuit.size c) 1.0 in
  let arrival, _ = Flat_sta.forward f ~delays in
  check_path (what ^ " unit-delay critical path flat vs reference")
    (Sta_ref.critical_path_of_arrival c ~arrival ~delays)
    (Flat_sta.critical_path_of_arrival f ~arrival ~delays)

let test_suite_differential () =
  List.iter
    (fun (name, c) -> check_circuit name (Circuit.combinational_core c))
    (Suite.all ())

let generated seed gates =
  let d = Generator.default_dag ~name:"flatdiff" ~seed ~gates () in
  (match Generator.validate_dag d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid dag spec: %s" e);
  Generator.random_dag d

let test_random_dag_differential () =
  check_circuit "dag-1k" (generated 11L 1_000);
  check_circuit "dag-10k" (generated 12L 10_000)

let tech = Tech.default
let fc = 300e6

let make_env core =
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  Power_model.make_env ~tech ~fc core profile

let check_rel what reference fast =
  let err =
    if reference = fast then 0.0
    else Float.abs (fast -. reference) /. Float.max 1e-300 (Float.abs reference)
  in
  if not (err <= 1e-9) then
    Alcotest.failf "%s: reference %.17g incr %.17g (rel err %g)" what reference
      fast err

let compare_incr_state what env inc =
  let e = Power_model.evaluate env (Incr.design inc) in
  check_rel (what ^ " total") e.Power_model.total_energy
    (Incr.total_energy inc);
  check_rel (what ^ " critical") e.Power_model.critical_delay
    (Incr.critical_delay inc)

(* 200 random width/vt moves on a generated 1k-gate DAG, grouped into
   transactions that randomly commit or roll back; after every commit
   and every rollback the engine must agree with a fresh full
   evaluation. This is test_incr's oracle pointed at the generator's
   DAGs instead of the hand-built/suite circuits. *)
let test_incr_on_generated_dag () =
  let env = make_env (generated 31L 1_000) in
  let design =
    Power_model.uniform_design env ~vdd:(0.8 *. tech.Tech.vdd_max)
      ~vt:(0.5 *. (tech.Tech.vt_min +. tech.Tech.vt_max))
      ~w:4.0
  in
  let inc = Incr.create env design in
  let gates = Power_model.gate_ids env in
  let rng = Prng.create 32L in
  let moves = 200 in
  let in_txn = ref 0 in
  for move = 1 to moves do
    let id = Prng.choose rng gates in
    (if Prng.bool rng then
       Incr.set_width inc id (Prng.uniform rng 1.0 16.0)
     else
       Incr.set_vt inc id
         (Prng.uniform rng tech.Tech.vt_min tech.Tech.vt_max));
    incr in_txn;
    (* close the transaction every few moves, half the time undoing it *)
    if !in_txn >= Prng.int rng 5 + 1 || move = moves then begin
      if Prng.bool rng then Incr.commit inc else Incr.rollback inc;
      in_txn := 0;
      compare_incr_state (Printf.sprintf "move %d" move) env inc
    end
  done

(* The analyzer must leave its footprints in the metrics registry: the
   pass counter advances per analysis and the flat-view gauges hold the
   sizes of the circuit just analyzed (main domain only, which tests
   are). *)
let test_metrics_presence () =
  let c = generated 41L 1_000 in
  let f = Flat.of_circuit c in
  let delays = random_delays 42L (Circuit.size c) in
  let passes = Metrics.counter "sta.level.passes" in
  let before = Metrics.value passes in
  ignore (Flat_sta.analyze f ~delays);
  let advanced = Metrics.value passes - before in
  if advanced < 1 then
    Alcotest.failf "sta.level.passes advanced by %d, expected >= 1" advanced;
  let expect_gauge name expected =
    let got = Metrics.gauge_value (Metrics.gauge name) in
    check_bits name expected got
  in
  expect_gauge "sta.level.depth" (float_of_int (Flat.depth f));
  expect_gauge "sta.level.max_width" (float_of_int (Flat.max_level_width f));
  expect_gauge "flat.alloc_bytes" (float_of_int (Flat.alloc_bytes f))

(* The C kernels index every column by node id with no bounds checks,
   so the OCaml wrappers' length validation is the only thing between a
   short array and heap corruption. *)
let test_wrappers_validate_lengths () =
  let c = generated 51L 100 in
  let f = Flat.of_circuit c in
  let n = Flat.size f in
  let delays = random_delays 52L n in
  let short = Array.make (n - 1) 0.0 in
  let expect_invalid what thunk =
    match thunk () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "forward, short delays" (fun () ->
      ignore (Flat_sta.forward f ~delays:short));
  expect_invalid "analyze, short delays" (fun () ->
      ignore (Flat_sta.analyze f ~delays:short));
  expect_invalid "analyze, short required seeds" (fun () ->
      ignore (Flat_sta.analyze ~required_times:short f ~delays));
  expect_invalid "analyze, short arrival seeds" (fun () ->
      ignore (Flat_sta.analyze ~arrival_offsets:short f ~delays))

let () =
  Alcotest.run "flat"
    [
      ( "differential",
        [
          Alcotest.test_case "suite circuits: flat == pointer" `Quick
            test_suite_differential;
          Alcotest.test_case "random DAGs 1k/10k: flat == pointer" `Quick
            test_random_dag_differential;
          Alcotest.test_case "incremental engine on generated DAG" `Quick
            test_incr_on_generated_dag;
          Alcotest.test_case "kernel wrappers validate array lengths" `Quick
            test_wrappers_validate_lengths;
        ] );
      ( "observability",
        [
          Alcotest.test_case "sta.level.* / flat.alloc_bytes metrics" `Quick
            test_metrics_presence;
        ] );
    ]
