(* Differential property test of the incremental evaluation engine.

   Power_model.Incr maintains delays, arrivals, critical delay and running
   energy totals under single-gate and global moves. These tests drive the
   engine through long random move sequences — width and per-gate Vt moves
   (the incremental paths), global Vdd and uniform-Vt moves (the full
   fallback paths), multi-move transactions and interleaved rollbacks —
   and after every apply AND every rollback compare the engine's state
   against a fresh full Power_model.evaluate of the live design, to
   <= 1e-9 relative error (the delay path is bit-identical by
   construction; the energy totals may drift at round-off). The
   transaction cases hold a rollback to the exact state before it, and
   a move that raises mid-bucket to a usable engine. *)

module Circuit = Dcopt_netlist.Circuit
module Generator = Dcopt_netlist.Generator
module Tech = Dcopt_device.Tech
module Activity = Dcopt_activity.Activity
module Power_model = Dcopt_opt.Power_model
module Incr = Dcopt_opt.Power_model.Incr
module Prng = Dcopt_util.Prng
module Numeric = Dcopt_util.Numeric

let tech = Tech.default
let fc = 300e6
let tolerance = 1e-9

let check_rel what reference fast =
  let err =
    if reference = fast then 0.0 (* covers infinities and exact hits *)
    else Float.abs (fast -. reference) /. Float.max 1e-300 (Float.abs reference)
  in
  if not (err <= tolerance) then
    Alcotest.failf "%s: reference %.17g incr %.17g (rel err %g)" what reference
      fast err

let make_env ?include_short_circuit ?constraints core =
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  Power_model.make_env ?include_short_circuit ?constraints ~tech ~fc core
    profile

(* The oracle: a full evaluation of the engine's live design must agree
   with every maintained quantity. *)
let compare_state what env inc =
  let e = Power_model.evaluate env (Incr.design inc) in
  check_rel (what ^ " static") e.Power_model.static_energy
    (Incr.static_energy inc);
  check_rel (what ^ " dynamic") e.Power_model.dynamic_energy
    (Incr.dynamic_energy inc);
  check_rel (what ^ " short-circuit") e.Power_model.short_circuit_energy
    (Incr.short_circuit_energy inc);
  check_rel (what ^ " total") e.Power_model.total_energy
    (Incr.total_energy inc);
  check_rel (what ^ " critical") e.Power_model.critical_delay
    (Incr.critical_delay inc);
  Alcotest.(check bool) (what ^ " feasible") e.Power_model.feasible
    (Incr.feasible inc);
  let delays = Incr.delays inc in
  Array.iteri
    (fun id d -> check_rel (Printf.sprintf "%s delay[%d]" what id) d delays.(id))
    e.Power_model.delays

(* One random move applied directly to the engine. The mix exercises both
   incremental paths (width 60%, per-gate Vt 20%) and both full-fallback
   paths (global Vdd 10%, uniform Vt 10%). *)
let random_move inc gates rng =
  let design = Incr.design inc in
  let choice = Prng.float rng 1.0 in
  if choice < 0.6 then begin
    let id = gates.(Prng.int rng (Array.length gates)) in
    let factor = exp (Prng.gaussian rng ~mean:0.0 ~sigma:0.5) in
    Incr.set_width inc id
      (Numeric.clamp ~lo:tech.Tech.w_min ~hi:tech.Tech.w_max
         (design.Power_model.widths.(id) *. factor))
  end
  else if choice < 0.8 then begin
    let id = gates.(Prng.int rng (Array.length gates)) in
    Incr.set_vt inc id
      (Numeric.clamp ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max
         (Prng.gaussian rng ~mean:design.Power_model.vt.(id) ~sigma:0.05))
  end
  else if choice < 0.9 then
    Incr.set_vdd inc
      (Numeric.clamp ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max
         (Prng.gaussian rng ~mean:design.Power_model.vdd ~sigma:0.1))
  else
    Incr.set_vt_uniform inc
      (Numeric.clamp ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max
         (Prng.gaussian rng ~mean:design.Power_model.vt.(gates.(0)) ~sigma:0.05))

let start_design env =
  Power_model.uniform_design env
    ~vdd:(0.8 *. tech.Tech.vdd_max)
    ~vt:(0.5 *. (tech.Tech.vt_min +. tech.Tech.vt_max))
    ~w:4.0

let run_moves ?include_short_circuit ?constraints ~moves ~seed name core () =
  let env = make_env ?include_short_circuit ?constraints core in
  let inc = Incr.create env (start_design env) in
  compare_state (name ^ " initial") env inc;
  let gates = Power_model.gate_ids env in
  let rng = Prng.create seed in
  for move = 1 to moves do
    let what k = Printf.sprintf "%s move %d %s" name move k in
    random_move inc gates rng;
    (* occasionally stack a second move into the same transaction, so the
       journals must unwind more than one write in order *)
    if Prng.float rng 1.0 < 0.25 then random_move inc gates rng;
    compare_state (what "applied") env inc;
    if Prng.float rng 1.0 < 0.5 then begin
      Incr.rollback inc;
      compare_state (what "rolled back") env inc
    end
    else Incr.commit inc
  done

let s27 () = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s27")
let s298 () = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s298")

let adder () =
  Circuit.combinational_core
    (Dcopt_netlist.Patterns.ripple_carry_adder ~bits:8)

let random_dag () =
  Generator.generate
    {
      Generator.profile_name = "incr-dag";
      primary_inputs = 8;
      primary_outputs = 6;
      flip_flops = 0;
      gates = 60;
      logic_depth = 8;
      seed = Some 42L;
    }

(* Input delays on every primary input, each its own, and an output
   delay on the first output: arrivals start from the seeds and the
   verdict is per endpoint. *)
let io_constraints core =
  let module C = Dcopt_timing.Constraints in
  let name id = (Circuit.node core id).Circuit.name in
  let tc = 1.0 /. fc in
  {
    (C.of_cycle_time tc) with
    C.output_delays =
      [
        {
          C.port = name (Circuit.outputs core).(0);
          io_clock = None;
          io_delay = 0.05 *. tc;
        };
      ];
    input_delays =
      Array.to_list
        (Array.mapi
           (fun i id ->
             {
               C.port = name id;
               io_clock = None;
               io_delay = float_of_int (i + 1) *. 0.01 *. tc;
             })
           (Circuit.inputs core));
  }

(* A move that raises mid-bucket must leave the engine usable. Resizing
   [g] queues its drivers [d1] and [d2] in one level bucket; an infinite
   width makes [d1]'s delay non-finite, so the move raises on the
   bucket's first entry. The rollback must leave [d2] free to be queued
   again: the next resize changes its load, and only a recomputed [d2]
   matches the full evaluation. *)
let test_raise_mid_bucket () =
  let c =
    Circuit.create ~name:"fork"
      ~nodes:
        [
          ("a", Dcopt_netlist.Gate.Input, []);
          ("b", Dcopt_netlist.Gate.Input, []);
          ("d1", Dcopt_netlist.Gate.Not, [ "a" ]);
          ("d2", Dcopt_netlist.Gate.Not, [ "b" ]);
          ("g", Dcopt_netlist.Gate.Nand, [ "d1"; "d2" ]);
        ]
      ~outputs:[ "g" ]
  in
  let env = make_env c in
  let inc = Incr.create env (start_design env) in
  compare_state "initial" env inc;
  let g = Circuit.find c "g" in
  (match Incr.set_width inc g infinity with
  | () -> Alcotest.fail "an infinite width did not raise"
  | exception Dcopt_opt.Guard.Non_finite _ -> Incr.rollback inc);
  compare_state "rolled back" env inc;
  Incr.set_width inc g 2.0;
  compare_state "resized" env inc;
  Incr.commit inc;
  compare_state "committed" env inc

(* Rollback restores the state exactly, not within round-off. Each
   transaction stacks width and threshold moves before and after a
   global move, so gates journaled by a local move are swept again by
   the full refresh and moved again after it; the state after the
   rollback must equal the snapshot taken before the transaction, bit
   for bit. One committed move between transactions walks the start. *)
let test_rollback_exact () =
  let core = s298 () in
  let env = make_env core in
  let inc = Incr.create env (start_design env) in
  let gates = Power_model.gate_ids env in
  let rng = Prng.create 0xB17L in
  let bits a = Array.map Int64.bits_of_float a in
  let state () =
    let d = Incr.design inc in
    ( bits
        [|
          Incr.static_energy inc;
          Incr.dynamic_energy inc;
          Incr.short_circuit_energy inc;
          Incr.total_energy inc;
          Incr.critical_delay inc;
          d.Power_model.vdd;
        |],
      bits (Incr.delays inc),
      Incr.feasible inc,
      bits d.Power_model.vt,
      bits d.Power_model.widths )
  in
  let local_move () =
    let id = gates.(Prng.int rng (Array.length gates)) in
    if Prng.bool rng then
      Incr.set_width inc id (Prng.uniform rng tech.Tech.w_min tech.Tech.w_max)
    else
      Incr.set_vt inc id (Prng.uniform rng tech.Tech.vt_min tech.Tech.vt_max)
  in
  for txn = 1 to 100 do
    let what k = Printf.sprintf "transaction %d %s" txn k in
    let before = state () in
    let global_vdd = Prng.bool rng in
    (try
       for _ = 1 to 1 + Prng.int rng 3 do
         local_move ()
       done;
       if global_vdd then
         Incr.set_vdd inc
           (Prng.uniform rng (0.5 *. tech.Tech.vdd_max) tech.Tech.vdd_max)
       else
         Incr.set_vt_uniform inc
           (Prng.uniform rng tech.Tech.vt_min tech.Tech.vt_max);
       for _ = 1 to 1 + Prng.int rng 3 do
         local_move ()
       done
     with Dcopt_opt.Guard.Non_finite _ -> ());
    Incr.rollback inc;
    let e, d, f, vt, w = state () in
    let e0, d0, f0, vt0, w0 = before in
    Alcotest.(check (array int64)) (what "energies, critical, vdd") e0 e;
    Alcotest.(check (array int64)) (what "delays") d0 d;
    Alcotest.(check bool) (what "feasible") f0 f;
    Alcotest.(check (array int64)) (what "vt") vt0 vt;
    Alcotest.(check (array int64)) (what "widths") w0 w;
    (match random_move inc gates rng with
    | () -> Incr.commit inc
    | exception Dcopt_opt.Guard.Non_finite _ -> Incr.rollback inc);
    compare_state (what "walked") env inc
  done

(* No optimizer moves a two-rail design, so the engine refuses one at
   the door instead of scoring every gate on the high rail. *)
let test_refuses_two_rails () =
  let core = s27 () in
  let env = make_env core in
  let design = Power_model.uniform_design env ~vdd:1.0 ~vt:0.2 ~w:4.0 in
  let low = Array.make (Circuit.size core) true in
  match
    Incr.create env
      { design with Power_model.rail = Some { Power_model.vdd_low = 0.7; low } }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Incr.create accepted a two-rail design"

let () =
  Alcotest.run "incr"
    [
      ( "differential",
        [
          Alcotest.test_case "s27: 200 moves match full evaluate" `Quick
            (run_moves ~moves:200 ~seed:0x127L "s27" (s27 ()));
          Alcotest.test_case "s298 core: 200 moves match full evaluate" `Quick
            (run_moves ~moves:200 ~seed:0x51298L "s298" (s298 ()));
          Alcotest.test_case "adder8: 200 moves match full evaluate" `Quick
            (run_moves ~moves:200 ~seed:0xADD8L "adder8" (adder ()));
          Alcotest.test_case "random dag: 200 moves match full evaluate"
            `Quick
            (run_moves ~moves:200 ~seed:0xDA6L "dag" (random_dag ()));
          Alcotest.test_case
            "s27 + short-circuit: 200 moves match full evaluate" `Quick
            (run_moves ~include_short_circuit:true ~moves:200 ~seed:0x5CL
               "s27-sc" (s27 ()));
          Alcotest.test_case
            "s298 + input and output delays: 200 moves match full evaluate"
            `Quick
            (let core = s298 () in
             run_moves ~constraints:(io_constraints core) ~moves:200
               ~seed:0x5DCL "s298-io" core);
          Alcotest.test_case "two-rail design refused" `Quick
            test_refuses_two_rails;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "raise mid-bucket leaves engine usable" `Quick
            test_raise_mid_bucket;
          Alcotest.test_case "rollback is exact across a full refresh" `Quick
            test_rollback_exact;
        ] );
    ]
