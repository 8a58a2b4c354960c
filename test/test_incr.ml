(* Differential property test of the incremental evaluation engine.

   Power_model.Incr maintains delays, arrivals, critical delay and running
   energy totals under single-gate and global moves. These tests drive the
   engine through long random move sequences — width and per-gate Vt moves
   (the incremental paths), global Vdd and uniform-Vt moves (the full
   fallback paths), multi-move transactions and interleaved rollbacks —
   and after every apply AND every rollback compare the engine's state
   against a fresh full Power_model.evaluate of the live design, to
   <= 1e-9 relative error (the delay path is bit-identical by
   construction; the energy totals may drift at round-off). *)

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

let make_env ?include_short_circuit core =
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  Power_model.make_env ?include_short_circuit ~tech ~fc core profile

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

let run_moves ?include_short_circuit ~moves ~seed name core () =
  let env = make_env ?include_short_circuit core in
  let design =
    Power_model.uniform_design env
      ~vdd:(0.8 *. tech.Tech.vdd_max)
      ~vt:(0.5 *. (tech.Tech.vt_min +. tech.Tech.vt_max))
      ~w:4.0
  in
  let inc = Incr.create env design in
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
          Alcotest.test_case "two-rail design refused" `Quick
            test_refuses_two_rails;
        ] );
    ]
