external monotonic_ns : unit -> int64 = "dcopt_monotonic_ns"

let monotonic_s () = Int64.to_float (monotonic_ns ()) *. 1e-9

(* Injected wall-clock displacement (fault plans only): folded into
   [now_ns] so a fault-plan clock jump visibly displaces event/trace
   timestamps, while monotonic readers stay untouched. *)
let offset = Atomic.make 0L

let rec jump_wall_ns ns =
  let prev = Atomic.get offset in
  if not (Atomic.compare_and_set offset prev (Int64.add prev ns)) then
    jump_wall_ns ns

(* One process-global strictly-increasing clock. The last-issued reading
   is an atomic so any domain — pool workers record spans and events too —
   can take a timestamp; the CAS loop preserves the strict-monotonicity
   guarantee across domains, not just within one. A backwards jump
   (injected or a real wall-clock step) is clamped by the same path. *)
let last = Atomic.make 0L

let rec now_ns () =
  let raw =
    Int64.add
      (Int64.of_float (Unix.gettimeofday () *. 1e9))
      (Atomic.get offset)
  in
  let prev = Atomic.get last in
  let t = if Int64.compare raw prev <= 0 then Int64.add prev 1L else raw in
  if Atomic.compare_and_set last prev t then t else now_ns ()

let ns_to_s ns = Int64.to_float ns *. 1e-9
let ns_to_us ns = Int64.to_float ns *. 1e-3
