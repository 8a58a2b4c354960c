module Prng = Dcopt_util.Prng

(* The first delay, the ceiling, and the largest share of a delay the
   jitter may take off. *)
let base_s = 0.1
let cap_s = 5.0
let jitter_frac = 0.5

let backoff_delay_s ~prng ~attempt =
  let attempt = max 1 attempt in
  (* 2^(attempt-1) in float, saturating long before overflow matters *)
  let expo = base_s *. (2.0 ** float_of_int (min 62 (attempt - 1))) in
  let capped = Float.min cap_s expo in
  (* jitter shrinks the delay (never extends it past the cap) and comes
     from the caller's seeded PRNG, so a worker's whole reconnect
     schedule is a pure function of its id *)
  capped *. (1.0 -. (jitter_frac *. Prng.float prng 1.0))

type quarantine = { q_after : int; q_losses : (string, int) Hashtbl.t }

let quarantine ?(after = 2) () =
  if after < 1 then invalid_arg "Policy.quarantine: after < 1";
  { q_after = after; q_losses = Hashtbl.create 8 }

let losses q id = Option.value ~default:0 (Hashtbl.find_opt q.q_losses id)

let note_loss q id =
  let n = losses q id + 1 in
  Hashtbl.replace q.q_losses id n;
  n

let quarantined q id = losses q id >= q.q_after
