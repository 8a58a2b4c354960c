module Metrics = Dcopt_obs.Metrics
module Events = Dcopt_obs.Events

exception Non_finite of { site : string; value : float }

let m_non_finite =
  Metrics.counter ~help:"non-finite values trapped at the power-model boundary"
    "guard.non_finite"

let m_clamped =
  Metrics.counter ~help:"non-finite values clamped to +infinity"
    "guard.clamped"

let m_aborted =
  Metrics.counter ~help:"optimizer trials abandoned on a non-finite value"
    "guard.trials_aborted"

(* A +infinity is the delay of a gate that cannot switch at a scanned
   point (vt at or above vdd), which every (Vdd, Vt) scan meets by design:
   the counters record it, and nothing more. Any other trip (NaN,
   -infinity) is always suspicious, so it also leaves a Warn event carrying
   the site, joinable to its batch row via the correlation scope. *)
let trip_event ~site ~action v =
  if v <> Float.infinity then
    Events.warn "guard.non_finite"
      ~fields:
        [
          ("site", Dcopt_util.Json.String site);
          ("value", Dcopt_util.Json.Float v);
          ("action", Dcopt_util.Json.String action);
        ]

let clamp ~site v =
  if Float.is_finite v then v
  else begin
    Metrics.incr m_non_finite;
    Metrics.incr m_clamped;
    trip_event ~site ~action:"clamped" v;
    infinity
  end

let check ~site v =
  if Float.is_finite v then v
  else begin
    Metrics.incr m_non_finite;
    trip_event ~site ~action:"raised" v;
    raise (Non_finite { site; value = v })
  end

let abort_trial () = Metrics.incr m_aborted

let protect f =
  try f ()
  with Non_finite _ ->
    abort_trial ();
    None
