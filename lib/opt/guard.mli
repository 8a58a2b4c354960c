(** Numerical guardrails at the power-model boundary.

    Ill-conditioned trial points (vt at or above vdd, zero drive,
    overflowing exponentials) produce non-finite delay/energy values that
    would otherwise poison optimizer accept/reject comparisons — NaN
    compares false with everything, so a NaN objective can masquerade as
    "not worse" and survive. The guards normalize those values at the
    boundary where they first appear:

    - {!clamp} is for the full-evaluation path, where sums start from
      zero: a non-finite term is forced to [+infinity], which is
      comparison-safe (an infinite objective loses every minimization and
      fails every feasibility test), and counted.
    - {!check} is for the incremental path, where running totals are
      updated by subtract-then-add: clamping there is {e unsafe}
      ([inf -. inf = nan] would poison the totals for every later move),
      so the move raises {!Non_finite} before any state mutates and the
      caller rolls the transaction back.

    Every trip is visible through the obs layer: [guard.non_finite]
    counts values trapped, [guard.clamped] the subset clamped in place,
    and [guard.trials_aborted] the trials abandoned via {!abort_trial}/
    {!protect}. A trip also logs a [guard.non_finite] Warn event, unless
    the value is [+infinity]: that is the delay of a gate that cannot
    switch at a scanned point, which every (Vdd, Vt) scan meets, so it is
    only counted. *)

exception Non_finite of { site : string; value : float }
(** Raised by {!check} on a NaN/infinite value. [site] names the
    boundary that trapped it (e.g. ["incr.delay"]). *)

val clamp : site:string -> float -> float
(** Identity on finite values; a non-finite value is counted
    ([guard.non_finite], [guard.clamped]) and replaced by [+infinity]. *)

val check : site:string -> float -> float
(** Identity on finite values; a non-finite value is counted and raises
    {!Non_finite} — call before mutating any running state. *)

val abort_trial : unit -> unit
(** Count an abandoned trial ([guard.trials_aborted]). *)

val protect : (unit -> 'a option) -> 'a option
(** [protect f] runs [f]; a {!Non_finite} escaping it aborts the trial
    ([None], counted) instead of the process. Other exceptions pass
    through. *)
