(** The process clocks: monotonic readings for elapsed time, a strictly
    increasing wall clock for timestamps, and the injectable wall-clock
    displacement.

    [Unix.gettimeofday] follows the system wall clock, so an NTP step or
    a DST adjustment mid-run moves every deadline computed from it —
    enough to falsely write off (or never write off) a fleet worker.
    Everything that measures {e elapsed} time (heartbeat deadlines,
    spawn timeouts, backoff sleeps) should use the monotonic readings
    here instead: they come from [clock_gettime(CLOCK_MONOTONIC)] via a
    local C stub (the installed unix library predates
    [Unix.clock_gettime]) and never step.

    Timestamps (spans, trace events, event-log lines) come from
    {!now_ns}: every call returns a value strictly larger than any
    previous one — across all domains, not just the calling one — so a
    span closed immediately after it was opened still has a positive
    duration, trace events never share a timestamp, and event-log lines
    from different pool workers interleave in a globally consistent
    order. Its source is [Unix.gettimeofday]; backwards wall-clock jumps
    are clamped (the reading advances by 1 ns instead), which makes the
    reading monotonic by construction.

    The wall-clock {e offset} exists for deterministic fault injection:
    a [clock.tick:jump=S] fault displaces {!now_ns} by [S] seconds
    without touching the monotonic readings — so a correct consumer
    (monotonic deadlines) is provably unaffected while timestamp
    consumers visibly shear. *)

val monotonic_ns : unit -> int64
(** Nanoseconds on the monotonic clock. The epoch is arbitrary (boot
    time on Linux); only differences are meaningful. *)

val monotonic_s : unit -> float
(** {!monotonic_ns} in seconds. *)

val jump_wall_ns : int64 -> unit
(** Displace the injected wall-clock offset by this many nanoseconds
    (negative jumps allowed). Atomic; callable from any domain. *)

val now_ns : unit -> int64
(** Current wall time in ns (plus any injected offset), strictly
    increasing across calls and domains. *)

val ns_to_s : int64 -> float
(** Nanoseconds to seconds. *)

val ns_to_us : int64 -> float
(** Nanoseconds to microseconds (the unit of Chrome trace events). *)
