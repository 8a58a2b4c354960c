(** Seeded, deterministic fault injection for the service stack.

    A {e fault plan} names exactly which failures to inject and when:
    entries of the form [[role/]site@occurrence:action[=arg]] joined
    with [';'], plus an optional [seed=N] entry. [site] is one of the
    published injection seams ({!sites}); [occurrence] is a 1-based
    per-process count of how many times that site has fired ([*] =
    every time); [role] restricts the entry to one process (["coord"]
    for a coordinator, a worker id such as ["w0"] for a fleet worker —
    {!set_role}). Examples:

    - [w0/wire.send.result@2:drop] — worker w0 silently drops its
      second result frame.
    - [store.put@*:enospc] — every store write fails as if the disk
      were full.
    - [clock.tick@1:jump=3600] — the wall clock steps forward an hour
      at the coordinator's first scheduling tick.

    The schedule is keyed by [(site, occurrence-count)], so the same
    plan string reproduces the same failure sequence exactly; the seed
    only feeds auxiliary deterministic choices (the corrupted byte
    position in {!corrupt_string}).

    Plans are armed per process. The CLI arms [--fault-plan] (or
    [DCOPT_FAULT_PLAN]) and exports the plan string through the
    environment, so spawned fleet workers inherit it and arm themselves
    ({!arm_from_env}); the role guard is what separates "the
    coordinator's frames" from "worker w2's frames".

    Every fault that fires bumps [faults.fired] plus a per-class counter
    ([faults.wire] / [faults.store] / [faults.worker] / [faults.clock])
    and emits a [fault.fired] warn event carrying site, occurrence and
    action — so a chaos run's injected failures are auditable from the
    same metrics/events surface as the recovery they provoke. *)

type action =
  | Drop  (** wire: swallow the frame entirely *)
  | Delay of float  (** wire: sleep this long before writing *)
  | Truncate of int  (** wire: write only the first N bytes *)
  | Corrupt  (** wire: flip one byte ({!corrupt_string}) *)
  | Stall of float  (** worker: sleep (heartbeats silent) *)
  | Exit  (** worker: exit 70 at the seam *)
  | Kill  (** worker: SIGKILL itself at the seam *)
  | Enospc  (** store: the write fails as with a full disk *)
  | Eio  (** store: the I/O fails *)
  | Short of int  (** store: persist only the first N bytes *)
  | Jump of float  (** clock: step the wall clock by this many seconds *)

type which = Nth of int | Every

type entry = {
  e_role : string option;
  e_site : string;
  e_which : which;
  e_action : action;
}

type plan = { seed : int64; entries : entry list }

val sites : string list
(** The published injection seams; {!parse} rejects anything else. *)

val parse : string -> (plan, string) result

val arm : plan -> unit
(** Make this the process's armed plan and reset every occurrence
    counter. *)

val disarm : unit -> unit
(** Drop the armed plan; {!fire} becomes a no-op returning []. *)

val arm_from_env : unit -> unit
(** {!arm} the plan in [DCOPT_FAULT_PLAN], if any; an unparsable plan
    emits a [fault.plan_invalid] event and arms nothing (library code
    must not die on a bad env var — the CLI front door validates). *)

val set_role : string -> unit
(** The process's role for [role/] entry guards. Defaults to ["coord"];
    fleet workers set their worker id. *)

val fire : string -> action list
(** Count one occurrence of this site and return the actions scheduled
    for it, in plan order (empty when disarmed — the common case, one
    atomic-free ref read). Bumps the fault counters and emits
    [fault.fired] per returned action. *)

val corrupt_string : string -> string
(** Flip one byte (never the last — a frame's newline must survive so
    the damage stays inside the frame), at a position derived
    deterministically from the armed plan's seed and the bytes
    themselves. *)
