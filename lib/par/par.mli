(** Fixed-size domain pool for the embarrassingly parallel optimizer
    sites, built on stdlib [Domain]/[Mutex]/[Condition] only.

    {!map} and {!map_list} are the one parallel entry point, and a task
    is one independent unit of work: a grid trial, a corner, a yield
    sample, an annealing pass, a batch job. A single timing or power
    sweep runs on the domain that calls it.

    Design constraints, in priority order:

    - {b Determinism}: results come back in index order, and every call
      site computes in parallel but folds/emits sequentially, so a run
      with [--jobs 4] is bit-identical to [--jobs 1] — including
      telemetry streams and trial counts.
    - {b Degeneration}: [jobs () = 1] (the default) takes a plain
      sequential loop — no domains, no locks. A nested call from inside
      a running task also degenerates, so call sites never need to know
      whether their caller is already parallel.
    - {b Economy}: one process-global pool, lazily (re)built when the
      job count changes, joined via [at_exit].

    The job count defaults to [DCOPT_JOBS] (clamped to \[1, 64\], 1 when
    unset or unparsable) and can be overridden with {!set_jobs} (the
    [--jobs] flag of [minpower] and [bench/main.exe]).

    Exceptions raised by tasks are captured; the first one (in completion
    order) is re-raised with its backtrace on the caller after the whole
    batch has drained, so the pool is left reusable.

    Each batch records pool metrics in {!Dcopt_obs.Metrics} from the main
    domain only: the [par.tasks]/[par.batches] counters, the
    [par.domains] gauge, and — when [site] is given — a
    [par.latency.<site>] histogram of per-task elapsed seconds, read on
    the monotonic clock. *)

val jobs : unit -> int
(** Current global job count (>= 1). *)

val set_jobs : int -> unit
(** Set the global job count; clamped to at most 64. Raises
    [Invalid_argument] when below 1. The pool is resized lazily at the
    next parallel call. *)

val map : ?site:string -> ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f a] is [Array.map f a] with the applications spread over
    [min jobs (length a)] domains (the caller participates); results are
    positioned by index, so the output order never depends on
    scheduling. The call returns after every application completed, or
    re-raises the first captured exception. *)

val map_list : ?site:string -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over a list, preserving order. *)

val shutdown : unit -> unit
(** Join the worker domains (idempotent; also installed via [at_exit]).
    The pool respawns on the next parallel call. *)
