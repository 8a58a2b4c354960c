(** Structured event log: one JSON object per line, correlated by IDs.

    The metrics registry answers "how much / how fast overall"; the event
    log answers "what happened to {e this} job". Every event carries a
    strictly monotonic timestamp ({!Dcopt_util.Clock.now_ns}), a
    severity, an event name, and whatever part of the correlation chain
    [run_id → batch_id → worker_id → job_id] is in scope — so a batch
    result row can be joined to its retries, store and checkpoint hits,
    guard trips and convergence trajectory by grepping the log for its
    [job_id].

    The sink is process-global and disabled by default; [emit] with no
    sink configured is a cheap no-op, so library code logs
    unconditionally. Events may be emitted from any domain (pool workers
    log from inside batch tasks): lines are written and flushed whole
    under a mutex, so a crashed process leaves a valid JSONL prefix and
    concurrent lines never shear. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_string : string -> level option
(** Inverse of {!level_to_string}; [None] on anything else. *)

(** {1 Sink} *)

val open_file : ?min_level:level -> string -> unit
(** Open [path] in append mode as the event sink, replacing (and closing)
    any previous sink. Events below [min_level] (default [Info]) are
    dropped. *)

val close : unit -> unit
(** Flush, close and detach the sink. Idempotent. *)

val active : level -> bool
(** Whether an event at this level would currently be written — for
    guarding expensive field computation. *)

(** {1 Correlation scope} *)

val set_run_id : string -> unit
(** Set the process-level run id (once, at startup, before the domain
    pool exists): every event from every domain carries it unless a
    {!with_scope} [run_id] overrides it. *)

val set_worker_id : string -> unit
(** Set the process-level worker id — a fleet worker process is one
    worker for its whole life, so [minpower worker] sets it once and
    every event the process emits carries it (between [batch_id] and
    [job_id] in the chain) unless a {!with_scope} [worker_id] overrides
    it. Coordinator processes never set one, so their events have no
    [worker_id] member. *)

val with_scope :
  ?run_id:string ->
  ?batch_id:int ->
  ?worker_id:string ->
  ?job_id:string ->
  (unit -> 'a) ->
  'a
(** Run the function with the given correlation IDs attached to every
    event it emits. The scope is domain-local and layered: fields not
    passed inherit from the enclosing scope, so a process-level [run_id]
    survives into per-job scopes opened inside pool-worker closures, and
    the previous scope is restored on exit (also on exception). *)

val current_scope : unit -> string option * int option * string option
(** The calling domain's [(run_id, batch_id, job_id)]. *)

(** {1 Emission} *)

val emit : ?fields:(string * Dcopt_util.Json.t) list -> level -> string -> unit
(** [emit level event] writes one JSONL line
    [{"ts_ns":…,"level":…,"event":event,…scope…,…fields…}] to the sink;
    no-op when no sink is configured or [level] is below its threshold.
    Field order is fixed (ts_ns, level, event, run_id, batch_id,
    worker_id, job_id, then [fields] in the given order), so the log is
    deterministic up to timestamps. *)

val debug : ?fields:(string * Dcopt_util.Json.t) list -> string -> unit
val info : ?fields:(string * Dcopt_util.Json.t) list -> string -> unit
val warn : ?fields:(string * Dcopt_util.Json.t) list -> string -> unit
val error : ?fields:(string * Dcopt_util.Json.t) list -> string -> unit
