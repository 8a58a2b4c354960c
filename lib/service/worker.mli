(** Fleet worker process body: the [minpower worker] subcommand.

    Connects to a coordinator ({!Fleet}) address, announces itself with
    a [hello] frame, then loops: read a [job] frame, compute it with
    {!Service.run_assigned} (under the coordinator's [batch_id], so the
    event-log correlation chain [run_id → batch_id → worker_id →
    job_id] spans processes), and send the [result] frame back. A
    worker never reads or writes the result store: the coordinator
    serves hits and persists results. While a job computes, a
    background thread streams [heartbeat] frames so the coordinator can
    tell a slow optimizer from a dead process; an idle worker is
    silent.

    With a [reconnect] budget, a lost coordinator connection (or a
    refused dial) is retried under {!Policy.backoff_delay_s}: capped
    exponential backoff whose jitter comes from a PRNG seeded with the
    worker id, so the whole retry schedule is deterministic per worker.
    A clean [shutdown] frame never triggers a reconnect, and neither does
    a [refused] frame: the coordinator refuses a quarantined id or
    another protocol version for good, so the worker logs a
    [worker.refused] error event naming the reason and stops. Spawned
    fleet workers run with the default budget of 0 — their coordinator
    respawns them — while externally-launched workers
    ([minpower worker --connect host:port --reconnect N]) ride out
    coordinator restarts and network blips themselves.

    Workers are meant to run with the domain pool at [jobs=1] — fleet
    parallelism replaces the in-process pool — which the CLI arranges.

    Fault injection: the worker arms [DCOPT_FAULT_PLAN] on entry
    ({!Faults.arm_from_env}) and sets its role to the worker id, then
    exposes the [worker.job] (before computing) and [worker.result]
    (after computing, before replying) seams for [stall]/[exit]/[kill],
    and sends every frame through {!Wire.send} sites. *)

val run :
  ?reconnect:int ->
  connect:Wire.addr ->
  worker_id:string ->
  unit ->
  bool
(** Run the worker loop until a clean [shutdown] frame ([true]), a
    [refused] frame ([false], with no reconnect) or until the
    coordinator stays unreachable / desynchronises with the reconnect
    budget spent ([false]). [reconnect] (default 0) caps
    reconnection attempts across the whole run; heartbeats go every
    0.5 s, and a session that ends returns without waiting out the
    interval. Sets the process event-log worker id and ignores
    [SIGPIPE]. Raises [Failure] on an unusable address (resolution
    failure, port 0) and [Unix.Unix_error] on a dial failure with no
    reconnect budget. *)
