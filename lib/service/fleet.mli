(** Multi-process optimization fleet: the coordinator side.

    A fleet owns a listening socket — a private unix-domain socket by
    default, or any {!Wire.addr} via [listen] ([minpower batch/serve
    --listen host:port]) — and a pool of [minpower worker] processes
    that connect back to it ({!Worker}, {!Wire}). Spawned workers are
    children dialing the listen address; with a TCP listen address,
    {e external} workers ([minpower worker --connect host:port] from
    anywhere) may also join: an authenticated-by-id hello from an
    identity the coordinator did not spawn is accepted as long as the id
    is free and not quarantined. {!run_batch} is a drop-in replacement
    for {!Service.run_batch}: the whole batch pipeline (dedup,
    store/checkpoint lookups, store writes, row assembly) still runs on
    the coordinator via {!Service.run_batch_via}, and only the compute
    step is distributed — so rows are byte-identical to the in-process
    path by construction, whatever the worker count and whatever
    crashes. Only the job spec travels, so a worker reads the job's
    files itself: a result is accepted only when its row's digest is
    the assigned task's ({!Service.task_digest}). Any other digest
    means the worker resolved other inputs under the job's names, and
    the frame counts as a corrupt one. Results persist at the batch
    barrier, as in-process ones do; a [checkpoint] records each as it
    lands.

    Scheduling is worker-pull with backpressure: tasks sit in one shared
    queue, and any ready worker with in-flight room (at most 2
    outstanding jobs) takes the next task — a slow worker's share
    drains to whoever is keeping up, with no static sharding. Health is
    tracked per worker on the {e monotonic} clock ({!Dcopt_util.Clock}),
    so a wall-clock jump (NTP step, DST, an injected [clock.tick:jump])
    never triggers — or masks — a timeout: a worker computing a job
    streams heartbeats, and silence from a worker {e with jobs in
    flight} beyond the heartbeat timeout ([DCOPT_FLEET_HEARTBEAT_S],
    read at {!options} time, default 5 s), an EOF, a write error, a
    malformed, checksum-failed or wrong-digest frame, a spawn silent
    for 30 s, or a reaped exit all count it lost. Its in-flight jobs
    are requeued onto survivors (at most twice each, then computed
    in-process by the coordinator); if the whole fleet dies, the
    coordinator drains the queue itself. A batch therefore {e always}
    completes with a full, deterministic row set.

    Failure budgets: the spawned roster is the fixed identity set
    [w0..w(workers-1)]. A lost spawned id is respawned {e under the same
    name} — mid-batch, as soon as there is still queued work — so its
    losses accumulate across incarnations; after 2 losses the id is
    quarantined: never respawned again and refused at hello, so a
    crash-looping worker (bad host, poisoned environment) cannot grind
    a batch forever. External identities share the same budget. A
    quarantined id, or a hello of another protocol version, is sent a
    [refused] frame naming the reason before the close, so an external
    worker stops instead of spending its reconnect budget.

    Workers are spawned lazily on the first batch that actually has
    something to compute (a fully warm batch spawns nothing) and are
    reused across batches; workers lost between batches are replaced at
    the next batch ([ensure]d back up to [workers]).

    Observability: [service.fleet.workers] / [in_flight] gauges,
    [spawned] / [dispatched] / [results] / [heartbeats] / [worker_lost]
    / [requeued] / [fallback] / [quarantined] counters, and [fleet.*]
    events carrying the [run_id → batch_id → worker_id → job_id]
    correlation chain. The coordinator's fault seams are
    [wire.send.job], [wire.send.shutdown], [wire.send.refused] (outbound
    frames) and
    [clock.tick] ([jump] displaces the wall clock the event log reads;
    scheduling must not notice). *)

type options

val options :
  ?binary:string ->
  ?worker_args:string list ->
  ?listen:Wire.addr ->
  workers:int ->
  unit ->
  options
(** [binary] defaults to [Sys.executable_name] (the coordinator spawns
    its own executable with the [worker] subcommand); [worker_args] are
    appended to the worker argv (the CLI passes the run id and the event
    log there). [listen] defaults to a fresh private unix-domain socket;
    pass [Wire.Tcp (host, port)] to accept external workers (port [0]
    binds an ephemeral port — the actual one is what spawned workers
    dial). Raises [Invalid_argument] when [workers < 1]. *)

type t

val create : options -> t
(** Bind the coordinator socket (no workers yet) and ignore [SIGPIPE]
    process-wide — a worker dying mid-write must surface as an error on
    that worker's descriptor, not kill the coordinator. Raises
    [Invalid_argument] when the listen address cannot be bound or
    resolved (the message carries the {!Wire} diagnostic). *)

val run_batch :
  t -> ?store:Store.t -> ?checkpoint:Checkpoint.t -> Job.t list -> Job.row list
(** {!Service.run_batch} semantics, compute step distributed over the
    fleet. Spawns (or replaces) workers as needed. Raises
    [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Send every live worker a [shutdown] frame, give clean exits ~2 s,
    [SIGKILL] spawned stragglers (external workers are never signalled
    — their clean exit is their own business), reap everything, close
    the socket and unlink it when it was a private unix path.
    Idempotent. *)
