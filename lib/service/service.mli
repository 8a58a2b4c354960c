(** Batch optimization service: schedule many {!Job}s over the
    {!Dcopt_par.Par} domain pool with per-job isolation, cooperative
    timeouts, bounded retry and a content-addressed {!Store} cache.

    Guarantees:

    - {b Determinism}: result rows come back in job order and carry no
      wall-clock data, so a batch at [--jobs 4] is byte-identical to
      [--jobs 1] (latency and retry counts go to {!Dcopt_obs.Metrics}
      instead). Identical jobs are deduplicated by digest before
      scheduling, so their [cache_hit] flags don't depend on scheduling
      either: the first occurrence computes (or hits the store), the
      rest always read as hits.
    - {b Isolation}: everything a job can do wrong — unknown or
      malformed circuit, unknown optimizer, malformed config or
      scenarios, optimizer exception, timeout after all retries —
      becomes a [Failed] row; sibling jobs and the batch itself are
      unaffected.
    - {b Bounded retry}: a crash or timeout is retried up to
      [job.retries] times; each attempt gets a fresh deadline.

    Timeouts are cooperative: the service injects a deadline check into
    the optimizer's telemetry observer stream. Every builtin optimizer
    streams its trials ({!Dcopt_core.Optimizer}), so a deadline reaches
    each of them mid-search; a registered optimizer that ignores
    [?observer] runs to completion regardless.

    Observability (all under the [service.] prefix): [jobs],
    [solved]/[infeasible]/[failed], [cache.hits]/[cache.misses] and
    [retries] counters; [queue_depth] and [in_flight] gauges set around
    the batch; [latency] (seconds per job), [attempts], [job.wall_ns]
    and [job.alloc_bytes] histograms observed after the pool barrier on
    the main domain (per-job wall time and domain-local allocation are
    measured on the worker and carried back — never into result rows,
    which stay wall-clock-free); a [service.batch] span with per-job
    [service.job] children recorded in each worker's own trace buffer.

    Every batch also narrates itself to {!Dcopt_obs.Events} under a
    fresh [batch_id]: [batch.start], per-job [job.warning] (one per
    warning of a job's inputs, such as an ignored SDC command; warnings
    never reach rows) / [job.store_hit] /
    [job.checkpoint_hit] / [job.start] / [job.retry] / [job.done] /
    [job.failed] (each carrying the correlation chain
    [run_id]/[batch_id]/[job_id]; the [job_id] of a deduplicated
    computation is its first occurrence's id), then [batch.done]. *)

val resolve_circuit :
  string -> (Dcopt_netlist.Circuit.t, string) result
(** The one circuit resolver of the CLI and the service: an existing
    path is read by {!Dcopt_netlist.Bench_format.parse_file_checked},
    whose located diagnostics come back as the [Error], every one of
    them, joined by ["; "]; anything else is looked up in
    {!Dcopt_suite.Suite}. *)

(** {1 Pluggable execution}

    {!run_batch_via} is the batch pipeline with the compute step
    abstracted out: resolution, dedup, store/checkpoint lookups and row
    assembly happen on the calling domain, and [execute] turns the
    deduped {!task} array into one {!computed} per task (same order) by
    any means — the in-process domain pool ({!run_batch}'s default) or
    the multi-process fleet ({!Fleet}). Rows depend only on the outcomes
    [execute] returns, never on how it scheduled them: that is the
    byte-identity invariant across the [--jobs] and [--workers] paths. *)

type task
(** One distinct computation of a batch: the first occurrence of its
    digest, carrying that occurrence's job id as its event-log
    identity. *)

val task_id : task -> string
(** The job id of the digest's first occurrence in the batch. *)

val task_digest : task -> string
(** The content-addressed store key ({!Store.digest}). *)

val task_job : task -> Job.t
(** The job spec to ship to a worker process, with [id] pinned to
    {!task_id} so the worker joins the coordinator's correlation chain
    under the same job id. *)

type computed = {
  comp_outcome : Job.outcome;
  comp_attempts : int;
  comp_latency_s : float;
  comp_wall_ns : int64;
  comp_alloc_bytes : float;
}
(** What one execution produced. Only [comp_outcome] reaches result
    rows; the rest feeds histograms. Remote executors that cannot
    measure a field report it as zero. *)

val compute_task : batch_id:int -> task -> computed
(** Run one task on the calling domain, isolated exactly as the pool
    path: per-attempt deadline, bounded retry, any exception folded
    into a [Failed] outcome. Establishes the [batch_id]/[job_id] event
    scope itself, so executors may call it from any domain (or as a
    local fallback when no worker can take the task). *)

val run_batch_via :
  ?store:Store.t ->
  ?checkpoint:Checkpoint.t ->
  ?batch_id:int ->
  execute:(batch_id:int -> task array -> computed array) ->
  Job.t list ->
  Job.row list
(** {!run_batch} with the compute step supplied by [execute] (which
    must return exactly one {!computed} per task, in task order —
    anything else raises [Invalid_argument]). [batch_id] defaults to a
    fresh id from the process-wide batch sequence. [execute] is
    responsible for checkpoint recording as results land (the pipeline
    only {e reads} the checkpoint up front). *)

val run_batch :
  ?store:Store.t ->
  ?checkpoint:Checkpoint.t ->
  ?batch_id:int ->
  Job.t list ->
  Job.row list
(** Run every job (worker count from {!Dcopt_par.Par.jobs}); with a
    [store], solved/infeasible outcomes are served from and persisted to
    it. Never raises on job-level problems.

    With a [checkpoint], every completed job's outcome is additionally
    recorded there {e from the worker, as it finishes} — and jobs whose
    outcome is already in the checkpoint skip computation entirely. A
    checkpoint hit is reported with [cache_hit = false] (and fed into
    the store when one is given), so resuming an interrupted batch with
    the same checkpoint directory yields byte-identical rows to an
    uninterrupted run. Store hits are preferred over checkpoint hits. *)

val run_assigned : batch_id:int -> Job.t -> Job.row
(** A fleet worker's step: resolve the one job its coordinator assigned
    and {!compute_task} it under the coordinator's [batch_id]. The row
    carries the digest this process resolved ([""] when the job did not
    resolve here) and [cache_hit = false]. No dedup, store, checkpoint,
    batch counters or batch events, and no [job.warning] events: the
    coordinator resolved the same job, owns the store and assembles the
    row the batch prints, so each of those happens once per job. *)

val partial_rows :
  ?store:Store.t -> ?checkpoint:Checkpoint.t -> Job.t list -> Job.row list
(** The subset of {!run_batch}'s rows already answerable without running
    any optimizer: resolution failures, store hits and checkpoint hits,
    in job order, other jobs silently omitted. This is the interrupt
    path — [minpower batch]'s SIGINT/SIGTERM handler emits these as the
    partial result of a killed run. Touches no batch counters. *)

val failed_line_row : line_no:int -> string -> Job.row
(** The [Failed] row answering input line [line_no] that is not a job
    (id ["line<n>"], no circuit, optimizer or digest). *)

val serve :
  ?store:Store.t ->
  ?run:(Job.t list -> Job.row list) ->
  in_channel ->
  out_channel ->
  unit
(** Long-running loop: one job spec as JSON per input line, one result
    row as JSON per output line (flushed), until EOF. Blank lines are
    skipped; unparsable lines, shape-invalid jobs and exceptions
    escaping the runner all produce a [Failed] row with id ["line<n>"]
    and the session continues — a malformed frame can never take the
    loop down. [run] replaces the default per-line {!run_batch} (the
    fleet coordinator plugs in {!Fleet.run_batch} here).

    Lines that are not JSON objects are control requests answered from
    the live registry mid-session: ["metrics"] returns the OpenMetrics
    exposition ({!Dcopt_obs.Metrics.render_openmetrics}; the client
    reads until its ["# EOF"] terminator line), ["status"] returns one
    JSON line with the service counters and gauges. An unknown bare
    word produces a [Failed] row. *)

val serve_unix_socket :
  ?store:Store.t -> ?run:(Job.t list -> Job.row list) -> string -> unit
(** Bind a unix domain socket at this path (unlinking a stale one) and
    {!serve} each connection in sequence, forever. A connection that
    drops mid-session or throws ends only its own session, never the
    accept loop. *)
