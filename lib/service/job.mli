(** Batch-job specifications and result rows — the JSONL wire format of
    [minpower batch] / [minpower serve] and the value format of the
    {!Store} result cache.

    A job names a circuit (suite name or [.bench] path), an optimizer
    from the {!Dcopt_core.Optimizer} registry, and an optional partial
    {!Dcopt_core.Flow.config} override object; the service resolves all
    three, so malformed specs become typed per-job failures instead of
    batch aborts. Result rows deliberately carry no wall-clock fields —
    latency goes to {!Dcopt_obs.Metrics} — so batch output is
    byte-identical at any [--jobs] count and on cache replay. *)

type t = {
  id : string option;
      (** label echoed in the result row; defaults to ["job<index>"] *)
  circuit : string;  (** suite circuit name, or a path to a .bench file *)
  optimizer : string;  (** {!Dcopt_core.Optimizer} registry name *)
  config : Dcopt_util.Json.t option;
      (** partial config object applied over
          {!Dcopt_core.Flow.default_config} by
          {!Dcopt_core.Flow.config_of_json} *)
  scenarios : Dcopt_util.Json.t option;
      (** versioned multi-corner scenario object: [{"version": 1,
          "sdc": "<path>", "corners": [{"name": ..., "vt_factor": ...}]}],
          both inner members optional. Resolution failures (unreadable or
          diagnosed SDC, bad corner list) become typed per-job failures.
          Jobs without this field keep their pre-scenario store digest. *)
  timeout_s : float option;
      (** per-attempt wall-clock cap; cancellation is cooperative (rides
          the telemetry observer), so observer-less optimizers cannot be
          interrupted mid-search *)
  retries : int;  (** extra attempts after a crash or timeout (default 0) *)
}

val make :
  ?id:string -> ?optimizer:string -> ?config:Dcopt_util.Json.t ->
  ?scenarios:Dcopt_util.Json.t ->
  ?timeout_s:float -> ?retries:int -> string -> t
(** [make circuit] with defaults: optimizer ["joint"], no overrides, no
    timeout, no retries. *)

val to_json : t -> Dcopt_util.Json.t
val of_json : Dcopt_util.Json.t -> (t, string) result
(** Accepts an object with a required ["circuit"] member and optional
    ["id"], ["optimizer"], ["config"], ["scenarios"], ["timeout_s"],
    ["retries"];
    unknown members are typed errors. *)

(** What happened to one job. [Failed] rows are never cached. *)
type outcome =
  | Solved of Dcopt_opt.Solution.t
  | Infeasible  (** the optimizer ran but found no design closing timing *)
  | Failed of { error : string; attempts : int }

val outcome_to_store_json : outcome -> Dcopt_util.Json.t option
(** The versioned value document the {!Store} cache and the batch
    {!Checkpoint} both persist; [None] for [Failed] (never cached). *)

val outcome_of_store_json : Dcopt_util.Json.t -> outcome option
(** Decode a persisted value document; [None] on any shape mismatch (the
    callers treat that as a corrupt entry = miss). *)

type row = {
  job_id : string;
  row_circuit : string;
  row_optimizer : string;
  digest : string;  (** the {!Store} cache key of this job's inputs *)
  cache_hit : bool;
      (** the outcome came from the store or from an identical earlier
          job in the same batch *)
  outcome : outcome;
}

val row :
  ?job:t -> ?digest:string -> ?cache_hit:bool -> job_id:string -> outcome ->
  row
(** The one row constructor: circuit and optimizer come from [job] (both
    [""] for an input line that never parsed as a job); [digest]
    defaults to [""] (inputs that did not resolve), [cache_hit] to
    [false]. *)

val row_to_json : row -> Dcopt_util.Json.t
val row_of_json : Dcopt_util.Json.t -> (row, string) result
val render_rows : row list -> string
(** Fixed-width human table of a batch result (the [--table] output). *)
