(** Hierarchical wall-clock spans with a Chrome trace-event exporter.

    Spans are recorded per domain when tracing is enabled; when disabled
    (the default) [with_] degenerates to calling the wrapped function, so
    instrumented hot paths pay one branch and one closure call. Each
    domain — the main one and every {!Dcopt_par.Par} pool worker — owns
    its own buffer and depth counter, so worker task bodies trace without
    racing the main domain's nesting; the buffers are combined at export
    with the domain id as the Chrome [tid]. Nesting is tracked with a
    per-domain depth counter: a span opened while another is running on
    the same domain is its child, which is exactly the time-containment
    relation the Chrome viewer reconstructs.

    The exported JSON loads directly in [chrome://tracing] (or Perfetto):
    one complete ("ph":"X") event per span, one trace row per domain. *)

type span = {
  name : string;
  start_ns : int64;             (** {!Dcopt_util.Clock.now_ns} at open *)
  dur_ns : int64;               (** strictly positive; clamped to 1 if the
                                    clock source misbehaves (see [with_]) *)
  depth : int;                  (** 0 = top-level on its domain *)
  args : (string * string) list; (** free-form annotations *)
}

val set_enabled : bool -> unit
(** Turn recording on or off; off by default. Turning recording off does
    not discard spans already recorded. Main-domain only (workers read
    the flag but never flip it). *)

val enabled : unit -> bool

val with_ : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ name fn] runs [fn ()]; when tracing is enabled the elapsed
    interval is recorded as a span named [name] in the calling domain's
    buffer, closed even when [fn] raises. A non-positive duration —
    impossible with {!Dcopt_util.Clock.now_ns}, which is strictly
    increasing, but reachable if a broken clock source is ever
    substituted — is clamped to [dur_ns = 1] and counted in the
    [span.clock_clamped] metric instead of raising: tracing must never
    kill a serve process. *)

val record_span :
  ?args:(string * string) list ->
  name:string ->
  start_ns:int64 ->
  end_ns:int64 ->
  unit ->
  unit
(** Record an already-measured interval as a span at the calling domain's
    current depth (no-op when tracing is disabled). Shares [with_]'s
    clamp path: [end_ns <= start_ns] records a 1 ns span and bumps
    [span.clock_clamped]. *)

val reset : unit -> unit
(** Discard all recorded spans on every domain (open spans keep nesting
    correctly). Main-domain only, outside a parallel batch. *)

val spans : unit -> span list
(** The calling domain's completed spans in completion order (a parent
    therefore follows its children). From the main domain this is the
    single-domain view PR 1 exposed. *)

val merged : unit -> (int * span) list
(** All domains' completed spans as [(tid, span)], sorted by
    [(tid, start_ns)] — a total order since {!Dcopt_util.Clock.now_ns}
    never repeats, so the merge is deterministic for a given set of
    recorded spans. Main-domain only, outside a parallel batch. *)

val top_level_total_ns : unit -> int64
(** Sum of the durations of the calling domain's depth-0 spans — the
    tracer's view of the total accounted wall-clock time. *)

val roll_up : unit -> (string * int * int64) list
(** Per-name aggregation [(name, calls, total_ns)] over the calling
    domain's completed spans, ordered by first completion. *)

val export_chrome : unit -> string
(** All completed spans from every domain as Chrome trace-event JSON (a
    ["traceEvents"] array of "X" events; [tid] = domain id; timestamps
    in µs relative to the earliest span; events ordered by
    [(tid, start_ns)] as in {!merged}). *)

val write_chrome : string -> unit
(** [write_chrome path] writes {!export_chrome} output to [path]. *)
