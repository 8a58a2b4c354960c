(** Process-wide metrics registry: named counters, gauges and histograms.

    Metrics are registered globally by name; creating the same name twice
    returns the same instrument (creating it twice with different types
    raises [Invalid_argument]). Recording is always on and cheap — a
    counter bump is a hashtable-free field update once the instrument is in
    hand — so library code can keep module-level instruments and update
    them unconditionally.

    Histograms keep their raw samples exactly up to a fixed cap (8192
    observations), so summaries below the cap are exact: quantiles come
    from {!Dcopt_util.Stats.quantile} and the rendered distribution uses
    log-scale buckets (successive powers of a fixed base), which suits
    the heavy-tailed quantities this code base measures (energies,
    delays, iteration counts). Past the cap the histogram switches to
    deterministic reservoir sampling (Algorithm R, PRNG seeded from the
    metric name): [count], [observed_sum] and the mean stay exact while
    quantiles and min/max become unbiased estimates, and memory stays
    bounded for arbitrarily long [serve] processes. *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
(** Find-or-create the counter registered under this name. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1, must be >= 0) to the counter. Counter updates
    are atomic and may come from any domain (library code bumps
    module-level counters from inside {!Dcopt_par.Par} pool tasks);
    gauges and histograms must only be touched from the main domain. *)

val value : counter -> int

val gauge : ?help:string -> string -> gauge
(** Find-or-create the gauge registered under this name. *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?help:string -> string -> histogram
(** Find-or-create the histogram registered under this name. *)

val observe : histogram -> float -> unit

val count : histogram -> int
(** Total number of observations ever made — exact even past the
    reservoir cap (where it exceeds [Array.length (samples h)]). *)

val observed_sum : histogram -> float
(** Exact running sum of every observation (reservoir-independent). *)

val reservoir_cap : int
(** Maximum number of raw samples a histogram retains (8192). *)

val samples : histogram -> float array
(** Copy of the retained samples. Below {!reservoir_cap} this is every
    observation in observation order; past it, a deterministic uniform
    subsample of size [reservoir_cap]. *)

val quantile : histogram -> float -> float
(** [quantile h q] with [q] in \[0, 1\]; linear interpolation between order
    statistics over the retained samples; [nan] when the histogram is
    empty. Exact below the reservoir cap, an estimate past it. *)

val mean : histogram -> float
(** Exact mean over all observations ([observed_sum / count]); [nan]
    when empty. *)

val buckets : ?base:float -> histogram -> (float * float * int) array
(** Log-scale bucket counts [(lo, hi, count)] with boundaries at integer
    powers of [base] (default 10), covering the positive samples;
    non-positive samples are collected in a leading [(0, smallest bound)]
    bucket. Empty when no samples were observed. Computed over the
    retained samples (see {!samples}). *)

val names : unit -> string list
(** All registered metric names, sorted. *)

val reset : unit -> unit
(** Zero every registered metric (counters to 0, gauges to 0, histograms
    emptied and their reservoir PRNGs reseeded). Registration survives,
    so module-level instruments stay valid — intended for tests and for
    the CLI between runs. *)

val render : unit -> string
(** All metrics as a fixed-width table ({!Dcopt_util.Text_table}):
    counters and gauges with their value, histograms with count, mean,
    p50/p90/p99 and max. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (used by the
    JSON emitters here and in {!Span}). *)

val render_openmetrics : unit -> string
(** The full registry in OpenMetrics text exposition format, terminated
    by [# EOF]. Dotted metric names are sanitized to
    [\[a-zA-Z_:\]\[a-zA-Z0-9_:\]*] ('.' becomes '_'); [?help] strings
    become [# HELP] lines with backslash/newline/quote escaping; each
    series gets a [# TYPE] line. Counters expose a single [_total]
    sample; gauges a bare sample; histograms a cumulative
    [_bucket{le="..."}] series over the log-scale boundaries plus
    [_bucket{le="+Inf"}], [_sum] and [_count] — the +Inf bucket and
    [_count] carry the exact observation total even past the reservoir
    cap. Non-finite values render as [NaN], [+Inf], [-Inf]. *)
