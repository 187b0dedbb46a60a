(** Process-wide metrics registry: counters, gauges, log-scale histograms.

    Metric objects are created once by name (idempotent: the same name
    returns the same object; reusing a name for a different kind raises
    [Invalid_argument]) and held statically by the instrumented modules,
    so the hot operations — {!incr}, {!add}, {!observe} — touch no table
    and are cheap enough for the innermost solver loops. {!reset} zeroes
    values but keeps the objects, so static references survive it.

    Counters count work (budget ticks, B&B nodes, simplex pivots, oracle
    calls, retries, worker deaths) and are deterministic under a fixed
    fault seed; gauges hold last-written levels (queue depth, in-flight
    jobs); histograms hold latency distributions with p50/p99 extraction
    (dispatch latency, journal append time). *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set : gauge -> float -> unit
val get : gauge -> float

val observe : histogram -> float -> unit
(** Records a sample into log-scale buckets (base [2^(1/4)]: four buckets
    per doubling, so a reported percentile is within ~19% of the true
    one). Non-finite samples are recorded as [0.0]. *)

val observations : histogram -> int

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [[0, 1]]: the geometric midpoint of the
    bucket holding the [ceil (q * n)]-th smallest sample, clamped to the
    observed min/max. [nan] on an empty histogram. *)

type stat =
  | Counter of int
  | Gauge of float
  | Histogram of { n : int; sum : float; lo : float; hi : float; p50 : float; p99 : float }

val snapshot : unit -> (string * stat) list
(** Every registered metric, sorted by name (deterministic). *)

val reset : unit -> unit
(** Zero all values, keeping the metric objects registered. *)

val to_json : unit -> Cert.Json.t
(** The snapshot as one JSON object, metric names as keys (sorted;
    floats formatted locale-independently, so identical counter states
    render byte-identically) — the [rpq serve] [stats] payload and the
    flight dump's [metrics] field. *)

val prometheus_of_snapshot : ?only_counters:bool -> (string * stat) list -> string
(** Prometheus text exposition (format 0.0.4) of a snapshot: metric
    names mangled to [rpq_*], counters and gauges as-is, histograms as
    summaries (p50/p99 quantiles, [_sum], [_count]) with [_min]/[_max]
    companion gauges. With [~only_counters:true] only counters render —
    a surface that is byte-identical across runs with deterministic
    counter states (latency histograms and point-in-time gauges are
    excluded). *)

val prometheus_string : ?only_counters:bool -> unit -> string
(** [prometheus_of_snapshot ?only_counters (snapshot ())]. *)
