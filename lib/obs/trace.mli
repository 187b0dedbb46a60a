(** Hierarchical spans with pluggable trace sinks and cross-process
    span propagation.

    With no sink configured (the default, and whenever [RPQ_TRACE] is
    [off]) every entry point here short-circuits to running its thunk —
    no clock read, no allocation — so instrumentation can stay in place
    permanently (<2% overhead contract, see DESIGN.md §10).

    Two sink formats:
    {ul
    {- {b Jsonl}: one JSON object per line. The stream opens with a
       [{"ev":"meta","pid":…,"t0":…,"tid":…}] record carrying the
       absolute epoch (integer microseconds — a float rendering would
       truncate it); span/instant records carry [ts]/[dur] relative to
       it plus [pid], [depth] and the span identity ([tid] trace id,
       [sid] span id, [psid] parent span id). Files from different
       processes concatenate: a reader re-anchors at each meta record;}
    {- {b Chrome}: a [trace_event] JSON array of ["ph":"X"] complete
       events (microsecond timestamps), loadable in [about:tracing] and
       {{:https://ui.perfetto.dev}Perfetto}; span identity rides in
       [args].}}

    Spans are emitted when they {e close}, so children precede their
    parents in the file; every event carries its nesting [depth] so
    consumers can check well-nestedness without replaying a stack.

    {b Cross-process propagation.} A {!span_ctx} serializes to
    [trace_id:span_id:flag] and travels in the job envelope; the
    receiving process installs it with {!with_parent} so its spans
    become children of the remote parent. A cleared sampling bit
    suppresses emission in the subtree while still propagating the
    context. Forked workers call {!adopt_pipe} to stream their events
    back over the reply pipe (lines marked with {!pipe_prefix}),
    keeping the supervisor's epoch so the stitched trace is coherent. *)

type format = Jsonl | Chrome

val configure : format:format -> string -> unit
(** Open [path] (truncating) as the trace sink, finishing any previous
    one, and start a fresh trace id. Raises [Sys_error] if the file
    cannot be opened. *)

val configure_file : string -> unit
(** {!configure} with the format chosen by extension: [.jsonl] is
    {!Jsonl}, anything else {!Chrome}. *)

val configure_from_env : unit -> unit
(** Honors [RPQ_TRACE]: unset/[off]/[none]/[0] leaves tracing disabled;
    [chrome:PATH] and [jsonl:PATH] force a format; a bare path behaves
    like {!configure_file}. *)

val enabled : unit -> bool

(** {1 Span context} *)

type span_ctx = { trace_id : string; span_id : string; sampled : bool }

val ctx_to_string : span_ctx -> string
(** Wire form: [trace_id:span_id:flag] with flag [1] (sampled) or [0]. *)

val ctx_of_string : string -> span_ctx option

val current_ctx : unit -> span_ctx option
(** The innermost open span's identity (or the propagated remote parent
    when no local span is open). [None] when nothing would be recorded. *)

val with_parent : span_ctx option -> (unit -> 'a) -> 'a
(** [with_parent ctx f] runs [f] with [ctx] installed as the ambient
    parent: root spans opened inside become its children and adopt its
    trace id. A context with [sampled = false] suppresses emission for
    the whole scope. [with_parent None f] is [f ()]. *)

(** {1 Scoped spans} *)

val with_span : ?args:(string * Cert.Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f] between monotonic-clock reads and emits
    one span event on close (also on exception). [args] become the
    event's [args] fields. When disabled this is exactly [f ()]. *)

val instant : ?args:(string * Cert.Json.t) list -> string -> unit
(** A zero-duration event (dispatches, retries, worker deaths). *)

(** {1 Manual spans}

    A supervisor's per-job span opens at admission and closes at settle,
    across many event-loop turns — no lexical scope to wrap. The handle
    names the span ({!handle_ctx}) before it closes, so a job envelope
    can carry it as the worker's parent. *)

type handle

val open_span : ?args:(string * Cert.Json.t) list -> ?parent:span_ctx -> string -> handle option
(** Allocate a span starting now. [parent] overrides the ambient parent
    (an unsampled parent yields [None]). [None] when no sink is
    configured — thread the option through and {!close_span} it. *)

val close_span : ?args:(string * Cert.Json.t) list -> handle -> unit
(** Emit the span, ending now. Idempotent. *)

val handle_ctx : handle -> span_ctx

(** {1 Pipe sinks (forked workers)} *)

val pipe_prefix : string
(** Marker prepended to every line a pipe sink writes ("#t "), so the
    pool can separate trace traffic from the reply line. *)

val adopt_pipe : out_channel -> unit
(** In a forked child: replace the inherited file sink with a JSONL line
    stream over [oc] (the reply pipe), keeping the supervisor's epoch.
    Each scoped span additionally emits an ["open"] record when it
    starts, so the supervisor can close a killed worker's unfinished
    spans as interrupted. No-op when the parent had no sink. *)

val emit_raw_span :
  ?args:(string * Cert.Json.t) list ->
  ?tid:string ->
  ?sid:string ->
  ?psid:string ->
  name:string ->
  ts:float ->
  dur:float ->
  depth:int ->
  pid:int ->
  unit ->
  unit
(** Re-emit a span received from a worker's pipe sink into the local
    sink ([ts] relative to the shared epoch). Supervisor-side stitching. *)

val emit_raw_instant :
  ?args:(string * Cert.Json.t) list ->
  ?tid:string ->
  ?sid:string ->
  ?psid:string ->
  name:string ->
  ts:float ->
  depth:int ->
  pid:int ->
  unit ->
  unit

val epoch : unit -> float option
(** The active sink's absolute epoch [t0]. *)

(** {1 Stage accounting} *)

val stage : ?args:(string * Cert.Json.t) list -> string -> (unit -> 'a) -> 'a
(** Like {!with_span} (the span is named [stage:<name>] and tagged with
    [stage=<name>]) but additionally accumulates elapsed time into the
    ambient {!with_stages} table, if one is active. Only the outermost
    stage accumulates — a nested stage's time is already inside its
    parent's — so per-job stage totals never double-count and sum to at
    most the enclosing wall time. *)

val with_stages : (unit -> 'a) -> 'a * (string * float) list
(** [with_stages f] enables stage accounting (independently of any sink)
    around [f] and returns its result with the per-stage totals in
    seconds, sorted by stage name. Used by the runner to fill the
    [stages] block of a {!Cert.Proto.reply}. Nests: the previous table
    is saved and restored. *)

(** {1 Lifecycle} *)

val finish : unit -> unit
(** Close the sink properly (for {!Chrome}, terminate the JSON array).
    Idempotent. Perfetto tolerates a missing terminator, so a crashed
    process still leaves a loadable trace. *)

val abandon : unit -> unit
(** Drop the sink {e without} flushing or closing — for forked children
    that inherit a sink they must not write to. Workers that should
    stream spans back use {!adopt_pipe} instead. *)
