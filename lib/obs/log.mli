(** Structured, leveled logging with stable reason codes.

    Every record is one JSON line —
    [{"lvl":"warn","event":"worker-death","ts":…, …context…}] — where
    [event] is a stable kebab-case reason code and the remaining fields
    are key/value context rendered with {!Cert.Json}, the one JSON codec
    of the tree.

    Defaults: level {!Warn}, destination stderr. [RPQ_LOG] (or the CLI's
    [--log-level]/[--log-file]) reconfigures both. This module is the
    only stderr writer allowed outside [bin/] — see the rpq_lint
    stderr-confinement rule.

    Repeated events are rate-limited per reason code: the first 4 pass,
    then only power-of-two occurrences (tagged [repeat:N]). The policy
    is count-based, hence deterministic. Every record — suppressed,
    below threshold, or not — is also noted in the {!Flight} ring. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> level option
val level_name : level -> string

val set_level : level option -> unit
(** [None] disables logging entirely. *)

val set_file : string -> unit
(** Append records to [path] instead of stderr. Raises [Sys_error] if
    the file cannot be opened. *)

val close_file : unit -> unit
(** Close any {!set_file} destination and fall back to stderr. *)

val configure_from_env : unit -> unit
(** Honors [RPQ_LOG]: [off] | LEVEL | LEVEL:PATH (e.g.
    [debug:/tmp/rpq.log]). Unset leaves the defaults. *)

val debug : string -> (string * Cert.Json.t) list -> unit
val info : string -> (string * Cert.Json.t) list -> unit
val warn : string -> (string * Cert.Json.t) list -> unit
val error : string -> (string * Cert.Json.t) list -> unit

val reset_repeats : unit -> unit
(** Forget repeat-suppression counts (tests). *)
