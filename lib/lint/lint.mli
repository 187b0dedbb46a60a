(** [rpq_lint]: a self-contained whole-program static analyzer for this
    repository.

    The solver stack computes exact answers from intricate reductions
    (Thm 3.3, Props 7.5-7.8), so "impossible" states must be loud and
    runs must be replayable. The analyzer works in two tiers.

    {b Leaf rules} (see {!Lint_rules}) are decided per source file,
    lexically: comments, strings and character literals are stripped
    (preserving line numbers) and whole dotted identifiers matched, so
    [Hashtbl.find_opt] or a banned name quoted in a docstring never
    trigger. They ban partial stdlib calls, [Obj.magic], physical
    equality, printing from library code, [failwith] / [assert false],
    catch-all exception handlers, raising exceptions a module's [.mli]
    does not declare, and [.ml] files without interfaces.

    {b Capability and graph rules} treat effects — [unix], [clock],
    [fsync], [print], [exit], [random], top-level mutable [state] — as
    capabilities a module may exercise only under a grant from the
    policy table ({!Lint_policy.default}). {!analyze} discovers every
    compilation unit from the dune stanzas under [lib/] and [bin/],
    extracts a module reference graph ([open], [module A = B], dotted
    capitalized tokens), detects dependency cycles (Tarjan SCC), checks
    the declared layering contract against the dune dependency graph,
    and propagates capabilities transitively: a module that merely
    calls into an ungranted capability user is reported with a
    breadth-first witness path ("Resilience.Exact reaches unix via
    Exact -> Helper -> Pool"). Granted modules are encapsulation
    boundaries — their capabilities do not leak to callers.

    The analyzer deliberately parses nothing beyond that: no typing, no
    build integration, no opam dependencies. *)

type finding = Lint_base.finding = {
  file : string;
  line : int;  (** 1-based *)
  rule : string;  (** one of the [rule_*] names below *)
  message : string;
  path : string list;
      (** witness call path for transitive capability findings;
          [[]] for direct findings. *)
}

exception Lint_error of string * int * string
(** Same exception as {!Lint_base.Lint_error}. [(file, line, message)]: the analyzer could not complete —
    unreadable root, unreadable source, unparseable dune file. A scan
    that cannot see the tree must not report it clean; the CLI maps
    this to exit code 2. *)

val error_to_string : string * int * string -> string
val pp_finding : Format.formatter -> finding -> unit
val finding_to_string : finding -> string
val compare_finding : finding -> finding -> int

(** {2 Rule names} *)

val rule_partial : string
val rule_obj_magic : string
val rule_physical_eq : string
val rule_print : string
val rule_failwith : string
val rule_assert_false : string
val rule_missing_mli : string

val rule_unix : string
(** [Unix]/[UnixLabels] reference without a ['unix] capability grant
    (granted to [lib/runner], [lib/obs] and [bin/]). *)

val rule_clock : string
(** Raw clock read ([Sys.time], [Unix.gettimeofday]) without a
    ['clock] grant (granted to [lib/obs] and [bin/]). *)

val rule_sync : string
(** Durability/locking primitive ([Unix.fsync], [Unix.lockf]) without
    an ['fsync] grant (granted to [lib/runner] only — the journal owns
    the fsync-and-rename and lock disciplines). *)

val rule_socket : string
(** Socket endpoint primitive ([Unix.socket], [bind], [listen],
    [accept], [connect], [socketpair]) outside the policy table's
    [socket-modules] slugs ([runner/transport] only — every other
    module, including tests and executables, goes through
    [Transport]'s helpers). *)

val rule_stderr : string
(** Stderr write ([Printf.eprintf], [Format.eprintf], [prerr_*], the
    bare [stderr] channel) outside the policy table's [stderr-modules]
    slugs ([obs/log] only) and [bin/]: the structured logger emits
    reason-coded JSON records on stderr, and a free-form write from
    anywhere else interleaves with that stream and dodges the level
    filter, rate limiter and flight recorder. *)

val rule_catch_all : string
(** [with _ ->] / [exception _ ->]: swallows [Internal_error] and
    [Budget.Exhausted] alike. *)

val rule_raise : string
(** [raise E] where [E] is neither declared in the module's [.mli],
    nor locally defined and handled, nor [Exit]. *)

val rule_random : string
(** Ambient [Random.*] use: draws must come from explicitly seeded
    streams ([Invariant.Prng]). *)

val rule_exit : string
(** [exit] outside [bin/]. *)

val rule_state : string
(** Top-level mutable state ([let x = ref ...]) without a ['state]
    grant. *)

val rule_layer : string
(** A dune dependency from a lower to an equal-or-higher layer. *)

val rule_layer_unassigned : string
(** A library under [lib/] missing from the policy layer table. *)

val rule_cycle : string
(** A strongly-connected component of size > 1 in the module graph. *)

val rule_reach : string
(** Transitive capability reach, with a witness path. *)

val rule_dune_unix : string
(** The [unix] findlib library listed in dune without a grant. *)

val rule_exec_deps : string
(** An executable under a policy dependency allowlist linking a library
    outside it. *)

val banned_idents : (string * string * string) list
(** [(identifier, rule, hint)] for every banned dotted identifier. *)

val explain : string -> string option
(** The rule catalogue entry behind [rpq_lint --explain RULE]. *)

val all_rules : string list

(** {2 Scanning} *)

val strip : string -> string
(** Comments, strings and character literals replaced by spaces;
    newlines (and hence line numbers) preserved. Exposed for tests. *)

val scan_source : file:string -> string -> finding list
(** All leaf findings of a source text, capability findings included
    unconditionally (callers subtract grants); [file] only labels the
    findings. Sorted. Does not include the missing-[.mli] or
    undeclared-raise rules. *)

val scan_file : string -> finding list
(** [scan_source] on a file's contents.
    @raise Lint_error if the file cannot be read. *)

val missing_mlis : lib_root:string -> finding list
(** One finding per [.ml] under [lib_root] (recursively) lacking a
    sibling [.mli].
    @raise Lint_error if the tree cannot be scanned. *)

val scan_lib : lib_root:string -> finding list
(** Per-directory mode, for partial trees without dune metadata:
    leaf findings with capability grants keyed by directory basename
    ([runner/] may fsync, [obs/] may read clocks, [core/] may hold
    state), plus undeclared-raise and {!missing_mlis}. No graph rules.
    @raise Lint_error if the tree cannot be scanned. *)

(** {2 Allowlist} *)

val filter_allowlist : allowlist:(string * string) list -> finding list -> finding list
(** Drop findings matched by an allowlist entry [(path_suffix, rule)];
    a rule of ["*"] matches any rule for that path. *)

val default_allowlist : (string * string) list
(** The repository's own allowlist. Kept empty: fix the code instead. *)

(** {2 Whole-program mode} *)

type analysis = {
  policy : Lint_policy.t;
  result : Lint_graph.result;
  findings : finding list;  (** leaf + graph findings, sorted, root-relative *)
  files_scanned : int;
}

val analyze : root:string -> policy:Lint_policy.t -> analysis
(** Discover units from [root/lib/*/dune] and [root/bin/dune], scan
    every module, build the reference graph and run every rule.
    @raise Lint_error if the tree cannot be read or a dune file does
    not parse. *)

val analysis_json : analysis -> string
(** Byte-stable JSON report ({!Lint_json.render}): two runs over the
    same tree compare byte-identical. *)

val analysis_dot : analysis -> string
(** The layer graph in graphviz DOT. *)
