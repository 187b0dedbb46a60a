open Lint_base

(* Rule names, used in findings, allowlist entries and --explain. *)
let rule_partial = "partial-function"
let rule_obj_magic = "obj-magic"
let rule_physical_eq = "physical-equality"
let rule_print = "print-in-lib"
let rule_failwith = "failwith"
let rule_assert_false = "assert-false"
let rule_missing_mli = "missing-mli"
let rule_unix = "unix-outside-runner"
let rule_clock = "clock-outside-obs"
let rule_sync = "fsync-outside-runner"
let rule_catch_all = "catch-all-handler"
let rule_raise = "undeclared-raise"
let rule_random = "random-outside-chaos"
let rule_exit = "exit-outside-bin"
let rule_state = "toplevel-state"
let rule_socket = "socket-outside-transport"
let rule_stderr = "stderr-outside-log"
let rule_layer = "layer-violation"
let rule_layer_unassigned = "layer-unassigned"
let rule_cycle = "module-cycle"
let rule_reach = "capability-reach"
let rule_dune_unix = "dune-unix-dep"
let rule_exec_deps = "exec-dep-contract"

(* {2 Capabilities} *)

(* New capabilities ([Csocket], then [Cstderr]) are appended last:
   {!all_caps} order defines the graph analyzer's bit positions, and
   appending keeps the existing masks stable. *)
type cap = Cunix | Cclock | Cfsync | Cprint | Cexit | Crandom | Cstate | Csocket | Cstderr

let all_caps = [ Cunix; Cclock; Cfsync; Cprint; Cexit; Crandom; Cstate; Csocket; Cstderr ]

let cap_name = function
  | Cunix -> "unix"
  | Cclock -> "clock"
  | Cfsync -> "fsync"
  | Cprint -> "print"
  | Cexit -> "exit"
  | Crandom -> "random"
  | Cstate -> "state"
  | Csocket -> "socket"
  | Cstderr -> "stderr"

let cap_of_name = function
  | "unix" -> Some Cunix
  | "clock" -> Some Cclock
  | "fsync" -> Some Cfsync
  | "print" -> Some Cprint
  | "exit" -> Some Cexit
  | "random" -> Some Crandom
  | "state" -> Some Cstate
  | "socket" -> Some Csocket
  | "stderr" -> Some Cstderr
  | _ -> None

(* The rule a *direct* use of each capability is reported under. A
   transitive reach is always {!rule_reach}. *)
let cap_rule = function
  | Cunix -> rule_unix
  | Cclock -> rule_clock
  | Cfsync -> rule_sync
  | Cprint -> rule_print
  | Cexit -> rule_exit
  | Crandom -> rule_random
  | Cstate -> rule_state
  | Csocket -> rule_socket
  | Cstderr -> rule_stderr

let banned_idents =
  [
    ("List.hd", rule_partial, "use pattern matching or a non-empty invariant");
    ("List.nth", rule_partial, "use an array, or List.nth_opt with an explicit default");
    ("Option.get", rule_partial, "match on the option, or Invariant.internal_error");
    ("Hashtbl.find", rule_partial, "use Hashtbl.find_opt and handle None");
    ("Obj.magic", rule_obj_magic, "unsafe cast defeats the type system");
    ("Printf.printf", rule_print, "library code must not write to stdout; return or log");
    ("print_string", rule_print, "library code must not write to stdout; return or log");
    ("print_endline", rule_print, "library code must not write to stdout; return or log");
    ("print_int", rule_print, "library code must not write to stdout; return or log");
    ("failwith", rule_failwith, "raise Invariant.Internal_error (via Invariant.internal_error)");
  ]

let print_idents =
  List.filter_map
    (fun (ident, rule, _) -> if rule = rule_print then Some ident else None)
    banned_idents

(* Stderr writes are their own capability, narrower than [print]: the
   structured logger emits JSON records on stderr, and any free-form
   eprintf from elsewhere interleaves with (and corrupts the greppability
   of) that stream. Exactly one module — Obs.Log, named by the policy
   table's stderr-modules slugs — may hold the channel; bin/ keeps the
   grant for usage/diagnostic text. The bare [stderr] token is included:
   passing the channel to a formatter is just eprintf with extra steps. *)
let stderr_idents =
  [
    "stderr";
    "Printf.eprintf";
    "Format.eprintf";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "prerr_int";
    "prerr_char";
    "prerr_bytes";
  ]

(* Top-level mutable state: a column-0 [let] binding a plain name (no
   parameters) whose right-hand side starts with a mutable constructor.
   Purely lexical, like everything here — it catches the idioms this tree
   actually uses ([let cache = ref ...], [let tbl : t = Hashtbl.create n])
   and is oblivious to eta-disguised state. *)
let state_makers =
  [ "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create"; "Atomic.make" ]

let toplevel_state_lines stripped =
  let lines = String.split_on_char '\n' stripped in
  let arr = Array.of_list lines in
  let nlines = Array.length arr in
  let first_token s =
    let n = String.length s in
    let i = ref 0 in
    while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do
      incr i
    done;
    if !i >= n || not (is_ident_start s.[!i]) then None
    else begin
      let start = !i in
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      (* Extend across '.' for [Hashtbl.create]. *)
      let continue = ref true in
      while !continue do
        if !j + 1 < n && s.[!j] = '.' && is_ident_start s.[!j + 1] then begin
          j := !j + 1;
          while !j < n && is_ident_char s.[!j] do
            incr j
          done
        end
        else continue := false
      done;
      Some (String.sub s start (!j - start))
    end
  in
  (* First non-blank content at or after line index [i] (0-based). *)
  let rec rhs_first_token i rest =
    let trimmed = String.trim rest in
    if trimmed <> "" then first_token rest
    else if i + 1 < nlines then rhs_first_token (i + 1) arr.(i + 1)
    else None
  in
  let findings = ref [] in
  Array.iteri
    (fun idx l ->
      if String.starts_with ~prefix:"let " l && not (String.starts_with ~prefix:"let rec " l)
      then begin
        let n = String.length l in
        let i = ref 4 in
        while !i < n && l.[!i] = ' ' do
          incr i
        done;
        (* The bound name: a plain lowercase identifier. [let () = ...],
           [let (x, y) = ...] and operators define no storable name. *)
        if !i < n && (l.[!i] >= 'a' && l.[!i] <= 'z' || l.[!i] = '_') then begin
          let start = !i in
          while !i < n && is_ident_char l.[!i] do
            incr i
          done;
          let name = String.sub l start (!i - start) in
          while !i < n && (l.[!i] = ' ' || l.[!i] = '\t') do
            incr i
          done;
          (* A value binding continues with ':' (annotation) or '='.
             Anything else means parameters: a function, not state. *)
          let eq =
            if !i < n && l.[!i] = '=' && not (!i + 1 < n && is_op_char l.[!i + 1]) then Some !i
            else if !i < n && l.[!i] = ':' then begin
              let j = ref !i in
              let found = ref None in
              while !found = None && !j < n do
                if
                  l.[!j] = '='
                  && not (!j + 1 < n && is_op_char l.[!j + 1])
                  && not (is_op_char l.[!j - 1])
                then found := Some !j
                else incr j
              done;
              !found
            end
            else None
          in
          match eq with
          | None -> ()
          | Some e -> begin
              match rhs_first_token idx (String.sub l (e + 1) (n - e - 1)) with
              | Some tok when List.mem tok state_makers ->
                  findings := (idx + 1, name, tok) :: !findings
              | Some _ | None -> ()
            end
        end
      end)
    arr;
  List.rev !findings

(* {2 The per-source scan} *)

let scan_source ~file src =
  let stripped = strip src in
  let findings = ref [] in
  let add line rule message =
    findings := { file; line; rule; message; path = [] } :: !findings
  in
  let prev1 = ref "" in
  let last_matchish = ref "" in
  List.iter
    (fun { text = tok; line; op } ->
      if op then begin
        if tok = "==" || tok = "!=" then
          add line rule_physical_eq
            (Printf.sprintf
               "physical equality (%s) is banned in library code: use = / <> (or compare)" tok)
      end
      else begin
        List.iter
          (fun (banned, rule, hint) ->
            if tok = banned || tok = "Stdlib." ^ banned then
              add line rule (Printf.sprintf "%s is banned in library code: %s" banned hint))
          banned_idents;
        (* Process management and raw fds live in lib/runner (and bin/)
           only: a solver module that forks, signals, or sleeps is
           impossible to reason about and to test. The policy table grants
           the capability to lib/runner, lib/obs and bin/ structurally. *)
        if
          tok = "Unix" || tok = "UnixLabels"
          || String.starts_with ~prefix:"Unix." tok
          || String.starts_with ~prefix:"UnixLabels." tok
        then
          add line rule_unix
            (Printf.sprintf "%s: the Unix library is confined to lib/runner, lib/obs and bin/" tok);
        (* Socket endpoints are the serve loop's attack surface: every
           accept/connect is a place where admission control, fault
           injection and dead-client detection must agree. One module —
           the runner's transport — owns them all. *)
        (let socket_prims =
           [ "socket"; "socketpair"; "bind"; "listen"; "accept"; "connect" ]
         in
         let is_socket_tok =
           List.exists
             (fun p -> tok = "Unix." ^ p || tok = "UnixLabels." ^ p)
             socket_prims
         in
         if is_socket_tok then
           add line rule_socket
             (Printf.sprintf
                "%s: socket endpoints are confined to the runner's transport module (the policy \
                 table's socket-modules slugs)"
                tok));
        (* Stderr is the structured logger's output stream: free-form
           writes from anywhere else interleave with its JSON records. *)
        if List.exists (fun p -> tok = p || tok = "Stdlib." ^ p) stderr_idents then
          add line rule_stderr
            (Printf.sprintf
               "%s: stderr is confined to the structured logger (Obs.Log; the policy table's \
                stderr-modules slugs) and bin/ — log a reason-coded event instead"
               tok);
        (* Raw clock reads bypass Obs.Clock's monotone guard and leave the
           telemetry and the budget layer disagreeing about time. *)
        if
          tok = "Sys.time" || tok = "Stdlib.Sys.time" || tok = "Unix.gettimeofday"
          || tok = "UnixLabels.gettimeofday"
        then
          add line rule_clock
            (Printf.sprintf "%s: clock reads are confined to lib/obs (use Obs.Clock.now)" tok);
        (* Durability primitives are the journal's business alone. *)
        if
          tok = "Unix.fsync" || tok = "UnixLabels.fsync" || tok = "Unix.lockf"
          || tok = "UnixLabels.lockf"
        then
          add line rule_sync
            (Printf.sprintf
               "%s: durability and locking primitives are confined to lib/runner (the journal owns \
                the fsync/lock discipline)"
               tok);
        (* Ambient randomness makes failing runs unreplayable: every draw
           must come from an explicitly seeded stream (Invariant.Prng, or
           the fault plan's LCG). *)
        if tok = "Random" || String.starts_with ~prefix:"Random." tok
           || String.starts_with ~prefix:"Stdlib.Random." tok
        then
          add line rule_random
            (Printf.sprintf
               "%s: ambient randomness is banned; draw from Invariant.Prng (seeded) instead" tok);
        if tok = "exit" || tok = "Stdlib.exit" then
          add line rule_exit
            "exit terminates the whole process; only bin/ may decide that (libraries return or \
             raise)";
        if !prev1 = "assert" && tok = "false" then
          add line rule_assert_false
            "assert false is banned in library code: raise Invariant.Internal_error";
        (* A catch-all handler swallows Invariant.Internal_error and
           Budget.Exhausted alike, silently converting "impossible" into
           "wrong answer". Lexically recognizable: [_] opening the handler
           of a [try] (the nearest match-ish keyword distinguishes a
           handler from a plain wildcard [match] case), and the
           [exception _] pattern anywhere. *)
        if
          (tok = "_" && !prev1 = "with" && !last_matchish = "try")
          || (tok = "_" && !prev1 = "exception")
        then
          add line rule_catch_all
            "catch-all handler (_ swallows Internal_error and Exhausted alike): match specific \
             exceptions";
        if tok = "try" || tok = "match" then last_matchish := tok;
        prev1 := tok
      end)
    (lex stripped);
  List.iter
    (fun (line, name, maker) ->
      add line rule_state
        (Printf.sprintf
           "top-level mutable state (let %s = %s ...): solver layers must stay pure; state is \
            granted only to obs/resilience/runner/bin"
           name maker))
    (toplevel_state_lines stripped);
  List.sort compare_finding !findings

(* {2 Capability extraction} *)

let caps_of_findings findings =
  List.fold_left
    (fun acc f ->
      let cap =
        if f.rule = rule_unix then Some Cunix
        else if f.rule = rule_clock then Some Cclock
        else if f.rule = rule_sync then Some Cfsync
        else if f.rule = rule_print then Some Cprint
        else if f.rule = rule_exit then Some Cexit
        else if f.rule = rule_random then Some Crandom
        else if f.rule = rule_state then Some Cstate
        else if f.rule = rule_socket then Some Csocket
        else if f.rule = rule_stderr then Some Cstderr
        else None
      in
      match cap with
      | Some c when not (List.mem_assoc c acc) -> (c, f.line) :: acc
      | Some _ | None -> acc)
    [] findings

let caps_of_source src = caps_of_findings (scan_source ~file:"" src)

(* {2 Exceptions and raises} *)

let exception_decls stripped =
  let decls = ref [] in
  let prev = ref "" in
  List.iter
    (fun (tok, _line) ->
      if !prev = "exception" && String.length tok > 0 && tok.[0] >= 'A' && tok.[0] <= 'Z' then
        decls := tok :: !decls;
      prev := tok)
    (tokens stripped);
  List.sort_uniq compare !decls

(* Exceptions that appear in a handler position: right after [with],
   after a [|] branch bar, or in an [exception E] match case. A
   top-level [exception E] {e declaration} is lexically identical to the
   match case, so [exception] only counts when it itself follows [|] or
   [with]. Constructors of ordinary [|]-branches overcount slightly —
   acceptable for a lexical tool; the raise rule still requires a
   same-file declaration alongside. *)
let handled_exceptions stripped =
  let handled = ref [] in
  let prev1 = ref "" and prev2 = ref "" in
  List.iter
    (fun { text = tok; line = _; op } ->
      if (not op) && String.length tok > 0 && tok.[0] >= 'A' && tok.[0] <= 'Z' then begin
        if
          !prev1 = "with" || !prev1 = "|"
          || (!prev1 = "exception" && (!prev2 = "|" || !prev2 = "with"))
        then handled := tok :: !handled
      end;
      if not (op && tok <> "|") then begin
        prev2 := !prev1;
        prev1 := tok
      end)
    (lex stripped);
  List.sort_uniq compare !handled

(* [raise E] / [raise (E ...)] / [raise (M.E ...)] occurrences: the
   capitalized identifier right after a [raise] token. Re-raises
   ([raise e]) are lowercase and skipped. *)
let raises stripped =
  let acc = ref [] in
  let prev = ref "" in
  List.iter
    (fun { text = tok; line; op } ->
      if not op then begin
        if !prev = "raise" && String.length tok > 0 && tok.[0] >= 'A' && tok.[0] <= 'Z' then
          acc := (tok, line) :: !acc;
        prev := tok
      end)
    (lex stripped);
  List.rev !acc

(* Internal errors must go through Invariant.internal_error; everything
   else a module throws across its boundary is part of its contract and
   belongs in the .mli. Two structural exemptions: [Exit] (the stdlib
   local-loop-break idiom), and exceptions both declared and handled in
   the same .ml (private control flow that never escapes). [resolve m e]
   answers whether module [m]'s interface declares exception [e]. *)
let raise_findings ~file ~stripped ~mli_decls ~resolve =
  let local_decls = exception_decls stripped in
  let handled = handled_exceptions stripped in
  List.filter_map
    (fun (exc, line) ->
      let qualified = String.contains exc '.' in
      let ok =
        if qualified then begin
          match String.index_opt exc '.' with
          | None -> true
          | Some i ->
              let m = String.sub exc 0 i in
              let e =
                let rest = String.sub exc (i + 1) (String.length exc - i - 1) in
                match String.rindex_opt rest '.' with
                | None -> rest
                | Some j -> String.sub rest (j + 1) (String.length rest - j - 1)
              in
              m = "Invariant" || resolve m e
        end
        else
          exc = "Exit"
          || List.mem exc mli_decls
          || (List.mem exc local_decls && List.mem exc handled)
      in
      if ok then None
      else
        Some
          {
            file;
            line;
            rule = rule_raise;
            message =
              Printf.sprintf
                "raise %s: the exception is not declared in this module's .mli (and is not \
                 locally defined and handled); internal errors must go through \
                 Invariant.internal_error"
                exc;
            path = [];
          })
    (raises stripped)

let missing_mlis ~lib_root =
  List.filter_map
    (fun ml ->
      let mli = ml ^ "i" in
      if Sys.file_exists mli then None
      else
        Some
          {
            file = ml;
            line = 1;
            rule = rule_missing_mli;
            message =
              Printf.sprintf "%s has no interface; every module under lib/ needs a .mli"
                (Filename.basename ml);
            path = [];
          })
    (ml_files lib_root)

(* {2 Rule catalogue} *)

let explanations =
  [
    ( rule_partial,
      "Partial stdlib calls (List.hd, List.nth, Option.get, bare Hashtbl.find) raise unhelpful \
       exceptions exactly when an invariant broke. Use the _opt variants, pattern matching, or \
       Invariant.internal_error with a real message." );
    (rule_obj_magic, "Obj.magic defeats the type system; there is no sound use in this tree.");
    ( rule_physical_eq,
      "Physical equality (== / !=) is almost always a typo for structural = / <>. Where identity \
       truly matters, use [compare] or an explicit id field." );
    ( rule_print,
      "Library code must not write to stdout/stderr: solvers return values, the runner owns the \
       protocol streams, and a stray print interleaves with protocol frames. 'print' is a \
       capability granted only to bin/." );
    ( rule_failwith,
      "failwith raises an anonymous Failure; internal errors must go through \
       Invariant.internal_error so they carry a subsystem and a message." );
    ( rule_assert_false,
      "assert false vanishes under -noassert and carries no context; raise \
       Invariant.Internal_error instead." );
    ( rule_missing_mli,
      "Every .ml under lib/ needs a .mli: the interface is where the layering and exception \
       contracts are declared and checked." );
    ( rule_unix,
      "The 'unix' capability (fork, pipes, signals, fds) is granted to lib/runner, lib/obs and \
       bin/ by the policy table. A solver module that touches Unix — directly or through a \
       helper — is untestable in-process; the analyzer propagates the capability transitively \
       and reports a witness path." );
    ( rule_clock,
      "The 'clock' capability (Sys.time, Unix.gettimeofday) is granted to lib/obs, which owns \
       the one monotone wall clock, and to bin/. Everything else — the solvers' budget \
       deadlines and the supervisor's kill deadlines alike — reads time through Obs.Clock.now, \
       so the two can never count different kinds of time." );
    ( rule_sync,
      "The 'fsync' capability (Unix.fsync, Unix.lockf) is granted to lib/runner only: the \
       journal owns the fsync-and-rename and lock disciplines, and a stray fsync elsewhere \
       claims durability the recovery path cannot honor." );
    ( rule_catch_all,
      "A catch-all handler (try ... with _ ->, match ... with exception _ ->) swallows \
       Invariant.Internal_error and Budget.Exhausted alike, silently converting 'impossible' \
       into 'wrong answer'. Match the specific exceptions you expect." );
    ( rule_raise,
      "Raising an exception that is neither declared in the module's .mli nor locally defined \
       and handled makes it invisible control flow for every caller. Declare contract \
       exceptions in the interface; route internal errors through Invariant.internal_error; \
       Exit is exempt as the stdlib loop-break idiom." );
    ( rule_random,
      "The 'random' capability: ambient Random draws make failing runs unreplayable. All \
       randomness comes from explicitly seeded streams (Invariant.Prng; the fault plan's LCG). \
       No module holds a standing grant; the policy table can name seeded chaos modules." );
    ( rule_exit,
      "The 'exit' capability: calling exit from a library terminates the supervisor, the \
       worker pool, or a test runner from deep inside a computation. Only bin/ decides process \
       exit; libraries return or raise." );
    ( rule_state,
      "The 'state' capability: top-level mutable state (let x = ref ...) makes a module's \
       behavior depend on call order. Granted to obs (metrics/trace registries), resilience \
       (check mode, fault plan), runner and bin; solver leaves must stay pure so results are a \
       function of inputs." );
    ( rule_socket,
      "The 'socket' capability (Unix.socket/socketpair/bind/listen/accept/connect) is confined \
       to the runner's transport module, named by the policy table's socket-modules slugs \
       (runner/transport). Sockets are the serve loop's attack surface — admission control, \
       net-fault injection and dead-client detection all hang off accept/connect — so exactly \
       one module owns the endpoints; everything else (tests, the CLI's chaos clients) goes \
       through Transport's connect helpers." );
    ( rule_stderr,
      "The 'stderr' capability (Printf.eprintf, Format.eprintf, prerr_*, the bare stderr \
       channel) is confined to the structured logger, named by the policy table's \
       stderr-modules slugs (obs/log), plus bin/ for usage and diagnostic text. Obs.Log emits \
       reason-coded JSON records on stderr; a free-form eprintf anywhere else interleaves \
       with that stream and escapes the log level, the rate limiter and the flight recorder. \
       Emit Obs.Log.warn/error events instead." );
    ( rule_layer,
      "The layering contract (invariant -> obs -> leaf solvers -> resilience -> runner -> bin) \
       is checked against the dune dependency graph: a library may depend only on strictly \
       lower layers, except leaf solvers which may depend on each other (acyclically)." );
    ( rule_layer_unassigned,
      "Every library under lib/ must appear in the policy table's layer assignment; an \
       unassigned library would silently escape the layering and capability checks." );
    ( rule_cycle,
      "Tarjan SCC detection over the module reference graph: a dependency cycle (even a \
       lexical one) defeats layered reasoning and usually precedes a dune build failure." );
    ( rule_reach,
      "Transitive capability reach: the module never names the capability but calls through \
       modules that do, e.g. 'Resilience.Exact reaches unix via Exact -> Helper -> Pool'. \
       Grants act as encapsulation boundaries: a granted module's capabilities do not \
       propagate to its callers." );
    ( rule_dune_unix,
      "Listing the unix findlib library in a dune (libraries ...) stanza is a capability \
       declaration; only libraries granted 'unix' by the policy table (obs, runner) and bin/ \
       may do so." );
    ( rule_exec_deps,
      "Executables named in the policy table's exec-deps allowlist may link only the libraries \
       listed there. rpq_certcheck is the independent answer checker: its value rests on NOT \
       sharing code with the solvers it audits, so it may depend on the dependency-free 'cert' \
       library alone — a dune edit that links a solver library silently destroys the \
       independence argument, which is why it is contract-checked here." );
  ]

let explain rule = List.assoc_opt rule explanations
let all_rules = List.map fst explanations
