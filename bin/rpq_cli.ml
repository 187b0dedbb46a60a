(* rpq: command-line front-end for the RPQ-resilience library.

   Subcommands:
     classify REGEX...         classify languages (Figure 1)
     solve --db FILE REGEX     resilience of a database file
     gen                       emit a vertex-cover hardness instance
     reduce REGEX              print reduce(L)
     words REGEX               enumerate (finite) languages
     gadgets                   verify every hardness gadget of the paper

   Database file format: one fact per line, `src label dst [multiplicity]`,
   where src/dst are arbitrary node names and label is one character.
   Lines starting with # are comments.

   Exit codes: 0 = exact answer, 3 = certified bounds only (budget
   exhausted), 2 = input error (bad database file, unknown node, ...). *)

open Cmdliner
open Resilience
module Db = Graphdb.Db
module Ser = Graphdb.Serialize

(* Exact answers exit 0; a [Bounded] outcome of `solve --timeout/--steps`
   exits 3 so scripts can tell the two apart; malformed input exits 2. *)
let exit_bounded = 3
let exit_input_error = 2

let input_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("rpq: error: " ^ msg);
      exit_input_error)
    fmt

let parse_db_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
      (* [Ser.parse] errors start with "<line>:", so prefixing the path
         yields a standard file:line diagnostic. *)
      Result.map_error (fun e -> Printf.sprintf "%s:%s" path e) (Ser.parse contents)

(* Every subcommand accepts --trace; tracing is also reachable via
   RPQ_TRACE for tools that cannot pass flags (see Obs.Trace). *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a trace of solver stages and runner events to $(docv): a JSONL event stream if            the name ends in .jsonl, otherwise a Chrome trace_event JSON array loadable in            Perfetto (ui.perfetto.dev) or about:tracing.")

let configure_trace = function None -> () | Some path -> Obs.Trace.configure_file path

(* Structured-log controls for the long-running subcommands. RPQ_LOG
   (level[,file]) works for tools that cannot pass flags; these flags
   override it. Records below the threshold still reach the flight
   recorder (see Obs.Log / Obs.Flight). *)
let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Minimum severity of structured log records: one of $(b,debug), $(b,info), \
           $(b,warn) (the default), $(b,error). Suppressed records still reach the flight \
           recorder. Overrides RPQ_LOG.")

let log_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-file" ] ~docv:"FILE"
        ~doc:"Append structured log records (JSON lines) to $(docv) instead of stderr.")

(* Continuation style so an unknown level is an ordinary exit-2 input
   error from inside command bodies that return exit codes. *)
let configure_log level file k =
  match Option.map (fun s -> (s, Obs.Log.level_of_string s)) level with
  | Some (s, None) -> input_error "unknown log level %S (debug, info, warn, error)" s
  | parsed ->
      (match parsed with Some (_, Some l) -> Obs.Log.set_level (Some l) | _ -> ());
      (match file with None -> () | Some f -> Obs.Log.set_file f);
      k ()

(* Shared by solve --json / batch / serve: the worker memory ceiling. *)
let max_heap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-heap-mb" ] ~docv:"MB"
        ~doc:
          "Memory ceiling per job: a Gc-alarm watchdog converts a major heap beyond $(docv) \
           megabytes into budget exhaustion, so an OOM-bound job settles as a certified \
           $(i,bounded) reply instead of dying to the OOM killer. Applies to the JSON reply \
           paths (workers of $(b,batch)/$(b,serve), and $(b,solve --json)).")

let regex_arg =
  let parse s =
    match Automata.Regex.parse_opt s with
    | Some _ -> Ok s
    | None -> Error (`Msg (Printf.sprintf "invalid regular expression %S" s))
  in
  Arg.conv (parse, Fmt.string)

(* ---- classify ---- *)

let classify_cmd =
  let regexes =
    Arg.(non_empty & pos_all regex_arg [] & info [] ~docv:"REGEX" ~doc:"Languages to classify.")
  in
  let run regexes =
    List.iter
      (fun s ->
        let c = Classify.classify_regex s in
        Format.printf "%-20s %s@." s (Classify.verdict_summary c.Classify.verdict))
      regexes;
    0
  in
  Cmd.v (Cmd.info "classify" ~doc:"Classify the resilience complexity of RPQs (Figure 1).")
    Term.(const run $ regexes)

(* ---- solve ---- *)

(* `solve --json` runs the job through the same code path as a batch/serve
   worker (minus the fork), so its reply line is schema-identical to
   theirs: downstream tooling needs one parser, not three. *)
let solve_json ~db_file ~query ~timeout ~steps ~memo_cap =
  match In_channel.with_open_text db_file In_channel.input_all with
  | exception Sys_error e -> input_error "%s" e
  | db ->
      let job =
        {
          Cert.Proto.id = db_file;
          db;
          query;
          budget = { Cert.Proto.deadline = timeout; steps; memo_cap };
          faults = None;
          deadline_ms = None;
          priority = Cert.Proto.default_priority;
          trace = None;
        }
      in
      let t0 = Obs.Clock.now () in
      let r = Runner.run_job_locally job in
      let r = { r with Cert.Proto.wall_s = Obs.Clock.now () -. t0 } in
      print_endline (Cert.Proto.reply_to_json r);
      (match r.Cert.Proto.verdict with
      | Cert.Proto.V_exact _ -> 0
      | Cert.Proto.V_bounded _ -> exit_bounded
      | Cert.Proto.V_failed _ -> exit_input_error)

let print_fact_removals db names w =
  List.iter
    (fun id ->
      let f = Db.fact db id in
      Format.printf "  remove %s --%c--> %s (cost %d)@." (names f.Db.src) f.Db.label
        (names f.Db.dst) (Db.mult db id))
    w

let solve_cmd =
  let db_file =
    Arg.(required & opt (some file) None & info [ "db" ] ~docv:"FILE" ~doc:"Database file.")
  in
  let regex =
    Arg.(required & pos 0 (some regex_arg) None & info [] ~docv:"REGEX" ~doc:"The RPQ.")
  in
  let witness = Arg.(value & flag & info [ "witness" ] ~doc:"Print a minimum contingency set.") in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget (elapsed seconds, not CPU time). On exhaustion the solver reports \
             certified lower/upper bounds instead of an exact value and exits with status 3.")
  in
  let steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "steps" ] ~docv:"N"
          ~doc:
            "Work budget: search nodes, simplex pivots and oracle calls all count. Same \
             degradation behavior as $(b,--timeout).")
  in
  let memo_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "memo-cap" ] ~docv:"N" ~doc:"Cap on memo-table entries (default 2^20).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one machine-readable JSON reply line (the same schema as $(b,rpq batch) and \
             $(b,rpq serve) replies) instead of the human-readable report.")
  in
  let run db_file s witness timeout steps memo_cap json max_heap trace =
    configure_trace trace;
    match max_heap with
    | Some mb when mb < 1 -> input_error "solve: max heap must be at least 1 MB"
    | mh ->
    Runner.set_max_heap_mb mh;
    if json then solve_json ~db_file ~query:s ~timeout ~steps ~memo_cap
    else
    match parse_db_file db_file with
    | Error e -> input_error "%s" e
    | Ok p -> begin
        let db = p.Ser.db in
        let l = Automata.Lang.of_string s in
        match
          match (timeout, steps, memo_cap) with
          | None, None, None -> None
          | _ -> Some (Budget.create ?deadline:timeout ?steps ?memo_cap ())
        with
        | exception Invalid_argument e -> input_error "%s" e
        | budget -> begin
            Format.printf "language    : %s@." s;
            match Solver.solve_bounded ?budget db l with
            | Solver.Exact r ->
                Format.printf "verdict     : %s@."
                  (Classify.verdict_summary r.Solver.classification.Classify.verdict);
                Format.printf "algorithm   : %s@." (Solver.algorithm_name r.Solver.algorithm);
                Format.printf "resilience  : %a@." Value.pp r.Solver.value;
                (if witness then
                   match r.Solver.witness with
                   | Some w -> print_fact_removals db p.Ser.node_name w
                   | None -> Format.printf "  (this algorithm reports no witness)@.");
                0
            | Solver.Bounded { lower; upper; upper_witness; spent; reason; cert = _ } ->
                Format.printf "outcome     : bounds only (budget exhausted: %s)@."
                  (Budget.exhaustion_name reason);
                Format.printf "resilience  : %a <= RES <= %a@." Value.pp lower Value.pp upper;
                Format.printf "spent       : %d steps, %.3fs@." spent.Budget.steps
                  spent.Budget.elapsed;
                (if witness then
                   match upper_witness with
                   | Some w -> print_fact_removals db p.Ser.node_name w
                   | None -> Format.printf "  (no upper-bound witness)@.");
                exit_bounded
          end
      end
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Compute the resilience of an RPQ on a database file, exactly or within a time/work \
          budget.")
    Term.(
      const run $ db_file $ regex $ witness $ timeout $ steps $ memo_cap $ json $ max_heap_arg
      $ trace_arg)

(* ---- gen ---- *)

let gen_cmd =
  let nvertices =
    Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of graph vertices.")
  in
  let prob =
    Arg.(
      value
      & opt (some float) None
      & info [ "p" ] ~docv:"P"
          ~doc:"Erdős–Rényi edge probability; omit for the complete graph.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Random seed (with --p).") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the database here instead of stdout.")
  in
  let run n p seed out =
    if n < 2 then input_error "gen: need at least 2 vertices, got %d" n
    else begin
      match p with
      | Some p when not (p >= 0.0 && p <= 1.0) ->
          input_error "gen: edge probability %g not in [0, 1]" p
      | _ ->
      let g =
        match p with
        | None -> Graphs.Ugraph.complete n
        | Some p -> Graphs.Ugraph.random ~n ~p ~seed
      in
      let pre, _ = Gadgets.gadget_aa () in
      let db = Gadgets.encode pre g in
      let text =
        Printf.sprintf
          "# Vertex-cover hardness instance (Definition 4.5): each of the %d edges of a\n\
           # %d-vertex graph becomes a copy of the `aa` gadget (Proposition 4.1).\n\
           # Solve with: rpq solve --db <this file> aa\n\
           %s"
          (Graphs.Ugraph.edge_count g) n (Ser.to_string db)
      in
      (match out with
      | None -> print_string text
      | Some f -> Out_channel.with_open_text f (fun oc -> output_string oc text));
      0
    end
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate an NP-hard resilience instance (vertex-cover encoding for the language aa).")
    Term.(const run $ nvertices $ prob $ seed $ out)

(* ---- reduce ---- *)

let reduce_cmd =
  let regex =
    Arg.(required & pos 0 (some regex_arg) None & info [] ~docv:"REGEX" ~doc:"The language.")
  in
  let run s =
    let r = Automata.Reduce.nfa (Automata.Lang.of_string s) in
    (match Automata.Lang.words r with
    | Some ws -> Format.printf "reduce(%s) = {%s}@." s (String.concat ", " ws)
    | None ->
        Format.printf "reduce(%s) is infinite; words up to length 6: {%s}, ...@." s
          (String.concat ", " (Automata.Lang.words_up_to r 6)));
    0
  in
  Cmd.v (Cmd.info "reduce" ~doc:"Compute the reduced (infix-free) sublanguage.")
    Term.(const run $ regex)

(* ---- words ---- *)

let words_cmd =
  let regex =
    Arg.(required & pos 0 (some regex_arg) None & info [] ~docv:"REGEX" ~doc:"The language.")
  in
  let limit =
    Arg.(value & opt int 8 & info [ "limit" ] ~docv:"N" ~doc:"Length bound for infinite languages.")
  in
  let run s limit =
    let l = Automata.Lang.of_string s in
    (match Automata.Lang.words l with
    | Some ws -> Format.printf "{%s}@." (String.concat ", " ws)
    | None -> Format.printf "{%s, ...}@." (String.concat ", " (Automata.Lang.words_up_to l limit)));
    0
  in
  Cmd.v (Cmd.info "words" ~doc:"Enumerate the words of a language.") Term.(const run $ regex $ limit)

(* ---- certify ---- *)

let certify_cmd =
  let regex =
    Arg.(required & pos 0 (some regex_arg) None & info [] ~docv:"REGEX" ~doc:"The language.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one classification record (JSON, $(b,\"kind\":\"classification\")) instead of \
             the human-readable report. An $(i,np-hard) verdict carries a replayable hardness \
             transcript re-checkable by $(b,rpq_certcheck) and exits 0; $(i,inconclusive) \
             carries no certificate and exits 3.")
  in
  (* The JSON path only reports np-hard when the gadget transcript
     serialized: a classification record's claim must be exactly as strong
     as its certificate. *)
  let run_json s l =
    let emit c_verdict c_cert =
      print_endline (Cert.Proto.classification_to_json
                       { Cert.Proto.c_language = s; c_verdict; c_cert })
    in
    match Hardness.thm61_gadget l with
    | Ok o -> begin
        match Certify.hardness ~language:s o with
        | Ok cert ->
            emit "np-hard" (Some cert);
            0
        | Error _ ->
            emit "inconclusive" None;
            exit_bounded
      end
    | Error _ ->
        emit "inconclusive" None;
        exit_bounded
  in
  let run s json =
    let l = Automata.Lang.of_string s in
    if json then run_json s l
    else begin
      Format.printf "%-20s %s@." s
        (Classify.verdict_summary (Classify.classify l).Classify.verdict);
      (match Hardness.thm61_gadget l with
      | Ok o ->
          Format.printf "Theorem 6.1 pipeline: %s (mirrored=%b), gadget with odd path length %s@."
            o.Hardness.strategy o.Hardness.mirrored
            (match o.Hardness.verification.Gadgets.odd_path_length with
            | Some len -> string_of_int len
            | None -> "?")
      | Error e1 -> begin
          Format.printf "Theorem 6.1 pipeline: %s@." e1;
          match Gadget_search.certify_np_hard l with
          | Some f ->
              Format.printf "Gadget search: verified gadget found (%d matches) => NP-hard@."
                (Array.length f.Gadget_search.words_used)
          | None -> Format.printf "Gadget search: nothing found within budget@."
        end);
      0
    end
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Try to produce a machine-checked NP-hardness gadget (Thm 6.1 pipeline + search).")
    Term.(const run $ regex $ json)

(* ---- report ---- *)

let report_cmd =
  let regexes =
    Arg.(non_empty & pos_all regex_arg [] & info [] ~docv:"REGEX" ~doc:"Languages to analyze.")
  in
  let no_gadget =
    Arg.(value & flag & info [ "no-gadget" ] ~doc:"Skip the hardness-gadget attempt (faster).")
  in
  let run regexes no_gadget =
    List.iter
      (fun s ->
        match Report.analyze ~try_gadget:(not no_gadget) s with
        | Ok r -> print_string (Report.to_markdown r)
        | Error e -> Format.printf "%s: %s@." s e)
      regexes;
    0
  in
  Cmd.v (Cmd.info "report" ~doc:"Full analysis report for a language (markdown).")
    Term.(const run $ regexes $ no_gadget)

(* ---- st-solve ---- *)

let st_solve_cmd =
  let db_file =
    Arg.(required & opt (some file) None & info [ "db" ] ~docv:"FILE" ~doc:"Database file.")
  in
  let regex =
    Arg.(required & pos 0 (some regex_arg) None & info [] ~docv:"REGEX" ~doc:"The RPQ.")
  in
  let src =
    Arg.(required & opt (some string) None & info [ "from" ] ~docv:"NODE" ~doc:"Source node.")
  in
  let dst =
    Arg.(required & opt (some string) None & info [ "to" ] ~docv:"NODE" ~doc:"Target node.")
  in
  let run db_file s src dst =
    match parse_db_file db_file with
    | Error e -> input_error "%s" e
    | Ok p -> begin
        match (p.Ser.node_id src, p.Ser.node_id dst) with
        | None, _ -> input_error "%s: unknown node %S" db_file src
        | _, None -> input_error "%s: unknown node %S" db_file dst
        | Some src_id, Some dst_id ->
            let l = Automata.Lang.of_string s in
            let r = St_resilience.solve p.Ser.db l ~src:src_id ~dst:dst_id in
            Format.printf "resilience of %s from %s to %s: %a  [%s]@." s src dst Value.pp
              r.St_resilience.value
              (Solver.algorithm_name r.St_resilience.algorithm);
            0
      end
  in
  Cmd.v
    (Cmd.info "st-solve" ~doc:"Fixed-endpoint resilience (Section 8 future work).")
    Term.(const run $ db_file $ regex $ src $ dst)

(* ---- dot ---- *)

let dot_cmd =
  let regex =
    Arg.(value & opt (some regex_arg) None & info [ "regex" ] ~docv:"REGEX" ~doc:"Render an automaton.")
  in
  let db_file =
    Arg.(value & opt (some file) None & info [ "db" ] ~docv:"FILE" ~doc:"Render a database.")
  in
  let minimize = Arg.(value & flag & info [ "dfa" ] ~doc:"Render the minimal DFA instead of the NFA.") in
  let run regex db_file minimize =
    (match regex with
    | Some s ->
        let a = Automata.Lang.of_string s in
        if minimize then
          print_string (Automata.Dot.of_dfa (Automata.Dfa.minimize (Automata.Dfa.of_nfa a)))
        else print_string (Automata.Dot.of_nfa a)
    | None -> ());
    match db_file with
    | Some f -> begin
        match parse_db_file f with
        | Error e -> input_error "%s" e
        | Ok p ->
            print_string (Ser.to_dot ~names:p.Ser.node_name p.Ser.db);
            0
      end
    | None -> 0
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export automata or databases as Graphviz DOT.")
    Term.(const run $ regex $ db_file $ minimize)

(* ---- gadgets ---- *)

let gadgets_cmd =
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Print databases and hypergraphs.") in
  let run verbose =
    List.iter
      (fun (name, g, l) ->
        let v = Gadgets.verify g l in
        Format.printf "%-36s %s%s@." name
          (if v.Gadgets.ok then "VALID" else "INVALID")
          (match v.Gadgets.odd_path_length with
          | Some len -> Printf.sprintf " (odd path length %d)" len
          | None -> "");
        if verbose then begin
          let c = Gadgets.complete g in
          Format.printf "%a@." Db.pp c.Gadgets.db';
          Format.printf "%a@." Hypergraph.pp v.Gadgets.condensed
        end)
      (Gadgets.all_paper_gadgets ());
    0
  in
  Cmd.v (Cmd.info "gadgets" ~doc:"Verify the paper's hardness gadgets (Definition 4.9).")
    Term.(const run $ verbose)

(* ---- batch / serve (supervised execution) ---- *)

(* Jobfile grammar, one job per line (# comments, blank lines ignored):
     <db-file> <regex> [timeout=S] [steps=N] [memo=N] [faults=PLAN]
   Job ids are j<lineno>, so a journal from an interrupted run lines up
   with a re-read of the same file. The database text is loaded here and
   shipped to the workers, which parse it themselves: a malformed db is a
   structured per-job error, not a batch abort. *)
let parse_jobfile path =
  let ( let* ) = Result.bind in
  let* lines =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> Error e
    | text -> Ok (String.split_on_char '\n' text)
  in
  let parse_line lineno line =
    let line = match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [] -> Ok None
    | [ _ ] -> Error (Printf.sprintf "%s:%d: expected '<db-file> <regex> [key=value...]'" path lineno)
    | db_file :: regex :: opts ->
        let* db =
          match In_channel.with_open_text db_file In_channel.input_all with
          | exception Sys_error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
          | db -> Ok db
        in
        let* budget, faults, deadline_ms, priority =
          List.fold_left
            (fun acc opt ->
              let* (b : Cert.Proto.budget_spec), faults, dl, prio = acc in
              let bad () =
                Error (Printf.sprintf "%s:%d: bad job option %S" path lineno opt)
              in
              match String.index_opt opt '=' with
              | None -> bad ()
              | Some i ->
                  let k = String.sub opt 0 i in
                  let v = String.sub opt (i + 1) (String.length opt - i - 1) in
                  (match k with
                  | "timeout" -> (
                      match float_of_string_opt v with
                      | Some f when Float.is_finite f && f >= 0.0 ->
                          Ok ({ b with Cert.Proto.deadline = Some f }, faults, dl, prio)
                      | _ -> bad ())
                  | "steps" -> (
                      match int_of_string_opt v with
                      | Some n when n >= 0 ->
                          Ok ({ b with Cert.Proto.steps = Some n }, faults, dl, prio)
                      | _ -> bad ())
                  | "memo" -> (
                      match int_of_string_opt v with
                      | Some n when n >= 0 ->
                          Ok ({ b with Cert.Proto.memo_cap = Some n }, faults, dl, prio)
                      | _ -> bad ())
                  | "faults" -> (
                      match Faults.parse v with
                      | Ok _ -> Ok (b, Some v, dl, prio)
                      | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
                  | "deadline" -> (
                      match int_of_string_opt v with
                      | Some ms when ms >= 0 -> Ok (b, faults, Some ms, prio)
                      | _ -> bad ())
                  | "priority" ->
                      if List.mem v Cert.Proto.priorities then Ok (b, faults, dl, v) else bad ()
                  | _ -> bad ()))
            (Ok (Cert.Proto.no_budget, None, None, Cert.Proto.default_priority))
            opts
        in
        Ok
          (Some
             {
               Cert.Proto.id = Printf.sprintf "j%d" lineno;
               db;
               query = regex;
               budget;
               faults;
               deadline_ms;
               priority;
               trace = None;
             })
  in
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let* job = parse_line lineno line in
        loop (lineno + 1) (match job with Some j -> j :: acc | None -> acc) rest
  in
  loop 1 [] lines

let workers_arg =
  Arg.(
    value
    & opt int Runner.default_config.Runner.workers
    & info [ "workers" ] ~docv:"N" ~doc:"Worker pool size.")

let retries_arg =
  Arg.(
    value
    & opt int Runner.default_config.Runner.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retries per job after a worker crash or timeout; each retry shrinks the job's budget \
           so persistent crashers degrade to certified bounds.")

let queue_cap_arg =
  Arg.(
    value
    & opt int Runner.default_config.Runner.queue_cap
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Admission limit: $(b,rpq serve) sheds jobs beyond this with an `overloaded' reply.")

let job_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "job-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock limit per job attempt, enforced by the supervisor: the worker is SIGTERMed \
           and, failing that, SIGKILLed.")

let journal_sync_arg =
  let policies =
    [
      ("never", Runner.Journal.Never);
      ("per_line", Runner.Journal.Per_line);
      ("per_job", Runner.Journal.Per_job);
    ]
  in
  Arg.(
    value
    & opt (enum policies) Runner.default_config.Runner.journal_sync
    & info [ "journal-sync" ] ~docv:"POLICY"
        ~doc:
          "Journal durability policy: $(b,never) (flush to the OS only), $(b,per_line) (fsync \
           every record), or $(b,per_job) (fsync on settlements only; the default).")

let runner_config workers retries queue_cap job_timeout journal_sync max_heap =
  if workers < 1 then Error "need at least one worker"
  else if retries < 0 then Error "negative retries"
  else if queue_cap < 1 then Error "queue cap must be at least 1"
  else if (match max_heap with Some mb -> mb < 1 | None -> false) then
    Error "max heap must be at least 1 MB"
  else
    Ok
      {
        Runner.default_config with
        Runner.workers;
        retries;
        queue_cap;
        job_timeout;
        journal_sync;
        max_heap_mb = max_heap;
      }

let batch_cmd =
  let jobfile =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOBFILE"
          ~doc:"One job per line: <db-file> <regex> [timeout=S] [steps=N] [memo=N] [faults=PLAN].")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal: every dispatch and settlement is appended here, and a rerun \
             with the same journal skips already-settled jobs (re-verified unless RPQ_CHECK=off).")
  in
  let run jobfile journal workers retries queue_cap job_timeout journal_sync max_heap trace
      log_level log_file =
    configure_trace trace;
    configure_log log_level log_file @@ fun () ->
    match runner_config workers retries queue_cap job_timeout journal_sync max_heap with
    | Error e -> input_error "batch: %s" e
    | Ok cfg -> begin
        match parse_jobfile jobfile with
        | Error e -> input_error "%s" e
        | Ok [] -> input_error "%s: no jobs" jobfile
        | Ok jobs -> begin
            match
              Obs.Trace.with_span ~args:[ ("jobs", Cert.Json.Int (List.length jobs)) ] "batch"
                (fun () -> Runner.run_batch ?journal cfg jobs)
            with
            (* An unreadable/corrupt/locked journal is an input problem
               (exit 2, file:line in the message), not a crash. *)
            | exception Invalid_argument e -> input_error "%s" e
            | replies, stats ->
                List.iter (fun r -> print_endline (Cert.Proto.reply_to_json r)) replies;
                Printf.eprintf "batch: %d jobs (%d run, %d resumed), %d failures\n%!"
                  (List.length replies) stats.Runner.ran stats.Runner.resumed
                  stats.Runner.failures;
                if stats.Runner.failures = 0 then 0 else 1
          end
      end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a file of resilience jobs under the supervised worker pool: fork isolation, \
          retries with budget degradation, and journal-based crash recovery. Emits one JSON \
          reply line per job, in jobfile order. Exits 0 iff every job settled without error.")
    Term.(
      const run $ jobfile $ journal $ workers_arg $ retries_arg $ queue_cap_arg $ job_timeout_arg
      $ journal_sync_arg $ max_heap_arg $ trace_arg $ log_level_arg $ log_file_arg)

let serve_cmd =
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"PATH"
          ~doc:
            "Listen for clients on a Unix-domain socket at $(docv) (a stale socket file is \
             replaced). With $(b,--listen) or $(b,--tcp), stdin/stdout are not served; without \
             either, jobs come from stdin as before.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Listen for clients on loopback TCP port $(docv) (0 picks a free port).")
  in
  let cache_entries_arg =
    Arg.(
      value
      & opt int Runner.default_serve_config.Runner.cache_entries
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:
            "Result-cache capacity: settled replies are cached under the job's canonical \
             digest and an identical resubmission (from any client) is answered from the \
             cache — but only after the cached certificate re-checks; a failing entry is \
             evicted and the job recomputed. 0 disables the cache.")
  in
  let client_inflight_arg =
    Arg.(
      value
      & opt int Runner.default_serve_config.Runner.client_inflight
      & info [ "client-inflight" ] ~docv:"N"
          ~doc:
            "Per-client cap on outstanding jobs; admission into the worker pool is \
             round-robin across clients, so one chatty client cannot monopolize it.")
  in
  let drain_grace_arg =
    Arg.(
      value
      & opt float Runner.default_serve_config.Runner.drain_grace
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:
            "Graceful-drain budget on SIGTERM/SIGINT: stop accepting, shed queued jobs with \
             retriable `overloaded' replies, wait up to $(docv) for inflight jobs to settle, \
             flush, release the journal lock, exit 0.")
  in
  let serve_journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append every settlement here (under the client's original job id and the \
             canonical job digest) and pre-seed the result cache from it on start; a seeded \
             entry is still certificate-checked on every use, so a tampered journal entry \
             can be seeded but never served.")
  in
  let hedge_after_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "hedge-after" ] ~docv:"SECONDS"
          ~doc:
            "Certificate-gated hedging: when a job has been running $(docv) seconds, a \
             worker is idle and nothing is waiting to dispatch, launch a speculative \
             duplicate attempt; the first reply whose certificate re-checks wins and the \
             loser is killed. Exactly one reply is emitted and journaled either way. \
             Off by default.")
  in
  let brownout_after_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "brownout-after" ] ~docv:"SECONDS"
          ~doc:
            "Load watchdog: once the admission queue has stayed at or above half of \
             $(b,--queue-cap) for $(docv) seconds, shed new $(b,batch) jobs with retriable \
             `overloaded' replies and degrade non-interactive step budgets until the queue \
             drains. Off by default.")
  in
  let run workers retries queue_cap job_timeout journal_sync max_heap listen tcp cache_entries
      client_inflight drain_grace journal hedge_after brownout_after trace log_level log_file =
    configure_trace trace;
    configure_log log_level log_file @@ fun () ->
    match runner_config workers retries queue_cap job_timeout journal_sync max_heap with
    | Error e -> input_error "serve: %s" e
    | Ok cfg ->
        if cache_entries < 0 then input_error "serve: negative cache size"
        else if client_inflight < 1 then
          input_error "serve: client inflight cap must be at least 1"
        else if drain_grace < 0.0 then input_error "serve: negative drain grace"
        else if (match hedge_after with Some s -> s < 0.0 | None -> false) then
          input_error "serve: negative hedge delay"
        else if (match brownout_after with Some s -> s < 0.0 | None -> false) then
          input_error "serve: negative brownout threshold"
        else begin
          let scfg =
            {
              Runner.base = { cfg with Runner.hedge_after };
              listen;
              tcp;
              cache_entries;
              client_inflight;
              drain_grace;
              write_timeout = Runner.default_serve_config.Runner.write_timeout;
              serve_journal = journal;
              brownout_after;
            }
          in
          let stdio = if listen = None && tcp = None then Some (stdin, stdout) else None in
          match Runner.serve_sockets ?stdio scfg with
          | () -> 0
          | exception Invalid_argument e -> input_error "%s" e
        end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve resilience jobs (one JSON job per line in, one JSON reply per line out, in \
          settlement order) under the supervised worker pool — from stdin, a Unix-domain \
          socket ($(b,--listen)), a loopback TCP port ($(b,--tcp)), or several at once. \
          Multi-client: admission is round-robin with a per-client inflight cap, a malformed \
          line poisons only the client that sent it, a disconnect cancels only that client's \
          queued jobs, and settled replies are cached under a certificate gate \
          ($(b,--cache-entries)). Jobs carry end-to-end deadlines and priorities \
          (admission is weighted-fair across $(b,interactive)/$(b,normal)/$(b,batch)); \
          $(b,--hedge-after) arms certificate-gated hedging and $(b,--brownout-after) the \
          overload watchdog. SIGTERM/SIGINT drain gracefully ($(b,--drain-grace)). A \
          line $(b,{\"stats\":true}) answers immediately with the metrics snapshot \
          (job/cache/client counters and gauges); a line $(b,GET /metrics) draws the same \
          snapshot as a Prometheus text-format HTTP response (see $(b,rpq stats)).")
    Term.(
      const run $ workers_arg $ retries_arg $ queue_cap_arg $ job_timeout_arg $ journal_sync_arg
      $ max_heap_arg $ listen_arg $ tcp_arg $ cache_entries_arg $ client_inflight_arg
      $ drain_grace_arg $ serve_journal_arg $ hedge_after_arg $ brownout_after_arg $ trace_arg
      $ log_level_arg $ log_file_arg)

(* ---- stats / submit: socket clients of a running serve ---- *)

let connect_args =
  let sock =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:"Connect to a server listening on the Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Connect to a server on loopback TCP port $(docv).")
  in
  (sock, tcp)

(* A metrics scrape is one "GET <target>" line on the same line-framed
   socket jobs travel on; the server answers with a complete HTTP/1.0
   response and closes. Read to EOF, check the status line, strip the
   header block at the first blank line. *)
let http_get ~connect target =
  match connect () with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | (ic, oc) ->
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          close_out_noerr oc)
        (fun () ->
          output_string oc (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target);
          flush oc;
          let raw = In_channel.input_all ic in
          let len = String.length raw in
          let rec find_body i =
            if i + 4 > len then None
            else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
            else find_body (i + 1)
          in
          match find_body 0 with
          | None -> Error "malformed response (no header/body separator)"
          | Some body_at ->
              if String.starts_with ~prefix:"HTTP/1.0 200" raw then
                Ok (String.sub raw body_at (len - body_at))
              else
                Error
                  (match String.index_opt raw '\r' with
                  | Some i -> String.sub raw 0 i
                  | None -> "malformed status line"))

let stats_cmd =
  let sock, tcp = connect_args in
  let counters =
    Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:
            "Scrape $(b,/metrics/counters) instead of $(b,/metrics): counters only, no \
             gauges or latency histograms — the subset whose bytes are deterministic across \
             two seeded runs.")
  in
  let watch =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:
            "Re-scrape every $(docv) seconds (reconnecting each time) until interrupted or \
             the server goes away, printing each snapshot.")
  in
  let run sock tcp counters watch =
    match (sock, tcp) with
    | None, None -> input_error "stats: need --connect PATH or --tcp PORT"
    | _ when watch <> None && Option.get watch <= 0.0 ->
        input_error "stats: watch period must be positive"
    | _ ->
        let connect () =
          match sock with
          | Some path -> Runner.Transport.connect_unix path
          | None -> Runner.Transport.connect_tcp (Option.get tcp)
        in
        let target = if counters then "/metrics/counters" else "/metrics" in
        let scrape () =
          match http_get ~connect target with
          | Ok body ->
              print_string body;
              flush stdout;
              true
          | Error e ->
              Printf.eprintf "rpq: stats: %s\n%!" e;
              false
        in
        let rec loop ok =
          match watch with
          | Some period when ok ->
              Unix.sleepf period;
              loop (scrape ())
          | _ -> if ok then 0 else 1
        in
        loop (scrape ())
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Scrape a running $(b,rpq serve)'s metrics endpoint ($(b,GET /metrics) over its job \
          socket) and print the Prometheus text-format exposition: job/retry/death and \
          cache/transport counters, queue gauges, latency summaries. Families are emitted in \
          sorted order with locale-independent number formatting, so equal snapshots are \
          byte-equal.")
    Term.(const run $ sock $ tcp $ counters $ watch)

(* Shed kinds: the server refused or expired the job without running it
   to an answer; the client may resubmit. `submit' reports these with
   exit 3 so scripts can tell "resubmit later" from hard failures. *)
let submit_shed_kinds = [ "overloaded"; "deadline_exceeded" ]
let exit_some_shed = 3

let submit_cmd =
  let sock, tcp = connect_args in
  let jobfile =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOBFILE"
          ~doc:"Same format as $(b,rpq batch): one job per line, <db-file> <regex> [key=value].")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Stamp an end-to-end deadline of $(docv) milliseconds on every job that has no \
             per-line $(b,deadline=) key. The clock starts at the server's admission: a job \
             still queued at expiry is shed with a retriable `deadline_exceeded' reply, and \
             a dispatched job has its wall and step budgets clamped to the remaining time.")
  in
  let priority_arg =
    Arg.(
      value
      & opt (some (enum (List.map (fun p -> (p, p)) Cert.Proto.priorities))) None
      & info [ "priority" ] ~docv:"CLASS"
          ~doc:
            "Stamp this priority class ($(b,batch), $(b,normal) or $(b,interactive)) on every \
             job that has no per-line $(b,priority=) key. The server dequeues weighted-fair \
             across classes and sheds $(b,batch) first under overload.")
  in
  let run jobfile sock tcp deadline priority trace log_level log_file =
    configure_trace trace;
    configure_log log_level log_file @@ fun () ->
    match (sock, tcp) with
    | None, None -> input_error "submit: need --connect PATH or --tcp PORT"
    | _ when (match deadline with Some ms -> ms < 0 | None -> false) ->
        input_error "submit: negative deadline"
    | _ -> begin
        match parse_jobfile jobfile with
        | Error e -> input_error "%s" e
        | Ok [] -> input_error "%s: no jobs" jobfile
        | Ok jobs -> begin
            let jobs =
              List.map
                (fun (j : Cert.Proto.job) ->
                  let deadline_ms =
                    match j.Cert.Proto.deadline_ms with Some _ as d -> d | None -> deadline
                  in
                  let priority =
                    if j.Cert.Proto.priority <> Cert.Proto.default_priority then
                      j.Cert.Proto.priority
                    else Option.value priority ~default:j.Cert.Proto.priority
                  in
                  { j with Cert.Proto.deadline_ms; priority })
                jobs
            in
            let connect () =
              match sock with
              | Some path -> Runner.Transport.connect_unix path
              | None -> Runner.Transport.connect_tcp (Option.get tcp)
            in
            match connect () with
            | exception Unix.Unix_error (e, _, _) ->
                input_error "submit: connect: %s" (Unix.error_message e)
            | (ic, oc) ->
                (* One client-side "request" span per job, its context
                   stamped into the wire job so the server parents its own
                   request span (and, transitively, the worker's solve
                   span) under ours: the client's trace id threads the
                   whole pipeline. *)
                let spans = Hashtbl.create 16 in
                List.iter
                  (fun (j : Cert.Proto.job) ->
                    let h =
                      Obs.Trace.open_span
                        ~args:[ ("id", Cert.Json.Str j.Cert.Proto.id) ]
                        "request"
                    in
                    Option.iter (fun h -> Hashtbl.replace spans j.Cert.Proto.id h) h;
                    let trace =
                      Option.map (fun h -> Obs.Trace.ctx_to_string (Obs.Trace.handle_ctx h)) h
                    in
                    output_string oc
                      (Cert.Proto.job_to_wire_json { j with Cert.Proto.trace });
                    output_char oc '\n')
                  jobs;
                flush oc;
                (* No half-close here: the server cancels a disconnected
                   client's queued jobs, so EOF from us may come only
                   after the last reply is in hand. *)
                let failures = ref 0 and shed = ref 0 in
                let rec read_n n =
                  if n = 0 then Ok ()
                  else
                    match input_line ic with
                    | exception End_of_file ->
                        Error
                          (Printf.sprintf "server closed the connection with %d replies outstanding"
                             n)
                    | line -> begin
                        match Cert.Proto.reply_of_json line with
                        | Error e -> Error (Printf.sprintf "bad reply line: %s" e)
                        | Ok r ->
                            (match Hashtbl.find_opt spans r.Cert.Proto.id with
                            | Some h ->
                                Hashtbl.remove spans r.Cert.Proto.id;
                                Obs.Trace.close_span
                                  ~args:
                                    [
                                      ( "outcome",
                                        Cert.Json.Str
                                          (Cert.Proto.verdict_name r.Cert.Proto.verdict) );
                                    ]
                                  h
                            | None -> ());
                            (match r.Cert.Proto.verdict with
                            | Cert.Proto.V_failed { kind; _ }
                              when List.mem kind submit_shed_kinds ->
                                incr shed
                            | Cert.Proto.V_failed _ -> incr failures
                            | _ -> ());
                            print_endline (Cert.Proto.reply_to_json r);
                            read_n (n - 1)
                      end
                in
                let res = read_n (List.length jobs) in
                close_in_noerr ic;
                close_out_noerr oc;
                (match res with
                | Error e ->
                    Hashtbl.iter
                      (fun _ h ->
                        Obs.Trace.close_span
                          ~args:[ ("outcome", Cert.Json.Str "lost") ]
                          h)
                      spans;
                    input_error "submit: %s" e
                | Ok () ->
                    if !failures > 0 then 1
                    else if !shed > 0 then exit_some_shed
                    else 0)
          end
      end
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a jobfile to a running $(b,rpq serve) over its socket and print one JSON \
          reply line per job, in settlement order. $(b,--deadline) and $(b,--priority) stamp \
          end-to-end deadlines and scheduling classes on the submitted jobs. With \
          $(b,--trace), each job runs under a client-side request span whose context rides \
          the wire: concatenating the client's and the server's trace files yields one \
          multi-process trace that $(b,rpq trace-check) validates end to end. Exits 0 when \
          every job settled without error, 3 when the only failures were retriable sheds \
          (`overloaded'/`deadline_exceeded' — resubmit later), 1 on any other job failure, \
          and 2 on transport or input errors.")
    Term.(
      const run $ jobfile $ sock $ tcp $ deadline_arg $ priority_arg $ trace_arg $ log_level_arg
      $ log_file_arg)

(* ---- journal: inspect / compact ---- *)

module Journal = Runner.Journal

let journal_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"JOURNAL" ~doc:"Journal file.")

(* One line of JSON stats. [live_md5] digests the settled id -> (digest,
   reply) map in sorted order, so CI can assert in one comparison that a
   compaction changed the journal's bytes but not its meaning. *)
let journal_inspect_line path (rep : Journal.report) =
  let tbl = Journal.completed rep.Journal.entries in
  let live =
    List.sort compare (Hashtbl.fold (fun id (digest, reply) acc ->
        (id, digest, reply) :: acc) tbl [])
  in
  (* Per-entry certificate accounting: how many live settled answers carry
     a certificate, and how many of those re-check. [certs] counts
     presence; a gap between [certs] and [cert_valid] is a red flag that
     `compact' will refuse to drop history for. *)
  let certs, cert_valid =
    List.fold_left
      (fun (present, valid) (_, _, (reply : Cert.Proto.reply)) ->
        match reply.Cert.Proto.cert with
        | None -> (present, valid)
        | Some _ ->
            ( present + 1,
              valid + if Result.is_ok (Cert.Checker.check_reply reply) then 1 else 0 ))
      (0, 0) live
  in
  let live_md5 =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map
               (fun (id, digest, reply) ->
                 Printf.sprintf "%s %s %s" id digest (Cert.Proto.reply_to_json reply))
               live)))
  in
  let started =
    List.length
      (List.filter (function Journal.Started _ -> true | _ -> false) rep.Journal.entries)
  in
  let module J = Cert.Json in
  J.to_string
    (J.Obj
       [
         ("path", J.Str path);
         ("version", J.Str (match rep.Journal.version with Journal.V1 -> "v1" | Journal.V2 -> "v2"));
         ("records", J.Int rep.Journal.records);
         ("started", J.Int started);
         ("done", J.Int (rep.Journal.records - started));
         ("live", J.Int (List.length live));
         ("certs", J.Int certs);
         ("cert_valid", J.Int cert_valid);
         ("cert_invalid", J.Int (certs - cert_valid));
         ("bytes", J.Int rep.Journal.bytes);
         ("dead_bytes", J.Int rep.Journal.dead_bytes);
         ("torn_bytes", J.Int rep.Journal.torn_bytes);
         ( "torn",
           match rep.Journal.torn with
           | None -> J.Null
           | Some Journal.Truncated -> J.Str "truncated"
           | Some Journal.Bad_checksum -> J.Str "bad-checksum" );
         ("last_seq", J.Int rep.Journal.last_seq);
         ("live_md5", J.Str live_md5);
       ])

let journal_inspect_cmd =
  let run file =
    match Journal.load file with
    | Error e -> input_error "%s" e
    | Ok rep ->
        print_endline (journal_inspect_line file rep);
        0
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Print one JSON line of journal statistics: format version, record/live counts, dead \
          and torn bytes, and a digest of the settled-answer map ($(b,live_md5)) that is \
          invariant under $(b,compact).")
    Term.(const run $ journal_file_arg)

let journal_compact_cmd =
  let force =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Compact even when a live settled answer's certificate fails to re-check (a \
             warning per failing entry goes to stderr). Without $(b,--force) such a journal \
             is refused: compaction would discard the history needed to diagnose the bad \
             record.")
  in
  (* Compaction keeps only the last Done per id — after it, a bad settled
     answer can no longer be cross-checked against earlier records. So a
     live entry whose certificate fails re-check blocks compaction unless
     forced. *)
  let cert_failures file =
    match Journal.load file with
    | Error e -> Error e
    | Ok rep ->
        let tbl = Journal.completed rep.Journal.entries in
        Ok
          (List.sort compare
             (Hashtbl.fold
                (fun id (_, reply) acc ->
                  match Cert.Checker.check_reply reply with
                  | Ok () -> acc
                  | Error msg -> (id, msg) :: acc)
                tbl []))
  in
  let run file force =
    match cert_failures file with
    | Error e -> input_error "%s" e
    | Ok failures ->
        List.iter
          (fun (id, msg) ->
            prerr_endline
              (Printf.sprintf "rpq: journal compact: job %S: certificate fails re-check: %s" id
                 msg))
          failures;
        if failures <> [] && not force then
          input_error
            "journal compact: %d live entr%s failed certificate re-check (use --force to \
             compact anyway)"
            (List.length failures)
            (if List.length failures = 1 then "y" else "ies")
        else begin
          match Journal.compact file with
          | Error e -> input_error "%s" e
          | Ok s ->
              let module J = Cert.Json in
              print_endline
                (J.to_string
                   (J.Obj
                      [
                        ("path", J.Str file);
                        ("kept", J.Int s.Journal.kept);
                        ("dropped", J.Int s.Journal.dropped);
                        ("before_bytes", J.Int s.Journal.before_bytes);
                        ("after_bytes", J.Int s.Journal.after_bytes);
                      ]));
              0
        end
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Rewrite the journal to only the last $(i,Done) record per job id (atomic: temp + \
          fsync + rename), reclaiming dead bytes; also migrates v1 journals to the v2 \
          checksummed format. The settled-answer map is unchanged — $(b,inspect)'s \
          $(b,live_md5) agrees before and after. Refuses (exit 2) when a live settled \
          answer's certificate fails re-check, unless $(b,--force).")
    Term.(const run $ journal_file_arg $ force)

let journal_cmd =
  Cmd.group
    (Cmd.info "journal"
       ~doc:
         "Inspect or compact a write-ahead batch journal (see $(b,rpq batch --journal) and \
          $(b,rpq chaos)).")
    [ journal_inspect_cmd; journal_compact_cmd ]

(* ---- chaos: deterministic crash-recovery harness ---- *)

let m_chaos_crashes = Obs.Metrics.counter "chaos.crashes"

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* Reply lines a child [rpq batch] wrote to its redirected stdout. *)
let read_replies path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match Cert.Proto.reply_of_json line with
         | Ok r -> r
         | Error e ->
             prerr_endline (Printf.sprintf "rpq: chaos: bad reply line in %s: %s" path e);
             exit 1)

(* Volatile fields zeroed (trace contexts embed pids), so
   equal-modulo-time replies print identically and two chaos runs with
   the same seed diff byte-for-byte. *)
let normalized_reply (r : Cert.Proto.reply) =
  Cert.Proto.reply_to_json { r with Cert.Proto.wall_s = 0.0; stages = []; trace = None }

(* Children inherit our environment minus any ambient fault, trace, or
   flight-recorder plan — the chaos schedule owns fault injection, and
   [flight] arms the child's own black box at a path this harness will
   assert on after each injected crash. *)
let chaos_child_env ?flight faults =
  let keep =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not
             (String.starts_with ~prefix:"RPQ_FAULTS=" kv
             || String.starts_with ~prefix:"RPQ_TRACE=" kv
             || String.starts_with ~prefix:"RPQ_FLIGHT=" kv))
  in
  let extra =
    ("RPQ_FAULTS=" ^ faults)
    :: (match flight with Some p -> [ "RPQ_FLIGHT=" ^ p ] | None -> [])
  in
  Array.of_list (extra @ keep)

let rec chaos_waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> chaos_waitpid pid

(* ---- chaos --churn: client churn over a live socket server ----

   The harness starts this very binary as `rpq serve --listen ...` with a
   content-invariant net fault armed ([net:partial_write:P] halves every
   socket flush — the suffix stays buffered, so payloads are unchanged),
   then drives a seeded schedule at it: victims connect, submit, and
   vanish mid-stream; two survivors (one a slow reader) split every job
   and read their replies; a finishing client resubmits every job so the
   journal's settled map is total despite the cancellations. Assertions:
   every reply a surviving client reads carries a valid certificate, the
   server drains cleanly on SIGTERM (exit 0, journal lock released), and
   the journal's settled answers equal a churn-free reference serve run
   modulo wall-clock fields. Everything printed is a pure function of the
   seed and the jobfile, so two runs diff byte-identically. *)
let run_churn ~jobs ~kills ~seed ~net_period ~hedge_after ~(cfg : Runner.config) =
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("rpq: chaos: " ^ msg);
        exit 1)
      fmt
  in
  (* A victim's vanished reader must surface as EPIPE in the server, and
     a vanished server as EPIPE here — never as SIGPIPE. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let njobs = List.length jobs in
  let job_arr = Array.of_list jobs in
  let tmpdir = Filename.temp_file "rpq_churn" "" in
  Sys.remove tmpdir;
  Unix.mkdir tmpdir 0o700;
  let sock = Filename.concat tmpdir "churn.sock" in
  let journal = Filename.concat tmpdir "churn.journal" in
  let ref_sock = Filename.concat tmpdir "ref.sock" in
  let ref_journal = Filename.concat tmpdir "ref.journal" in
  let cleanup () =
    List.iter
      (fun f -> if Sys.file_exists f then Sys.remove f)
      [ sock; journal; journal ^ ".tmp"; ref_sock; ref_journal; ref_journal ^ ".tmp" ];
    match Unix.rmdir tmpdir with
    | () -> ()
    | exception Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let start_server ~faults ~hedged ~sock ~journal =
    let argv =
      [
        Sys.executable_name; "serve";
        "--listen"; sock;
        "--journal"; journal;
        "--workers"; string_of_int cfg.Runner.workers;
        "--retries"; string_of_int cfg.Runner.retries;
        "--queue-cap"; string_of_int cfg.Runner.queue_cap;
        "--cache-entries"; "256";
        "--client-inflight"; "4";
        "--drain-grace"; "30";
      ]
      @ (match cfg.Runner.job_timeout with
        | Some s -> [ "--job-timeout"; string_of_float s ]
        | None -> [])
      (* The churned server hedges; the reference never does. The final
         journal diff is then exactly the claim the hedge design makes:
         under a deterministic fault plan, hedged and unhedged serving
         settle every job identically (modulo wall clock). *)
      @ (match if hedged then hedge_after else None with
        | Some s -> [ "--hedge-after"; string_of_float s ]
        | None -> [])
    in
    let pid =
      Unix.create_process_env Sys.executable_name (Array.of_list argv)
        (chaos_child_env faults) Unix.stdin Unix.stderr Unix.stderr
    in
    (* Poll for the socket file rather than blocking in waitpid: reap
       only if the child is already gone. *)
    let rec wait_sock n =
      if Sys.file_exists sock then ()
      else if n > 400 then die "server never created its socket at %s" sock
      else begin
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _, st -> die "server died before listening (%s)" (status_to_string st)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        Unix.sleepf 0.025;
        wait_sock (n + 1)
      end
    in
    wait_sock 0;
    pid
  in
  let connect sock =
    let rec go n =
      match Runner.Transport.connect_unix sock with
      | conn -> conn
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n < 200 ->
          Unix.sleepf 0.025;
          go (n + 1)
    in
    go 0
  in
  let send_job oc (j : Cert.Proto.job) =
    output_string oc (Cert.Proto.job_to_json j);
    output_char oc '\n';
    flush oc
  in
  let read_reply ic =
    match input_line ic with
    | exception End_of_file -> die "server closed a surviving client's connection"
    | line -> begin
        match Cert.Proto.reply_of_json line with
        | Ok r -> r
        | Error e -> die "bad reply line from server: %s" e
      end
  in
  let check_cert (r : Cert.Proto.reply) =
    (match r.Cert.Proto.verdict with
    | Cert.Proto.V_failed _ ->
        die "job %S came back failed: %s" r.Cert.Proto.id (normalized_reply r)
    | Cert.Proto.V_exact _ | Cert.Proto.V_bounded _ -> ());
    match Cert.Checker.check_reply r with
    | Ok () -> ()
    | Error msg ->
        die "reply %S carries an invalid certificate: %s" r.Cert.Proto.id msg
  in
  Printf.printf "chaos churn: seed %d, %d jobs, %d kills, net:partial_write:%d%s\n" seed njobs
    kills net_period
    (match hedge_after with
    | Some s -> Printf.sprintf ", hedge-after %g" s
    | None -> "");
  let server =
    start_server
      ~faults:(Printf.sprintf "net:partial_write:%d" net_period)
      ~hedged:true ~sock ~journal
  in
  (* Same LCG construction as the crash schedule: high bits of a 48-bit
     stream, printed up front so two runs of one seed diff clean. *)
  let lcg = ref ((seed land max_int) lxor 0x2545F4914F6CDD1D) in
  let draw bound =
    lcg := ((!lcg * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    !lcg lsr 16 mod bound
  in
  for k = 1 to kills do
    let nsub = 1 + draw (min 4 njobs) in
    let start = draw njobs in
    let read_first = draw 2 = 1 in
    Printf.printf "kill %d: victim submits %d job(s) from index %d%s\n" k nsub start
      (if read_first then ", reads one reply" else "");
    let ic, oc = connect sock in
    for i = 0 to nsub - 1 do
      send_job oc job_arr.((start + i) mod njobs)
    done;
    if read_first then check_cert (read_reply ic);
    (* Vanish mid-stream: queued jobs get cancelled server-side, inflight
       ones settle into journal and cache with nobody to deliver to. *)
    close_out_noerr oc;
    close_in_noerr ic
  done;
  (* Survivors: two clients split every job; the second reads slowly.
     Each must get exactly its replies, every certificate valid. *)
  let ic1, oc1 = connect sock in
  let ic2, oc2 = connect sock in
  Array.iteri (fun i j -> send_job (if i mod 2 = 0 then oc1 else oc2) j) job_arr;
  let n1 = (njobs + 1) / 2 in
  let n2 = njobs / 2 in
  for _ = 1 to n1 do
    check_cert (read_reply ic1)
  done;
  for _ = 1 to n2 do
    Unix.sleepf 0.002;
    check_cert (read_reply ic2)
  done;
  close_out_noerr oc1;
  close_in_noerr ic1;
  close_out_noerr oc2;
  close_in_noerr ic2;
  Printf.printf "survivors: %d + %d replies, all certificates valid\n" n1 n2;
  (* Finisher: resubmit everything under the original ids so the settled
     map is total; cancelled jobs compute now, settled ones come from the
     certificate-gated cache. *)
  let icf, ocf = connect sock in
  Array.iter (send_job ocf) job_arr;
  for _ = 1 to njobs do
    check_cert (read_reply icf)
  done;
  close_out_noerr ocf;
  close_in_noerr icf;
  Unix.kill server Sys.sigterm;
  (match chaos_waitpid server with
  | Unix.WEXITED 0 -> ()
  | st -> die "server did not drain cleanly on SIGTERM (%s)" (status_to_string st));
  print_endline "server drained cleanly on SIGTERM";
  (* Reference: same jobs, one client, no churn, no faults. *)
  let ref_server =
    start_server ~faults:"off" ~hedged:false ~sock:ref_sock ~journal:ref_journal
  in
  let icr, ocr = connect ref_sock in
  Array.iter (send_job ocr) job_arr;
  for _ = 1 to njobs do
    check_cert (read_reply icr)
  done;
  close_out_noerr ocr;
  close_in_noerr icr;
  Unix.kill ref_server Sys.sigterm;
  (match chaos_waitpid ref_server with
  | Unix.WEXITED 0 -> ()
  | st -> die "reference server did not drain cleanly (%s)" (status_to_string st));
  let settled path =
    match Runner.Journal.load path with
    | Error e -> die "journal %s refuses to load: %s" path e
    | Ok rep ->
        let tbl = Runner.Journal.completed rep.Runner.Journal.entries in
        List.sort
          (fun (a, _, _) (b, _, _) -> compare a b)
          (Hashtbl.fold (fun id (digest, reply) acc -> (id, digest, reply) :: acc) tbl [])
  in
  let churned = settled journal in
  let reference = settled ref_journal in
  let diffs = ref 0 in
  let rec cmp a b =
    match (a, b) with
    | [], [] -> ()
    | (ida, _, _) :: ta, [] ->
        Printf.printf "diff %s: settled only under churn\n" ida;
        incr diffs;
        cmp ta []
    | [], (idb, _, _) :: tb ->
        Printf.printf "diff %s: settled only in reference\n" idb;
        incr diffs;
        cmp [] tb
    | (ida, dga, ra) :: ta, (idb, dgb, rb) :: tb ->
        if ida = idb then begin
          if dga <> dgb || not (Cert.Proto.reply_equal_ignoring_time ra rb) then begin
            Printf.printf "diff %s:\n  reference %s\n  churned   %s\n" ida
              (normalized_reply rb) (normalized_reply ra);
            incr diffs
          end;
          cmp ta tb
        end
        else if ida < idb then begin
          Printf.printf "diff %s: settled only under churn\n" ida;
          incr diffs;
          cmp ta b
        end
        else begin
          Printf.printf "diff %s: settled only in reference\n" idb;
          incr diffs;
          cmp a tb
        end
  in
  cmp churned reference;
  List.iter (fun (_, _, r) -> print_endline (normalized_reply r)) churned;
  Printf.printf "chaos churn: %d jobs, %d kills, diffs: %d\n" njobs kills !diffs;
  if !diffs = 0 then 0 else 1

(* The harness re-executes this very binary ([batch] in a child process)
   with RPQ_FAULTS armed at a seeded crash site, so the supervisor truly
   dies mid-write (_exit 70, no unwinding) and recovery runs against
   whatever bytes made it to the journal — the closest deterministic
   approximation of a power cut the test harness can stage. *)
let chaos_cmd =
  let jobs_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "jobs" ] ~docv:"FILE" ~doc:"Jobfile, in $(b,rpq batch) format.")
  in
  let crashes_arg =
    Arg.(
      value & opt int 8
      & info [ "crashes" ] ~docv:"N" ~doc:"Number of crashed supervisor runs to inject.")
  in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"S"
          ~doc:"Seed for the crash schedule (site and hit count of each injected crash).")
  in
  let churn_arg =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Client-churn mode: instead of crashing batch supervisors, run a live \
             $(b,rpq serve --listen) server (with a content-invariant $(b,net:partial_write) \
             fault armed) and drive a seeded schedule of clients at it — $(b,--kills) victims \
             that vanish mid-stream, two survivors (one reading slowly) that must get exactly \
             their certificate-valid replies, and a finishing client that resubmits every \
             job. Asserts a clean SIGTERM drain and a final journal equal to a churn-free \
             reference run (modulo wall-clock fields).")
  in
  let kills_arg =
    Arg.(
      value & opt int 8
      & info [ "kills" ] ~docv:"N"
          ~doc:"Client kills to inject in $(b,--churn) mode.")
  in
  let net_period_arg =
    Arg.(
      value & opt int 3
      & info [ "net-period" ] ~docv:"P"
          ~doc:"Period of the $(b,net:partial_write) fault armed in the churn server.")
  in
  let hedge_after_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "hedge-after" ] ~docv:"SECONDS"
          ~doc:
            "Arm certificate-gated hedging in the $(b,--churn) server (the reference server \
             stays unhedged), so the final journal diff asserts that hedged and unhedged \
             serving settle every job identically modulo wall clock.")
  in
  let run jobfile crashes seed workers retries queue_cap job_timeout churn kills net_period
      hedge_after =
    match runner_config workers retries queue_cap job_timeout Runner.Journal.Per_line None with
    | Error e -> input_error "chaos: %s" e
    | Ok cfg -> begin
        match parse_jobfile jobfile with
        | Error e -> input_error "%s" e
        | Ok [] -> input_error "%s: no jobs" jobfile
        | Ok _ when crashes < 0 -> input_error "chaos: negative crash count"
        | Ok _ when churn && kills < 0 -> input_error "chaos: negative kill count"
        | Ok _ when churn && net_period < 1 -> input_error "chaos: net period must be positive"
        | Ok _ when (match hedge_after with Some s -> s < 0.0 | None -> false) ->
            input_error "chaos: negative hedge delay"
        | Ok jobs when churn -> run_churn ~jobs ~kills ~seed ~net_period ~hedge_after ~cfg
        | Ok jobs ->
            let journal = Filename.temp_file "rpq_chaos" ".journal" in
            let out_file = Filename.temp_file "rpq_chaos" ".jsonl" in
            let flight_file = Filename.temp_file "rpq_chaos" ".flight" in
            Sys.remove journal;
            Sys.remove flight_file;
            let cleanup () =
              List.iter
                (fun f -> if Sys.file_exists f then Sys.remove f)
                [ journal; journal ^ ".tmp"; out_file; flight_file; flight_file ^ ".tmp" ]
            in
            Fun.protect ~finally:cleanup @@ fun () ->
            let run_child ?flight ~faults ~with_journal ~out () =
              let argv =
                [ Sys.executable_name; "batch"; jobfile ]
                @ (if with_journal then [ "--journal"; journal ] else [])
                @ [
                    "--workers"; string_of_int cfg.Runner.workers;
                    "--retries"; string_of_int cfg.Runner.retries;
                    "--queue-cap"; string_of_int cfg.Runner.queue_cap;
                    "--journal-sync"; "per_line";
                  ]
                @ (match cfg.Runner.job_timeout with
                  | Some s -> [ "--job-timeout"; string_of_float s ]
                  | None -> [])
              in
              let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
              let pid =
                Unix.create_process_env Sys.executable_name (Array.of_list argv)
                  (chaos_child_env ?flight faults) Unix.stdin fd_out Unix.stderr
              in
              Unix.close fd_out;
              let rec wait () =
                match Unix.waitpid [] pid with
                | _, status -> status
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
              in
              wait ()
            in
            let die fmt =
              Printf.ksprintf
                (fun msg ->
                  prerr_endline ("rpq: chaos: " ^ msg);
                  exit 1)
                fmt
            in
            (* Every answer that survived a crash must carry a certificate
               that re-checks: a settled record whose evidence does not
               hold is exactly the corruption the journal + certificate
               machinery exists to rule out. *)
            let load_settled () =
              match Journal.load journal with
              | Error e -> die "crash left a journal that refuses to load: %s" e
              | Ok rep ->
                  let tbl = Journal.completed rep.Journal.entries in
                  Hashtbl.iter
                    (fun id (_, reply) ->
                      match Cert.Checker.check_reply reply with
                      | Ok () -> ()
                      | Error msg ->
                          die "settled job %S survived a crash with a bad certificate: %s" id msg)
                    tbl;
                  Hashtbl.length tbl
            in
            (* The library's crash hook dumps the flight recorder before
               _exit 70, so every injected crash must leave a parseable
               black box at the path we arm the child with. *)
            let validate_flight () =
              match In_channel.with_open_text flight_file In_channel.input_all with
              | exception Sys_error _ -> die "crash left no flight dump at %s" flight_file
              | contents -> begin
                  match Cert.Json.parse contents with
                  | Error e -> die "crash left an unparseable flight dump: %s" e
                  | Ok v ->
                      let get f conv = Option.bind (Cert.Json.member f v) conv in
                      (match get "v" Cert.Json.to_int_opt with
                      | Some 1 -> ()
                      | _ -> die "flight dump lacks version 1");
                      (match get "reason" Cert.Json.to_str_opt with
                      | Some r when String.starts_with ~prefix:"crash:" r -> ()
                      | Some r -> die "flight dump has unexpected reason %S" r
                      | None -> die "flight dump lacks a reason");
                      (match Cert.Json.member "events" v with
                      | Some (Cert.Json.List _) -> ()
                      | _ -> die "flight dump lacks an events array");
                      Sys.remove flight_file
                end
            in
            (* Reference: the same batch, no journal, no faults. *)
            (match run_child ~faults:"off" ~with_journal:false ~out:out_file () with
            | Unix.WEXITED (0 | 1) -> ()
            | st -> die "reference run died unexpectedly (%s)" (status_to_string st));
            let reference = read_replies out_file in
            (* Seeded schedule: same LCG construction as Resilience.Faults
               (high bits of a 48-bit stream). Printed up front so two runs
               of the same seed diff byte-identically. *)
            (* [journal.mid_compact] is excluded from the random schedule:
               whether auto-compaction runs at all depends on journal
               geometry, so a drawn hit count would usually never fire and
               the round would inject nothing. The unit suite covers that
               site directly. *)
            let sites =
              Array.of_list
                (List.filter (fun s -> s <> "journal.mid_compact") Faults.crash_sites)
            in
            let lcg = ref ((seed land max_int) lxor 0x2545F4914F6CDD1D) in
            let draw bound =
              lcg := ((!lcg * 25214903917) + 11) land 0xFFFFFFFFFFFF;
              (!lcg lsr 16) mod bound
            in
            Printf.printf "chaos: seed %d, %d planned crashes, %d jobs\n" seed crashes
              (List.length jobs);
            let settled_floor = ref 0 in
            let flight_dumps = ref 0 in
            let fired = ref 0 in
            for i = 1 to crashes do
              let remaining = List.length jobs - !settled_floor in
              if remaining = 0 then
                (* Everything is settled: no append or dispatch can happen,
                   so no crash site can fire — injecting would be vacuous. *)
                Printf.printf "crash %d: skipped (journal already complete)\n" i
              else begin
                let site = sites.(draw (Array.length sites)) in
                (* Hit counts bounded by the work actually left — ~2 journal
                   appends (Started/Done) per unsettled job, at least one
                   dispatch each — so every drawn site count is reachable
                   and the child really dies mid-write. *)
                let bound =
                  if site = "pool.post_dispatch" then remaining else 2 * remaining
                in
                let hits = 1 + draw bound in
                let spec = Printf.sprintf "crash:%s:%d" site hits in
                Printf.printf "crash %d: %s\n" i spec;
                (match
                   run_child ~flight:flight_file ~faults:spec ~with_journal:true ~out:out_file ()
                 with
                | Unix.WEXITED 70 ->
                    incr fired;
                    Obs.Metrics.incr m_chaos_crashes;
                    validate_flight ();
                    incr flight_dumps
                | Unix.WEXITED (0 | 1) ->
                    (* The site never reached its hit count: the batch simply
                       completed. Later resumes reuse its journal. *)
                    ()
                | st -> die "crashed run %d died unexpectedly (%s)" i (status_to_string st));
                let settled = load_settled () in
                Printf.eprintf "chaos: after crash %d: %d settled\n%!" i settled;
                if settled < !settled_floor then
                  die "settled answers went backwards (%d after %d): journal lost data" settled
                    !settled_floor;
                settled_floor := settled
              end
            done;
            if crashes > 0 && !fired = 0 then
              die "no crash site ever fired: the schedule injected nothing";
            (* Final resume, fault-free: must converge and agree with the
               reference modulo wall_s/stages. *)
            (match run_child ~faults:"off" ~with_journal:true ~out:out_file () with
            | Unix.WEXITED 0 -> ()
            | Unix.WEXITED 1 -> die "final resume settled with structured failures"
            | st -> die "final resume died (%s)" (status_to_string st));
            let final = read_replies out_file in
            if List.length final <> List.length reference then
              die "final resume emitted %d replies, reference %d" (List.length final)
                (List.length reference);
            List.iter
              (fun (r : Cert.Proto.reply) ->
                match Cert.Checker.check_reply r with
                | Ok () -> ()
                | Error msg ->
                    die "final reply %S carries an invalid certificate: %s" r.Cert.Proto.id msg)
              final;
            let diffs =
              List.fold_left2
                (fun acc (r : Cert.Proto.reply) (f : Cert.Proto.reply) ->
                  if Cert.Proto.reply_equal_ignoring_time r f then acc
                  else begin
                    Printf.printf "diff %s:\n  reference %s\n  resumed   %s\n" r.Cert.Proto.id
                      (normalized_reply r) (normalized_reply f);
                    acc + 1
                  end)
                0 reference final
            in
            List.iter (fun r -> print_endline (normalized_reply r)) final;
            Printf.printf "chaos: %d flight dumps validated\n" !flight_dumps;
            Printf.printf "chaos: %d jobs, %d of %d planned crashes fired, diffs: %d\n"
              (List.length jobs) !fired crashes diffs;
            if diffs = 0 then 0 else 1
      end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic crash-recovery harness: run the jobfile as $(b,rpq batch) in a child \
          process over and over, crashing the supervisor at seeded fault-injection sites \
          ($(b,crash:SITE:N) via RPQ_FAULTS, _exit 70 mid-write), resuming from the journal \
          each time, and finally asserting that a fault-free resume converges to replies \
          byte-identical to an uncrashed reference run (modulo wall-clock fields). Exits 0 \
          iff there are zero diffs.")
    Term.(
      const run $ jobs_arg $ crashes_arg $ seed_arg $ workers_arg $ retries_arg $ queue_cap_arg
      $ job_timeout_arg $ churn_arg $ kills_arg $ net_period_arg $ hedge_after_arg)

(* ---- trace-check ---- *)

(* CI validator for trace files; all the checking lives in
   [Runner.Trace_check] so tests exercise the same code path. *)
let trace_check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Trace file (.jsonl event stream — possibly the concatenation of several \
             processes' files — or Chrome JSON array).")
  in
  let run file =
    match Runner.Trace_check.check_file file with
    | Error msg ->
        prerr_endline ("rpq: error: " ^ msg);
        exit_input_error
    | Ok st ->
        Printf.printf
          "trace-check: %s: %d events, %d spans, %d processes, %d traces, nesting OK\n" file
          st.Runner.Trace_check.events st.Runner.Trace_check.spans
          st.Runner.Trace_check.processes st.Runner.Trace_check.traces;
        0
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a trace file written by $(b,--trace) or $(b,RPQ_TRACE): every event must \
          parse, spans must nest within their process, and cross-process parent links \
          ($(b,psid)) must resolve to containing spans in the same trace — orphan spans \
          reject the file (used by CI on traced batch and serve runs).")
    Term.(const run $ file)

let () =
  Obs.Trace.configure_from_env ();
  Obs.Log.configure_from_env ();
  Obs.Flight.configure_from_env ();
  at_exit Obs.Trace.finish;
  at_exit Obs.Log.close_file;
  (* With a flight recorder armed (RPQ_FLIGHT), a fatal signal dumps the
     black box before dying, like the in-library crash sites do. Pool
     workers reset these to defaults and disable their ring, and serve
     installs its own graceful-drain handlers on top. *)
  if Obs.Flight.enabled () then
    List.iter
      (fun (sg, name) ->
        Sys.set_signal sg
          (Sys.Signal_handle
             (fun _ ->
               Obs.Flight.dump ~reason:("signal:" ^ name) ();
               exit 1)))
      [ (Sys.sigterm, "term"); (Sys.sigint, "int") ];
  let doc = "Resilience of regular path queries (PODS 2025 reproduction)" in
  let info = Cmd.info "rpq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            classify_cmd;
            report_cmd;
            solve_cmd;
            gen_cmd;
            st_solve_cmd;
            reduce_cmd;
            words_cmd;
            gadgets_cmd;
            certify_cmd;
            dot_cmd;
            batch_cmd;
            serve_cmd;
            submit_cmd;
            stats_cmd;
            journal_cmd;
            chaos_cmd;
            trace_check_cmd;
          ]))
