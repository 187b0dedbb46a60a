(* The correctness gate. Every reply is re-checked with the independent
   certificate checker and compared with a reference computed outside the
   timed window: for PTIME jobs the value of the uncertified route solver,
   for hard jobs the verdict of an in-process [Runner.run_job_locally],
   which is deterministic under a step budget. *)

module P = Runner.Proto

type reference = Value of Resilience.Value.t | Verdict of P.verdict

(* The route the paper's classification picks, on the reduced language
   exactly as [Solver] does, but without certification. *)
let route_value (job : P.job) =
  match Graphdb.Serialize.parse job.P.db with
  | Error e -> Error ("database: " ^ e)
  | Ok p -> (
      let db = p.Graphdb.Serialize.db in
      let cl = Resilience.Classify.classify (Automata.Lang.of_string job.P.query) in
      let reduced = cl.Resilience.Classify.reduced in
      let ok = Result.map fst in
      match cl.Resilience.Classify.verdict with
      | Resilience.Classify.PTime Resilience.Classify.Local ->
          ok (Resilience.Local_solver.solve db reduced)
      | Resilience.Classify.PTime Resilience.Classify.Bipartite_chain ->
          ok (Resilience.Bcl.solve db reduced)
      | Resilience.Classify.PTime (Resilience.Classify.Submodular _) ->
          Resilience.Submod_solver.solve db reduced
      | Resilience.Classify.PTime Resilience.Classify.Trivial_empty ->
          Ok (Resilience.Value.Finite 0)
      | Resilience.Classify.PTime Resilience.Classify.Trivial_eps -> Ok Resilience.Value.Infinite
      | v -> Error ("not a PTIME language: " ^ Resilience.Classify.verdict_summary v))

let reference (j : Gen.job) =
  match j.Gen.route with
  | Gen.Hard -> Verdict (Runner.run_job_locally j.Gen.job).P.verdict
  | Gen.Ptime -> (
      match route_value j.Gen.job with
      | Ok v -> Value v
      | Error e -> Server.die "job %s: no reference: %s" j.Gen.job.P.id e)

type outcome =
  | Correct
  | Failed of string  (** a [V_failed] reply: shed, crash, ...; its kind *)
  | Wrong of string  (** a certificate or reference mismatch *)

let check (r : P.reply) reference =
  match r.P.verdict with
  | P.V_failed { kind; _ } -> Failed kind
  | verdict -> (
      match Cert.Checker.check_reply r with
      | Error e -> Wrong ("certificate: " ^ e)
      | Ok () -> (
          match (reference, verdict) with
          | Value v, P.V_exact { value; _ } when Resilience.Value.equal v value -> Correct
          | Value v, _ ->
              Wrong
                (Printf.sprintf "expected exact %s, got %s" (Resilience.Value.to_string v)
                   (P.reply_to_json { r with P.cert = None }))
          | Verdict v, _ when v = verdict -> Correct
          | Verdict _, _ ->
              Wrong ("verdict differs from the in-process reference: " ^ P.reply_to_json r)))

(* References memoized per canonical digest: a hot-set repeat shares
   its reference, and a traced run seeds the hard ones from the layer
   phase's own [run_job_locally] calls instead of solving twice. *)
type refs = (string, reference) Hashtbl.t

let references () : refs = Hashtbl.create 64
let key (j : Gen.job) = Runner.Journal.canonical_digest j.Gen.job
let seed (refs : refs) j r = Hashtbl.replace refs (key j) r

let lookup (refs : refs) j =
  match Hashtbl.find_opt refs (key j) with
  | Some r -> r
  | None ->
      let r = reference j in
      seed refs j r;
      r

(* Computes the missing references of [jobs] in [procs] forked copies of
   this process, each writing its share to a file under [dir]; the
   references are still in-process computations, just spread over the
   machine's cores once the timed window is over. *)
let prefetch (refs : refs) ~dir ~procs (jobs : Gen.job list) =
  let todo = Hashtbl.create 64 in
  List.iter (fun j -> if not (Hashtbl.mem refs (key j)) then Hashtbl.replace todo (key j) j) jobs;
  let todo = List.of_seq (Hashtbl.to_seq_values todo) in
  let file k = Filename.concat dir (Printf.sprintf "refs.%d" k) in
  let encode = function
    | Value Resilience.Value.Infinite -> "I"
    | Value (Resilience.Value.Finite n) -> Printf.sprintf "F%d" n
    | Verdict v ->
        "R"
        ^ P.reply_to_json
            { id = ""; attempts = 1; steps = 0; wall_s = 0.0; stages = []; trace = None; verdict = v; cert = None }
  in
  let decode s =
    match s.[0] with
    | 'I' -> Value Resilience.Value.Infinite
    | 'F' -> Value (Resilience.Value.Finite (int_of_string (String.sub s 1 (String.length s - 1))))
    | _ -> (
        match P.reply_of_json (String.sub s 1 (String.length s - 1)) with
        | Ok r -> Verdict r.P.verdict
        | Error e -> Server.die "reference file: %s" e)
  in
  let pids =
    List.init procs (fun k ->
        match Unix.fork () with
        | 0 ->
            let code =
              match
                Out_channel.with_open_text (file k) (fun oc ->
                    List.iteri
                      (fun i j ->
                        if i mod procs = k then Printf.fprintf oc "%s\t%s\n" (key j) (encode (reference j)))
                      todo)
              with
              | () -> 0
              | exception _ -> 3
            in
            Unix._exit code
        | pid -> pid)
  in
  List.iteri
    (fun k pid ->
      match snd (Server.retry_eintr (fun () -> Unix.waitpid [] pid)) with
      | Unix.WEXITED 0 ->
          In_channel.with_open_text (file k) In_channel.input_lines
          |> List.iter (fun l ->
                 match String.index_opt l '\t' with
                 | Some i ->
                     Hashtbl.replace refs (String.sub l 0 i)
                       (decode (String.sub l (i + 1) (String.length l - i - 1)))
                 | None -> ());
          Sys.remove (file k)
      | _ -> Server.die "a reference process failed")
    pids
