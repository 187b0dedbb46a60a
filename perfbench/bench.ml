(* The repository benchmark. See README.md for what each workload and
   metric means; run it through run.sh, which builds the programs first:

     bash perfbench/run.sh --workload ptime_large --seed 1 --seconds 10 --trace 0

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]; the line before it
   records the context of the run (machine, server flags, generator
   digest, server-side counters). *)

module P = Runner.Proto
module Json = Cert.Json
module C = Resilience.Classify

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least [p]% at or below it. *)
let rank a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median xs = rank (sorted xs) 50.0
let mean xs = match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let sum xs = List.fold_left ( +. ) 0.0 xs

(* The tail we can stand behind: p99 once 1000 samples exist, else the
   highest whole percentile with at least ten samples beyond it. *)
let tail_percentile n =
  let beyond p = n - int_of_float (Float.ceil (float_of_int (p * n) /. 100.0)) in
  let rec go p = if p <= 50 || beyond p >= 10 then p else go (p - 1) in
  go 99

(* The tail of [xs], in arrival order: the highest whole percentile (p99
   at most) with at least ten samples beyond it. Below 200 samples it is
   taken over the whole run. From 200 samples the run is cut into
   consecutive windows of 100 arrivals and the tail is the median of
   their p90s, each with exactly ten samples beyond it: on a virtual
   machine whose host takes its processors away for tens of milliseconds
   at a time, a whole-run p99 measures the worst of those pauses more
   than the server. *)
let window = 100

let tail xs =
  let n = List.length xs in
  if n < 2 * window then (rank (sorted xs) (float_of_int (tail_percentile n)), tail_percentile n)
  else
    let a = Array.of_list xs in
    let p = tail_percentile window in
    let ws =
      List.init (n / window) (fun w ->
          rank (sorted (Array.to_list (Array.sub a (w * window) window))) (float_of_int p))
    in
    (median ws, p)

(* ---- machine ---- *)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> 1
  | ic ->
      let n = Option.bind (In_channel.input_line ic) (fun l -> int_of_string_opt (String.trim l)) in
      ignore (Unix.close_process_in ic);
      Option.value ~default:1 n

(* Ticks of the whole machine from /proc/stat: (steal, total). A virtual
   machine whose host takes its processors away shows it here, and every
   timing of the run moves with it. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> (0, 0)
  | None -> (0, 0)
  | Some l -> (
      match String.split_on_char ' ' l |> List.filter (( <> ) "") |> List.tl |> List.map int_of_string_opt with
      | (Some _ :: _ as fields) ->
          let v = List.map (Option.value ~default:0) fields in
          ((match List.nth_opt v 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 v)
      | _ -> (0, 0))

(* ---- processor affinity ---- *)

(* The served phases run on one processor: the client and, inheriting
   its affinity when spawned, the server and its worker. With one job
   outstanding a request passes from process to process; across two
   processors each hand-off wakes an idle virtual processor that the host
   must schedule first, and on a 2-vCPU virtual machine the figures then
   followed the host's load: serve_mix unpinned settled 181-298 jobs/s
   at 0.5-25% steal, pinned 270-313 jobs/s at 0-4% in the same minutes.
   The references, computed after the window in forked processes, get
   every processor back. Without `taskset` the run is not pinned, and
   the context line says so. *)
let taskset args =
  match Unix.open_process_args_in "taskset" (Array.of_list ("taskset" :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> Some out | _ -> None)

let self () = string_of_int (Unix.getpid ())

(* "pid N's current affinity mask: 3" *)
let affinity () =
  Option.bind (taskset [ "-p"; self () ]) (fun out ->
      List.nth_opt (List.rev (String.split_on_char ' ' (String.trim out))) 0)

let pin () = Option.is_some (taskset [ "-p"; "-c"; "0"; self () ])
let restore = function Some mask -> ignore (taskset [ "-p"; mask; self () ]) | None -> ()

(* ---- one served phase ---- *)

type served = {
  load : Load.result;
  stats : Json.t;
  rss_mb : float;
  rss_replies : int;  (** replies received when [rss_mb] was read *)
  setup_s : float;
  steal : float;  (** share of the machine's processor time its host took *)
}

let serve_phase ~rpq ~dir ~workers ~conns ~(g : Gen.t) ~lines ~index ~seconds =
  let srv = Server.start ~rpq ~dir ~workers in
  let extra = List.init (conns - 1) (fun _ -> Server.connect srv.Server.sock) in
  let steal0, total0 = cpu_ticks () in
  let rss_at = ref None in
  let load =
    Load.closed ?index
      ~at:(g.Gen.rss_after, fun () -> rss_at := Some (Server.peak_rss_mb srv))
      (Array.of_list (srv.Server.conn :: extra))
      ~window:g.Gen.window ~lines ~round:g.Gen.round ~seconds
  in
  let steal1, total1 = cpu_ticks () in
  let stats = Server.stats srv.Server.conn in
  (* Peak memory after a fixed number of replies, or at the end of a run
     that never got that far: ptime_large's replies stay in the server's
     cache, so a peak read at the end would grow with the throughput. *)
  let rss_mb, rss_replies =
    match !rss_at with
    | Some r -> (r, g.Gen.rss_after)
    | None -> (Server.peak_rss_mb srv, List.length load.Load.arrivals)
  in
  List.iter Server.close extra;
  Server.stop srv;
  let steal = float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0)) in
  { load; stats; rss_mb; rss_replies; setup_s = srv.Server.setup_s; steal }

(* ---- the correctness gate over one phase's replies ---- *)

type eval = {
  latencies : float array;  (** per job sent, by job index; failed or missing is infinite *)
  outside : float list;  (** settled: client latency minus the supervisor's wall_s *)
  settled : int;
  failed : (string * int) list;  (** failed replies by kind, missing ones included *)
  wrong : string list;
  gaps : float list;
}

let evaluate ~(g : Gen.t) ~refs ~index (s : served) =
  let seen = Hashtbl.create 256 in
  let lat = Array.make s.load.Load.sent infinity and outside = ref [] and settled = ref 0 in
  let failed = Hashtbl.create 8 and wrong = ref [] and gaps = ref [] in
  let fail kind =
    Hashtbl.replace failed kind (1 + Option.value ~default:0 (Hashtbl.find_opt failed kind))
  in
  List.iter
    (fun (a : Load.arrival) ->
      match P.reply_of_json a.Load.line with
      | Error e -> wrong := ("undecodable reply: " ^ e) :: !wrong
      | Ok r -> (
          match Hashtbl.find_opt index r.P.id with
          | None -> wrong := ("reply to an unknown job " ^ r.P.id) :: !wrong
          | Some i when Hashtbl.mem seen i -> wrong := ("second reply to " ^ r.P.id) :: !wrong
          | Some i -> (
              Hashtbl.replace seen i ();
              let l = a.Load.recv -. s.load.Load.send_at.(i) in
              match Gate.check r (Gate.lookup refs g.Gen.jobs.(i)) with
              | Gate.Correct ->
                  incr settled;
                  lat.(i) <- l;
                  outside := (l -. r.P.wall_s) :: !outside;
                  (match r.P.verdict with
                  | P.V_bounded { lower = Finite lo; upper = Finite up; _ } ->
                      gaps := (float_of_int (up - lo) /. float_of_int (max up 1)) :: !gaps
                  | _ -> ())
              | Gate.Failed kind -> fail kind
              | Gate.Wrong m -> wrong := Printf.sprintf "job %s: %s" r.P.id m :: !wrong)))
    s.load.Load.arrivals;
  for _ = 1 to s.load.Load.sent - Hashtbl.length seen do
    fail "missing"
  done;
  {
    latencies = lat;
    outside = !outside;
    settled = !settled;
    failed = List.sort compare (List.of_seq (Hashtbl.to_seq failed));
    wrong = List.rev !wrong;
    gaps = !gaps;
  }

let n_failed e = List.fold_left (fun acc (_, n) -> acc + n) 0 e.failed
let p50 e = median (Array.to_list e.latencies)
let finite_or cap x = if Float.is_finite x then x else cap

(* ---- per-layer figures from the traced phase ---- *)

let applies layer route =
  match (layer, route) with
  | "mincut.local", C.PTime C.Local -> true
  | "mincut.bcl", C.PTime C.Bipartite_chain -> true
  | "certify.cut", C.PTime (C.Local | C.Bipartite_chain) -> true
  | "submod.solve", C.PTime (C.Submodular _) -> true
  | _ -> false

let time (jt : Layers.job_times) name = Hashtbl.find jt.Layers.t name

(* A route-specific layer is summarized over the jobs it serves; on a
   workload with none, over every job (its rejection path). *)
let over layer (jobs : Layers.job_times list) f =
  let mine = List.filter (fun jt -> applies layer jt.Layers.route) jobs in
  median (List.map f (if mine = [] then jobs else mine))

let certify_cut jt =
  match jt.Layers.route with
  | C.PTime C.Bipartite_chain -> time jt "mincut.bcl_certified" -. time jt "mincut.bcl"
  | _ -> time jt "mincut.local_certified" -. time jt "mincut.local"

(* The layers on one served request's blocking path. A miss decodes,
   digests at admission and again at settlement, makes the pool round
   trip around the worker's parse/compile/solve, appends the journal and
   encodes the reply for the client; a cache hit swaps the pool and the
   worker for the certificate-checked lookup. *)
let blocking_path (l : Layers.result) (jt : Layers.job_times) =
  let t = time jt in
  let common = t "proto.job_decode" +. t "journal.digest" +. t "journal.append" +. t "proto.reply_encode" in
  if jt.Layers.hit then common +. t "cache.find_hit"
  else
    common +. t "journal.digest" +. List.assoc jt.Layers.id l.Layers.roundtrip +. t "graphdb.parse"
    +. t "automata.compile" +. t "anytime.solve_bounded"

let stat_int stats name = Option.value ~default:0 (Option.bind (Json.member name stats) Json.to_int_opt)

let hit_ratio stats =
  let h = stat_int stats "cache.hits" and m = stat_int stats "cache.misses" in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let layer_metrics ~(a : served) ~(ea : eval) ~(eb : eval) (l : Layers.result) =
  let jobs = l.Layers.jobs in
  let m name f = median (List.map (fun jt -> time jt name) jobs) |> f in
  let s name = m name Fun.id in
  let paths = List.map (blocking_path l) jobs in
  let cuts =
    List.filter_map
      (fun jt -> if applies "certify.cut" jt.Layers.route then Some (certify_cut jt) else None)
      jobs
  in
  let attempted = Array.length ea.latencies in
  (* The sample is a prefix of the jobs the untraced phase served, so
     each traced job has its own served latency to be added up against. *)
  let unattributed =
    median
      (List.concat
         (List.mapi
            (fun i path ->
              if i < attempted && Float.is_finite ea.latencies.(i) then [ ea.latencies.(i) -. path ]
              else [])
            paths))
  in
  [
    ("proto.job_encode_s", s "proto.job_encode", "s");
    ("proto.job_decode_s", s "proto.job_decode", "s");
    ("graphdb.parse_s", s "graphdb.parse", "s");
    ("automata.compile_s", s "automata.compile", "s");
    ("classify.s", s "classify", "s");
    ("mincut.local_s", over "mincut.local" jobs (fun jt -> time jt "mincut.local"), "s");
    ("mincut.bcl_s", over "mincut.bcl" jobs (fun jt -> time jt "mincut.bcl"), "s");
    ("certify.cut_s", over "certify.cut" jobs certify_cut, "s");
    ("certify.cut_share", sum cuts /. sum paths, "ratio");
    ("submod.solve_s", over "submod.solve" jobs (fun jt -> time jt "submod.solve"), "s");
    ("anytime.solve_bounded_s", s "anytime.solve_bounded", "s");
    ("proto.reply_encode_s", s "proto.reply_encode", "s");
    ("proto.reply_decode_s", s "proto.reply_decode", "s");
    ( "proto.reply_bytes",
      median (List.map (fun jt -> float_of_int jt.Layers.reply_bytes) jobs),
      "bytes" );
    ("checker.check_reply_s", s "checker.check_reply", "s");
    ("cache.find_hit_s", s "cache.find_hit", "s");
    ("cache.hit_ratio", hit_ratio a.stats, "ratio");
    ("journal.digest_s", s "journal.digest", "s");
    ("journal.append_s", s "journal.append", "s");
    ( "journal.bytes_per_job",
      median (List.map (fun jt -> float_of_int jt.Layers.journal_bytes) jobs),
      "bytes" );
    ("pool.roundtrip_s", median (List.map snd l.Layers.roundtrip), "s");
    ("serve.outside_worker_s", median ea.outside, "s");
  ]
  @ List.map (fun (c, v) -> (c, v, "count")) l.Layers.counter_means
  @ [
      ("unattributed_s", unattributed, "s");
      ("trace.overhead", (p50 eb /. p50 ea) -. 1.0, "ratio");
      ("failed_ratio", float_of_int (n_failed ea) /. float_of_int (max 1 attempted), "ratio");
      ("bound_gap", mean ea.gaps, "ratio");
    ]

(* ---- output ---- *)

let num x = if Float.is_finite x then Printf.sprintf "%.12g" x else "null"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (num v) unit)
          metrics))

(* ---- one run ---- *)

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  context : (string * Json.t) list;
  wrong : string list;
}

(* Set-up samples: the served phase's own spawn plus three batches of
   spawns, before the timed window, after it and after the references,
   tens of seconds apart. A slow spell of the machine that takes a whole
   batch then moves at most a third of the samples, not their median. *)
let setup_batch = 5

(* Worker pool size. Every workload keeps one job outstanding, so a
   second worker would idle. *)
let workers = 1

(* Paths relative to the repository root, where run.sh starts us. *)
let rpq = "_build/default/bin/rpq_cli.exe"
let work = "perfbench/_work"

let run ?(tiny = false) ~workload ~seed ~seconds ~trace () =
  let g =
    match Gen.make ~tiny ~name:workload ~seed ~seconds () with
    | Some g -> g
    | None -> Server.die "unknown workload %S (one of %s)" workload (String.concat ", " Gen.names)
  in
  let cores = nproc () in
  let conns = max 1 (min g.Gen.connections cores) in
  let dir = Filename.concat work (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let lines = Array.map (fun (j : Gen.job) -> P.job_to_wire_json j.Gen.job) g.Gen.jobs in
  let index = Hashtbl.create (Array.length g.Gen.jobs) in
  Array.iteri (fun i (j : Gen.job) -> Hashtbl.replace index j.Gen.job.P.id i) g.Gen.jobs;
  (* A traced run serves the workload twice, untraced then traced, each
     for half the time, from the first job on a fresh server each time. *)
  let phase_s = if trace then seconds /. 2.0 else seconds in
  let phase ?index () = serve_phase ~rpq ~dir ~workers ~conns ~g ~lines ~index ~seconds:phase_s in
  let spawns n =
    if trace then []
    else
      List.init n (fun _ ->
          let s = Server.start ~rpq ~dir ~workers in
          Server.stop s;
          s.Server.setup_s)
  in
  let mask = affinity () in
  let pinned = mask <> None && pin () in
  let setups_before = spawns (setup_batch - 1) in
  let a = phase () in
  let setups_after = spawns setup_batch in
  let b = if trace then Some (phase ~index ()) else None in
  let refs = Gate.references () in
  let layers =
    if trace then begin
      let sample = Array.to_list (Array.sub g.Gen.jobs 0 (min g.Gen.round a.load.Load.sent)) in
      let l = Layers.run ~dir sample in
      List.iter2
        (fun (j : Gen.job) (jt : Layers.job_times) ->
          if j.Gen.route = Gen.Hard then
            Gate.seed refs j (Gate.Verdict jt.Layers.reply.P.verdict))
        sample l.Layers.jobs;
      Some l
    end
    else None
  in
  let sent = List.fold_left (fun m (s : served) -> max m s.load.Load.sent) 0 (a :: Option.to_list b) in
  restore mask;
  Gate.prefetch refs ~dir ~procs:(max 1 (min 2 cores)) (Array.to_list (Array.sub g.Gen.jobs 0 sent));
  if pinned then ignore (pin ());
  let setups = setups_before @ (a.setup_s :: setups_after) @ spawns setup_batch in
  restore mask;
  let ea = evaluate ~g ~refs ~index a in
  let eb = Option.map (evaluate ~g ~refs ~index) b in
  (* Only a failed run leaves its directory (and the server log) behind. *)
  (try
     Sys.remove (Filename.concat dir "serve.log");
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  let evals = ea :: Option.to_list eb in
  let attempted = List.fold_left (fun acc e -> acc + Array.length e.latencies) 0 evals in
  let wrong = List.concat_map (fun (e : eval) -> e.wrong) evals in
  let failed = List.fold_left (fun acc e -> acc + n_failed e) 0 evals + List.length wrong in
  let n = Array.length ea.latencies in
  let lat_tail, tail_p = tail (Array.to_list ea.latencies) in
  let metrics =
    match (layers, eb) with
    | Some l, Some eb -> layer_metrics ~a ~ea ~eb l
    | _ ->
        [
          ("setup_s", median setups, "s");
          ("jobs_per_s", float_of_int ea.settled /. a.load.Load.wall_s, "jobs/s");
          ("latency_p50_s", finite_or Load.drain_timeout (p50 ea), "s");
          ("latency_p99_s", finite_or Load.drain_timeout lat_tail, "s");
          ("peak_rss_mb", a.rss_mb, "MiB");
        ]
  in
  let counters =
    List.map
      (fun c -> (c, Json.Int (stat_int a.stats c)))
      [
        "cache.hits"; "cache.misses"; "cache.cert_rejects"; "runner.retries"; "runner.shed";
        "runner.deaths.crash"; "runner.deaths.timeout"; "runner.deaths.malformed";
        "runner.poisoned_total"; "runner.deadline_exceeded_total";
      ]
  in
  let context =
    [
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("nproc", Json.Int cores);
      ("pinned_to_cpu0", Json.Bool pinned);
      ( "rpq_serve_flags",
        Json.List
          (List.map
             (fun s -> Json.Str s)
             (List.tl (Server.argv ~rpq ~sock:"SOCK" ~journal:"JOURNAL" ~workers))) );
      ("connections", Json.Int conns);
      ("loop", Json.Str (Printf.sprintf "closed, %d outstanding per connection" g.Gen.window));
      ("jobs.digest", Json.Str (Gen.digest g));
      ("jobs.generated", Json.Int (Array.length g.Gen.jobs));
      ("jobs.sent", Json.Int a.load.Load.sent);
      ("wall_s", Json.Float a.load.Load.wall_s);
      ("machine.steal_ratio", Json.Float a.steal);
      ("peak_rss_read_after_replies", Json.Int a.rss_replies);
      ("latency_samples", Json.Int n);
      ("latency_tail_percentile", Json.Int tail_p);
      ("latency_tail_windows", Json.Int (if n < 2 * window then 1 else n / window));
      ( "failed_ratio",
        Json.Float (float_of_int (n_failed ea) /. float_of_int (max 1 n)) );
      ("failed_by_kind", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) ea.failed));
      ("bound_gap", Json.Float (mean ea.gaps));
      ("bounded_replies", Json.Int (List.length ea.gaps));
      ("server", Json.Obj counters);
      ("setup_samples_s", Json.List (List.map (fun s -> Json.Float s) setups));
    ]
  in
  { correct = wrong = []; attempted; failed; metrics; context; wrong }

(* ---- self-test ---- *)

(* The metric names and units BENCHMARK.json promises, read back from
   it, so that the schema check cannot drift from the file. *)
let declared key =
  match In_channel.with_open_text "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error e -> Server.die "smoke: %s" e
  | text -> (
      match Json.parse text with
      | Error e -> Server.die "smoke: BENCHMARK.json: %s" e
      | Ok v -> (
          match Json.member key v with
          | Some (Json.List ms) ->
              List.filter_map
                (fun m ->
                  match (Json.member "name" m, Json.member "unit" m) with
                  | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
                  | _ -> None)
                ms
          | _ -> Server.die "smoke: BENCHMARK.json has no %s list" key))

(* Correct replies, corrupted three ways: the gate must call each wrong. *)
let gate_trips () =
  let first name =
    (Option.get (Gen.make ~tiny:true ~name ~seed:7 ~seconds:0.0 ())).Gen.jobs.(0)
  in
  let refs = Gate.references () in
  let served (j : Gen.job) = Runner.run_job_locally j.Gen.job in
  let wrong j r = match Gate.check r (Gate.lookup refs j) with Gate.Wrong _ -> true | _ -> false in
  let plus1 v = Resilience.Value.add v (Resilience.Value.Finite 1) in
  let ptime = first "ptime_large" and hard = first "hard_anytime" in
  let rp = served ptime and rh = served hard in
  Gate.check rp (Gate.lookup refs ptime) = Gate.Correct
  && Gate.check rh (Gate.lookup refs hard) = Gate.Correct
  (* an off-by-one value *)
  && wrong ptime
       {
         rp with
         P.verdict =
           (match rp.P.verdict with P.V_exact e -> P.V_exact { e with value = plus1 e.value } | v -> v);
       }
  (* a stripped certificate *)
  && wrong ptime { rp with P.cert = None }
  (* a loosened anytime bound *)
  && wrong hard
       {
         rh with
         P.verdict =
           (match rh.P.verdict with
           | P.V_bounded b -> P.V_bounded { b with upper = plus1 b.upper }
           | P.V_exact e -> P.V_exact { e with value = plus1 e.value }
           | v -> v);
       }

let smoke () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if not (gate_trips ()) then problem "the correctness gate let a corrupted reply through";
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let r = run ~tiny:true ~workload ~seed:3 ~seconds:0.5 ~trace () in
          let want = declared (if trace then "per_layer" else "end_to_end") in
          let got = List.map (fun (n, _, u) -> (n, u)) r.metrics in
          if List.sort compare want <> List.sort compare got then
            problem "%s trace=%b: metrics differ from BENCHMARK.json" workload trace;
          if not r.correct then problem "%s: %s" workload (String.concat "; " r.wrong);
          if r.attempted < 1 then problem "%s: nothing attempted" workload;
          Printf.printf "smoke %s trace=%b: %d attempted, %d failed\n%!" workload trace r.attempted
            r.failed)
        [ false; true ])
    Gen.names;
  match !problems with
  | [] ->
      print_endline "smoke: ok";
      0
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
      1

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let is_smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Gen.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--smoke", Arg.Set is_smoke, " self-test: every workload, tiny, schema and gate checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Server.kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  if not (Sys.file_exists rpq) then Server.die "no rpq binary at %s" rpq;
  if !is_smoke then exit (smoke ());
  if !trace <> 0 && !trace <> 1 then Server.die "--trace takes 0 or 1";
  if not (!seconds > 0.0) then Server.die "--seconds must be positive";
  let trace = !trace = 1 in
  let r =
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ()
  in
  if trace then
    Spans.write
      (Filename.concat work (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
  List.iter (fun w -> prerr_endline ("perfbench: wrong reply: " ^ w)) r.wrong;
  print_endline (Json.to_string (Json.Obj r.context));
  print_endline (result_line ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.metrics);
  exit (if r.correct then 0 else 1)
