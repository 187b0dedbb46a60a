(* The traced per-layer phase: every job of a sample goes through the
   public entry point of each layer in-process, each call under its own
   span, so the layers can be added up against the served latency. *)

module P = Runner.Proto
module C = Resilience.Classify

type job_times = {
  id : string;
  t : (string, float) Hashtbl.t;  (** layer span name -> seconds *)
  route : C.verdict;
  hit : bool;  (** a repeat the serve cache answers: the hit path blocks *)
  reply_bytes : int;
  journal_bytes : int;
  reply : P.reply;  (** [run_job_locally]'s answer, the hard-job reference *)
}

let counters = [ "bnb.nodes"; "ilp.nodes"; "simplex.pivots"; "budget.ticks"; "eval.steps"; "sfm.oracle_calls" ]
let count name = Obs.Metrics.count (Obs.Metrics.counter name)
let file_size path = (Unix.stat path).Unix.st_size

let budget_of (b : P.budget_spec) =
  match b.P.steps with None -> None | Some steps -> Some (Resilience.Budget.create ~steps ())

let one ~jnl ~jpath ~cache ~seen ~deltas (j : Gen.job) =
  let job = j.Gen.job in
  let id = job.P.id in
  let tbl = Hashtbl.create 32 in
  let (reply, route, reply_bytes, journal_bytes, hit), _ =
    Spans.timed ~job:id "job" @@ fun root ->
    let t name f =
      let r, s = Spans.timed ~parent:root ~job:id name (fun _ -> f ()) in
      Hashtbl.replace tbl name s;
      r
    in
    let line = t "proto.job_encode" (fun () -> P.job_to_wire_json job) in
    ignore (t "proto.job_decode" (fun () -> P.job_of_json line));
    let digest = t "journal.digest" (fun () -> Runner.Journal.canonical_digest job) in
    let hit = Hashtbl.mem seen digest in
    Hashtbl.replace seen digest ();
    let db =
      match t "graphdb.parse" (fun () -> Graphdb.Serialize.parse job.P.db) with
      | Ok p -> p.Graphdb.Serialize.db
      | Error e -> Server.die "job %s: %s" id e
    in
    let nfa = t "automata.compile" (fun () -> Automata.Lang.of_string job.P.query) in
    let cl = t "classify" (fun () -> C.classify nfa) in
    let reduced = cl.C.reduced in
    ignore (t "mincut.local" (fun () -> Resilience.Local_solver.solve db reduced));
    ignore (t "mincut.local_certified" (fun () -> Resilience.Local_solver.solve_certified db reduced));
    ignore (t "mincut.bcl" (fun () -> Resilience.Bcl.solve db reduced));
    ignore (t "mincut.bcl_certified" (fun () -> Resilience.Bcl.solve_certified db reduced));
    ignore (t "submod.solve" (fun () -> Resilience.Submod_solver.solve db reduced));
    let before = List.map count counters in
    ignore
      (t "anytime.solve_bounded" (fun () ->
           Resilience.Solver.solve_bounded ?budget:(budget_of job.P.budget) db nfa));
    List.iteri (fun i c -> deltas.(i) <- deltas.(i) + (count c - List.nth before i)) counters;
    let reply = t "runner.run_job_locally" (fun () -> Runner.run_job_locally job) in
    let rline = t "proto.reply_encode" (fun () -> P.reply_to_json reply) in
    ignore (t "proto.reply_decode" (fun () -> P.reply_of_json rline));
    ignore (t "checker.check_reply" (fun () -> Cert.Checker.check_reply reply));
    Runner.Cache.store cache ~digest reply;
    ignore (t "cache.find_hit" (fun () -> Runner.Cache.find cache ~digest ~id));
    let size0 = file_size jpath in
    t "journal.append" (fun () ->
        Runner.Journal.append jnl (Runner.Journal.Done { id; digest; reply }));
    (reply, cl.C.verdict, String.length rline, file_size jpath - size0, hit)
  in
  { id; t = tbl; route; hit; reply_bytes; journal_bytes; reply }

type result = {
  jobs : job_times list;
  roundtrip : (string * float) list;  (** per job: pool round trip beyond the in-process job *)
  counter_means : (string * float) list;  (** per job, over the anytime chain *)
}

let run ~dir (sample : Gen.job list) =
  let jpath = Filename.concat dir "layers.journal" in
  if Sys.file_exists jpath then Sys.remove jpath;
  let jnl =
    match Runner.Journal.open_append ~sync:Runner.Journal.Per_job jpath with
    | Ok j -> j
    | Error e -> Server.die "layer journal: %s" e
  in
  let cache = Runner.Cache.create ~entries:(List.length sample + 1) in
  let seen = Hashtbl.create 64 in
  let deltas = Array.make (List.length counters) 0 in
  let jobs = List.map (one ~jnl ~jpath ~cache ~seen ~deltas) sample in
  Runner.Journal.close jnl;
  Sys.remove jpath;
  (* The pool round trip: [Runner.run_batch] on one worker, per job the
     supervisor's dispatch-to-settle wall time minus the same job run
     in-process. The worker fork happens once, before any dispatch. *)
  flush_all ();
  let (replies, _), _ =
    Spans.timed ~job:"" "pool.run_batch" (fun _ ->
        Runner.run_batch { Runner.default_config with Runner.workers = 1 }
          (List.map (fun (j : Gen.job) -> j.Gen.job) sample))
  in
  let roundtrip =
    List.map2
      (fun (r : P.reply) jt -> (jt.id, r.P.wall_s -. Hashtbl.find jt.t "runner.run_job_locally"))
      replies jobs
  in
  let n = float_of_int (max 1 (List.length sample)) in
  {
    jobs;
    roundtrip;
    counter_means = List.mapi (fun i c -> (c, float_of_int deltas.(i) /. n)) counters;
  }
