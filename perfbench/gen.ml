(* Seeded workload generator. The same seed yields byte-identical job
   lines; the server only ever sees these lines. Every budget is a step
   budget: a processor-time deadline would make outcomes depend on load. *)

module Prng = Invariant.Prng
module P = Runner.Proto

type route =
  | Ptime  (** reference: the uncertified route solver *)
  | Hard  (** reference: [Runner.run_job_locally], deterministic under steps *)

type job = { job : P.job; route : route }

type t = {
  connections : int;
  window : int;  (** jobs kept outstanding per connection *)
  jobs : job array;  (** sent in order, in whole rounds *)
  round : int;  (** jobs per round *)
  rss_after : int;
      (** replies after which the server's peak memory is read: a fixed
          amount of work, whatever the machine gets through in a run *)
}

let db_text ?names d = Graphdb.Serialize.to_string ?names d

let mk ~id ~route ?steps ?(priority = P.default_priority) db query =
  {
    job =
      {
        P.id;
        db;
        query;
        budget = { P.no_budget with P.steps };
        faults = None;
        deadline_ms = None;
        priority;
        trace = None;
      };
    route;
  }

(* A seeded node renaming: the instance is isomorphic (same solver work)
   but its text, hence its cache digest, is new. The salt has a fixed
   width, so the text keeps its length and its node order. *)
let renamed st d =
  let salt = Prng.int st 1_000_000 in
  db_text ~names:(fun i -> Printf.sprintf "v%06d_%d" salt i) d

let kn_db =
  let pre, _ = Resilience.Gadgets.gadget_aa () in
  fun n -> Resilience.Gadgets.encode pre (Graphs.Ugraph.complete n)

(* A class of a closed-loop round: one base instance, built from a fixed
   seed, its query and its step budget. Every round sends each base
   under new node names, so every job is new to the cache while a
   class's work is the same from round to round and from seed to seed:
   the workload seed picks names, not instances. *)
type cls = { base : Graphdb.Db.t; query : string; steps : int option }

let cls ?steps base query = { base; query; steps }

let round_of ~route classes st ~id =
  List.map (fun c -> mk ~id:(id ()) ~route ?steps:c.steps (renamed st c.base) c.query) classes

(* One round of ptime_large: every class once, in a fixed interleaved
   order, so any whole number of rounds has the same mix. The median
   request falls on `fm|mb`, so it comes three times a round: the median
   then rests on three times as many samples. [tiny] shrinks every class
   to a few dozen facts, for the self-test. *)
let ptime_classes ~tiny =
  let z big small = if tiny then small else big in
  let grid w seed = Graphdb.Generate.flow_grid ~width:w ~depth:w ~max_mult:5 ~seed () in
  let layered w seed =
    Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:w ~density:0.4 ~max_mult:3 ~seed ()
  in
  let social seed = Graphdb.Generate.social ~nusers:(z 50 12) ~seed () in
  [
    cls (grid (z 32 6) 1) "ax*b";
    cls (social 2) "fm|mb";
    cls (layered (z 16 4) 3) "ab|bc";
    cls (grid (z 16 4) 4) "ax*b";
    cls (social 5) "fm|mb";
    cls (grid (z 24 5) 6) "ax*b";
    cls (social 7) "fm*b";
    cls (social 8) "fm|mb";
    cls (layered (z 24 5) 9) "ab|bc";
  ]

(* One round of hard_anytime. The three randomly generated classes get
   2,000 steps: at 5,000 one instance can set the worker's peak
   heap and the run's peak_rss_mb on its own. *)
let hard_classes ~tiny =
  let z big small = if tiny then small else big in
  let kn n steps = cls ~steps:(z steps 300) (kn_db (z n 4)) "aa" in
  let social q seed = cls ~steps:(z 2_000 300) (Graphdb.Generate.social ~nusers:(z 30 10) ~seed ()) q in
  [
    kn 7 10_000;
    kn 5 2_000;
    social "fmf|mfm" 1;
    kn 6 10_000;
    cls ~steps:(z 2_000 300)
      (Graphdb.Generate.random ~nnodes:(z 60 10) ~nfacts:(z 180 30) ~alphabet:[ 'a'; 'b'; 'c' ]
         ~seed:2 ())
      "ab|bc|ca";
    kn 5 10_000;
    kn 7 2_000;
    social "fm*b|mf" 3;
    kn 6 2_000;
  ]

(* serve_mix: small instances from every route; [kind] picks the route,
   at random by default. *)
let kinds = 6

let small st ~id ?priority ?(kind = Prng.int st kinds) () =
  let s () = Prng.int st 1_000_000_000 in
  let mk ~route ?steps db q = mk ~id:(id ()) ~route ?priority ?steps db q in
  match kind with
  | 0 ->
      mk ~route:Ptime
        (db_text (Graphdb.Generate.flow_grid ~width:6 ~depth:6 ~max_mult:5 ~seed:(s ()) ()))
        "ax*b"
  | 1 ->
      mk ~route:Ptime
        (db_text
           (Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:8 ~density:0.5 ~max_mult:3
              ~seed:(s ()) ()))
        "ab|bc"
  | 2 ->
      mk ~route:Ptime
        (db_text
           (Graphdb.Generate.random ~nnodes:30 ~nfacts:90 ~alphabet:[ 'a'; 'b'; 'c'; 'e' ]
              ~max_mult:3 ~seed:(s ()) ()))
        "abc|be"
  | 3 -> mk ~route:Hard ~steps:400 (renamed st (kn_db 5)) "aa"
  | 4 ->
      mk ~route:Ptime
        (db_text (Graphdb.Generate.social ~nusers:20 ~seed:(s ()) ()))
        "fm*b"
  | _ ->
      mk ~route:Ptime
        (db_text (Graphdb.Generate.social ~nusers:20 ~seed:(s ()) ()))
        "fm|mb"

let hot_set = 8
let repeat_share = 0.4

(* Jobs generated per second of a run: well above the 200-450 jobs/s the
   server settles on this mix, so that a faster server does not run out. *)
let mix_jobs_per_s = 1000

let id_counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "j%d" !n

let make ?(tiny = false) ~name ~seed ~seconds () =
  let st = Prng.make seed in
  let id = id_counter () in
  match name with
  | "ptime_large" | "hard_anytime" ->
      let classes, route =
        if name = "ptime_large" then (ptime_classes ~tiny, Ptime) else (hard_classes ~tiny, Hard)
      in
      (* A round takes seconds, so this is more than a run can send. *)
      let rounds = 4 + int_of_float (Float.ceil seconds) in
      let jobs = List.concat (List.init rounds (fun _ -> round_of ~route classes st ~id)) in
      let round = List.length classes in
      Some { connections = 1; window = 1; jobs = Array.of_list jobs; round; rss_after = 3 * round }
  | "serve_mix" ->
      (* The hot set holds every kind in a fixed proportion, so the share
         of cache hits per route does not move with the seed. *)
      let hot = Array.init hot_set (fun k -> small st ~id ~kind:(k mod kinds) ()) in
      let n = max 1 (mix_jobs_per_s * int_of_float (Float.ceil seconds)) in
      let priority () = List.nth P.priorities (Prng.int st (List.length P.priorities)) in
      let jobs =
        Array.init n (fun _ ->
            let priority = priority () in
            if Prng.float st 1.0 < repeat_share then
              let h = hot.(Prng.int st hot_set) in
              { h with job = { h.job with P.id = id (); priority } }
            else small st ~id ~priority ())
      in
      (* One caller that waits for each reply: only one of the client,
         the supervisor and the worker wants a processor at a time. Any
         overlap between them kept both of a 2-vCPU machine's processors
         busy, and the figures followed the host's steal: with two
         callers, throughput fell from 328 to 175 jobs/s as steal rose
         from 1% to 27%, while one caller run in between kept 225-265
         jobs/s. A "round" here is just 200 consecutive arrivals. *)
      Some { connections = 1; window = 1; jobs; round = 200; rss_after = 2000 }
  | _ -> None

let names = [ "ptime_large"; "serve_mix"; "hard_anytime" ]

(* The digest of the wire lines, printed with every result: two runs
   with the same seed must agree on it. *)
let digest t =
  let b = Buffer.create 4096 in
  Array.iter
    (fun j ->
      Buffer.add_string b (P.job_to_wire_json j.job);
      Buffer.add_char b '\n')
    t.jobs;
  Digest.to_hex (Digest.string (Buffer.contents b))
