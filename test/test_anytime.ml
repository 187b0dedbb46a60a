(* Tests for the anytime solver engine: budgets, certified bounds, and
   deterministic fault injection.

   Tests that assert a *specific* exhaustion reason (or none) pin the fault
   plan with [Faults.with_plan]: CI runs the whole suite under RPQ_FAULTS
   sweeps, and an ambient seeded plan would otherwise fire first. *)
open Resilience
module Db = Graphdb.Db

let lang = Automata.Lang.of_string
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vcheck name expected got =
  Alcotest.check (Alcotest.testable Value.pp Value.equal) name expected got

(* A database hard enough that every solver stage performs many ticks: the
   vertex-cover encoding of K4 under the `aa` gadget (resilience 15). *)
let k4_db () =
  let pre, _ = Gadgets.gadget_aa () in
  Gadgets.encode pre (Graphs.Ugraph.complete 4)

(* ---- Faults ---- *)

let test_faults_parse () =
  check "off" true (Faults.parse "off" = Ok Faults.Off);
  check "tick" true (Faults.parse "tick:7" = Ok (Faults.At_tick 7));
  check "seed" true (Faults.parse "seed:3" = Ok (Faults.Seeded { seed = 3; period = 1000 }));
  check "seed+period" true
    (Faults.parse "seed:3:50" = Ok (Faults.Seeded { seed = 3; period = 50 }));
  check "tick 0 rejected" true (Result.is_error (Faults.parse "tick:0"));
  check "garbage rejected" true (Result.is_error (Faults.parse "everything on fire"));
  List.iter
    (fun p -> check (Faults.to_string p) true (Faults.parse (Faults.to_string p) = Ok p))
    [
      Faults.Off;
      Faults.At_tick 12;
      Faults.Seeded { seed = 99; period = 10 };
      Faults.Kill_after 3;
      Faults.Wedge_after 10;
      Faults.Crash_at { site = "journal.pre_append"; hits = 2 };
    ]

let test_faults_crash_spec () =
  check "crash spec" true
    (Faults.parse "crash:journal.mid_compact:3"
    = Ok (Faults.Crash_at { site = "journal.mid_compact"; hits = 3 }));
  (* Every site the chaos harness draws from must be well-formed. *)
  List.iter
    (fun site ->
      check ("site parses: " ^ site) true
        (Faults.parse (Printf.sprintf "crash:%s:1" site)
        = Ok (Faults.Crash_at { site; hits = 1 })))
    Faults.crash_sites;
  List.iter
    (fun s -> check (s ^ " rejected") true (Result.is_error (Faults.parse s)))
    [
      "crash";
      "crash:";
      "crash:site";
      "crash:site:";
      "crash:site:0";
      "crash:site:2x";
      "crash:site:2:3";
      "crash::2";
      "crash:si te:2";
    ];
  (* The grammar is case-insensitive (like every other spec): uppercase
     normalizes to the lowercase site rather than silently never firing. *)
  check "crash spec case-normalizes" true
    (Faults.parse "crash:Journal.Pre_Append:2"
    = Ok (Faults.Crash_at { site = "journal.pre_append"; hits = 2 }));
  (* Counting: the armed site is a no-op until the Nth visit, other sites
     never fire, and with_plan scopes the hit counters. *)
  Faults.with_plan (Faults.Crash_at { site = "a.b"; hits = 2 }) (fun () ->
      Faults.crash_site "a.b";
      Faults.crash_site "other.site";
      (match Faults.crash_site "a.b" with
      | () -> check "second visit crashes" true false
      | exception Faults.Crash site -> check "crash payload is the site" true (site = "a.b"));
      (* Crash plans touch neither budgets nor workers. *)
      check "no budget fault under crash plan" true (Faults.next_fault_tick () = None);
      check "no worker mode under crash plan" true (Faults.worker_mode () = None));
  (* Back outside the plan: the site is disarmed again. *)
  Faults.crash_site "a.b";
  (* Nested with_plan restores the outer plan's counter position. *)
  Faults.with_plan (Faults.Crash_at { site = "x"; hits = 2 }) (fun () ->
      Faults.crash_site "x";
      Faults.with_plan (Faults.Crash_at { site = "x"; hits = 2 }) (fun () ->
          Faults.crash_site "x" (* inner counter starts fresh: visit 1 of 2 *));
      match Faults.crash_site "x" with
      | () -> check "outer counter resumed" true false
      | exception Faults.Crash _ -> check "outer counter resumed" true true)

let test_faults_net_spec () =
  (* Every site the transport exercises must be well-formed, and the
     site list is closed: a period that never fires is indistinguishable
     from a healthy run, so unknown sites are parse errors, not no-ops. *)
  List.iter
    (fun site ->
      let spec = Printf.sprintf "net:%s:3" site in
      check ("site parses: " ^ site) true
        (Faults.parse spec = Ok (Faults.Net_at { site; period = 3 }));
      let p = Faults.Net_at { site; period = 7 } in
      check ("roundtrip: " ^ site) true (Faults.parse (Faults.to_string p) = Ok p))
    Faults.net_sites;
  List.iter
    (fun s -> check (s ^ " rejected") true (Result.is_error (Faults.parse s)))
    [
      "net";
      "net:";
      "net:accept_fail";
      "net:accept_fail:";
      "net:accept_fail:0";
      "net:accept_fail:2x";
      "net:accept_fail:2:3";
      "net:bogus_site:3";
      "net::2";
    ];
  check "net spec case-normalizes" true
    (Faults.parse "net:Client_Drop:2" = Ok (Faults.Net_at { site = "client_drop"; period = 2 }));
  (* Periodicity: every period-th visit of the armed site fires; other
     sites never do, and budgets/workers are untouched. *)
  Faults.with_plan (Faults.Net_at { site = "partial_write"; period = 2 }) (fun () ->
      let fires =
        List.init 6 (fun _ -> Faults.net_site "partial_write")
        |> List.filter Fun.id |> List.length
      in
      check "every 2nd visit fires" true (fires = 3);
      check "other sites never fire" false (Faults.net_site "client_drop");
      check "no budget fault under net plan" true (Faults.next_fault_tick () = None);
      check "no worker mode under net plan" true (Faults.worker_mode () = None));
  (* Outside the plan the site is disarmed. *)
  check "disarmed outside with_plan" false (Faults.net_site "partial_write")

(* Numbers in fault specs are plain decimals and nothing may trail them:
   OCaml's [int_of_string] would otherwise quietly accept hex forms and
   [_] separators, and a typo like [tick:5x] must not run as [tick:5]. *)
let test_faults_parse_strict () =
  check "kill" true (Faults.parse "kill:3" = Ok (Faults.Kill_after 3));
  check "wedge" true (Faults.parse "wedge:10" = Ok (Faults.Wedge_after 10));
  List.iter
    (fun s -> check (s ^ " rejected") true (Result.is_error (Faults.parse s)))
    [
      "tick:5x";
      "tick:5_";
      "tick:0x5";
      "tick:5.0";
      "tick:+5";
      "tick:-5";
      "tick:";
      "tick";
      "tick:5:9";
      "seed:7:200:9";
      "seed:7x";
      "seed:7:2_0";
      "seed:";
      "kill:0";
      "kill:3x";
      "kill";
      "wedge:0";
      "wedge:10garbage";
      "off:1";
    ];
  (* Errors must name the grammar so an RPQ_FAULTS typo is self-explaining. *)
  (match Faults.parse "tick:5x" with
  | Error msg ->
      check "error mentions the spec" true
        (String.length msg > 0
        &&
        let has_sub sub =
          let n = String.length msg and m = String.length sub in
          let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
          go 0
        in
        has_sub "tick:5x" || has_sub "tick:N")
  | Ok _ -> check "tick:5x must not parse" true false);
  (* Worker-fault plans never inject budget exhaustion... *)
  Faults.with_plan (Faults.Kill_after 3) (fun () ->
      check "kill injects no budget fault" true (Faults.next_fault_tick () = None);
      check "kill worker mode" true (Faults.worker_mode () = Some (`Kill 3)));
  Faults.with_plan (Faults.Wedge_after 7) (fun () ->
      check "wedge injects no budget fault" true (Faults.next_fault_tick () = None);
      check "wedge worker mode" true (Faults.worker_mode () = Some (`Wedge 7)));
  (* ...and budget-fault plans have no worker mode. *)
  Faults.with_plan (Faults.At_tick 5) (fun () ->
      check "tick has no worker mode" true (Faults.worker_mode () = None));
  Faults.with_plan Faults.Off (fun () ->
      check "off has no worker mode" true (Faults.worker_mode () = None))

let test_faults_stream () =
  Faults.with_plan Faults.Off (fun () ->
      check "off yields none" true (Faults.next_fault_tick () = None));
  Faults.with_plan (Faults.At_tick 5) (fun () ->
      check "tick plan" true (Faults.next_fault_tick () = Some 5);
      check "tick plan repeats" true (Faults.next_fault_tick () = Some 5));
  let draws plan n =
    Faults.with_plan plan (fun () -> List.init n (fun _ -> Faults.next_fault_tick ()))
  in
  let p = Faults.Seeded { seed = 42; period = 100 } in
  check "seeded deterministic" true (draws p 20 = draws p 20);
  check "seeded in range" true
    (List.for_all (function Some t -> t >= 1 && t <= 100 | None -> false) (draws p 50));
  check "seeded varies" true (List.sort_uniq compare (draws p 50) |> List.length > 1)

(* ---- Budget ---- *)

let test_budget_steps () =
  Faults.with_plan Faults.Off (fun () ->
      let b = Budget.create ~steps:3 () in
      Budget.tick b;
      Budget.tick b;
      Budget.tick b;
      check "not yet" true (not (Budget.exhausted b));
      check "4th tick raises" true
        (try
           Budget.tick b;
           false
         with Budget.Exhausted Budget.Steps -> true);
      check "sticky" true
        (try
           Budget.tick b;
           false
         with Budget.Exhausted Budget.Steps -> true);
      check "recorded" true (Budget.exhaustion b = Some Budget.Steps))

let test_budget_unlimited () =
  (* even under an aggressive fault plan, unlimited budgets never fault *)
  Faults.with_plan (Faults.At_tick 1) (fun () ->
      let b = Budget.unlimited () in
      for _ = 1 to 10_000 do
        Budget.tick b
      done;
      check "unlimited survives" true (not (Budget.exhausted b)))

let test_budget_slice () =
  Faults.with_plan Faults.Off (fun () ->
      let parent = Budget.create ~steps:100 () in
      let child = Budget.slice parent ~deadline_frac:0.5 ~steps_frac:0.5 in
      (* child ticks count against the parent too *)
      for _ = 1 to 50 do
        Budget.tick child
      done;
      check_int "parent charged" 50 (Budget.spent parent).Budget.steps;
      check "child capped at its fraction" true
        (try
           Budget.tick child;
           false
         with Budget.Exhausted Budget.Steps -> true);
      (* the parent itself still has room *)
      Budget.tick parent;
      check "parent alive" true (not (Budget.exhausted parent)))

(* Deadlines count wall-clock time, the clock the supervisor's kill
   deadline counts too. Sleeping burns no CPU, so a processor-time
   deadline would still be far off here; 64 ticks reach one clock read. *)
let test_budget_wall_deadline () =
  Faults.with_plan Faults.Off (fun () ->
      let b = Budget.create ~deadline:0.05 () in
      Unix.sleepf 0.1;
      check "deadline passed while asleep" true
        (try
           for _ = 1 to 64 do
             Budget.tick b
           done;
           false
         with Budget.Exhausted Budget.Deadline -> true))

let test_budget_memory () =
  let b = Budget.create ~memo_cap:2 () in
  check "admit below cap" true (Budget.memo_admit b 1);
  check "refuse at cap" true (not (Budget.memo_admit b 2));
  check "charge ok" true
    (try
       Budget.charge_memory b 2;
       true
     with Budget.Exhausted _ -> false);
  check "charge over cap" true
    (try
       Budget.charge_memory b 3;
       false
     with Budget.Exhausted Budget.Memory -> true)

let test_budget_validation () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "negative steps" true (rejects (fun () -> Budget.create ~steps:(-1) ()));
  check "nan deadline" true (rejects (fun () -> Budget.create ~deadline:Float.nan ()));
  check "negative deadline" true (rejects (fun () -> Budget.create ~deadline:(-1.0) ()));
  check "bad fraction" true
    (rejects (fun () ->
         Budget.slice (Budget.unlimited ()) ~deadline_frac:0.0 ~steps_frac:0.5))

(* ---- Exact solvers under budgets ---- *)

let test_bnb_exhausts () =
  Faults.with_plan Faults.Off (fun () ->
      let d = k4_db () in
      let l = lang "aa" in
      check "tiny step budget raises" true
        (try
           ignore (Exact.branch_and_bound ~budget:(Budget.create ~steps:5 ()) d l);
           false
         with Budget.Exhausted Budget.Steps -> true);
      (* the anytime variant converts exhaustion into a truncated outcome *)
      match Exact.branch_and_bound_anytime ~budget:(Budget.create ~steps:5 ()) d l with
      | Exact.Complete _ -> Alcotest.fail "5 steps cannot complete on K4"
      | Exact.Truncated { incumbent; reason } -> (
          check "reason" true (reason = Budget.Steps);
          (* when an incumbent exists it must be a real contingency set *)
          match incumbent with
          | None -> ()
          | Some (cost, set) ->
              let d' = Db.restrict d ~removed:(fun id -> List.mem id set) in
              check "incumbent falsifies" true (not (Graphdb.Eval.satisfies d' l));
              check_int "incumbent cost" cost
                (List.fold_left (fun a id -> a + Db.mult d id) 0 set)))

let test_memo_cap_still_exact () =
  (* a zero memo cap disables memoization entirely; the search must still
     terminate with the exact answer (satellite: bounded memo ⇒ no OOM,
     never a wrong value) *)
  Faults.with_plan Faults.Off (fun () ->
      let d = Db.make ~nnodes:5 ~facts:[ (0, 'a', 1); (1, 'a', 2); (2, 'a', 3); (3, 'a', 4) ] in
      let v, _ = Exact.branch_and_bound ~budget:(Budget.create ~memo_cap:0 ()) d (lang "aa") in
      vcheck "memo cap 0 stays exact" (Value.Finite 2) v)

let test_deadline_bounds () =
  Faults.with_plan Faults.Off (fun () ->
      let d = k4_db () in
      match Solver.solve_bounded ~budget:(Budget.create ~deadline:0.0 ()) d (lang "aa") with
      | Solver.Exact _ -> Alcotest.fail "zero deadline cannot complete on K4"
      | Solver.Bounded { lower; upper; reason; _ } ->
          check "reason is deadline" true (reason = Budget.Deadline);
          check "ordered" true (Value.compare lower upper <= 0))

(* ---- solve_bounded ---- *)

let arb_db ?(alphabet = [ 'a'; 'b'; 'c'; 'x' ]) ?(max_mult = 1) ~max_facts () =
  QCheck.make
    ~print:(fun (d : Db.t) -> Format.asprintf "%a" Db.pp d)
    QCheck.Gen.(
      let* seed = int_bound 1000000 in
      let* nnodes = int_range 2 5 in
      let* nfacts = int_range 1 max_facts in
      return (Graphdb.Generate.random ~nnodes ~nfacts ~alphabet ~max_mult ~seed ()))

let hard_langs = [ "aa"; "abc"; "ab|bc|ca"; "axb|cxd" ]

(* No budget: solve_bounded is exactly the seed solver, even under the most
   aggressive ambient fault plan (faults only attach to created budgets). *)
let prop_no_budget_is_exact =
  QCheck.Test.make ~name:"solve_bounded without budget = solve" ~count:100
    (QCheck.pair (arb_db ~max_mult:3 ~max_facts:8 ()) (QCheck.oneofl hard_langs))
    (fun (d, s) ->
      Faults.with_plan (Faults.At_tick 1) (fun () ->
          let l = lang s in
          match Solver.solve_bounded d l with
          | Solver.Exact r -> Value.equal r.Solver.value (Solver.solve d l).Solver.value
          | Solver.Bounded _ -> false))

(* The central anytime property: for *every* injected exhaustion point the
   outcome is either the exact answer or bounds that bracket it. *)
let bounded_ok d l outcome =
  let truth = Exact.bruteforce d l in
  match outcome with
  | Solver.Exact r -> Value.equal r.Solver.value truth
  | Solver.Bounded { lower; upper; upper_witness; _ } -> (
      Value.compare lower truth <= 0
      && Value.compare truth upper <= 0
      &&
      match upper_witness with
      | None -> true
      | Some w ->
          let d' = Db.restrict d ~removed:(fun id -> List.mem id w) in
          (not (Graphdb.Eval.satisfies d' l))
          && Value.equal upper (Value.Finite (List.fold_left (fun a id -> a + Db.mult d id) 0 w)))

let prop_fault_sweep_brackets =
  QCheck.Test.make ~name:"every fault tick: lower <= bruteforce <= upper" ~count:40
    (QCheck.pair (arb_db ~max_mult:2 ~max_facts:12 ()) (QCheck.oneofl hard_langs))
    (fun (d, s) ->
      let l = lang s in
      List.for_all
        (fun n ->
          Faults.with_plan (Faults.At_tick n) (fun () ->
              bounded_ok d l (Solver.solve_bounded ~budget:(Budget.create ()) d l)))
        [ 1; 2; 3; 5; 8; 13; 21; 34; 50; 200; 5000 ])

let prop_step_budget_brackets =
  QCheck.Test.make ~name:"every step budget: lower <= bruteforce <= upper" ~count:40
    (QCheck.pair (arb_db ~max_mult:2 ~max_facts:10 ()) (QCheck.oneofl hard_langs))
    (fun (d, s) ->
      let l = lang s in
      Faults.with_plan Faults.Off (fun () ->
          List.for_all
            (fun steps ->
              bounded_ok d l (Solver.solve_bounded ~budget:(Budget.create ~steps ()) d l))
            [ 1; 4; 16; 64; 256; 100_000 ]))

(* Seeded fault streams: reproducible, and every drawn exhaustion point
   still brackets the truth. *)
let prop_seeded_faults_bracket =
  QCheck.Test.make ~name:"seeded fault stream brackets the truth" ~count:30
    (QCheck.pair (arb_db ~max_mult:2 ~max_facts:10 ()) (QCheck.oneofl hard_langs))
    (fun (d, s) ->
      let l = lang s in
      Faults.with_plan
        (Faults.Seeded { seed = 1234; period = 300 })
        (fun () ->
          List.for_all
            (fun _ -> bounded_ok d l (Solver.solve_bounded ~budget:(Budget.create ()) d l))
            [ (); (); () ]))

let test_ample_budget_is_exact () =
  Faults.with_plan Faults.Off (fun () ->
      let d = Db.make ~nnodes:5 ~facts:[ (0, 'a', 1); (1, 'a', 2); (2, 'a', 3); (3, 'a', 4) ] in
      match Solver.solve_bounded ~budget:(Budget.create ~steps:1_000_000 ()) d (lang "aa") with
      | Solver.Exact r -> vcheck "exact under ample budget" (Value.Finite 2) r.Solver.value
      | Solver.Bounded _ -> Alcotest.fail "ample budget must complete")

let test_ptime_ignores_budget () =
  (* MinCut-solvable languages complete regardless of the budget *)
  Faults.with_plan (Faults.At_tick 1) (fun () ->
      let d = Graphdb.Generate.random ~nnodes:5 ~nfacts:8 ~alphabet:[ 'a'; 'b'; 'x' ] ~seed:3 () in
      match Solver.solve_bounded ~budget:(Budget.create ~steps:1 ()) d (lang "ax*b") with
      | Solver.Exact r -> check "local algorithm" true (r.Solver.algorithm = Solver.Alg_local_mincut)
      | Solver.Bounded _ -> Alcotest.fail "polynomial case must stay exact")

let test_ilp_stage_completes () =
  (* force stage 1 (branch and bound) to fail instantly but leave stage 2
     (ILP) enough budget: the outcome is exact via the ILP algorithm *)
  Faults.with_plan Faults.Off (fun () ->
      let d = k4_db () in
      (* K4 B&B needs ~30k ticks, far more than its 6k-step slice here; the
         ILP needs only a few hundred and fits its slice of the remainder. *)
      match Solver.solve_bounded ~budget:(Budget.create ~steps:10_000 ()) d (lang "aa") with
      | Solver.Exact r ->
          check "ilp algorithm" true (r.Solver.algorithm = Solver.Alg_ilp);
          vcheck "ilp value" (Value.Finite 15) r.Solver.value
      | Solver.Bounded _ -> Alcotest.fail "ILP stage should have completed on K4")

let test_bounds_informative () =
  (* with stages 1-2 exhausted but stage 3 still funded, the LP relaxation
     and the greedy hitting set must beat the trivial bounds 1 and Σmult *)
  Faults.with_plan Faults.Off (fun () ->
      let d = k4_db () in
      let total = List.fold_left (fun a (id, _) -> a + Db.mult d id) 0 (Db.facts d) in
      match Solver.solve_bounded ~budget:(Budget.create ~steps:2_000 ()) d (lang "aa") with
      | Solver.Exact _ -> Alcotest.fail "2000 steps cannot complete on K4"
      | Solver.Bounded { lower; upper; reason; _ } ->
          check "reason is steps" true (reason = Budget.Steps);
          check "lp beats trivial lower" true (Value.compare (Value.Finite 1) lower < 0);
          check "greedy beats trivial upper" true (Value.compare upper (Value.Finite total) < 0))

let () =
  Alcotest.run "anytime"
    [
      ( "faults",
        [
          Alcotest.test_case "parse / to_string" `Quick test_faults_parse;
          Alcotest.test_case "strict spec parsing" `Quick test_faults_parse_strict;
          Alcotest.test_case "crash sites" `Quick test_faults_crash_spec;
          Alcotest.test_case "net sites" `Quick test_faults_net_spec;
          Alcotest.test_case "fault streams" `Quick test_faults_stream;
        ] );
      ( "budget",
        [
          Alcotest.test_case "step exhaustion" `Quick test_budget_steps;
          Alcotest.test_case "unlimited never faults" `Quick test_budget_unlimited;
          Alcotest.test_case "slices charge the parent" `Quick test_budget_slice;
          Alcotest.test_case "wall-clock deadline" `Quick test_budget_wall_deadline;
          Alcotest.test_case "memory cap" `Quick test_budget_memory;
          Alcotest.test_case "argument validation" `Quick test_budget_validation;
        ] );
      ( "exact under budget",
        [
          Alcotest.test_case "b&b exhaustion + incumbent" `Quick test_bnb_exhausts;
          Alcotest.test_case "memo cap stays exact" `Quick test_memo_cap_still_exact;
          Alcotest.test_case "deadline gives bounds" `Quick test_deadline_bounds;
        ] );
      ( "solve_bounded",
        [
          Alcotest.test_case "ample budget is exact" `Quick test_ample_budget_is_exact;
          Alcotest.test_case "ptime ignores budget" `Quick test_ptime_ignores_budget;
          Alcotest.test_case "ilp stage completes" `Quick test_ilp_stage_completes;
          Alcotest.test_case "bounds are informative" `Quick test_bounds_informative;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_no_budget_is_exact;
            prop_fault_sweep_brackets;
            prop_step_budget_brackets;
            prop_seeded_faults_bracket;
          ] );
    ]
