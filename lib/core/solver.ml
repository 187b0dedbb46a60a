type algorithm =
  | Alg_trivial
  | Alg_local_mincut
  | Alg_bcl_mincut
  | Alg_submodular
  | Alg_exact_bnb
  | Alg_ilp

let algorithm_name = function
  | Alg_trivial -> "trivial"
  | Alg_local_mincut -> "local MinCut (Thm 3.3)"
  | Alg_bcl_mincut -> "BCL MinCut (Prop 7.5)"
  | Alg_submodular -> "submodular minimization (Prop 7.7)"
  | Alg_exact_bnb -> "exact branch and bound"
  | Alg_ilp -> "hitting-set ILP"

(* Solver stages are the span taxonomy of DESIGN.md §10: each branch of
   the dispatch and each link of the degradation chain runs under
   [Obs.Trace.stage], so a traced run shows where a hard instance spends
   its budget and [Runner.run_job_locally] can report per-stage totals. *)
let stage = Obs.Trace.stage
let reason_arg reason = [ ("reason", Cert.Json.Str (Budget.exhaustion_name reason)) ]

type result = {
  value : Value.t;
  witness : int list option;
  algorithm : algorithm;
  classification : Classify.t;
  cert : Cert.Certificate.t option;
}

let solve ?classification d a =
  Check.cheap "Solver.solve: database" (fun () -> Graphdb.Db.validate d);
  Check.cheap "Solver.solve: query automaton" (fun () -> Automata.Nfa.validate a);
  let cl =
    match classification with
    | Some c -> c
    | None -> stage "classify" (fun () -> Classify.classify a)
  in
  (* Solve on the reduced language: Q_L = Q_reduce(L) (Section 2), and the
     polynomial constructions assume reducedness (e.g. the BCL solver). *)
  let reduced = cl.Classify.reduced in
  match cl.Classify.verdict with
  | Classify.PTime Classify.Trivial_empty ->
      {
        value = Value.Finite 0;
        witness = Some [];
        algorithm = Alg_trivial;
        classification = cl;
        cert = Some (Certify.trivial "empty-language");
      }
  | Classify.PTime Classify.Trivial_eps ->
      {
        value = Value.Infinite;
        witness = None;
        algorithm = Alg_trivial;
        classification = cl;
        cert = Some (Certify.trivial "epsilon-in-language");
      }
  | Classify.PTime Classify.Local -> begin
      match stage "mincut" (fun () -> Local_solver.solve_certified d reduced) with
      | Ok (value, witness, cert) ->
          {
            value;
            witness = Some witness;
            algorithm = Alg_local_mincut;
            classification = cl;
            cert = Some cert;
          }
      | Error msg -> invalid_arg ("Solver.solve: classifier/solver disagree: " ^ msg)
    end
  | Classify.PTime Classify.Bipartite_chain -> begin
      match stage "bcl" (fun () -> Bcl.solve_certified d reduced) with
      | Ok (value, witness, cert) ->
          {
            value;
            witness = Some witness;
            algorithm = Alg_bcl_mincut;
            classification = cl;
            cert = Some cert;
          }
      | Error msg -> invalid_arg ("Solver.solve: classifier/solver disagree: " ^ msg)
    end
  | Classify.PTime (Classify.Submodular _) -> begin
      match stage "submodular" (fun () -> Submod_solver.solve d reduced) with
      | Ok value ->
          {
            value;
            witness = None;
            algorithm = Alg_submodular;
            classification = cl;
            cert = Some (Certify.opaque (algorithm_name Alg_submodular));
          }
      | Error msg -> invalid_arg ("Solver.solve: classifier/solver disagree: " ^ msg)
    end
  | Classify.NPHard _ | Classify.Unclassified _ ->
      let value, witness = stage "bnb" (fun () -> Exact.branch_and_bound d reduced) in
      {
        value;
        witness = Some witness;
        algorithm = Alg_exact_bnb;
        classification = cl;
        cert = Some (Certify.bounds d);
      }

let resilience d a = (solve d a).value
let resilience_regex d s = resilience d (Automata.Lang.of_string s)

type outcome =
  | Exact of result
  | Bounded of {
      lower : Value.t;
      upper : Value.t;
      upper_witness : int list option;
      spent : Budget.spent;
      reason : Budget.exhaustion;
      cert : Cert.Certificate.t option;
    }

module Db = Graphdb.Db
module Eval = Graphdb.Eval

(* Certified bounds once every exact stage has exhausted its budget. The
   remaining master budget pays for one LP relaxation (lower bound) and one
   greedy hitting set (upper bound); if even those exhaust, the bounds
   degrade to [satisfiability .. total weight], which need no work beyond
   what was already done. *)
let bounded_outcome master reduced d ~incumbent ~reason =
  stage ~args:(reason_arg reason) "bounds" @@ fun () ->
  let facts = Db.facts d in
  let total_weight = List.fold_left (fun acc (id, _) -> acc + Db.mult d id) 0 facts in
  let all_facts = List.map fst facts in
  let greedy =
    match Eval.match_hypergraph ~fuel:(Budget.fuel master) d reduced with
    | h -> begin
        match Hypergraph.greedy_hitting_set ~weights:(Db.mult d) h with
        | cost, set -> Some (cost, set)
        | exception Invalid_argument _ -> None
      end
    | exception Invalid_argument _ -> None
    | exception Budget.Exhausted _ -> None
  in
  (* The lower bound comes from the dual of the covering LP rather than the
     primal relaxation: by strong duality the value is the same when the
     simplex finishes, but the dual multipliers are portable evidence — the
     Bounds certificate ships them, and the independent checker re-verifies
     feasibility and the bound with no LP solver of its own. *)
  let dual_evidence =
    match Ilp_solver.lp_dual_bound ~budget:master d reduced with
    | Ok (bound, ys, covers) -> Some (bound, ys, covers)
    | Error _ -> None
    | exception Budget.Exhausted _ -> None
  in
  let lp_lower =
    match dual_evidence with
    | Some (bound, _, _) -> int_of_float (Float.ceil (bound -. 1e-6))
    | None -> 0
  in
  (* Removing every fact falsifies any nullable-free query, so the total
     weight is always a certified upper bound; the query is satisfied here
     (checked by the caller), so 1 is always a certified lower bound. *)
  let upper, upper_witness =
    List.fold_left
      (fun (u, w) (u', w') -> if u' < u then (u', w') else (u, w))
      (total_weight, all_facts)
      (Option.to_list incumbent @ Option.to_list greedy)
  in
  let lower = max 1 lp_lower in
  Check.cheap "Solver.solve_bounded: bound order" (fun () ->
      if lower <= upper then Ok ()
      else
        Error
          [
            Invariant.violation ~subsystem:"Solver" ~invariant:"bound-order"
              "lower bound %d exceeds upper bound %d" lower upper;
          ]);
  let lower = min lower upper in
  Check.paranoid "Solver.solve_bounded: upper witness" (fun () ->
      let d' = Db.restrict d ~removed:(fun id -> List.mem id upper_witness) in
      if Eval.satisfies d' reduced then
        Error
          [
            Invariant.violation ~subsystem:"Solver" ~invariant:"upper-witness"
              "removing the %d witness facts does not falsify the query"
              (List.length upper_witness);
          ]
      else Ok ());
  let cert =
    match dual_evidence with
    | Some (_, ys, covers) -> Certify.bounds ~covers ~dual:ys d
    | None -> Certify.bounds d
  in
  Bounded
    {
      lower = Value.Finite lower;
      upper = Value.Finite upper;
      upper_witness = Some upper_witness;
      spent = Budget.spent master;
      reason;
      cert = Some cert;
    }

(* Degradation chain for the (NP-)hard verdicts: exact branch and bound on
   a slice of the budget, then the ILP baseline on a slice of what is left,
   then certified LP/greedy bounds on the remainder. *)
let hard_chain master cl reduced d =
  if not (stage "satisfies" (fun () -> Eval.satisfies d reduced)) then
    Exact
      {
        value = Value.Finite 0;
        witness = Some [];
        algorithm = Alg_trivial;
        classification = cl;
        cert = Some (Certify.trivial "query-unsatisfied");
      }
  else begin
    let s1 = Budget.slice master ~deadline_frac:0.6 ~steps_frac:0.6 in
    match stage "bnb" (fun () -> Exact.branch_and_bound_anytime ~budget:s1 d reduced) with
    | Exact.Complete (value, w) ->
        Exact
          {
            value;
            witness = Some w;
            algorithm = Alg_exact_bnb;
            classification = cl;
            cert = Some (Certify.bounds d);
          }
    | Exact.Truncated { incumbent; reason } -> begin
        let s2 = Budget.slice master ~deadline_frac:0.6 ~steps_frac:0.6 in
        match
          stage ~args:(reason_arg reason) "ilp" (fun () ->
              Ilp_solver.solve_with_covers ~budget:s2 d reduced)
        with
        | Ok (value, w, covers) ->
            Exact
              {
                value;
                witness = Some w;
                algorithm = Alg_ilp;
                classification = cl;
                cert = Some (Certify.bounds ~covers d);
              }
        | Error _ -> bounded_outcome master reduced d ~incumbent ~reason
        | exception Budget.Exhausted _ -> bounded_outcome master reduced d ~incumbent ~reason
      end
  end

let solve_bounded ?classification ?budget d a =
  let cl =
    match classification with
    | Some c -> c
    | None -> stage "classify" (fun () -> Classify.classify a)
  in
  match budget with
  | None -> Exact (solve ~classification:cl d a)
  | Some master -> begin
      Check.cheap "Solver.solve_bounded: database" (fun () -> Db.validate d);
      Check.cheap "Solver.solve_bounded: query automaton" (fun () -> Automata.Nfa.validate a);
      let reduced = cl.Classify.reduced in
      match cl.Classify.verdict with
      | Classify.PTime
          ( Classify.Trivial_empty | Classify.Trivial_eps | Classify.Local
          | Classify.Bipartite_chain ) ->
          (* Polynomial MinCut-style algorithms: always run to completion. *)
          Exact (solve ~classification:cl d a)
      | Classify.PTime (Classify.Submodular _) -> begin
          let s = Budget.slice master ~deadline_frac:0.8 ~steps_frac:0.8 in
          match stage "submodular" (fun () -> Submod_solver.solve ~budget:s d reduced) with
          | Ok value ->
              Exact
                {
                  value;
                  witness = None;
                  algorithm = Alg_submodular;
                  classification = cl;
                  cert = Some (Certify.opaque (algorithm_name Alg_submodular));
                }
          | Error msg -> invalid_arg ("Solver.solve_bounded: classifier/solver disagree: " ^ msg)
          | exception Budget.Exhausted reason ->
              if stage "satisfies" (fun () -> Eval.satisfies d reduced) then
                bounded_outcome master reduced d ~incumbent:None ~reason
              else
                Exact
                  {
                    value = Value.Finite 0;
                    witness = Some [];
                    algorithm = Alg_trivial;
                    classification = cl;
                    cert = Some (Certify.trivial "query-unsatisfied");
                  }
        end
      | Classify.NPHard _ | Classify.Unclassified _ -> hard_chain master cl reduced d
    end
