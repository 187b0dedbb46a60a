(* Social-network moderation: resilience as a robustness measure on a
   synthetic social graph with labels f (follows), m (mentions), b (blocks).

   Each query asks whether a "bad pattern" exists; its resilience is the
   minimum number of interactions a moderator must delete to destroy all
   occurrences of the pattern. Tractability depends on the pattern's
   language, exactly as classified by the paper.

   Run with: dune exec examples/social_network.exe *)

open Resilience
module Db = Graphdb.Db

let () =
  let db = Graphdb.Generate.social ~nusers:30 ~density:0.03 ~seed:2025 () in
  Format.printf "Synthetic social network: %d users, %d interactions@." (Db.nnodes db)
    (Db.fact_count db);
  let queries =
    [
      ( "fm",
        "someone follows a user who mentions another (amplification path)" );
      ( "ff*m",
        "a mention reachable through a follow chain (viral amplification)" );
      ( "fm|mb",
        "amplification, or a mention followed by a block (harassment signal)" );
      ( "bb",
        "two blocks in a row (block chains; NP-hard: self-join pattern!)" );
      ( "fb|bm",
        "follow-then-block or block-then-mention" );
    ]
  in
  List.iter
    (fun (q, story) ->
      let l = Automata.Lang.of_string q in
      let t0 = Obs.Clock.now () in
      let r = Solver.solve db l in
      let dt = Obs.Clock.now () -. t0 in
      Format.printf "@.%s  --  %s@." q story;
      Format.printf "  verdict   : %s@."
        (Classify.verdict_summary r.Solver.classification.Classify.verdict);
      Format.printf "  algorithm : %s@." (Solver.algorithm_name r.Solver.algorithm);
      Format.printf "  resilience: %a   (%.4fs)@." Value.pp r.Solver.value dt)
    queries
