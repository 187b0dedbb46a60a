(* Benchmark & figure-regeneration harness.

   `dune exec bench/main.exe` regenerates every table and figure of the paper
   (Figures 1-17 as machine-checked artifacts), checks the tractability
   theorems value by value, prints the scaling series (Theorem 3.3,
   Propositions 7.5 and 7.7, the tractable-vs-NP-hard shape) and times the
   serving stack. The measured sections (the ablations of the pool,
   journal, serve and hedging layers, and the timing micro-benchmarks)
   also write their rows to one file, BENCH_ablations.json.

   `dune exec bench/main.exe -- figures` or `-- timing` selects a part;
   `-- fig1` etc. selects a single section. *)

open Resilience
module Db = Graphdb.Db

let lang = Automata.Lang.of_string

let selected name =
  let args = Array.to_list Sys.argv |> List.tl in
  args = []
  || List.mem name args
  || (List.mem "figures" args && not (String.equal name "timing"))

(* Wall-clock timing (these sections report elapsed time, not processor
   time — the pool ablation in particular spends most of it blocked in
   [select] waiting on workers, which [Sys.time] would not see). *)
let time_it f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  let t1 = Obs.Clock.now () in
  (r, t1 -. t0)

(* ------------------------------------------------------------------ *)
(* FIG1: the classification table.                                      *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  Printf.printf
    "Figure 1: complexity of resilience (classifier output, matches the paper cell for cell)\n\n";
  let row kind names =
    Printf.printf "-- %s --\n" kind;
    List.iter
      (fun s ->
        let c = Classify.classify_regex s in
        Printf.printf "  %-18s %s\n" s (Classify.verdict_summary c.Classify.verdict))
      names
  in
  row "infinite / PTIME" [ "ax*b" ];
  row "infinite / unclassified" [ "ax*b|xd" ];
  row "infinite / NP-hard" [ "ax*b|cxd"; "b(aa)*d" ];
  row "finite / PTIME (local)" [ "abc|abd"; "ab|ad|cd"; "abc" ];
  row "finite / PTIME (submodularity, Prp 7.7)" [ "abc|be"; "abcd|ce" ];
  row "finite / PTIME (bipartite chain, Prp 7.5)" [ "ab|bc"; "axb|byc"; "axyb|bztc|cd|dea" ];
  row "finite / unclassified" [ "abc|bcd"; "abcd|be"; "abc|bef" ];
  row "finite / NP-hard (repeated letter, Thm 6.1)" [ "aaaa"; "aa"; "abca|cab" ];
  row "finite / NP-hard (four-legged, Thm 5.5)" [ "axb|cxd" ];
  row "finite / NP-hard (gadgets, Prp 7.6 & 7.8)" [ "ab|bc|ca"; "abcd|be|ef"; "abcd|bef" ]

(* ------------------------------------------------------------------ *)
(* FIG2: local automata and RO-eNFAs for ax*b and ab|ad|cd.            *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  Printf.printf "Figure 2: RO-eNFAs (Lemma B.4) for the two example local languages\n";
  List.iter
    (fun s ->
      let a = lang s in
      let ro = Automata.Local.ro_enfa a in
      Printf.printf "\n%s: local=%b, RO-eNFA read-once=%b, recognizes L=%b\n" s
        (Automata.Local.is_local_language a)
        (Automata.Nfa.is_read_once ro) (Automata.Lang.equiv ro a);
      Format.printf "%a@." Automata.Nfa.pp ro)
    [ "ax*b"; "ab|ad|cd" ]

(* ------------------------------------------------------------------ *)
(* Gadget figures.                                                      *)
(* ------------------------------------------------------------------ *)

let show_gadget ?(verbose = false) (name, g, l) =
  let v = Gadgets.verify g l in
  Printf.printf "  %-32s %s" name (if v.Gadgets.ok then "VALID gadget" else "INVALID");
  (match v.Gadgets.odd_path_length with
  | Some len ->
      Printf.printf " | matches: %2d | condensed odd path length: %d\n"
        (Hypergraph.edge_count v.Gadgets.matches)
        len
  | None -> Printf.printf " (%s)\n" (Option.value ~default:"?" v.Gadgets.failure));
  if verbose then begin
    let c = Gadgets.complete g in
    Format.printf "%a@." Db.pp c.Gadgets.db';
    Format.printf "hypergraph of matches:@.%a@." Hypergraph.pp v.Gadgets.matches;
    Format.printf "condensed:@.%a@." Hypergraph.pp v.Gadgets.condensed
  end

let find_gadget name =
  List.find (fun (n, _, _) -> n = name) (Gadgets.all_paper_gadgets ())

let fig3 () =
  Printf.printf "Figure 3: gadgets for aa (Prop 4.1) and axb|cxd (Prop 4.12)\n";
  show_gadget ~verbose:true (find_gadget "aa (Fig 3a)");
  show_gadget (find_gadget "four-legged case 1 (axb|cxd)")

let fig4 () =
  Printf.printf "Figure 4: endpoint graphs (Definition 7.2)\n";
  List.iter
    (fun s ->
      let ws = Option.get (Automata.Lang.words (lang s)) in
      let letters, edges = Bcl.endpoint_graph ws in
      Printf.printf "  %-18s letters {%s}, endpoint edges {%s} -> chain=%b, BCL=%b\n" s
        (String.concat "" (List.map (String.make 1) letters))
        (String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "%c-%c" a b) edges))
        (Bcl.is_chain ws) (Bcl.is_bcl ws))
    [ "ab|bc"; "axyb|bztc|cd|dea"; "ab|bc|ca" ]

let fig5 () =
  Printf.printf "Figure 5: encoding a directed triangle with the aa gadget (Prop 4.1/4.11)\n";
  let _, g, l = find_gadget "aa (Fig 3a)" in
  let graph = Graphs.Ugraph.cycle 3 in
  let xi = Gadgets.encode g graph in
  Printf.printf "  triangle: 3 nodes, 3 edges; encoding: %d db-nodes, %d facts\n" (Db.nnodes xi)
    (Db.fact_count xi);
  let expected = Gadgets.expected_resilience g l graph in
  let v, _ = Exact.hitting_set xi l in
  Printf.printf "  vc(triangle)=%d; predicted RES = vc + m(l-1)/2 = %d; measured RES_set = %s\n"
    (Graphs.Ugraph.vertex_cover_number graph)
    expected (Value.to_string v)

let fig6 () =
  Printf.printf "Figure 6: full hypergraph of matches of the axb|cxd gadget completion\n";
  let _, g, l = find_gadget "four-legged case 1 (axb|cxd)" in
  let v = Gadgets.verify g l in
  Format.printf "%a@." Hypergraph.pp v.Gadgets.matches;
  Printf.printf "condensation trace (protecting F_in, F_out), as in Appendix C.6:\n";
  let c = Gadgets.complete g in
  let m = Graphdb.Eval.match_hypergraph c.Gadgets.db' l in
  let _, steps =
    Hypergraph.condense_trace ~protected:[ c.Gadgets.f_in; c.Gadgets.f_out ] m
  in
  List.iter (fun st -> Format.printf "  %a@." Hypergraph.pp_step st) steps;
  Printf.printf "resulting odd path (the Fig 3d analogue):\n";
  Format.printf "%a@." Hypergraph.pp v.Gadgets.condensed

let fig7_8 () =
  Printf.printf "Figures 7-8: generic four-legged gadgets (Theorem 5.5)\n";
  Printf.printf " case 1 (no infix of g'xb' in L):\n";
  List.iter
    (fun (s, x, al, be, ga, de) ->
      let l = lang s in
      let g = Gadgets.gadget_four_legged_case1 ~x ~alpha:al ~beta:be ~gamma:ga ~delta:de l in
      show_gadget (s, g, l))
    [
      ("axb|cxd", 'x', "a", "b", "c", "d");
      ("aexfb|cgxhd", 'x', "ae", "fb", "cg", "hd");
      ("abxcb|dxeb", 'x', "ab", "cb", "d", "eb");
    ];
  Printf.printf " case 2 (some infix of g'xb' in L, here c2xb):\n";
  let l = lang "axb|ccxd|cxb" in
  let g = Gadgets.gadget_four_legged_case2 ~x:'x' ~alpha:"a" ~beta:"b" ~gamma:"cc" ~delta:"d" l in
  show_gadget ("axb|ccxd|cxb", g, l)

let fig9_10 () =
  Printf.printf "Figures 9-10: Lemma E.4 gadgets for a-gamma-a and a-gamma-a-delta\n";
  List.iter
    (fun gamma ->
      let g, l = Gadgets.gadget_a_gamma_a ~gamma () in
      show_gadget (g.Gadgets.name, g, l))
    [ "b"; "bc" ];
  List.iter
    (fun (gamma, delta) ->
      let g, l = Gadgets.gadget_a_gamma_a_delta ~gamma ~delta () in
      show_gadget (g.Gadgets.name, g, l))
    [ ("b", "d"); ("bc", "d") ]

let fig_gadget figname gname =
  Printf.printf "%s\n" figname;
  show_gadget (find_gadget gname)

(* ------------------------------------------------------------------ *)
(* Value-level reproduction of the tractability theorems.              *)
(* ------------------------------------------------------------------ *)

let thm33_check () =
  Printf.printf "Theorem 3.3 check: RES_bag(ax*b) via RO-eNFA product MinCut = exact, and\n";
  Printf.printf "the MinCut correspondence of the introduction (a=sources, x=edges, b=sinks)\n";
  List.iter
    (fun seed ->
      let d = Graphdb.Generate.flow_grid ~width:3 ~depth:3 ~max_mult:3 ~seed () in
      let mc =
        match Local_solver.solve d (lang "ax*b") with Ok (v, _) -> v | Error e -> failwith e
      in
      let ex = fst (Exact.branch_and_bound d (lang "ax*b")) in
      Printf.printf "  grid(3x3, seed %d): mincut=%s exact=%s %s\n" seed (Value.to_string mc)
        (Value.to_string ex)
        (if Value.equal mc ex then "AGREE" else "DISAGREE!"))
    [ 1; 2; 3 ]

let prop75_check () =
  Printf.printf "Proposition 7.5 check: BCL MinCut = exact on layered ab|bc workloads\n";
  List.iter
    (fun seed ->
      let d = Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:2 ~max_mult:2 ~seed () in
      let bc = match Bcl.solve d (lang "ab|bc") with Ok (v, _) -> v | Error e -> failwith e in
      let ex = fst (Exact.branch_and_bound d (lang "ab|bc")) in
      Printf.printf "  layered(width 2, seed %d): bcl=%s exact=%s %s\n" seed (Value.to_string bc)
        (Value.to_string ex)
        (if Value.equal bc ex then "AGREE" else "DISAGREE!"))
    [ 1; 2; 3 ]

let prop77_check () =
  Printf.printf "Proposition 7.7 check: submodular solver = exact on abc|be workloads\n";
  List.iter
    (fun seed ->
      let d =
        Graphdb.Generate.random ~nnodes:5 ~nfacts:9 ~alphabet:[ 'a'; 'b'; 'c'; 'e' ] ~max_mult:2
          ~seed ()
      in
      let sm =
        match Submod_solver.solve d (lang "abc|be") with Ok v -> v | Error e -> failwith e
      in
      let ex = fst (Exact.branch_and_bound d (lang "abc|be")) in
      Printf.printf "  random(seed %d): submodular=%s exact=%s %s\n" seed (Value.to_string sm)
        (Value.to_string ex)
        (if Value.equal sm ex then "AGREE" else "DISAGREE!"))
    [ 1; 2; 3 ]

let set_bag_check () =
  Printf.printf
    "Set vs bag semantics (Fig 1 caption: all results hold for both): RES_set = RES_bag on\n";
  Printf.printf "unit multiplicities; multiplicities act as costs otherwise\n";
  List.iter
    (fun s ->
      let d =
        Graphdb.Generate.random ~nnodes:4 ~nfacts:7 ~alphabet:[ 'a'; 'b'; 'x' ] ~max_mult:3
          ~seed:11 ()
      in
      let l = lang s in
      let bag = fst (Exact.branch_and_bound d l) in
      let set = fst (Exact.branch_and_bound (Db.with_unit_mults d) l) in
      Printf.printf "  %-8s RES_bag=%s RES_set=%s (set <= bag: %b)\n" s (Value.to_string bag)
        (Value.to_string set)
        (Value.compare set bag <= 0))
    [ "aa"; "ax*b"; "ab|bc" ]

let thm61_demo () =
  Printf.printf
    "Theorem 6.1 as an executable case analysis: for each reduced finite language with a\n";
  Printf.printf
    "repeated-letter word, replay the proof and emit a verified gadget (strategy shown).\n";
  List.iter
    (fun s ->
      match Hardness.thm61_gadget (lang s) with
      | Ok o ->
          Printf.printf "  %-12s %-42s mirrored=%-5b odd path %s\n" s o.Hardness.strategy
            o.Hardness.mirrored
            (match o.Hardness.verification.Gadgets.odd_path_length with
            | Some l -> string_of_int l
            | None -> "?")
      | Error e -> Printf.printf "  %-12s ERROR %s\n" s e)
    [ "aa"; "aaa"; "aaaa"; "aab"; "aba"; "abba"; "aba|bab"; "abca|cab"; "abab"; "abcbd";
      "bcaa"; "abcadbce" ]

let open_cases () =
  Printf.printf
    "Open cases of the paper (Section 8): bounded gadget search finds nothing, consistent\n";
  Printf.printf "with their open status (a negative search proves nothing).\n";
  List.iter
    (fun s ->
      let t0 = Obs.Clock.now () in
      match Gadget_search.certify_np_hard ~max_matches:5 (lang s) with
      | Some _ -> Printf.printf "  %-10s GADGET FOUND (!) -- NP-hard\n" s
      | None ->
          Printf.printf "  %-10s no gadget up to 5 matches (%.1fs)\n" s (Obs.Clock.now () -. t0))
    [ "abcd|be"; "abc|bcd"; "abc|bef" ]

let ablation_flow () =
  Printf.printf
    "Ablation: Dinic vs push-relabel inside the Theorem 3.3 solver (same product network).\n";
  Printf.printf "  %8s %10s %14s %20s\n" "grid" "|D| facts" "Dinic (s)" "push-relabel (s)";
  List.iter
    (fun w ->
      let d = Graphdb.Generate.flow_grid ~width:w ~depth:w ~max_mult:5 ~seed:3 () in
      let ro = Automata.Local.ro_enfa (lang "ax*b") in
      let net = Local_solver.build_network d ~ro in
      let (c1, t1) =
        time_it (fun () ->
            Flow.Network.min_cut net.Local_solver.net ~source:net.Local_solver.source
              ~sink:net.Local_solver.sink)
      in
      let (c2, t2) =
        time_it (fun () ->
            Flow.Push_relabel.min_cut net.Local_solver.net ~source:net.Local_solver.source
              ~sink:net.Local_solver.sink)
      in
      Printf.printf "  %8d %10d %14.4f %20.4f %s\n" w (Db.fact_count d) t1 t2
        (if Flow.Network.cap_compare c1.Flow.Network.value c2.Flow.Network.value = 0 then
           "[agree]"
         else "[MISMATCH]"))
    [ 8; 16; 24 ]

let ablation_solvers () =
  Printf.printf
    "Ablation: the three exact solvers (witness B&B, hitting set, ILP [23]) agree; the LP\n";
  Printf.printf "relaxation lower-bounds them (integrality gap visible on gadget encodings).\n";
  Printf.printf "  %-22s %10s %8s %8s %8s %10s\n" "instance" "facts" "B&B" "hit-set" "ILP" "LP bound";
  let g_aa, l_aa = Gadgets.gadget_aa () in
  let instances =
    [
      ("aa / path encoding", Gadgets.encode g_aa (Graphs.Ugraph.path 3), l_aa);
      ("aa / triangle enc.", Gadgets.encode g_aa (Graphs.Ugraph.cycle 3), l_aa);
      ( "ab|bc|ca / random",
        Graphdb.Generate.random ~nnodes:5 ~nfacts:10 ~alphabet:[ 'a'; 'b'; 'c' ] ~seed:5 (),
        lang "ab|bc|ca" );
    ]
  in
  List.iter
    (fun (name, d, l) ->
      let bnb = fst (Exact.branch_and_bound d l) in
      let hs = fst (Exact.hitting_set d l) in
      let ilp = match Ilp_solver.solve d l with Ok (v, _) -> v | Error _ -> Value.Infinite in
      let lp = match Ilp_solver.lp_relaxation d l with Ok x -> x | Error _ -> nan in
      Printf.printf "  %-22s %10d %8s %8s %8s %10.2f %s\n" name (Db.fact_count d)
        (Value.to_string bnb) (Value.to_string hs) (Value.to_string ilp) lp
        (if Value.equal bnb hs && Value.equal hs ilp then "[agree]" else "[MISMATCH]"))
    instances

(* ------------------------------------------------------------------ *)
(* Scaling series (wall-clock, printed as paper-style series).         *)
(* ------------------------------------------------------------------ *)

let scaling_local () =
  Printf.printf
    "Theorem 3.3 scaling: RES_bag(ax*b) on flow grids; time grows near-linearly in |D|\n";
  Printf.printf "  %8s %8s %10s %12s\n" "width" "depth" "|D| facts" "time (s)";
  List.iter
    (fun (w, dep) ->
      let d = Graphdb.Generate.flow_grid ~width:w ~depth:dep ~max_mult:5 ~seed:42 () in
      let (v, _), t = time_it (fun () -> Local_solver.solve d (lang "ax*b") |> Result.get_ok) in
      Printf.printf "  %8d %8d %10d %12.4f (RES=%s)\n" w dep (Db.fact_count d) t
        (Value.to_string v))
    [ (4, 4); (8, 8); (16, 16); (24, 24); (32, 32) ]

let scaling_bcl () =
  Printf.printf "Proposition 7.5 scaling: RES_bag(ab|bc) on layered databases\n";
  Printf.printf "  %8s %10s %12s\n" "width" "|D| facts" "time (s)";
  List.iter
    (fun w ->
      let d =
        Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:w ~density:0.4 ~seed:7 ()
      in
      let (v, _), t = time_it (fun () -> Bcl.solve d (lang "ab|bc") |> Result.get_ok) in
      Printf.printf "  %8d %10d %12.4f (RES=%s)\n" w (Db.fact_count d) t (Value.to_string v))
    [ 4; 8; 12; 16 ]

let scaling_hardness () =
  Printf.printf
    "Hardness shape: exact solving of RES_set(aa) on gadget encodings of growing paths\n";
  Printf.printf "(NP-hard, Thm 6.1) vs the Thm 3.3 MinCut solver for the local language abc\n";
  Printf.printf "on the same databases: the exact solver's time explodes, MinCut stays flat.\n";
  Printf.printf "  %8s %10s %16s %16s\n" "path n" "|D| facts" "exact aa (s)" "mincut abc (s)";
  let g, l = Gadgets.gadget_aa () in
  List.iter
    (fun n ->
      let xi = Gadgets.encode g (Graphs.Ugraph.path n) in
      let (v1, _), t1 = time_it (fun () -> Exact.hitting_set xi l) in
      let _, t2 = time_it (fun () -> Local_solver.solve xi (lang "abc") |> Result.get_ok) in
      Printf.printf "  %8d %10d %16.4f %16.4f (RES_aa=%s)\n" n (Db.fact_count xi) t1 t2
        (Value.to_string v1))
    [ 3; 5; 7; 9 ]

let ablation_chain_extraction () =
  Printf.printf
    "Ablation: Lemma F.2 trie extraction vs determinization for chain-language word lists\n";
  Printf.printf "(the former gives Prop 7.5 its combined-complexity bound).\n";
  (* build a large BCL over many letters: a1 b | b c1 | ... *)
  let letters = "abcdefghijklmnopqrstuvwxyz" in
  let k = 24 in
  let words = List.init k (fun i -> Printf.sprintf "%c%c" letters.[i] letters.[i + 1]) in
  let a = Automata.Nfa.of_words words in
  let (r1, t1) = time_it (fun () -> Bcl.words_of_chain_nfa a) in
  let (r2, t2) = time_it (fun () -> Automata.Lang.words a) in
  let ok =
    match (r1, r2) with
    | Ok ws1, Some ws2 -> List.sort compare ws1 = List.sort compare ws2
    | _ -> false
  in
  Printf.printf "  %d words over %d letters: Lemma F.2 %.4fs, determinization %.4fs (%s)\n" k
    (k + 1) t1 t2
    (if ok then "same word list" else "MISMATCH");
  ignore (r1, r2)

let scaling_submodular () =
  Printf.printf
    "Proposition 7.7 scaling: RES_bag(abc|be) via submodular minimization on growing DBs\n";
  Printf.printf "  %8s %10s %12s\n" "nfacts" "|ground|" "time (s)";
  List.iter
    (fun nfacts ->
      let d =
        Graphdb.Generate.random ~nnodes:(2 + (nfacts / 3)) ~nfacts
          ~alphabet:[ 'a'; 'b'; 'c'; 'e' ] ~max_mult:2 ~seed:17 ()
      in
      match Submod_solver.recognize [ "abc"; "be" ] with
      | None -> ()
      | Some shape ->
          let ground, _ = Submod_solver.oracle d shape in
          let (v, t) =
            time_it (fun () -> Submod_solver.solve d (lang "abc|be") |> Result.get_ok)
          in
          Printf.printf "  %8d %10d %12.4f (RES=%s)\n" nfacts (List.length ground) t
            (Value.to_string v))
    [ 10; 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* Measured sections: one sampler, one result file.                    *)
(* ------------------------------------------------------------------ *)

module Json = Cert.Json
module Proto = Cert.Proto

(* Median and p99 of a sample (sorted in place), by nearest rank:
   sorted.(ceil(p·n/100) - 1) for [p] in percent. Integer arithmetic
   keeps the rank exact (p99 of 500 samples is index 494). *)
let p50_p99 xs =
  Array.sort compare xs;
  let percentile p = xs.((((p * Array.length xs) + 99) / 100) - 1) in
  (percentile 50, percentile 99)

let reply_p50_p99 replies =
  p50_p99 (Array.of_list (List.map (fun (r : Proto.reply) -> r.Proto.wall_s) replies))

(* Wall-clock times of [f 0] ... [f (n - 1)]. *)
let samples n f = Array.init n (fun i -> snd (time_it (fun () -> f i)))

(* The micro-benchmark cases of the timing section. *)
let micro_cases () =
  let grid w = Graphdb.Generate.flow_grid ~width:w ~depth:w ~max_mult:3 ~seed:1 () in
  let layered w =
    Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:w ~density:0.4 ~seed:1 ()
  in
  let rnd n f =
    Graphdb.Generate.random ~nnodes:n ~nfacts:f ~alphabet:[ 'a'; 'b'; 'c'; 'e' ] ~seed:5 ()
  in
  let axb = lang "ax*b" and abbc = lang "ab|bc" and abcbe = lang "abc|be" in
  let abbc_cl = Classify.classify abbc in
  let axb_cl = Classify.classify axb in
  let d8 = grid 8 and d16 = grid 16 in
  let l6 = layered 6 and l12 = layered 12 in
  let r7 = rnd 5 8 in
  let g_aa, l_aa = Gadgets.gadget_aa () in
  let xi5 = Gadgets.encode g_aa (Graphs.Ugraph.path 5) in
  [
    ("THM3.3/local-mincut/grid8", fun () -> ignore (Solver.solve ~classification:axb_cl d8 axb));
    ( "THM3.3/local-mincut/grid16",
      fun () -> ignore (Solver.solve ~classification:axb_cl d16 axb) );
    ( "PROP7.5/bcl-mincut/layered6",
      fun () -> ignore (Solver.solve ~classification:abbc_cl l6 abbc) );
    ( "PROP7.5/bcl-mincut/layered12",
      fun () -> ignore (Solver.solve ~classification:abbc_cl l12 abbc) );
    ("PROP7.7/submodular/random8", fun () -> ignore (Submod_solver.solve r7 abcbe));
    ("HARD/exact-bnb/aa-path5", fun () -> ignore (Exact.hitting_set xi5 l_aa));
    ("CLASSIFY/figure1/axb|cxd", fun () -> ignore (Classify.classify_regex "axb|cxd"));
    ("GADGET/verify/aa", fun () -> ignore (Gadgets.verify g_aa l_aa));
  ]

(* 3 warmups, then 31 timed runs per case. *)
let timing () =
  let nruns = 31 in
  Printf.printf "Wall-clock time per run, %d runs after 3 warmups\n\n" nruns;
  Printf.printf "  %-30s %14s %14s\n" "case" "median (us)" "p99 (us)";
  let open Json in
  List
    (List.map
       (fun (name, f) ->
         for _ = 1 to 3 do
           f ()
         done;
         let median, p99 = p50_p99 (samples nruns (fun _ -> f ())) in
         Printf.printf "  %-30s %14.2f %14.2f\n%!" name (median *. 1e6) (p99 *. 1e6);
         Obj
           [
             ("name", Str name); ("n", Int nruns); ("median_s", Float median); ("p99_s", Float p99);
           ])
       (micro_cases ()))

(* ------------------------------------------------------------------ *)
(* ABLATION: anytime degradation chain — answer quality vs work budget. *)
(* ------------------------------------------------------------------ *)

let ablation_anytime () =
  Printf.printf
    "Anytime degradation on the K4 vertex-cover encoding of `aa` (exact resilience 15):\n\
     the budgeted chain (B&B slice -> ILP slice -> LP + greedy bounds) vs the step budget.\n\n";
  let pre, l = Gadgets.gadget_aa () in
  let d = Gadgets.encode pre (Graphs.Ugraph.complete 4) in
  Printf.printf "  %10s  %-28s %s\n" "steps" "outcome" "time";
  List.iter
    (fun steps ->
      let (outcome, spent), dt =
        time_it (fun () ->
            Faults.with_plan Faults.Off (fun () ->
                let b = Budget.create ~steps () in
                let outcome = Solver.solve_bounded ~budget:b d l in
                (outcome, Budget.spent b)))
      in
      let show =
        match outcome with
        | Solver.Exact r ->
            Format.asprintf "exact %a via %s" Value.pp r.Solver.value
              (Solver.algorithm_name r.Solver.algorithm)
        | Solver.Bounded { lower; upper; _ } ->
            Format.asprintf "%a <= RES <= %a" Value.pp lower Value.pp upper
      in
      Printf.printf "  %10d  %-28s %.3fs (%d ticks spent)\n%!" steps show dt spent.Budget.steps)
    [ 100; 500; 1_000; 2_000; 5_000; 20_000; 100_000 ]

(* Jobs of the serving ablations: the K5 vertex-cover encoding of `aa`
   (hard, solved under a step budget) and a two-fact exact solve. *)
let hard_db =
  let pre, _ = Gadgets.gadget_aa () in
  Graphdb.Serialize.to_string (Gadgets.encode pre (Graphs.Ugraph.complete 5))

let easy_db = "s a m\nm a t\n"

let job ?(priority = Proto.default_priority) ?(faults = "off") id db steps =
  {
    Proto.id;
    db;
    query = "aa";
    budget = { Proto.no_budget with steps };
    faults = Some faults;
    deadline_ms = None;
    priority;
    trace = None;
  }

let shed_of replies =
  List.length
    (List.filter
       (fun (r : Proto.reply) ->
         match r.Proto.verdict with
         | Proto.V_failed { kind = "overloaded"; _ } -> true
         | _ -> false)
       replies)

(* Drive [Runner.serve_sockets] end to end: each client pre-writes its
   job lines on its socketpair end and half-closes; each client's replies
   are read back after the server returns. An unparsable reply aborts the
   run rather than thin the count. *)
let serve_clients scfg jobs_per_client =
  let ends = List.map (fun _ -> Runner.Transport.pair ()) jobs_per_client in
  let chans = List.map (fun (_, fd) -> Runner.Transport.channels_of_fd fd) ends in
  List.iter2
    (fun (_, oc) js ->
      List.iter (fun j -> output_string oc (Proto.job_to_wire_json j ^ "\n")) js;
      Runner.Transport.shutdown_send oc)
    chans jobs_per_client;
  let (), wall =
    time_it (fun () -> Runner.serve_sockets ~preconnected:(List.map fst ends) scfg)
  in
  let read (ic, oc) =
    let rec rd acc =
      match input_line ic with
      | line -> (
          match Proto.reply_of_json line with
          | Ok r -> rd (r :: acc)
          | Error e -> failwith (Printf.sprintf "malformed reply %S: %s" line e))
      | exception End_of_file ->
          close_in ic;
          close_out_noerr oc;
          List.rev acc
    in
    rd []
  in
  (wall, List.map read chans)

let ablation_pool () =
  Printf.printf
    "Supervised pool throughput on a mixed job file (easy exact solves, budgeted hard\n\
     solves, and one kill:50 crasher that must degrade through retries), vs worker count.\n\n";
  let jobs =
    List.init 24 (fun i -> job (Printf.sprintf "easy%d" i) easy_db None)
    @ List.init 11 (fun i -> job (Printf.sprintf "hard%d" i) hard_db (Some 400))
    @ [ job "crash" hard_db (Some 1000) ~faults:"kill:50" ]
  in
  let njobs = List.length jobs in
  Printf.printf "  %8s %10s %12s %10s %10s %10s\n" "workers" "jobs" "wall (s)" "jobs/s" "p50 (s)"
    "p99 (s)";
  let open Json in
  List
    (List.map
       (fun workers ->
         let cfg = { Runner.default_config with Runner.workers; retries = 3; backoff = 0.005 } in
         let (replies, stats), wall = time_it (fun () -> Runner.run_batch cfg jobs) in
         let p50, p99 = reply_p50_p99 replies in
         let rate = float_of_int njobs /. wall in
         Printf.printf "  %8d %10d %12.3f %10.1f %10.4f %10.4f  (%d failures)\n%!" workers njobs
           wall rate p50 p99 stats.Runner.failures;
         Obj
           [
             ("workers", Int workers); ("jobs", Int njobs); ("wall_s", Float wall);
             ("jobs_per_s", Float rate); ("p50_s", Float p50); ("p99_s", Float p99);
             ("failures", Int stats.Runner.failures);
           ])
       [ 1; 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* ABLATION: journal durability — sync policy, recovery, compaction.   *)
(* ------------------------------------------------------------------ *)

let ablation_journal () =
  Printf.printf
    "Journal v2 ablation: per-append cost of each sync policy (Never / Per_line /\n\
     Per_job over Done records, so Per_job actually fsyncs), recovery (load) time vs\n\
     journal size, and the compaction ratio on a heavily superseded journal.\n\n";
  let module J = Runner.Journal in
  let open Json in
  let with_temp f =
    let path = Filename.temp_file "rpq_bench_journal" ".jnl" in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".tmp" ])
      (fun () -> Sys.remove path; f path)
  in
  let done_entry id =
    J.Done
      {
        id;
        digest = "bench-digest";
        reply = Proto.failed ~id ~kind:"bench" "journal ablation payload";
      }
  in
  (* Per-append latency under each sync policy. *)
  let nappends = 201 in
  let sync_name = function
    | J.Never -> "never" | J.Per_line -> "per_line" | J.Per_job -> "per_job"
  in
  Printf.printf "  %-10s %10s %14s %14s %14s\n" "sync" "appends" "median (s)" "p99 (s)"
    "records/s";
  let append_rows =
    List.map
      (fun sync ->
        with_temp (fun path ->
            let j = match J.open_append ~sync path with Ok j -> j | Error e -> failwith e in
            Fun.protect ~finally:(fun () -> J.close j) @@ fun () ->
            for i = 1 to 8 do
              J.append j (done_entry (Printf.sprintf "warm%d" i))
            done;
            let entries = Array.init nappends (fun i -> done_entry (Printf.sprintf "job%d" i)) in
            let xs = samples nappends (fun i -> J.append j entries.(i)) in
            let rate = float_of_int nappends /. Array.fold_left ( +. ) 0.0 xs in
            let median, p99 = p50_p99 xs in
            Printf.printf "  %-10s %10d %14.6f %14.6f %14.0f\n%!" (sync_name sync) nappends
              median p99 rate;
            Obj
              [
                ("sync", Str (sync_name sync));
                ("appends", Int nappends);
                ("median_append_s", Float median);
                ("p99_append_s", Float p99);
                ("records_per_s", Float rate);
              ]))
      [ J.Never; J.Per_line; J.Per_job ]
  in
  (* Recovery: load time as a function of journal size. *)
  Printf.printf "\n  %10s %12s %12s\n" "records" "bytes" "load (s)";
  let recovery_rows =
    List.map
      (fun records ->
        with_temp (fun path ->
            let j = match J.open_append ~sync:J.Never path with
              | Ok j -> j | Error e -> failwith e
            in
            for i = 1 to records do
              J.append j (done_entry (Printf.sprintf "job%d" i))
            done;
            J.close j;
            let rep, load_s =
              time_it (fun () ->
                  match J.load path with Ok r -> r | Error e -> failwith e)
            in
            Printf.printf "  %10d %12d %12.6f\n%!" rep.J.records rep.J.bytes load_s;
            Obj
              [
                ("records", Int rep.J.records); ("bytes", Int rep.J.bytes);
                ("load_s", Float load_s);
              ]))
      [ 100; 400; 1600 ]
  in
  (* Compaction: 50 jobs, 8 superseded Done versions each. *)
  let compaction_row =
    with_temp (fun path ->
        let j = match J.open_append ~sync:J.Never path with
          | Ok j -> j | Error e -> failwith e
        in
        for _ = 1 to 8 do
          for i = 1 to 50 do
            J.append j (done_entry (Printf.sprintf "job%d" i))
          done
        done;
        J.close j;
        let stats, compact_s =
          time_it (fun () ->
              match J.compact path with Ok s -> s | Error e -> failwith e)
        in
        let ratio =
          float_of_int stats.J.after_bytes /. float_of_int stats.J.before_bytes
        in
        Printf.printf
          "\n  compaction: %d kept, %d dropped, %d -> %d bytes (ratio %.3f) in %.6fs\n%!"
          stats.J.kept stats.J.dropped stats.J.before_bytes stats.J.after_bytes ratio
          compact_s;
        Obj
          [
            ("kept", Int stats.J.kept); ("dropped", Int stats.J.dropped);
            ("before_bytes", Int stats.J.before_bytes);
            ("after_bytes", Int stats.J.after_bytes); ("ratio", Float ratio);
            ("compact_s", Float compact_s);
          ])
  in
  Obj
    [
      ("append", List append_rows); ("recovery", List recovery_rows);
      ("compaction", compaction_row);
    ]

(* ------------------------------------------------------------------ *)
(* ABLATION: multi-client serve — cache, throughput, shedding.         *)
(* ------------------------------------------------------------------ *)

let ablation_serve () =
  Printf.printf
    "Serve ablation: certificate-gated cache hit vs recompute latency, throughput vs\n\
     concurrent client count over pre-connected socketpairs, and the shed rate when\n\
     the admission queue saturates.\n\n";
  let open Json in
  (* 1. Cache hit (certificate re-check included) vs recompute, on a
     budgeted hard solve. *)
  let jh = job "h" hard_db (Some 400) in
  let digest = Runner.Journal.canonical_digest jh in
  let reply = Runner.run_job_locally jh in
  let cache = Runner.Cache.create ~entries:16 in
  Runner.Cache.store cache ~digest reply;
  let hit_lat =
    samples 500 (fun _ ->
        match Runner.Cache.find cache ~digest ~id:"x" with
        | Runner.Cache.Hit _ -> ()
        | Runner.Cache.Miss | Runner.Cache.Cert_reject _ -> ())
  in
  let miss_lat = samples 40 (fun _ -> ignore (Runner.run_job_locally jh)) in
  let hit_p50, hit_p99 = p50_p99 hit_lat in
  let miss_p50, miss_p99 = p50_p99 miss_lat in
  Printf.printf "  cache hit   p50 %.6fs  p99 %.6fs  (n=%d, cert re-checked per hit)\n"
    hit_p50 hit_p99 (Array.length hit_lat);
  Printf.printf "  recompute   p50 %.6fs  p99 %.6fs  (n=%d)\n%!" miss_p50 miss_p99
    (Array.length miss_lat);
  let cache_row =
    Obj
      [
        ("hit_p50_s", Float hit_p50); ("hit_p99_s", Float hit_p99);
        ("miss_p50_s", Float miss_p50); ("miss_p99_s", Float miss_p99);
        ("speedup_p50", Float (miss_p50 /. Float.max hit_p50 1e-9));
      ]
  in
  (* 2. Throughput vs concurrent clients: a fixed mixed job set split
     round-robin across k clients, cache off so every job computes. *)
  let total = 48 in
  let all_jobs =
    List.init total (fun i ->
        if i mod 4 = 3 then job (Printf.sprintf "h%d" i) hard_db (Some 400)
        else job (Printf.sprintf "e%d" i) easy_db None)
  in
  Printf.printf "\n  %8s %10s %12s %10s\n" "clients" "jobs" "wall (s)" "jobs/s";
  let throughput_rows =
    List.map
      (fun nclients ->
        let buckets = Array.make nclients [] in
        List.iteri (fun i j -> buckets.(i mod nclients) <- j :: buckets.(i mod nclients)) all_jobs;
        let per_client = Array.to_list (Array.map List.rev buckets) in
        let base =
          { Runner.default_config with Runner.workers = 4; retries = 1; backoff = 0.005 }
        in
        let scfg = { Runner.default_serve_config with Runner.base = base; cache_entries = 0 } in
        let wall, replies = serve_clients scfg per_client in
        let njobs = List.length (List.concat replies) in
        let rate = float_of_int njobs /. wall in
        Printf.printf "  %8d %10d %12.3f %10.1f\n%!" nclients njobs wall rate;
        Obj
          [
            ("clients", Int nclients); ("jobs", Int njobs);
            ("wall_s", Float wall); ("jobs_per_s", Float rate);
          ])
      [ 1; 2; 4; 8 ]
  in
  (* 3. Shedding under overload: a tiny queue cap against four eager
     clients; retriable `overloaded' replies are the safety valve. *)
  let overload_jobs = List.init 32 (fun i -> job (Printf.sprintf "o%d" i) easy_db None) in
  let per_client = List.init 4 (fun c ->
      List.map (fun (j : Proto.job) ->
          { j with Proto.id = Printf.sprintf "c%d_%s" c j.Proto.id })
        overload_jobs)
  in
  let base = { Runner.default_config with Runner.workers = 2; retries = 0; queue_cap = 8 } in
  let scfg = { Runner.default_serve_config with Runner.base = base; cache_entries = 0 } in
  let wall, replies = serve_clients scfg per_client in
  let replies = List.concat replies in
  let shed = shed_of replies in
  let nreplies = List.length replies in
  let shed_rate = float_of_int shed /. float_of_int (max 1 nreplies) in
  Printf.printf
    "\n  overload: %d jobs over 4 clients, queue cap 8 -> %d shed (%.1f%%) in %.3fs\n%!"
    nreplies shed (100.0 *. shed_rate) wall;
  let shed_row =
    Obj
      [
        ("jobs", Int nreplies); ("clients", Int 4); ("queue_cap", Int 8);
        ("shed", Int shed); ("shed_rate", Float shed_rate); ("wall_s", Float wall);
      ]
  in
  Obj [ ("cache", cache_row); ("throughput", List throughput_rows); ("shedding", shed_row) ]

let ablation_hedge () =
  Printf.printf
    "Hedging / overload ablation: per-job latency with certificate-gated hedging off\n\
     vs on under a deterministic wedge mix (the parity claim: identical settlements,\n\
     wall clock aside), and the shed rate by priority class at ~2x queue overload.\n\n";
  let open Json in
  (* 1. Hedging off vs on over one batch: every third job wedges at tick
     50 (so it burns wall timeout + grace per attempt until degradation
     preempts the wedge), the rest are clean. The hedge duplicates the
     primary's payload verbatim, so under this deterministic plan it can
     never win on outcome — the measurement is that it also costs
     nothing: settlements are pairwise equal modulo wall clock. *)
  let mix () =
    List.init 24 (fun i ->
        if i mod 3 = 0 then
          job (Printf.sprintf "w%d" i) hard_db (Some 1000) ~faults:"wedge:50"
        else if i mod 3 = 1 then job (Printf.sprintf "h%d" i) hard_db (Some 200)
        else job (Printf.sprintf "e%d" i) easy_db None)
  in
  let cfg hedge_after =
    {
      Runner.default_config with
      Runner.workers = 4;
      retries = 2;
      job_timeout = Some 0.3;
      grace = 0.2;
      backoff = 0.005;
      hedge_after;
    }
  in
  let hedge_counter = Obs.Metrics.counter "runner.hedges_total" in
  let win_counter = Obs.Metrics.counter "runner.hedge_wins_total" in
  let off_replies, _ = Runner.run_batch (cfg None) (mix ()) in
  let hedges0 = Obs.Metrics.count hedge_counter and wins0 = Obs.Metrics.count win_counter in
  let on_replies, _ = Runner.run_batch (cfg (Some 0.02)) (mix ()) in
  let hedges = Obs.Metrics.count hedge_counter - hedges0 in
  let wins = Obs.Metrics.count win_counter - wins0 in
  let off_p50, off_p99 = reply_p50_p99 off_replies in
  let on_p50, on_p99 = reply_p50_p99 on_replies in
  let parity = List.for_all2 Proto.reply_equal_ignoring_time off_replies on_replies in
  Printf.printf "  hedging off  p50 %.4fs  p99 %.4fs  (n=%d)\n" off_p50 off_p99
    (List.length off_replies);
  Printf.printf "  hedging on   p50 %.4fs  p99 %.4fs  (%d hedges, %d wins)\n" on_p50 on_p99
    hedges wins;
  Printf.printf "  settlement parity (modulo wall clock): %b\n%!" parity;
  let hedging_row =
    Obj
      [
        ("off_p50_s", Float off_p50); ("off_p99_s", Float off_p99);
        ("on_p50_s", Float on_p50); ("on_p99_s", Float on_p99);
        ("hedges", Int hedges); ("hedge_wins", Int wins); ("parity", Bool parity);
      ]
  in
  (* 2. Shed rate by priority class: one client per class, each pushing
     16 budgeted hard jobs at a queue capped at 8 with one worker —
     roughly 2x overload once inflight and queued slots are counted.
     Interactive arrivals evict queued batch work at the cap, so the
     shed burden lands on the low classes. *)
  let per_class = 16 and queue_cap = 8 in
  let classes = [ "batch"; "normal"; "interactive" ] in
  let per_client =
    List.map
      (fun cls ->
        List.init per_class (fun i ->
            job (Printf.sprintf "%s%d" cls i) hard_db (Some 200) ~priority:cls))
      classes
  in
  let base = { Runner.default_config with Runner.workers = 1; retries = 0; queue_cap } in
  let scfg = { Runner.default_serve_config with Runner.base = base; cache_entries = 0 } in
  let wall, replies_by_class = serve_clients scfg per_client in
  Printf.printf "\n  %12s %6s %6s %10s\n" "class" "jobs" "shed" "shed rate";
  let class_rows =
    List.map2
      (fun cls replies ->
        let shed = shed_of replies in
        let rate = float_of_int shed /. float_of_int (max 1 (List.length replies)) in
        Printf.printf "  %12s %6d %6d %9.1f%%\n%!" cls (List.length replies) shed
          (100.0 *. rate);
        Obj
          [
            ("class", Str cls); ("jobs", Int (List.length replies));
            ("shed", Int shed); ("shed_rate", Float rate);
          ])
      classes replies_by_class
  in
  Printf.printf "  overload wall: %.3fs (queue cap %d, %d jobs)\n%!" wall queue_cap
    (3 * per_class);
  Obj
    [
      ("hedging", hedging_row);
      ( "priority_shedding",
        Obj
          [
            ("queue_cap", Int queue_cap); ("workers", Int 1);
            ("jobs", Int (3 * per_class)); ("wall_s", Float wall);
            ("classes", List class_rows);
          ] );
    ]

(* A section either prints (figures, value checks, scaling series) or
   measures; a measured section's rows go into the one result file. *)
type run = Show of (unit -> unit) | Measure of (unit -> Json.t)

(* Wall times are only comparable next to the core count they ran on. *)
let write_results results =
  let doc =
    Json.Obj
      [ ("nproc", Json.Int (Domain.recommended_domain_count ())); ("sections", Json.Obj results) ]
  in
  Out_channel.with_open_text "BENCH_ablations.json" (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote BENCH_ablations.json (%s)\n" (String.concat ", " (List.map fst results))

let () =
  let gadgets figs = Show (fun () -> List.iter (fun (fig, name) -> fig_gadget fig name) figs) in
  let gadget fig name = gadgets [ (fig, name) ] in
  let results =
    List.filter_map
      (fun (name, title, run) ->
        if not (selected name) then None
        else begin
          Printf.printf "\n==== %s ====\n%!" title;
          match run with
          | Show f -> f (); None
          | Measure f -> Some (name, f ())
        end)
      [
        ("fig1", "FIG1: classification table", Show fig1);
        ("fig2", "FIG2: example automata", Show fig2);
        ("fig3", "FIG3: gadgets for aa and axb|cxd", Show fig3);
        ("fig4", "FIG4: endpoint graphs", Show fig4);
        ("fig5", "FIG5: vertex-cover encoding", Show fig5);
        ("fig6", "FIG6: hypergraph of matches for axb|cxd", Show fig6);
        ("fig7_8", "FIG7-8: four-legged gadgets (Thm 5.5)", Show fig7_8);
        ("fig9_10", "FIG9-10: repeated-letter gadgets (Lemma E.4)", Show fig9_10);
        ("fig11", "FIG11: aba|bab gadget (Claim E.8)", gadget "Figure 11" "aba|bab (Fig 11)");
        ("fig12", "FIG12: aaa gadget (Claim E.9)", gadget "Figure 12" "aaa (Fig 12)");
        ("fig13", "FIG13: aab gadget (Claim E.12)", gadget "Figure 13" "aab (Fig 13)");
        ( "fig14", "FIG14: ax(eta)ya|yax gadgets (Claim E.11)",
          gadgets
            [ ("Figure 14 (eta = empty)", "axya|yax (Fig 14)");
              ("Figure 14 (eta = c)", "axcya|yax (Fig 14)") ] );
        ("fig15", "FIG15: ab|bc|ca gadget (Prop 7.6)", gadget "Figure 15" "ab|bc|ca (Fig 15)");
        ( "fig16_17", "FIG16-17: abcd|be|ef and abcd|bef gadgets (Prop 7.8)",
          gadgets [ ("Figure 16", "abcd|be|ef (Fig 16)"); ("Figure 17", "abcd|bef (Fig 17)") ] );
        ("thm33", "THM3.3: MinCut solver value checks", Show thm33_check);
        ("prop75", "PROP7.5: BCL solver value checks", Show prop75_check);
        ("prop77", "PROP7.7: submodular solver value checks", Show prop77_check);
        ("set_bag", "SET=BAG: semantics coherence", Show set_bag_check);
        ("thm61", "THM6.1: executable case analysis", Show thm61_demo);
        ("open_cases", "OPEN CASES: bounded gadget search", Show open_cases);
        ("ablation_flow", "ABLATION: Dinic vs push-relabel", Show ablation_flow);
        ("ablation_solvers", "ABLATION: exact solvers and the LP bound", Show ablation_solvers);
        ( "ablation_chain", "ABLATION: Lemma F.2 extraction vs determinization",
          Show ablation_chain_extraction );
        ("ablation_anytime", "ABLATION: anytime bounds vs work budget", Show ablation_anytime);
        ( "ablation_pool", "ABLATION: supervised pool throughput vs worker count",
          Measure ablation_pool );
        ( "ablation_journal", "ABLATION: journal sync policy, recovery, compaction",
          Measure ablation_journal );
        ("ablation_serve", "ABLATION: multi-client serve, cache, shedding", Measure ablation_serve);
        ( "ablation_hedge", "ABLATION: hedging latency/parity, shed rate by priority",
          Measure ablation_hedge );
        ("scaling_submodular", "SCALING: Proposition 7.7", Show scaling_submodular);
        ("scaling_local", "SCALING: Theorem 3.3", Show scaling_local);
        ("scaling_bcl", "SCALING: Proposition 7.5", Show scaling_bcl);
        ("scaling_hard", "SCALING: hardness shape", Show scaling_hardness);
        ("timing", "TIMING: micro-benchmark samples", Measure timing);
      ]
  in
  match results with [] -> () | _ -> write_results results
