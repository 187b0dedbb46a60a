(* The certificate conformance corpus and checker-hardening suite.

   Three layers of assurance that the independent checker is neither
   credulous nor paranoid:

   - the committed corpus under certs/: every accept_*.jsonl line (real
     CLI output across all solver paths) must check, every
     reject_*.jsonl line (a hand-tampered certificate per failure mode
     named in the issue) must be refused;
   - programmatic tampers: solver-produced replies with their
     certificates stripped, swapped, or value-shifted must be refused;
   - a seeded byte-flip fuzzer: >= 200 single-byte mutations inside the
     cert block of corpus lines, every one refused — a mutated
     certificate that still checks would be a soundness hole. *)

open Resilience
module Ser = Graphdb.Serialize
module Proto = Cert.Proto
module Certificate = Cert.Certificate
module Checker = Cert.Checker

let check = Alcotest.(check bool)

(* ---- fixtures: replies produced by the real solver stack ---- *)

let easy_db = "s a m\nm a t\n"
let mix_db = "s a m\nm b t\ns b u\nu a t\n"
let submod_db = "s a m\nm b n\nn c t\ns b u\nu e t\n"

(* The aa gadget on K6 (the vertex-cover reduction of Definition 4.5):
   large enough that a 500-step budget settles it as bounded. *)
let hard_db =
  let g = Graphs.Ugraph.complete 6 in
  let pre, _ = Gadgets.gadget_aa () in
  Ser.to_string (Gadgets.encode pre g)

let job ?(id = "j") ?(db = easy_db) ?(query = "aa") ?steps () =
  {
    Proto.id;
    db;
    query;
    budget = { Proto.deadline = None; steps; memo_cap = None };
    faults = Some "off";
    deadline_ms = None;
    priority = Proto.default_priority;
    trace = None;
  }

let solve ?id ?db ?steps query = Runner.run_job_locally (job ?id ?db ?steps ~query ())

let ok_or_msg = function Ok _ -> "ok" | Error e -> e

(* Every solver path's reply — local cut, BCL cut, hitting-set bounds,
   submodular opaque, trivial — carries a certificate that re-checks,
   and the error reply (no certificate) checks too. *)
let test_generated_replies_check () =
  List.iter
    (fun (label, r) ->
      Alcotest.(check string)
        (label ^ " checks") "ok"
        (ok_or_msg (Checker.check_reply r)))
    [
      ("local mincut", solve ~db:mix_db "ab");
      ("bcl mincut", solve ~db:mix_db "ab|ba");
      ("hitting set", solve "aa");
      ("submodular", solve ~db:submod_db "abc|be");
      ("trivial epsilon", solve "a*");
      ("error reply", solve "((");
    ]

let test_bounded_reply_checks () =
  let r = solve ~id:"b" ~db:hard_db ~steps:500 "aa" in
  (match r.Proto.verdict with
  | Proto.V_bounded _ -> ()
  | v -> Alcotest.failf "expected a bounded verdict, got %s" (Proto.verdict_name v));
  Alcotest.(check string) "bounded reply checks" "ok" (ok_or_msg (Checker.check_reply r))

(* ---- the committed corpus ---- *)

(* Under `dune runtest` the cwd is the test directory itself; under
   `dune exec` it is the project root. *)
let corpus_dir =
  if Sys.file_exists "certs" then "certs" else Filename.concat "test" "certs"

let corpus_files prefix =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > String.length prefix
         && String.sub f 0 (String.length prefix) = prefix
         && Filename.check_suffix f ".jsonl")
  |> List.sort compare
  |> List.map (Filename.concat corpus_dir)

let lines_of file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")

let test_corpus_accepts () =
  let files = corpus_files "accept_" in
  check "accept corpus present" true (List.length files >= 4);
  List.iter
    (fun file ->
      List.iteri
        (fun i line ->
          match Checker.check_line line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s:%d rejected: %s" file (i + 1) e)
        (lines_of file))
    files

let test_corpus_rejects () =
  let files = corpus_files "reject_" in
  check "reject corpus present" true (List.length files >= 6);
  List.iter
    (fun file ->
      List.iteri
        (fun i line ->
          match Checker.check_line line with
          | Error _ -> ()
          | Ok what ->
              Alcotest.failf "%s:%d accepted a tampered %s line" file (i + 1) what)
        (lines_of file))
    files

(* ---- programmatic tampers ---- *)

let shift_value = function
  | Cert.Value.Finite n -> Cert.Value.Finite (n + 1)
  | Cert.Value.Infinite -> Cert.Value.Finite 0

let test_programmatic_tampers () =
  let cut_reply = solve ~db:mix_db "ab" in
  let bounds_reply = solve "aa" in
  let refuse label r =
    match Checker.check_reply r with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "checker accepted %s" label
  in
  refuse "a stripped certificate" { cut_reply with Proto.cert = None };
  refuse "a cut certificate on a hitting-set reply"
    { bounds_reply with Proto.cert = cut_reply.Proto.cert };
  refuse "a bounds certificate on a mincut reply"
    { cut_reply with Proto.cert = bounds_reply.Proto.cert };
  (match cut_reply.Proto.verdict with
  | Proto.V_exact { value; algorithm; witness } ->
      refuse "a shifted exact value"
        {
          cut_reply with
          Proto.verdict = Proto.V_exact { value = shift_value value; algorithm; witness };
        }
  | _ -> Alcotest.fail "local solve did not settle exactly");
  match bounds_reply.Proto.verdict with
  | Proto.V_exact { value; algorithm; witness = Some (_ :: _ as w) } ->
      refuse "a padded witness"
        {
          bounds_reply with
          Proto.verdict =
            Proto.V_exact { value; algorithm; witness = Some (w @ [ 997 ]) };
        }
  | _ -> Alcotest.fail "hitting-set solve did not settle with a witness"

(* Tampers aimed at the checker's indexed lookups (weights by fact, fact by
   edge, mapped facts), on a real BCL cut reply whose single-letter word d
   forces facts: each must be refused by the check that owns it. *)
let bcl_db = "s a m\nm b n\nn c t\ns d t\nm d n 2\n"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_indexed_lookup_tampers () =
  let r = solve ~db:bcl_db "ab|bc|d" in
  let c =
    match r.Proto.cert with
    | Some (Certificate.Cut c) -> c
    | _ -> Alcotest.fail "BCL solve carries no cut certificate"
  in
  check "the reply checks untampered" true (Result.is_ok (Checker.check_reply r));
  check "the certificate has forced facts" true (c.Certificate.forced <> []);
  let refuse label needle c' =
    match Checker.check_reply { r with Proto.cert = Some (Certificate.Cut c') } with
    | Ok () -> Alcotest.failf "checker accepted %s" label
    | Error e ->
        if not (contains e needle) then
          Alcotest.failf "%s refused for the wrong reason: %s" label e
  in
  let capacity e =
    let _, _, cap = List.nth c.Certificate.edges e in
    cap
  in
  let fact_e, fact_id =
    List.find (fun (e, _) -> List.mem e c.Certificate.cut_edges) c.Certificate.fact_edges
  in
  let inf_e =
    let rec find e = if capacity e = Certificate.Inf then e else find (e + 1) in
    find 0
  in
  refuse "a duplicate fact id in weights" "duplicate fact in weights"
    { c with weights = List.hd c.Certificate.weights :: c.Certificate.weights };
  refuse "a weight that differs from its edge's capacity" "differs from its weight"
    {
      c with
      weights = List.map (fun (fid, w) -> (fid, if fid = fact_id then w + 1 else w)) c.weights;
    };
  refuse "a fact mapped to a +inf edge" "mapped to an infinite-capacity edge"
    {
      c with
      fact_edges =
        List.map (fun (e, fid) -> ((if e = fact_e then inf_e else e), fid)) c.fact_edges;
    };
  refuse "a forced fact also mapped to a network edge" "also appears in the network"
    {
      c with
      forced =
        List.mapi (fun i (fid, w) -> ((if i = 0 then fact_id else fid), w)) c.Certificate.forced;
    };
  refuse "a cut edge that is not a fact edge" "is not a fact edge"
    {
      c with
      fact_edges = List.filter (fun (e, _) -> e <> fact_e) c.fact_edges;
      weights = List.filter (fun (fid, _) -> fid <> fact_id) c.weights;
    }

(* ---- scale ---- *)

(* Emitting and checking a cut certificate is linear in the network, so
   served MinCut replies on ~8k-fact grids and >20k-edge BCL networks
   certify and check in well under a second (a quadratic step would take
   minutes). A correctness test at scale, not a timing assertion: the
   certified value equals the uncertified route's, the reply re-checks,
   and the Thm 3.3 reply serializes exactly the edges [edge_info] reads
   off the network built from the same database. *)
let test_cut_at_scale () =
  let lang = Automata.Lang.of_string in
  let served label d query uncertified =
    let text = Ser.to_string d in
    let d, _ = Result.get_ok (Ser.of_string text) in
    let r = solve ~db:text query in
    Alcotest.(check string) (label ^ " reply checks") "ok" (ok_or_msg (Checker.check_reply r));
    (match (r.Proto.verdict, uncertified d (lang query)) with
    | Proto.V_exact { value; _ }, Ok (v, _) ->
        Alcotest.(check string)
          (label ^ " certified value = uncertified value")
          (Value.to_string v) (Cert.Value.to_string value)
    | _, Error e -> Alcotest.failf "%s: uncertified route refused: %s" label e
    | _ -> Alcotest.failf "%s did not settle exactly" label);
    match r.Proto.cert with
    | Some (Certificate.Cut c) -> (d, c)
    | _ -> Alcotest.failf "%s carries no cut certificate" label
  in
  let grid = Graphdb.Generate.flow_grid ~width:64 ~depth:64 ~max_mult:5 ~seed:3 () in
  check "the grid has about 8k facts" true (Graphdb.Db.live_count grid > 8000);
  let d, c = served "ax*b on a 64x64 grid" grid "ax*b" Local_solver.solve in
  let net = (Local_solver.build_network d ~ro:(Automata.Local.ro_enfa (lang "ax*b"))).net in
  let m = Flow.Network.edge_count net in
  check "the network is large" true (m > 8000);
  check "serialized edges = edge_info for ids 0..m-1" true
    (c.Certificate.edges
    = List.init m (fun eid ->
          let src, dst, cap = Flow.Network.edge_info net eid in
          (src, dst, match cap with Flow.Network.Finite w -> Certificate.Fin w | Inf -> Certificate.Inf)));
  let layered =
    Graphdb.Generate.layered ~layers:[ 'a'; 'b'; 'c' ] ~width:48 ~max_mult:3 ~seed:3 ()
  in
  let _, c = served "ab|bc on a width-48 layered db" layered "ab|bc" Bcl.solve in
  check "the BCL network is large" true (List.length c.Certificate.edges > 20000)

(* Unknown schema versions must be refused outright, not half-parsed. *)
let test_unknown_version_rejected () =
  let r = solve ~db:mix_db "ab" in
  let json = Proto.reply_to_json r in
  check "current version accepts" true (Result.is_ok (Checker.check_line json));
  let prefix = "{\"v\":1," in
  let pl = String.length prefix in
  check "the v field leads the reply" true
    (String.length json > pl && String.sub json 0 pl = prefix);
  let bumped = "{\"v\":9," ^ String.sub json pl (String.length json - pl) in
  check "unknown version rejects" true (Result.is_error (Checker.check_line bumped))

(* ---- certificate JSON roundtrip ---- *)

let test_cert_roundtrip () =
  List.iter
    (fun (label, r) ->
      match r.Proto.cert with
      | None -> Alcotest.failf "%s reply carries no certificate" label
      | Some c -> (
          match Certificate.of_json (Certificate.to_json c) with
          | Error e -> Alcotest.failf "%s cert does not roundtrip: %s" label e
          | Ok c' ->
              Alcotest.(check string)
                (label ^ " roundtrips through JSON")
                (Certificate.to_json c) (Certificate.to_json c')))
    [
      ("cut", solve ~db:mix_db "ab");
      ("bounds", solve "aa");
      ("opaque", solve ~db:submod_db "abc|be");
      ("trivial", solve "a*");
    ]

(* ---- seeded byte-flip fuzzer ---- *)

(* The span of the cert object in a compact JSON line: from the opening
   brace after "cert": to its matched closing brace. The scan respects
   string literals and backslash escapes. *)
let cert_span line =
  let marker = "\"cert\":{" in
  let ml = String.length marker in
  let n = String.length line in
  let rec find i =
    if i + ml > n then None
    else if String.sub line i ml = marker then Some (i + ml - 1)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let rec close i depth in_str =
        if i >= n then None
        else
          match line.[i] with
          | '\\' when in_str -> close (i + 2) depth in_str
          | '"' -> close (i + 1) depth (not in_str)
          | '{' when not in_str -> close (i + 1) (depth + 1) in_str
          | '}' when not in_str ->
              if depth = 1 then Some (start, i) else close (i + 1) (depth - 1) in_str
          | _ -> close (i + 1) depth in_str
      in
      close start 0 false

let flip_one prng line (lo, hi) =
  let pos = lo + Invariant.Prng.int prng (hi - lo + 1) in
  let old = line.[pos] in
  let rec fresh () =
    (* printable ASCII keeps the mutation inside the JSON token
       alphabet, where a silent accept would be most plausible *)
    let c = Char.chr (32 + Invariant.Prng.int prng 95) in
    if c = old then fresh () else c
  in
  let b = Bytes.of_string line in
  Bytes.set b pos (fresh ());
  Bytes.to_string b

let test_byte_flip_fuzzer () =
  let lines =
    List.concat_map lines_of (corpus_files "accept_")
    |> List.filter (fun l -> cert_span l <> None)
  in
  check "corpus has certified lines" true (List.length lines >= 6);
  let per_line = 1 + (200 / List.length lines) in
  let mutations = ref 0 in
  List.iteri
    (fun li line ->
      let span =
        match cert_span line with Some s -> s | None -> Alcotest.fail "span vanished"
      in
      for s = 0 to per_line - 1 do
        let prng = Invariant.Prng.make ((li * 1000) + s) in
        let mutant = flip_one prng line span in
        incr mutations;
        match Checker.check_line mutant with
        | Error _ -> ()
        | Ok what ->
            Alcotest.failf
              "seed %d/%d: a byte-flipped %s certificate was accepted: %s" li s what
              mutant
      done)
    lines;
  check "at least 200 mutations exercised" true (!mutations >= 200)

let () =
  Alcotest.run "certcheck"
    [
      ( "generated",
        [
          Alcotest.test_case "all solver paths check" `Quick test_generated_replies_check;
          Alcotest.test_case "bounded reply checks" `Quick test_bounded_reply_checks;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "accept corpus" `Quick test_corpus_accepts;
          Alcotest.test_case "reject corpus" `Quick test_corpus_rejects;
        ] );
      ("scale", [ Alcotest.test_case "certified cuts at scale" `Quick test_cut_at_scale ]);
      ( "tampering",
        [
          Alcotest.test_case "programmatic tampers" `Quick test_programmatic_tampers;
          Alcotest.test_case "indexed lookup tampers" `Quick test_indexed_lookup_tampers;
          Alcotest.test_case "unknown version" `Quick test_unknown_version_rejected;
          Alcotest.test_case "cert json roundtrip" `Quick test_cert_roundtrip;
          Alcotest.test_case "byte-flip fuzzer" `Quick test_byte_flip_fuzzer;
        ] );
    ]
