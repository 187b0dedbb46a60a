(* rpq_lint: the repository's own sources must be clean, and the scanner
   must actually catch each banned construct (negative fixtures). *)

let rules findings = List.map (fun f -> f.Lint.rule) findings

let scan src = Lint.scan_source ~file:"fixture.ml" src

let check_rule name src rule () =
  let fs = scan src in
  Alcotest.(check bool)
    (Printf.sprintf "%s is flagged as %s" name rule)
    true
    (List.mem rule (rules fs))

let check_clean name src () =
  let fs = scan src in
  Alcotest.(check (list string)) (Printf.sprintf "%s is clean" name) [] (rules fs)

(* Each fixture is library code that compiles in spirit; the lint is
   purely lexical so it need not actually type-check. *)
let negative_fixtures =
  [
    ("List.hd", "let f xs = List.hd xs\n", Lint.rule_partial);
    ("List.nth", "let f xs = List.nth xs 3\n", Lint.rule_partial);
    ("Option.get", "let f o = Option.get o\n", Lint.rule_partial);
    ("bare Hashtbl.find", "let f h k = Hashtbl.find h k\n", Lint.rule_partial);
    ("Stdlib-qualified", "let f xs = Stdlib.List.hd xs\n", Lint.rule_partial);
    ("Obj.magic", "let f x = (Obj.magic x : int)\n", Lint.rule_obj_magic);
    ("physical equality", "let f a b = a == b\n", Lint.rule_physical_eq);
    ("physical disequality", "let f a b = a != b\n", Lint.rule_physical_eq);
    ("Printf.printf", "let f x = Printf.printf \"%d\" x\n", Lint.rule_print);
    ("print_string", "let f s = print_string s\n", Lint.rule_print);
    ("failwith", "let f () = failwith \"boom\"\n", Lint.rule_failwith);
    ("assert false", "let f () = assert false\n", Lint.rule_assert_false);
    ("assert (false)", "let f () = assert (false)\n", Lint.rule_assert_false);
    ( "banned call after a comment",
      "(* see below *)\nlet f xs =\n  List.hd xs\n",
      Lint.rule_partial );
    ("Unix value", "let t = Unix.gettimeofday ()\n", Lint.rule_unix);
    ("Sys.time clock read", "let t = Sys.time ()\n", Lint.rule_clock);
    ("gettimeofday clock read", "let t = Unix.gettimeofday ()\n", Lint.rule_clock);
    ("Unix module alias", "module U = Unix\n", Lint.rule_unix);
    ("UnixLabels", "let t = UnixLabels.fork ()\n", Lint.rule_unix);
    ("Unix.fsync", "let f fd = Unix.fsync fd\n", Lint.rule_sync);
    ("UnixLabels.fsync", "let f fd = UnixLabels.fsync fd\n", Lint.rule_sync);
    ("Unix.lockf", "let f fd = Unix.lockf fd Unix.F_TLOCK 0\n", Lint.rule_sync);
    ("UnixLabels.lockf", "let f fd = UnixLabels.lockf fd ~mode:F_TLOCK ~len:0\n", Lint.rule_sync);
    ("Unix.socket", "let f () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0\n", Lint.rule_socket);
    ("Unix.socketpair", "let f () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0\n", Lint.rule_socket);
    ("Unix.bind", "let f fd a = Unix.bind fd a\n", Lint.rule_socket);
    ("Unix.listen", "let f fd = Unix.listen fd 64\n", Lint.rule_socket);
    ("Unix.accept", "let f fd = Unix.accept fd\n", Lint.rule_socket);
    ("UnixLabels.connect", "let f fd a = UnixLabels.connect fd ~addr:a\n", Lint.rule_socket);
    ("Printf.eprintf", "let f x = Printf.eprintf \"%d\" x\n", Lint.rule_stderr);
    ("Format.eprintf", "let f x = Format.eprintf \"%d\" x\n", Lint.rule_stderr);
    ("prerr_endline", "let f s = prerr_endline s\n", Lint.rule_stderr);
    ("prerr_newline", "let f () = prerr_newline ()\n", Lint.rule_stderr);
    ("Stdlib-qualified prerr", "let f s = Stdlib.prerr_string s\n", Lint.rule_stderr);
    ("bare stderr channel", "let f s = output_string stderr s\n", Lint.rule_stderr);
    ("try catch-all", "let f g = try g () with _ -> 0\n", Lint.rule_catch_all);
    ( "match exception catch-all",
      "let f g x = match g x with exception _ -> 0 | v -> v\n",
      Lint.rule_catch_all );
    ("Random.int", "let f () = Random.int 10\n", Lint.rule_random);
    ("Random module alias", "module R = Random\n", Lint.rule_random);
    ("Random.self_init", "let () = Random.self_init ()\n", Lint.rule_random);
    ("exit", "let f () = exit 1\n", Lint.rule_exit);
    ("Stdlib.exit", "let f () = Stdlib.exit 1\n", Lint.rule_exit);
    ("top-level ref", "let cache = ref []\n", Lint.rule_state);
    ( "top-level Hashtbl with annotation",
      "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n",
      Lint.rule_state );
    ("top-level Buffer", "let buf = Buffer.create 64\n", Lint.rule_state);
    ( "top-level ref on the next line",
      "let registry =\n  ref []\n",
      Lint.rule_state );
  ]

let clean_fixtures =
  [
    ("find_opt", "let f h k = Hashtbl.find_opt h k\nlet g o = Option.get_ok o\n");
    ("pp_print_string", "let f ppf s = Format.pp_print_string ppf s\n");
    ("banned name in a string", "let s = \"never call List.hd or use == here\"\n");
    ("banned name in a comment", "(* List.hd and assert false and == *)\nlet x = 1\n");
    ( "banned name in a nested comment with a string",
      "(* outer (* \"assert\" *) still a comment: failwith *)\nlet x = 1\n" );
    ("structural equality", "let f a b = a = b || a <> b\n");
    ("longer operators", "let ( === ) a b = a = b\nlet x = 1 === 1\n");
    ("assert with a real condition", "let f x = assert (x >= 0); x = false\n");
    ("char literals", "let f c = c = 'a' || c = '\\n' || c = '\\'' \n");
    ("primed identifiers", "let f x' = x' + 1\n");
    ("module field access", "let f (r : Db.fact) = r.Db.label\n");
    ("Unix in a comment", "(* like Unix.fork *)\nlet x = 1\n");
    ("Unix as an identifier prefix", "let unix_like = 1\nlet f (m : Unix_free.t) = m\n");
    ("clock via Obs", "let t = Obs.Clock.now ()\n");
    ("Sys.time in a comment", "(* cf. Sys.time *)\nlet x = 1\n");
    ("fsync in a comment", "(* the journal calls Unix.fsync here *)\nlet x = 1\n");
    ("fsync-like identifier", "let fsync_policy = 1\nlet lockf_free = 2\n");
    ("socket in a comment", "(* Unix.connect would race here *)\nlet x = 1\n");
    ("socket-like identifiers", "let socket_path = 1\nlet reconnect = 2\nlet bind_depth = 3\n");
    ( "transport helpers are not socket tokens",
      "let f path = Transport.connect_unix path\nlet g () = Transport.pair ()\n" );
    ("stderr in a comment", "(* never write to stderr or Printf.eprintf here *)\nlet x = 1\n");
    ("stderr-like identifiers", "let stderr_copy = 1\nlet to_stderr = 2\nlet f r = r.stderr_field\n");
    ("logging via Obs", "let f () = Obs.Log.warn \"shed\" []\n");
    ("wildcard match case", "let f x = match x with Some y -> y | _ -> 0\n");
    ("wildcard first match case", "let f x = match x with _ -> 0\n");
    ("tuple wildcard match", "let f p = match p with _, _ -> 0\n");
    ("specific exception handler", "let f g = try g () with Not_found -> 0\n");
    ("local mutable state", "let f () =\n  let c = ref 0 in\n  incr c;\n  !c\n");
    ("seeded prng", "let f seed = Invariant.Prng.make seed\n");
    ("random-like identifiers", "let randomized = 1\nlet f r = r.random_field\n");
    ("exit-like identifier", "let exit_code = 1\n");
    ("function definition is not state", "let make_table n = Hashtbl.create n\n");
  ]

let test_line_numbers () =
  let src = "let a = 1\n\n(* comment\n   spanning lines *)\nlet f xs = List.hd xs\n" in
  match scan src with
  | [ f ] ->
      Alcotest.(check string) "rule" Lint.rule_partial f.Lint.rule;
      Alcotest.(check int) "line survives stripping" 5 f.Lint.line
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* The dune test cwd is _build/default/test; dune mirrors the sources into
   _build/default, so walking up finds the copied lib/ tree. *)
let rec find_lib_root dir =
  let candidate = Filename.concat dir "lib" in
  if Sys.file_exists (Filename.concat (Filename.concat candidate "invariant") "invariant.ml")
  then Some candidate
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_lib_root parent

let test_repo_clean () =
  match find_lib_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "could not locate the lib/ source tree from the test cwd"
  | Some lib_root ->
      let findings =
        Lint.filter_allowlist ~allowlist:Lint.default_allowlist (Lint.scan_lib ~lib_root)
      in
      Alcotest.(check (list string))
        "lib/ has no lint findings" []
        (List.map Lint.finding_to_string findings)

let test_missing_mli () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rpq_lint_test_fixture" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  let with_iface = Filename.concat dir "good.ml" in
  let without_iface = Filename.concat dir "bad.ml" in
  List.iter
    (fun (path, contents) ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc)
    [ (with_iface, "let x = 1\n"); (with_iface ^ "i", "val x : int\n");
      (without_iface, "let y = 2\n") ];
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ with_iface; with_iface ^ "i"; without_iface ];
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      let fs = Lint.missing_mlis ~lib_root:dir in
      Alcotest.(check (list string))
        "only the interface-less module is flagged" [ Lint.rule_missing_mli ] (rules fs);
      match fs with
      | [ f ] -> Alcotest.(check string) "flagged file" without_iface f.Lint.file
      | _ -> Alcotest.fail "expected exactly one finding")

(* The Unix confinement is structural: the same source is flagged under
   <root>/core/ and exempt under <root>/runner/ — with no allowlist. *)
let test_unix_exemption () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "rpq_lint_unix_fixture" in
  let runner = Filename.concat root "runner" in
  let core = Filename.concat root "core" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o700) [ root; runner; core ];
  let src = "let now () = Unix.gettimeofday ()\n" in
  let files =
    List.concat_map
      (fun dir ->
        let ml = Filename.concat dir "clock.ml" in
        let mli = Filename.concat dir "clock.mli" in
        Out_channel.with_open_text ml (fun oc -> output_string oc src);
        Out_channel.with_open_text mli (fun oc -> output_string oc "val now : unit -> float\n");
        [ ml; mli ])
      [ runner; core ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove files;
      List.iter Sys.rmdir [ runner; core; root ])
    (fun () ->
      let fs = List.filter (fun f -> f.Lint.rule = Lint.rule_unix) (Lint.scan_lib ~lib_root:root) in
      Alcotest.(check (list string))
        "only the core copy is flagged"
        [ Filename.concat core "clock.ml" ]
        (List.map (fun f -> f.Lint.file) fs);
      (* gettimeofday trips both the Unix rule and the clock rule. *)
      Alcotest.(check (list string))
        "scan_source itself still flags the runner copy"
        [ Lint.rule_clock; Lint.rule_unix ]
        (List.sort compare
           (rules (Lint.scan_source ~file:(Filename.concat runner "clock.ml") src))))

(* Same structural mechanism for clocks: [Sys.time] is flagged under
   <root>/core/ and exempt under <root>/obs/. The fixture deliberately
   avoids Unix so only the clock rule is in play. *)
let test_clock_exemption () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "rpq_lint_clock_fixture" in
  let obs = Filename.concat root "obs" in
  let core = Filename.concat root "core" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o700) [ root; obs; core ];
  let src = "let cpu () = Sys.time ()\n" in
  let files =
    List.concat_map
      (fun dir ->
        let ml = Filename.concat dir "cpu.ml" in
        let mli = Filename.concat dir "cpu.mli" in
        Out_channel.with_open_text ml (fun oc -> output_string oc src);
        Out_channel.with_open_text mli (fun oc -> output_string oc "val cpu : unit -> float\n");
        [ ml; mli ])
      [ obs; core ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove files;
      List.iter Sys.rmdir [ obs; core; root ])
    (fun () ->
      let fs =
        List.filter (fun f -> f.Lint.rule = Lint.rule_clock) (Lint.scan_lib ~lib_root:root)
      in
      Alcotest.(check (list string))
        "only the core copy is flagged"
        [ Filename.concat core "cpu.ml" ]
        (List.map (fun f -> f.Lint.file) fs);
      Alcotest.(check (list string))
        "scan_source itself still flags the obs copy"
        [ Lint.rule_clock ]
        (rules (Lint.scan_source ~file:(Filename.concat obs "cpu.ml") src)))

(* The fsync/lockf confinement is strictly tighter than the Unix rule:
   under <root>/obs/ the Unix rule is structurally exempt but the sync
   rule still fires; only <root>/runner/ escapes both. *)
let test_sync_exemption () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "rpq_lint_sync_fixture" in
  let runner = Filename.concat root "runner" in
  let obs = Filename.concat root "obs" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o700) [ root; runner; obs ];
  let src = "let f fd = Unix.fsync fd\n" in
  let files =
    List.concat_map
      (fun dir ->
        let ml = Filename.concat dir "sync.ml" in
        let mli = Filename.concat dir "sync.mli" in
        Out_channel.with_open_text ml (fun oc -> output_string oc src);
        Out_channel.with_open_text mli (fun oc ->
            output_string oc "val f : Unix.file_descr -> unit\n");
        [ ml; mli ])
      [ runner; obs ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove files;
      List.iter Sys.rmdir [ runner; obs; root ])
    (fun () ->
      let fs =
        List.filter (fun f -> f.Lint.rule = Lint.rule_sync) (Lint.scan_lib ~lib_root:root)
      in
      Alcotest.(check (list string))
        "obs is flagged, runner is exempt"
        [ Filename.concat obs "sync.ml" ]
        (List.map (fun f -> f.Lint.file) fs);
      (* scan_source itself reports both rules: fsync is also a Unix use. *)
      Alcotest.(check (list string))
        "scan_source flags the runner copy with both rules"
        [ Lint.rule_sync; Lint.rule_unix ]
        (List.sort compare
           (rules (Lint.scan_source ~file:(Filename.concat runner "sync.ml") src))))

(* Socket confinement is tighter still: module-scoped, not directory-
   scoped. Inside <root>/runner/ the Unix rule is exempt, but only the
   slug runner/transport may utter socket primitives — a sibling module
   in the very same directory is flagged. *)
let test_socket_exemption () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "rpq_lint_socket_fixture" in
  let runner = Filename.concat root "runner" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o700) [ root; runner ];
  let src = "let f fd = Unix.accept fd\n" in
  let files =
    List.concat_map
      (fun name ->
        let ml = Filename.concat runner (name ^ ".ml") in
        let mli = ml ^ "i" in
        Out_channel.with_open_text ml (fun oc -> output_string oc src);
        Out_channel.with_open_text mli (fun oc ->
            output_string oc "val f : Unix.file_descr -> Unix.file_descr * Unix.sockaddr\n");
        [ ml; mli ])
      [ "transport"; "endpoints" ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove files;
      List.iter Sys.rmdir [ runner; root ])
    (fun () ->
      let fs =
        List.filter (fun f -> f.Lint.rule = Lint.rule_socket) (Lint.scan_lib ~lib_root:root)
      in
      Alcotest.(check (list string))
        "the sibling module is flagged, transport is exempt"
        [ Filename.concat runner "endpoints.ml" ]
        (List.map (fun f -> f.Lint.file) fs);
      (* scan_source itself reports both rules: accept is also a Unix use. *)
      Alcotest.(check (list string))
        "scan_source flags the transport copy with both rules"
        [ Lint.rule_socket; Lint.rule_unix ]
        (List.sort compare
           (rules (Lint.scan_source ~file:(Filename.concat runner "transport.ml") src))))

(* Stderr confinement is module-scoped like sockets: inside <root>/obs/
   only the slug obs/log may write to stderr — a sibling module in the
   same directory is flagged. The fixture avoids Printf/Format prefixes
   nothing else fires on, so only the stderr rule is in play. *)
let test_stderr_exemption () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "rpq_lint_stderr_fixture" in
  let obs = Filename.concat root "obs" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o700) [ root; obs ];
  let src = "let emit line = output_string stderr (line ^ \"\\n\")\n" in
  let files =
    List.concat_map
      (fun name ->
        let ml = Filename.concat obs (name ^ ".ml") in
        let mli = ml ^ "i" in
        Out_channel.with_open_text ml (fun oc -> output_string oc src);
        Out_channel.with_open_text mli (fun oc -> output_string oc "val emit : string -> unit\n");
        [ ml; mli ])
      [ "log"; "trace" ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove files;
      List.iter Sys.rmdir [ obs; root ])
    (fun () ->
      let fs =
        List.filter (fun f -> f.Lint.rule = Lint.rule_stderr) (Lint.scan_lib ~lib_root:root)
      in
      Alcotest.(check (list string))
        "the sibling module is flagged, the logger is exempt"
        [ Filename.concat obs "trace.ml" ]
        (List.map (fun f -> f.Lint.file) fs);
      Alcotest.(check (list string))
        "scan_source itself still flags the logger copy"
        [ Lint.rule_stderr ]
        (rules (Lint.scan_source ~file:(Filename.concat obs "log.ml") src)))

(* {2 Whole-program fixtures}

   Each fixture is a miniature repo tree (lib/<unit>/dune + sources)
   written to a temp directory and fed to [Lint.analyze] with a policy
   whose layer table covers exactly the fixture's units. *)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tree name files k =
  let root = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists root then rm_rf root;
  Sys.mkdir root 0o700;
  let rec ensure d =
    if not (Sys.file_exists d) then begin
      ensure (Filename.dirname d);
      Sys.mkdir d 0o700
    end
  in
  List.iter
    (fun (rel, contents) ->
      let path = Filename.concat root rel in
      ensure (Filename.dirname path);
      write_file path contents)
    files;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> k root)

let policy_with ?(grants = []) layers =
  { Lint_policy.default with Lint_policy.layers; grants }

let reach_tree =
  [
    ("lib/leaf/dune", "(library (name leaf))\n");
    ("lib/leaf/pool.ml", "let go () = Unix.fork ()\n");
    ("lib/leaf/pool.mli", "val go : unit -> int\n");
    ("lib/mid/dune", "(library (name mid) (libraries leaf))\n");
    ("lib/mid/helper.ml", "let f () = Leaf.Pool.go ()\n");
    ("lib/mid/helper.mli", "val f : unit -> int\n");
    ("lib/top/dune", "(library (name top) (libraries mid))\n");
    ("lib/top/exact.ml", "let run () = Mid.Helper.f ()\n");
    ("lib/top/exact.mli", "val run : unit -> int\n");
  ]

let reach_layers = [ ("leaf", 0); ("mid", 1); ("top", 2) ]

(* The headline behavior: a module that never names Unix is reported
   with a full witness path when it reaches one that does — one hop for
   the direct caller, two hops for the module above it. *)
let test_transitive_reach () =
  with_tree "rpq_lint_reach_fixture" reach_tree (fun root ->
      let a = Lint.analyze ~root ~policy:(policy_with reach_layers) in
      Alcotest.(check bool)
        "direct unix finding on the leaf" true
        (List.exists
           (fun f -> f.Lint.rule = Lint.rule_unix && f.Lint.file = "lib/leaf/pool.ml")
           a.Lint.findings);
      let reach = List.filter (fun f -> f.Lint.rule = Lint.rule_reach) a.Lint.findings in
      Alcotest.(check (list (pair string (list string))))
        "witness paths, outermost module first"
        [
          ("lib/mid/helper.ml", [ "Mid.Helper"; "Leaf.Pool" ]);
          ("lib/top/exact.ml", [ "Top.Exact"; "Mid.Helper"; "Leaf.Pool" ]);
        ]
        (List.map (fun f -> (f.Lint.file, f.Lint.path)) reach))

(* A grant is an encapsulation boundary: granting 'unix to the leaf
   silences the direct finding and stops the capability from
   propagating to either caller. *)
let test_grant_stops_propagation () =
  with_tree "rpq_lint_grant_fixture" reach_tree (fun root ->
      let policy =
        policy_with ~grants:[ ("leaf", [ Lint_rules.Cunix ]) ] reach_layers
      in
      let a = Lint.analyze ~root ~policy in
      Alcotest.(check (list string))
        "no findings once the leaf holds the grant" []
        (List.map Lint.finding_to_string a.Lint.findings))

(* The default policy grants the clock to lib/obs alone among the
   libraries: a raw clock read planted in the runner is flagged where it
   stands and again, with a witness path, on every runner module that
   reaches it. *)
let test_runner_has_no_clock () =
  with_tree "rpq_lint_runner_clock_fixture"
    [
      ("lib/runner/dune", "(library (name runner) (libraries unix))\n");
      ("lib/runner/cache.ml", "let stamp () = Unix.gettimeofday ()\n");
      ("lib/runner/cache.mli", "val stamp : unit -> float\n");
      ("lib/runner/runner.ml", "let t () = Cache.stamp ()\n");
      ("lib/runner/runner.mli", "val t : unit -> float\n");
    ]
    (fun root ->
      let a = Lint.analyze ~root ~policy:Lint_policy.default in
      Alcotest.(check (list (triple string string (list string))))
        "clock read flagged, and reached"
        [
          ("lib/runner/cache.ml", Lint.rule_clock, []);
          ("lib/runner/runner.ml", Lint.rule_reach, [ "Runner"; "Runner.Cache" ]);
        ]
        (List.map (fun f -> (f.Lint.file, f.Lint.rule, f.Lint.path)) a.Lint.findings))

let test_layer_violation () =
  with_tree "rpq_lint_layer_fixture"
    [
      ("lib/lo/dune", "(library (name lo) (libraries hi))\n");
      ("lib/lo/x.ml", "let v = 1\n");
      ("lib/lo/x.mli", "val v : int\n");
      ("lib/hi/dune", "(library (name hi))\n");
      ("lib/hi/y.ml", "let w = 2\n");
      ("lib/hi/y.mli", "val w : int\n");
    ]
    (fun root ->
      let a = Lint.analyze ~root ~policy:(policy_with [ ("lo", 0); ("hi", 1) ]) in
      match a.Lint.findings with
      | [ f ] ->
          Alcotest.(check string) "rule" Lint.rule_layer f.Lint.rule;
          Alcotest.(check string) "flagged at the dune stanza" "lib/lo/dune" f.Lint.file
      | fs ->
          Alcotest.failf "expected exactly the layering finding, got: %s"
            (String.concat "; " (List.map Lint.finding_to_string fs)))

(* The exec-deps contract: an executable with a policy allowlist is
   flagged for every library it links beyond the list — internal and
   external alike — and is clean once it sheds them. This is the
   mechanism keeping rpq_certcheck independent of the solver stack. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let exec_deps_tree checker_libs =
  [
    ("lib/cert0/dune", "(library (name cert0))\n");
    ("lib/cert0/ck.ml", "let ok = true\n");
    ("lib/cert0/ck.mli", "val ok : bool\n");
    ("lib/solver0/dune", "(library (name solver0))\n");
    ("lib/solver0/s.ml", "let solve = 42\n");
    ("lib/solver0/s.mli", "val solve : int\n");
    ( "bin/dune",
      Printf.sprintf "(executable (name checker) (libraries %s))\n" checker_libs );
    ("bin/checker.ml", "let () = ignore Cert0.Ck.ok\n");
  ]

let exec_deps_policy =
  {
    Lint_policy.default with
    Lint_policy.layers = [ ("cert0", 0); ("solver0", 0) ];
    peer_layers = [ 0 ];
    exec_layer = 1;
    exec_deps = [ ("checker", [ "cert0" ]) ];
  }

let test_exec_deps_violation () =
  with_tree "rpq_lint_execdeps_fixture"
    (exec_deps_tree "cert0 solver0 str")
    (fun root ->
      let a = Lint.analyze ~root ~policy:exec_deps_policy in
      let hits =
        List.filter (fun f -> f.Lint.rule = Lint.rule_exec_deps) a.Lint.findings
      in
      Alcotest.(check int)
        "one finding per library outside the allowlist" 2 (List.length hits);
      List.iter
        (fun f ->
          Alcotest.(check string) "flagged at the dune stanza" "bin/dune" f.Lint.file)
        hits;
      Alcotest.(check bool)
        "the internal solver link is named" true
        (List.exists
           (fun f ->
             contains f.Lint.message "solver0"
             && contains f.Lint.message "cert0")
           hits);
      Alcotest.(check bool)
        "the external str link is named" true
        (List.exists (fun f -> contains f.Lint.message "str") hits))

let test_exec_deps_clean () =
  with_tree "rpq_lint_execdeps_clean_fixture" (exec_deps_tree "cert0") (fun root ->
      let a = Lint.analyze ~root ~policy:exec_deps_policy in
      Alcotest.(check (list string))
        "allowlisted link only: clean" []
        (List.map Lint.finding_to_string
           (List.filter (fun f -> f.Lint.rule = Lint.rule_exec_deps) a.Lint.findings)))

let test_module_cycle () =
  with_tree "rpq_lint_cycle_fixture"
    [
      ("lib/c/dune", "(library (name c))\n");
      ("lib/c/a.ml", "let f () = B.g ()\n");
      ("lib/c/a.mli", "val f : unit -> unit\n");
      ("lib/c/b.ml", "let g () = A.f ()\n");
      ("lib/c/b.mli", "val g : unit -> unit\n");
    ]
    (fun root ->
      let a = Lint.analyze ~root ~policy:(policy_with [ ("c", 0) ]) in
      match List.filter (fun f -> f.Lint.rule = Lint.rule_cycle) a.Lint.findings with
      | [ f ] ->
          Alcotest.(check (list string)) "cycle members" [ "C.A"; "C.B" ] f.Lint.path
      | fs -> Alcotest.failf "expected one cycle finding, got %d" (List.length fs))

let test_json_deterministic () =
  with_tree "rpq_lint_json_fixture" reach_tree (fun root ->
      let policy = policy_with reach_layers in
      let a = Lint.analyze ~root ~policy in
      let b = Lint.analyze ~root ~policy in
      Alcotest.(check bool) "report is non-trivial" true
        (String.length (Lint.analysis_json a) > 100);
      Alcotest.(check string)
        "two scans render byte-identical JSON" (Lint.analysis_json a)
        (Lint.analysis_json b))

let test_unreadable_root_errors () =
  let raised =
    match Lint.analyze ~root:"/nonexistent-rpq-root" ~policy:Lint_policy.default with
    | _ -> false
    | exception Lint.Lint_error (file, _, _) ->
        Alcotest.(check bool)
          "error names the unreadable path" true
          (String.length file > 0);
        true
  in
  Alcotest.(check bool) "analyze raised Lint_error" true raised

let test_malformed_dune_errors () =
  with_tree "rpq_lint_bad_dune_fixture"
    [ ("lib/x/dune", "(library (name x)\n"); ("lib/x/m.ml", "let v = 1\n") ]
    (fun root ->
      let raised =
        match Lint.analyze ~root ~policy:Lint_policy.default with
        | _ -> None
        | exception Lint.Lint_error (file, line, _) -> Some (file, line)
      in
      match raised with
      | Some (file, line) ->
          Alcotest.(check bool) "error points at the dune file" true
            (String.ends_with ~suffix:"dune" file);
          Alcotest.(check int) "error carries the opening line" 1 line
      | None -> Alcotest.fail "a truncated dune file must be a hard error")

let test_undeclared_raise () =
  with_tree "rpq_lint_raise_fixture"
    [
      ("solver/bad.ml", "exception Boom\nlet f () = raise Boom\n");
      ("solver/bad.mli", "val f : unit -> 'a\n");
      ("solver/good.ml", "exception Stop\nlet f g = try g (); raise Stop with Stop -> ()\n");
      ("solver/good.mli", "val f : (unit -> unit) -> unit\n");
      ("solver/decl.ml", "exception Eek\nlet f () = raise Eek\n");
      ("solver/decl.mli", "exception Eek\n\nval f : unit -> 'a\n");
      ("solver/brk.ml", "let f () = raise Exit\n");
      ("solver/brk.mli", "val f : unit -> 'a\n");
      ("solver/other.ml", "exception Oops of int\n");
      ("solver/other.mli", "exception Oops of int\n");
      ("solver/q.ml", "let f () = raise (Other.Oops 3)\n");
      ("solver/q.mli", "val f : unit -> 'a\n");
      ("solver/qbad.ml", "let f () = raise (Other.Nope 3)\n");
      ("solver/qbad.mli", "val f : unit -> 'a\n");
    ]
    (fun root ->
      let fs =
        List.filter (fun f -> f.Lint.rule = Lint.rule_raise) (Lint.scan_lib ~lib_root:root)
      in
      let solver = Filename.concat root "solver" in
      Alcotest.(check (list string))
        "only undeclared raises are flagged"
        [ Filename.concat solver "bad.ml"; Filename.concat solver "qbad.ml" ]
        (List.map (fun f -> f.Lint.file) fs))

let test_repo_analyze () =
  match find_lib_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "could not locate the lib/ source tree from the test cwd"
  | Some lib_root ->
      let root = Filename.dirname lib_root in
      let a = Lint.analyze ~root ~policy:Lint_policy.default in
      Alcotest.(check (list string))
        "whole-program analysis of the repo is clean" []
        (List.map Lint.finding_to_string a.Lint.findings);
      let b = Lint.analyze ~root ~policy:Lint_policy.default in
      Alcotest.(check string)
        "repo report is deterministic" (Lint.analysis_json a) (Lint.analysis_json b)

let test_allowlist () =
  let fs = scan "let f xs = List.hd xs\n" in
  Alcotest.(check int) "finding exists" 1 (List.length fs);
  Alcotest.(check int) "suffix+rule allows it" 0
    (List.length (Lint.filter_allowlist ~allowlist:[ ("fixture.ml", Lint.rule_partial) ] fs));
  Alcotest.(check int) "wildcard rule allows it" 0
    (List.length (Lint.filter_allowlist ~allowlist:[ ("fixture.ml", "*") ] fs));
  Alcotest.(check int) "other file's entry does not" 1
    (List.length (Lint.filter_allowlist ~allowlist:[ ("other.ml", "*") ] fs))

let () =
  Alcotest.run "lint"
    [
      ( "negative fixtures",
        List.map
          (fun (name, src, rule) -> Alcotest.test_case name `Quick (check_rule name src rule))
          negative_fixtures );
      ( "clean fixtures",
        List.map
          (fun (name, src) -> Alcotest.test_case name `Quick (check_clean name src))
          clean_fixtures );
      ( "engine",
        [
          Alcotest.test_case "line numbers" `Quick test_line_numbers;
          Alcotest.test_case "missing mli" `Quick test_missing_mli;
          Alcotest.test_case "unix exemption" `Quick test_unix_exemption;
          Alcotest.test_case "clock exemption" `Quick test_clock_exemption;
          Alcotest.test_case "sync exemption" `Quick test_sync_exemption;
          Alcotest.test_case "socket exemption" `Quick test_socket_exemption;
          Alcotest.test_case "stderr exemption" `Quick test_stderr_exemption;
          Alcotest.test_case "allowlist" `Quick test_allowlist;
        ] );
      ( "whole-program",
        [
          Alcotest.test_case "transitive reach witness" `Quick test_transitive_reach;
          Alcotest.test_case "grant stops propagation" `Quick test_grant_stops_propagation;
          Alcotest.test_case "runner has no clock" `Quick test_runner_has_no_clock;
          Alcotest.test_case "layer violation" `Quick test_layer_violation;
          Alcotest.test_case "exec-deps violation" `Quick test_exec_deps_violation;
          Alcotest.test_case "exec-deps clean" `Quick test_exec_deps_clean;
          Alcotest.test_case "module cycle" `Quick test_module_cycle;
          Alcotest.test_case "deterministic json" `Quick test_json_deterministic;
          Alcotest.test_case "unreadable root errors" `Quick test_unreadable_root_errors;
          Alcotest.test_case "malformed dune errors" `Quick test_malformed_dune_errors;
          Alcotest.test_case "undeclared raise" `Quick test_undeclared_raise;
        ] );
      ( "repository",
        [
          Alcotest.test_case "lib/ is clean" `Quick test_repo_clean;
          Alcotest.test_case "whole-program analyze is clean" `Quick test_repo_analyze;
        ] );
    ]
