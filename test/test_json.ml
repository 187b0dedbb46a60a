(* Differential tests for the JSON codec.

   [Cert.Json] renders and parses every reply, certificate and journal
   record, and its integer and string paths are tuned for speed. The
   [Oracle] below is the plain codec those fast paths must agree with: a
   straight emitter ([string_of_int] per number, a per-byte escape loop)
   and a straight recursive-descent parser. The properties check that
   [to_string] produces the oracle's bytes, and that [parse] returns the
   oracle's result — the same value, or the same error message — on
   every rendering, on every strict prefix of it, and on byte-flipped
   copies. *)

module Json = Cert.Json

module Oracle = struct
  let buf_add_escaped b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let rec emit b = function
    | Json.Null -> Buffer.add_string b "null"
    | Json.Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Json.Int i -> Buffer.add_string b (string_of_int i)
    | Json.Float f ->
        if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
        else Buffer.add_string b "null"
    | Json.Str s -> buf_add_escaped b s
    | Json.List vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            emit b v)
          vs;
        Buffer.add_char b ']'
    | Json.Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            buf_add_escaped b k;
            Buffer.add_char b ':';
            emit b v)
          fields;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    emit b v;
    Buffer.contents b

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let skip_ws () =
      while
        !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let hex c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad hex digit in \\u escape"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char b '"'; incr pos
                 | '\\' -> Buffer.add_char b '\\'; incr pos
                 | '/' -> Buffer.add_char b '/'; incr pos
                 | 'n' -> Buffer.add_char b '\n'; incr pos
                 | 'r' -> Buffer.add_char b '\r'; incr pos
                 | 't' -> Buffer.add_char b '\t'; incr pos
                 | 'b' -> Buffer.add_char b '\b'; incr pos
                 | 'f' -> Buffer.add_char b '\012'; incr pos
                 | 'u' ->
                     if !pos + 4 >= n then fail "truncated \\u escape";
                     let v =
                       (hex s.[!pos + 1] lsl 12)
                       lor (hex s.[!pos + 2] lsl 8)
                       lor (hex s.[!pos + 3] lsl 4)
                       lor hex s.[!pos + 4]
                     in
                     Buffer.add_char b (if v < 0x100 then Char.chr v else '?');
                     pos := !pos + 5
                 | c -> fail (Printf.sprintf "bad escape \\%c" c));
              loop ()
          | c -> Buffer.add_char b c; incr pos; loop ()
      in
      loop ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Json.Int i
      | None -> begin
          match float_of_string_opt tok with
          | Some f -> Json.Float f
          | None -> fail (Printf.sprintf "bad number %S" tok)
        end
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Json.Str (parse_string ())
      | Some 'n' -> literal "null" Json.Null
      | Some 't' -> literal "true" (Json.Bool true)
      | Some 'f' -> literal "false" (Json.Bool false)
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Json.List []
          end
          else begin
            let items = ref [ parse_value () ] in
            skip_ws ();
            while peek () = Some ',' do
              incr pos;
              items := parse_value () :: !items;
              skip_ws ()
            done;
            expect ']';
            Json.List (List.rev !items)
          end
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Json.Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let fields = ref [ field () ] in
            skip_ws ();
            while peek () = Some ',' do
              incr pos;
              fields := field () :: !fields;
              skip_ws ()
            done;
            expect '}';
            Json.Obj (List.rev !fields)
          end
      | Some _ -> parse_number ()
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos) else Ok v
    | exception Bad msg -> Error msg
end

(* Structural equality that treats every float bit pattern as itself, so
   a [nan] read back from "1e999"-style tokens cannot fail the test. *)
let rec same a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
  | _ -> a = b

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error e, Error f -> String.equal e f
  | Ok _, Error _ | Error _, Ok _ -> false

let show = function Ok v -> "Ok " ^ Oracle.to_string v | Error e -> "Error " ^ e

(* [parse] agrees with the oracle on [s]; on disagreement, says how. *)
let agrees s =
  let got = Json.parse s and want = Oracle.parse s in
  same_result got want
  || QCheck.Test.fail_reportf "parse %S:@ got %s,@ oracle %s" s (show got) (show want)

(* ---- generators ---- *)

let pow10 k = int_of_float (10.0 ** float_of_int k)

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (4, small_signed_int);
        (2, int);
        ( 3,
          oneofl
            [
              0; 1; -1; 9; 10; -10; min_int; max_int; min_int + 1; max_int - 1;
              pow10 17; pow10 18 - 1; -(pow10 18 - 1); pow10 18; -pow10 18;
            ] );
        (* 18-digit and 19-digit magnitudes, either sign *)
        (2, map2 (fun x neg -> if neg then -x else x) (int_range (pow10 17) (pow10 18 - 1)) bool);
        (2, map2 (fun x neg -> if neg then -x else x) (int_range (pow10 18) max_int) bool);
      ])

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (4, float);
        (2, oneofl [ nan; infinity; neg_infinity; -0.0; 0.0; 1e5; 1e-7; 0.1; 1e300 ]);
      ])

(* Bytes chosen to exercise every escape: quotes, backslashes, every
   control byte, the slash, bytes at and above 0x80, and plain text. *)
let gen_char =
  QCheck.Gen.(
    frequency
      [
        (6, char_range 'a' 'z');
        (2, oneofl [ '"'; '\\'; '/'; ' '; '0'; '-'; 'u' ]);
        (2, map Char.chr (int_range 0 0x1f));
        (2, map Char.chr (int_range 0x7f 0xff));
      ])

let gen_string = QCheck.Gen.(string_size ~gen:gen_char (int_range 0 12))

let gen_json =
  QCheck.Gen.(
    sized_size (int_range 0 150)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (4, map (fun i -> Json.Int i) gen_int);
                 (2, map (fun f -> Json.Float f) gen_float);
                 (3, map (fun s -> Json.Str s) gen_string);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 2,
                   let* k = int_range 0 5 in
                   map (fun vs -> Json.List vs) (list_repeat k (self (n / (k + 1)))) );
                 ( 2,
                   let* k = int_range 0 5 in
                   map
                     (fun fs -> Json.Obj fs)
                     (list_repeat k (pair gen_string (self (n / (k + 1))))) );
                 (* a long chain: deep nesting *)
                 (1, map (fun v -> Json.List [ v ]) (self (n - 1)));
               ]))

let arb_json = QCheck.make ~print:Oracle.to_string gen_json

(* A value plus a list of (position seed, replacement byte) flips. *)
let arb_flips =
  QCheck.make
    ~print:(fun (v, _) -> Oracle.to_string v)
    QCheck.Gen.(pair gen_json (list_size (int_range 1 24) (pair nat (map Char.chr (int_range 0 255)))))

(* ---- properties ---- *)

let prop_emit_matches_oracle =
  QCheck.Test.make ~name:"to_string = oracle emitter" ~count:2000 arb_json (fun v ->
      let got = Json.to_string v and want = Oracle.to_string v in
      String.equal got want || QCheck.Test.fail_reportf "got %S,@ oracle %S" got want)

let prop_parse_rendering =
  QCheck.Test.make ~name:"parse = oracle on renderings" ~count:2000 arb_json (fun v ->
      agrees (Json.to_string v))

let prop_parse_prefixes =
  QCheck.Test.make ~name:"parse = oracle on every strict prefix" ~count:300 arb_json (fun v ->
      let s = Json.to_string v in
      let ok = ref true in
      for len = 0 to String.length s - 1 do
        if !ok then ok := agrees (String.sub s 0 len)
      done;
      !ok)

let prop_parse_flips =
  QCheck.Test.make ~name:"parse = oracle on byte flips" ~count:1000 arb_flips (fun (v, flips) ->
      let s = Json.to_string v in
      String.length s = 0
      || List.for_all
           (fun (p, c) ->
             let b = Bytes.of_string s in
             Bytes.set b (p mod Bytes.length b) c;
             agrees (Bytes.to_string b))
           flips)

(* ---- fixed tokens at each fast-path boundary ---- *)

let tokens =
  [
    "0"; "-0"; "01"; "-01"; "007"; "1e5"; "1E5"; "-"; "+"; "+1"; "--1"; "1-"; "1+2"; "1.";
    ".5"; "1.5"; "-1.5e-3"; "e"; "123456789012345678"; "-123456789012345678";
    "1234567890123456789"; "-1234567890123456789"; "999999999999999999";
    "4611686018427387903"; "-4611686018427387904"; "4611686018427387904";
    "-4611686018427387905"; "99999999999999999999999"; "1e999"; "-1e999"; "0x10"; "1_000";
    "\"\""; "\"abc\""; "\"a\\\"b\""; "\"a\\\\b\""; "\"\\u00e9\""; "\"\\u0100\""; "\"\\u12\"";
    "\"\\uzzzz\""; "\"\\q\""; "\"abc"; "\"ab\\"; "\"\x01\x7f\xff\""; "\"a/b\\/c\"";
    "nul"; "tru"; "falsey"; "x"; "}"; "]"; ","; ""; " "; "[1,]"; "[,1]"; "{\"a\"}";
    "{\"a\":}"; "{\"a\":1,}"; "{a:1}"; "[1 2]"; "[1,2"; "{\"k\":-12,\"v\":[3,\"x\"]}";
  ]

let test_tokens () =
  List.iter
    (fun tok ->
      List.iter
        (fun s ->
          let got = Json.parse s and want = Oracle.parse s in
          if not (same_result got want) then
            Alcotest.failf "parse %S: got %s, oracle %s" s (show got) (show want))
        [ tok; " " ^ tok ^ " "; "[" ^ tok ^ "]"; "[" ^ tok ^ ",1]"; "{\"k\":" ^ tok ^ "}" ])
    tokens

let test_deep_nesting () =
  let rec nest k v = if k = 0 then v else nest (k - 1) (Json.List [ Json.Obj [ ("k", v) ] ]) in
  let v = nest 2000 (Json.Int min_int) in
  let s = Json.to_string v in
  Alcotest.(check string) "deep rendering" (Oracle.to_string v) s;
  Alcotest.(check bool) "deep parse" true (same_result (Json.parse s) (Oracle.parse s))

let () =
  Alcotest.run "json"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_emit_matches_oracle; prop_parse_rendering; prop_parse_prefixes; prop_parse_flips ]
      );
      ( "boundaries",
        [
          Alcotest.test_case "fast-path tokens" `Quick test_tokens;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
        ] );
    ]
