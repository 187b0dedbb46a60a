type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let buf_add_escaped b s =
  Buffer.add_char b '"';
  (* Most strings (ids, digests, algorithm names) need no escaping: copy
     them in one block. *)
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
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

(* Decimal digits of [n >= 0], most significant first, straight into the
   buffer: certificates are mostly integers, and [string_of_int] would
   allocate a string for each. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.chr (Char.code '0' + (n mod 10)))

let add_int b i =
  if i >= 0 then add_digits b i
  else if i = min_int then Buffer.add_string b (string_of_int i) (* [-i] overflows *)
  else begin
    Buffer.add_char b '-';
    add_digits b (-i)
  end

(* [f] over [xs], comma-separated, by direct recursion (no closure per
   call, unlike [List.iteri]). *)
let rec emit_sep f b = function
  | [] -> ()
  | [ x ] -> f b x
  | x :: xs ->
      f b x;
      Buffer.add_char b ',';
      emit_sep f b xs

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
      else Buffer.add_string b "null"
  | Str s -> buf_add_escaped b s
  | List vs ->
      Buffer.add_char b '[';
      emit_sep emit b vs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      emit_sep emit_field b fields;
      Buffer.add_char b '}'

and emit_field b (k, v) =
  buf_add_escaped b k;
  Buffer.add_char b ':';
  emit b v

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

exception Bad of string

let is_num_char c =
  (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'

(* Minimal recursive-descent parser, sufficient for re-reading what
   [to_string] emits (journal lines, job/reply frames). Input bytes above
   0x7f pass through untouched; [\uXXXX] escapes decode to a single byte
   when < 0x100 and to '?' otherwise. The common tokens — short integers
   and strings without escapes — take fast paths that read them in place;
   every other token goes through the general code, so the accepted
   language and every error message are those of the general code. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let at c = !pos < n && s.[!pos] = c in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r')
    do
      incr pos
    done
  in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected %C" c) in
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
    let start = !pos in
    let stop = ref start in
    while !stop < n && s.[!stop] <> '"' && s.[!stop] <> '\\' do
      incr stop
    done;
    if !stop < n && s.[!stop] = '"' then begin
      pos := !stop + 1;
      String.sub s start (!stop - start)
    end
    else begin
      let b = Buffer.create (!stop - start + 16) in
      Buffer.add_substring b s start (!stop - start);
      pos := !stop;
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
    end
  in
  let parse_number () =
    let start = !pos in
    (* Fast path: [-?[0-9]{1,18}] ended by a non-number byte. Eighteen
       digits cannot overflow, and [int_of_string] would read the same
       token to the same value (leading zeros and [-0] included). *)
    let first = if at '-' then start + 1 else start in
    let i = ref first and acc = ref 0 in
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
      acc := (!acc * 10) + (Char.code s.[!i] - Char.code '0');
      incr i
    done;
    let digits = !i - first in
    if digits >= 1 && digits <= 18 && not (!i < n && is_num_char s.[!i]) then begin
      pos := !i;
      Int (if first > start then - !acc else !acc)
    end
    else begin
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> begin
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok)
        end
    end
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match s.[!pos] with
      | '"' -> Str (parse_string ())
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '[' ->
          incr pos;
          skip_ws ();
          if at ']' then begin
            incr pos;
            List []
          end
          else begin
            let items = ref [ parse_value () ] in
            skip_ws ();
            while at ',' do
              incr pos;
              items := parse_value () :: !items;
              skip_ws ()
            done;
            expect ']';
            List (List.rev !items)
          end
      | '{' ->
          incr pos;
          skip_ws ();
          if at '}' then begin
            incr pos;
            Obj []
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
            while at ',' do
              incr pos;
              fields := field () :: !fields;
              skip_ws ()
            done;
            expect '}';
            Obj (List.rev !fields)
          end
      | _ -> parse_number ()
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
      else Ok v
  | exception Bad msg -> Error msg
let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
