module Json = Cert.Json

type format = Jsonl | Chrome

type sink = {
  oc : out_channel;
  fmt : format;
  pid : int;
  t0 : float;  (* trace epoch: timestamps are relative, so files diff cleanly *)
  mutable first : bool;  (* Chrome: separator management inside the array *)
  prefix : string;  (* non-empty for pipe sinks: every line is marked *)
  owned : bool;  (* pipe sinks borrow the worker's reply channel *)
}

let sink : sink option ref = ref None
let enabled () = Option.is_some !sink

(* ---- span identity ---- *)

(* A span context crosses process boundaries as a compact string
   ([trace_id:span_id:flag]); span ids embed the allocating pid so ids
   from a supervisor and its forked workers never collide. *)
type span_ctx = { trace_id : string; span_id : string; sampled : bool }

let ctx_to_string c =
  Printf.sprintf "%s:%s:%c" c.trace_id c.span_id (if c.sampled then '1' else '0')

let ctx_of_string s =
  match String.split_on_char ':' (String.trim s) with
  | [ tid; sid; flag ] when tid <> "" && sid <> "" && (flag = "0" || flag = "1") ->
      Some { trace_id = tid; span_id = sid; sampled = flag = "1" }
  | _ -> None

(* Current span nesting depth; tagged onto every event so consumers can
   check nesting without reconstructing the stack. *)
let depth = ref 0

(* Own trace id (set at {!configure}), the stack of open span ids, a
   remote parent installed by {!with_parent}, and a suppression flag for
   subtrees whose propagated context has the sampling bit cleared. *)
let own_trace_id = ref ""
let span_counter = ref 0
let span_stack : string list ref = ref []
let remote_parent : span_ctx option ref = ref None
let suppressed = ref false

let fresh_sid () =
  incr span_counter;
  Printf.sprintf "%x.%x" (Unix.getpid ()) !span_counter

let cur_trace_id () =
  match !remote_parent with Some c -> c.trace_id | None -> !own_trace_id

let cur_parent () =
  match !span_stack with
  | sid :: _ -> Some sid
  | [] -> ( match !remote_parent with Some c -> Some c.span_id | None -> None)

let current_ctx () =
  if !suppressed then None
  else
    match (!span_stack, !sink) with
    | sid :: _, Some _ -> Some { trace_id = cur_trace_id (); span_id = sid; sampled = true }
    | _ -> !remote_parent

(* ---- event emission ---- *)

let write_event s json =
  (match s.fmt with
  | Jsonl -> if s.prefix <> "" then output_string s.oc s.prefix
  | Chrome ->
      if s.first then s.first <- false
      else output_string s.oc ",\n");
  output_string s.oc (Json.to_string json);
  (match s.fmt with Jsonl -> output_char s.oc '\n' | Chrome -> ());
  (* One event may be the process's last act before a crash; flush per
     event so the trace is useful exactly when it matters most. *)
  flush s.oc;
  Flight.note json

let us t = t *. 1e6

let id_fields ~tid ~sid ~psid =
  (if tid = "" then [] else [ ("tid", Json.Str tid) ])
  @ (match sid with None -> [] | Some s -> [ ("sid", Json.Str s) ])
  @ match psid with None -> [] | Some p -> [ ("psid", Json.Str p) ]

(* [ts]/[dur] are relative to the sink epoch. *)
let span_json s ~name ~ts ~dur ~depth:d ~pid ~ids args =
  match s.fmt with
  | Chrome ->
      Json.Obj
        [
          ("name", Json.Str name);
          ("ph", Json.Str "X");
          ("ts", Json.Float (us ts));
          ("dur", Json.Float (us dur));
          ("pid", Json.Int pid);
          ("tid", Json.Int pid);
          ("args", Json.Obj (("depth", Json.Int d) :: (ids @ args)));
        ]
  | Jsonl ->
      Json.Obj
        ([
           ("ev", Json.Str "span");
           ("name", Json.Str name);
           ("ts", Json.Float ts);
           ("dur", Json.Float dur);
           ("depth", Json.Int d);
           ("pid", Json.Int pid);
         ]
        @ ids @ args)

let instant_json s ~name ~ts ~depth:d ~pid ~ids args =
  match s.fmt with
  | Chrome ->
      Json.Obj
        [
          ("name", Json.Str name);
          ("ph", Json.Str "i");
          ("ts", Json.Float (us ts));
          ("s", Json.Str "p");
          ("pid", Json.Int pid);
          ("tid", Json.Int pid);
          ("args", Json.Obj (("depth", Json.Int d) :: (ids @ args)));
        ]
  | Jsonl ->
      Json.Obj
        ([
           ("ev", Json.Str "instant");
           ("name", Json.Str name);
           ("ts", Json.Float ts);
           ("depth", Json.Int d);
           ("pid", Json.Int pid);
         ]
        @ ids @ args)

(* Open events exist only on pipe sinks: they let the supervisor close a
   killed worker's unfinished spans as [interrupted]. *)
let open_json ~name ~ts ~depth:d ~pid ~ids args =
  Json.Obj
    ([
       ("ev", Json.Str "open");
       ("name", Json.Str name);
       ("ts", Json.Float ts);
       ("depth", Json.Int d);
       ("pid", Json.Int pid);
     ]
    @ ids @ args)

(* A JSONL stream opens with a meta record carrying the absolute epoch,
   so files from different processes (each with its own relative clock)
   can be concatenated and re-anchored by a reader. The epoch is integer
   microseconds: a wall-clock epoch rendered through Json's %.9g float
   format would be truncated to tens of seconds, which is exactly the
   precision cross-process stitching cannot afford to lose. *)
let meta_json s =
  Json.Obj
    ([
       ("ev", Json.Str "meta");
       ("pid", Json.Int s.pid);
       ("t0", Json.Int (int_of_float (Float.round (s.t0 *. 1e6))));
     ]
    @ if !own_trace_id = "" then [] else [ ("tid", Json.Str !own_trace_id) ])

let emitting () = Option.is_some !sink && not !suppressed

let instant ?(args = []) name =
  if emitting () then
    match !sink with
    | None -> ()
    | Some s ->
        let ids = id_fields ~tid:(cur_trace_id ()) ~sid:None ~psid:(cur_parent ()) in
        write_event s
          (instant_json s ~name ~ts:(Clock.now () -. s.t0) ~depth:!depth ~pid:s.pid ~ids args)

(* Spans are emitted on close (children before parents) as Chrome "X"
   complete events / JSONL records carrying [ts], [dur], [depth] and the
   span identity ([tid]/[sid]/[psid]). *)
let with_span ?(args = []) name f =
  if not (emitting ()) then f ()
  else
    match !sink with
    | None -> f ()
    | Some s0 ->
        let start = Clock.now () in
        let d = !depth in
        let sid = fresh_sid () in
        let psid = cur_parent () in
        let ids = id_fields ~tid:(cur_trace_id ()) ~sid:(Some sid) ~psid in
        incr depth;
        span_stack := sid :: !span_stack;
        if s0.prefix <> "" then
          write_event s0 (open_json ~name ~ts:(start -. s0.t0) ~depth:d ~pid:s0.pid ~ids args);
        Fun.protect
          ~finally:(fun () ->
            decr depth;
            (match !span_stack with _ :: rest -> span_stack := rest | [] -> ());
            match !sink with
            | None -> () (* sink dropped mid-span (forked child) *)
            | Some s ->
                write_event s
                  (span_json s ~name ~ts:(start -. s.t0) ~dur:(Clock.now () -. start) ~depth:d
                     ~pid:s.pid ~ids args))
          f

(* ---- manual (non-scoped) spans ---- *)

(* A supervisor's per-job span opens at admission and closes at settle,
   across many event-loop turns — no lexical scope to wrap. The handle
   carries the identity so the job envelope can name this span as the
   worker's parent before the span has closed. *)
type handle = {
  h_name : string;
  h_sid : string;
  h_psid : string option;
  h_tid : string;
  h_depth : int;
  h_start : float;
  h_args : (string * Json.t) list;
  mutable h_open : bool;
}

let open_span ?(args = []) ?parent name =
  match !sink with
  | None -> None
  | Some _ when !suppressed -> None
  | Some _ -> begin
      match parent with
      | Some p when not p.sampled -> None
      | _ ->
          let psid, tid =
            match parent with
            | Some p -> (Some p.span_id, p.trace_id)
            | None -> (cur_parent (), cur_trace_id ())
          in
          Some
            {
              h_name = name;
              h_sid = fresh_sid ();
              h_psid = psid;
              h_tid = tid;
              h_depth = !depth;
              h_start = Clock.now ();
              h_args = args;
              h_open = true;
            }
    end

let close_span ?(args = []) h =
  if h.h_open then begin
    h.h_open <- false;
    match !sink with
    | None -> ()
    | Some s ->
        let ids = id_fields ~tid:h.h_tid ~sid:(Some h.h_sid) ~psid:h.h_psid in
        write_event s
          (span_json s ~name:h.h_name ~ts:(h.h_start -. s.t0)
             ~dur:(Clock.now () -. h.h_start) ~depth:h.h_depth ~pid:s.pid ~ids
             (h.h_args @ args))
  end

let handle_ctx h = { trace_id = h.h_tid; span_id = h.h_sid; sampled = true }

(* ---- propagated contexts ---- *)

let with_parent ctx f =
  match ctx with
  | None -> f ()
  | Some c ->
      let saved_rp = !remote_parent and saved_sup = !suppressed in
      remote_parent := Some c;
      if not c.sampled then suppressed := true;
      Fun.protect
        ~finally:(fun () ->
          remote_parent := saved_rp;
          suppressed := saved_sup)
        f

(* ---- foreign re-emission (supervisor side of the pipe sink) ---- *)

let emit_raw_span ?(args = []) ?(tid = "") ?sid ?psid ~name ~ts ~dur ~depth:d ~pid () =
  match !sink with
  | None -> ()
  | Some s ->
      write_event s (span_json s ~name ~ts ~dur ~depth:d ~pid ~ids:(id_fields ~tid ~sid ~psid) args)

let emit_raw_instant ?(args = []) ?(tid = "") ?sid ?psid ~name ~ts ~depth:d ~pid () =
  match !sink with
  | None -> ()
  | Some s ->
      write_event s (instant_json s ~name ~ts ~depth:d ~pid ~ids:(id_fields ~tid ~sid ~psid) args)

let epoch () = match !sink with None -> None | Some s -> Some s.t0

(* ---- solver stage accounting ---- *)

(* The per-job stage table filled by {!stage} under {!with_stages}. Only
   the outermost stage accumulates (a nested stage's time is already part
   of its enclosing stage), so the stage totals sum to at most the
   enclosed wall time — the property behind the "stage spans account for
   >= 90% of wall_s" acceptance check. *)
let stages : (string, float ref) Hashtbl.t option ref = ref None
let stage_depth = ref 0

let stage ?(args = []) name f =
  let collecting = Option.is_some !stages && !stage_depth = 0 in
  if not (collecting || enabled ()) then f ()
  else begin
    let start = Clock.now () in
    incr stage_depth;
    Fun.protect
      ~finally:(fun () ->
        decr stage_depth;
        if collecting then
          match !stages with
          | None -> ()
          | Some tbl ->
              let cell =
                match Hashtbl.find_opt tbl name with
                | Some r -> r
                | None ->
                    let r = ref 0.0 in
                    Hashtbl.replace tbl name r;
                    r
              in
              cell := !cell +. (Clock.now () -. start))
      (fun () -> with_span ~args:(("stage", Json.Str name) :: args) ("stage:" ^ name) f)
  end

let with_stages f =
  let tbl = Hashtbl.create 8 in
  let saved = !stages and saved_depth = !stage_depth in
  stages := Some tbl;
  stage_depth := 0;
  Fun.protect
    ~finally:(fun () ->
      stages := saved;
      stage_depth := saved_depth)
    (fun () ->
      let r = f () in
      let totals =
        Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      (r, totals))

(* ---- lifecycle ---- *)

let finish () =
  match !sink with
  | None -> ()
  | Some s ->
      sink := None;
      (match s.fmt with Chrome -> output_string s.oc "\n]\n" | Jsonl -> ());
      flush s.oc;
      if s.owned then close_out_noerr s.oc

let abandon () = sink := None

let pipe_prefix = "#t "

(* In a forked worker: keep the inherited epoch (the clocks agree — same
   host, same gettimeofday) but swap the supervisor's file sink for a
   line stream over the reply pipe, each line marked with {!pipe_prefix}
   so the pool can tell trace traffic from the reply. *)
let adopt_pipe oc =
  match !sink with
  | None -> ()
  | Some s ->
      depth := 0;
      span_stack := [];
      remote_parent := None;
      suppressed := false;
      let ns =
        {
          oc;
          fmt = Jsonl;
          pid = Unix.getpid ();
          t0 = s.t0;
          first = true;
          prefix = pipe_prefix;
          owned = false;
        }
      in
      sink := Some ns;
      write_event ns (meta_json ns)

let gen_trace_id pid t0 =
  let a = pid land 0xffffff in
  let b = int_of_float (Float.rem (t0 *. 1e3) 16777216.0) land 0xffffff in
  Printf.sprintf "%06x%06x" a b

let configure ~format path =
  finish ();
  let oc = open_out path in
  (match format with Chrome -> output_string oc "[\n" | Jsonl -> ());
  let pid = Unix.getpid () in
  let t0 = Clock.now () in
  own_trace_id := gen_trace_id pid t0;
  span_counter := 0;
  let s = { oc; fmt = format; pid; t0; first = true; prefix = ""; owned = true } in
  sink := Some s;
  match format with Jsonl -> write_event s (meta_json s) | Chrome -> ()

let format_of_path path = if Filename.check_suffix path ".jsonl" then Jsonl else Chrome
let configure_file path = configure ~format:(format_of_path path) path

let configure_from_env () =
  match Sys.getenv_opt "RPQ_TRACE" with
  | None -> ()
  | Some v -> begin
      match String.trim v with
      | "" | "off" | "none" | "0" -> ()
      | v when String.starts_with ~prefix:"chrome:" v ->
          configure ~format:Chrome (String.sub v 7 (String.length v - 7))
      | v when String.starts_with ~prefix:"jsonl:" v ->
          configure ~format:Jsonl (String.sub v 6 (String.length v - 6))
      | path -> configure_file path
    end
