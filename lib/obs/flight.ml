(* Crash flight recorder: a bounded in-memory ring of recent telemetry
   events (structured log records, span closures, counter deltas) dumped
   to disk when the process is about to die in an interesting way. The
   dump follows the journal's atomic-publish discipline — write a
   sibling temp file, then rename — so a reader never observes a torn
   dump, even when the writer is mid-crash. *)

module Json = Cert.Json

type t = {
  path : string;
  cap : int;
  ring : Json.t option array;
  mutable seq : int;  (* total events ever noted; ring slot = seq mod cap *)
}

let state : t option ref = ref None
let enabled () = Option.is_some !state
let default_cap = 512

let configure ?(cap = default_cap) path =
  if cap < 1 then invalid_arg "Flight.configure: ring capacity must be at least 1";
  state := Some { path; cap; ring = Array.make cap None; seq = 0 }

let configure_from_env () =
  match Sys.getenv_opt "RPQ_FLIGHT" with
  | None -> ()
  | Some v -> ( match String.trim v with "" | "off" | "none" | "0" -> () | path -> configure path)

let disable () = state := None

let note ev =
  match !state with
  | None -> ()
  | Some t ->
      t.ring.(t.seq mod t.cap) <- Some ev;
      t.seq <- t.seq + 1

(* The final metrics snapshot is supplied by [Metrics] at link time
   (registering here rather than calling there keeps the dependency
   arrow pointing one way: metrics -> flight). *)
let metrics_provider : (unit -> Json.t) ref = ref (fun () -> Json.Null)
let set_metrics_provider f = metrics_provider := f

let events t =
  let n = min t.seq t.cap in
  let first = t.seq - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.cap) with Some ev -> ev | None -> Json.Null)

let dump_json t ~reason =
  Json.Obj
    [
      ("v", Json.Int 1);
      ("reason", Json.Str reason);
      ("pid", Json.Int (Unix.getpid ()));
      ("ts", Json.Float (Clock.now ()));
      ("seq", Json.Int t.seq);
      ("dropped", Json.Int (max 0 (t.seq - t.cap)));
      ("events", Json.List (events t));
      ("metrics", !metrics_provider ());
    ]

(* Called on the way down (crash site, fatal signal, [Faults.Crash]):
   must never raise, and must publish atomically or not at all. *)
let dump ~reason () =
  match !state with
  | None -> ()
  | Some t -> (
      let tmp = t.path ^ ".tmp" in
      try
        let oc = open_out tmp in
        output_string oc (Json.to_string (dump_json t ~reason));
        output_char oc '\n';
        flush oc;
        close_out oc;
        Sys.rename tmp t.path
      with Sys_error _ | Out_of_memory -> ())
