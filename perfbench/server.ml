(* One `rpq serve` process under test: spawned listening on a Unix
   socket with a fresh journal at the default sync policy, driven over
   raw socket connections, scraped, and stopped. *)

module Json = Cert.Json

type conn = {
  ic : in_channel;
  oc : out_channel;
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  acc : Buffer.t;
  chunk : Bytes.t;
}

type t = { pid : int; sock : string; journal : string; log : string; setup_s : float; conn : conn }

let now = Unix.gettimeofday

let live : int list ref = ref []

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let rec retry_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let connect sock =
  let ic, oc = Runner.Transport.connect_unix sock in
  {
    ic;
    oc;
    rfd = Unix.descr_of_in_channel ic;
    wfd = Unix.descr_of_out_channel oc;
    acc = Buffer.create 65536;
    chunk = Bytes.create 65536;
  }

let close c =
  close_out_noerr c.oc;
  close_in_noerr c.ic

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + retry_eintr (fun () -> Unix.write_substring c.wfd s off (n - off)))
  in
  go 0

(* One read: the complete lines it finished, or [None] at EOF. *)
let recv c =
  match retry_eintr (fun () -> Unix.read c.rfd c.chunk 0 (Bytes.length c.chunk)) with
  | 0 -> None
  | n ->
      let lines = ref [] in
      let rec split start =
        match Bytes.index_from_opt c.chunk start '\n' with
        | Some i when i < n ->
            Buffer.add_subbytes c.acc c.chunk start (i - start);
            lines := Buffer.contents c.acc :: !lines;
            Buffer.clear c.acc;
            split (i + 1)
        | _ -> Buffer.add_subbytes c.acc c.chunk start (n - start)
      in
      split 0;
      Some (List.rev !lines)

let rec recv_line c =
  match recv c with
  | None -> None
  | Some [] -> recv_line c
  | Some [ l ] -> Some l
  | Some _ -> die "server sent more than the one line awaited"

let stats_request = {|{"stats":true,"id":"perfbench"}|}

(* Job replies that straggle in after a timed window are skipped. *)
let stats c =
  send c stats_request;
  let rec await pending =
    match pending with
    | l :: rest -> (
        match Json.parse l with
        | Ok v when Json.member "stats" v <> None ->
            Option.value ~default:(Json.Obj []) (Json.member "stats" v)
        | Ok _ -> await rest
        | Error e -> die "bad line while awaiting stats: %s" e)
    | [] -> (
        match recv c with
        | None -> die "server closed the connection before answering stats"
        | Some ls -> await ls)
  in
  await []

let argv ~rpq ~sock ~journal ~workers =
  [ rpq; "serve"; "--listen"; sock; "--journal"; journal; "--workers"; string_of_int workers ]

let reap pid = snd (retry_eintr (fun () -> Unix.waitpid [] pid))

(* Spawn and wait until the server answers a stats line: that interval
   (pool fork and journal open included) is the set-up time. *)
let start ~rpq ~dir ~workers =
  let sock = Filename.concat dir "s.sock" and journal = Filename.concat dir "journal" in
  let log = Filename.concat dir "serve.log" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ sock; journal ];
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process rpq (Array.of_list (argv ~rpq ~sock ~journal ~workers)) null logfd logfd
  in
  Unix.close null;
  Unix.close logfd;
  live := pid :: !live;
  let rec attach n =
    match connect sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            die "rpq serve exited before listening (see %s)" log);
        if n > 20_000 then die "rpq serve never listened on %s" sock;
        Unix.sleepf 0.0005;
        attach (n + 1)
  in
  let conn = attach 0 in
  ignore (stats conn);
  let setup_s = now () -. t0 in
  { pid; sock; journal; log; setup_s; conn }

(* /proc/<pid>/stat: "pid (comm) state ppid ..."; comm may hold spaces. *)
let ppid_of pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i -> (
          match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
          | _state :: ppid :: _ -> int_of_string_opt ppid
          | _ -> None))

let children pid =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map int_of_string_opt
  |> List.filter (fun p -> ppid_of p = Some pid)

let vm_hwm_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_lines
  with
  | exception Sys_error _ -> 0
  | lines ->
      List.fold_left
        (fun acc l ->
          if String.starts_with ~prefix:"VmHWM:" l then
            match String.split_on_char ' ' l |> List.filter (( <> ) "") with
            | _ :: kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
            | _ -> acc
          else acc)
        0 lines

(* Peak resident memory of the server and its workers, summed. *)
let peak_rss_mb t =
  let kb = List.fold_left (fun acc p -> acc + vm_hwm_kb p) 0 (t.pid :: children t.pid) in
  float_of_int kb /. 1024.0

let stop t =
  close t.conn;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let st = reap t.pid in
  live := List.filter (( <> ) t.pid) !live;
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ t.sock; t.journal ];
  match st with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> die "rpq serve exited %d on SIGTERM (see %s)" n t.log
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> die "rpq serve died on signal %d (see %s)" n t.log

(* Last resort on any exit path: no server, and none of its workers,
   outlives the benchmark. SIGTERM first, so that the server drains and
   reaps its own workers; SIGKILL for whatever is left after its drain
   grace. *)
let kill_all () =
  let signal p s = try Unix.kill p s with Unix.Unix_error _ -> () in
  List.iter
    (fun pid ->
      signal pid Sys.sigterm;
      let rec wait n =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when n > 0 ->
            Unix.sleepf 0.05;
            wait (n - 1)
        | 0, _ ->
            List.iter (fun k -> signal k Sys.sigkill) (children pid);
            signal pid Sys.sigkill;
            ignore (reap pid)
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      wait 140)
    !live;
  live := []
