(* The client side of a served phase. Reply lines are stored raw with
   their arrival time and decoded after the timed window, so the client
   spends no decode work while the server is being measured. *)

type arrival = { recv : float; line : string }

type result = {
  sent : int;  (** jobs sent, a prefix of the workload's job array *)
  send_at : float array;  (** per job: when it was sent *)
  arrivals : arrival list;
  wall_s : float;  (** first send to last reply *)
}

let now = Unix.gettimeofday

(* Replies still missing after this long without any reply count as
   missing. *)
let drain_timeout = 30.0

(* The reply's id without decoding it: replies open with
   [{"v":1,"id":"...". *)
let id_of_line line =
  let key = {|"id":"|} in
  let rec find i =
    if i + String.length key > String.length line then None
    else if String.sub line i (String.length key) = key then
      Option.map
        (fun j -> String.sub line (i + String.length key) (j - i - String.length key))
        (String.index_from_opt line (i + String.length key) '"')
    else find (i + 1)
  in
  find 0

(* Traced phases record one client span per request, inline, as a real
   traced client would; that bookkeeping is what the tracing overhead
   measures. *)
let span_request ~index ~send_at ~line ~stop =
  match id_of_line line with
  | Some id -> (
      match Hashtbl.find_opt index id with
      | Some i -> ignore (Spans.record ~job:id "client.request" send_at.(i) stop)
      | None -> ())
  | None -> ()

(* A closed loop: each connection keeps [window] jobs outstanding and
   sends the next job when one of its replies arrives. Jobs go out in
   order and in whole rounds only, so every run sees the same mix of
   classes: sending stops at the round boundary nearest to [seconds].
   [at = (n, f)] calls [f] once, when the [n]th reply arrives. *)
let closed ?index ~at (conns : Server.conn array) ~window ~(lines : string array)
    ~round ~seconds =
  let n = Array.length lines in
  let send_at = Array.make n 0.0 in
  let outstanding = Array.make (Array.length conns) 0 in
  let t0 = now () in
  let next = ref 0 and stopped = ref false and eof = ref false in
  let arrivals = ref [] and last = ref t0 and progress = ref t0 in
  let replies = ref 0 in
  let enough i =
    let elapsed = now () -. t0 and rounds = float_of_int (i / round) in
    elapsed +. (elapsed /. rounds /. 2.0) >= seconds
  in
  let fill k =
    while (not !stopped) && outstanding.(k) < window do
      let i = !next in
      if i >= n || (i > 0 && i mod round = 0 && enough i) then stopped := true
      else begin
        send_at.(i) <- now ();
        Server.send conns.(k) lines.(i);
        outstanding.(k) <- outstanding.(k) + 1;
        incr next
      end
    done
  in
  Array.iteri (fun k _ -> fill k) conns;
  while (not !eof) && Array.exists (fun o -> o > 0) outstanding && now () -. !progress < drain_timeout do
    let fds =
      List.filter_map
        (fun k -> if outstanding.(k) > 0 then Some (conns.(k).Server.rfd, k) else None)
        (List.init (Array.length conns) Fun.id)
    in
    let ready, _, _ =
      try Unix.select (List.map fst fds) [] [] 1.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let recv = now () in
    List.iter
      (fun fd ->
        let k = List.assoc fd fds in
        match Server.recv conns.(k) with
        | None -> eof := true
        | Some ls ->
            List.iter
              (fun line ->
                outstanding.(k) <- outstanding.(k) - 1;
                last := recv;
                progress := recv;
                arrivals := { recv; line } :: !arrivals;
                incr replies;
                if !replies = fst at then snd at ();
                Option.iter (fun index -> span_request ~index ~send_at ~line ~stop:recv) index)
              ls;
            fill k)
      ready
  done;
  { sent = !next; send_at; arrivals = List.rev !arrivals; wall_s = !last -. t0 }
