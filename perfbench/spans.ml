(* The benchmark's own spans: kept in memory, written out once at the
   end. A span wraps one public call into a layer; spans of one job share
   its id, and a span's parent is the span that caused it (0 for none). *)

type span = { sid : int; name : string; start : float; stop : float; parent : int; job : string }

let now = Unix.gettimeofday
let all : span list ref = ref []
let last = ref 0

let record ?(parent = 0) ~job name start stop =
  incr last;
  all := { sid = !last; name; start; stop; parent; job } :: !all;
  !last

(* [timed ~job name f] runs [f sid] under a fresh span and returns its
   result with the span's duration. The span id is allocated before the
   call so that children opened inside [f] can name it as their parent;
   the record itself is appended when [f] returns. *)
let timed ?(parent = 0) ~job name f =
  incr last;
  let sid = !last in
  let t0 = now () in
  let r = f sid in
  let t1 = now () in
  all := { sid; name; start = t0; stop = t1; parent; job } :: !all;
  (r, t1 -. t0)

(* Timestamps are epoch seconds with microseconds, written by hand: the
   shared JSON emitter keeps nine significant digits, which would round
   an epoch time to tens of seconds. *)
let to_json s =
  let str x = Cert.Json.to_string (Cert.Json.Str x) in
  Printf.sprintf {|{"sid":%d,"name":%s,"start":%.6f,"end":%.6f,"parent":%d,"job":%s}|} s.sid
    (str s.name) s.start s.stop s.parent (str s.job)

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (to_json s);
          output_char oc '\n')
        (List.sort (fun a b -> compare a.sid b.sid) !all))
