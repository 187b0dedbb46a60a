open Proto

type entry =
  | Started of { id : string; digest : string }
  | Done of { id : string; digest : string; reply : reply }

(* The digest covers the job as originally submitted (including its full
   budget, before any retry degradation), so a resumed run only reuses a
   recorded answer when the job text is byte-identical. *)
let job_digest j = Digest.to_hex (Digest.string (job_to_json j))

(* Digest of the job with its id blanked: two clients submitting the same
   work under different ids canonicalize to the same key. The serve loop
   journals and caches under this digest; batch journals keep [job_digest]
   so resume stays strictly per-submission. *)
let canonical_digest j = job_digest { j with id = "" }

(* A [Done] payload is the rendering of
   [{"event":"done","id":ID,"job":DIGEST,"reply":REPLY}] with the reply's
   own [reply_to_json] line spliced in, so a reply already rendered for the
   client is journaled without being encoded again. *)
let done_to_json ~id ~digest reply_json =
  String.concat ""
    [
      {|{"event":"done","id":|};
      Json.to_string (Json.Str id);
      {|,"job":|};
      Json.to_string (Json.Str digest);
      {|,"reply":|};
      reply_json;
      "}";
    ]

let entry_to_json = function
  | Started { id; digest } ->
      Json.to_string
        (Json.Obj [ ("event", Json.Str "start"); ("id", Json.Str id); ("job", Json.Str digest) ])
  | Done { id; digest; reply } -> done_to_json ~id ~digest (reply_to_json reply)

let entry_of_json line =
  let ( let* ) = Result.bind in
  let* v = Json.parse line in
  let str what =
    match Option.bind (Json.member what v) Json.to_str_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" what)
  in
  let* event = str "event" in
  let* id = str "id" in
  let* digest = str "job" in
  match event with
  | "start" -> Ok (Started { id; digest })
  | "done" -> begin
      match Json.member "reply" v with
      | None -> Error "done entry without a reply"
      | Some r ->
          let* reply = reply_of_obj r in
          Ok (Done { id; digest; reply })
    end
  | other -> Error (Printf.sprintf "unknown journal event %S" other)

let append_s = Obs.Metrics.histogram "runner.journal_append_s"
let fsync_s = Obs.Metrics.histogram "journal.fsync_s"
let compact_s = Obs.Metrics.histogram "journal.compact_s"

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum  *)
(* every v2 record carries. Table-driven; OCaml's 63-bit ints hold the  *)
(* 32-bit state without masking gymnastics.                             *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* v2 on-disk format.                                                  *)
(*                                                                     *)
(*   rpq-journal-v2\n                                                  *)
(*   <len>:<crc32 hex8>:<seq>:<payload>\n      (one per record)        *)
(*                                                                     *)
(* [len] is the payload's byte length (self-delimiting framing — the    *)
(* payload is opaque), [crc] covers "<seq>:<payload>" so a corrupted    *)
(* sequence number cannot masquerade as valid, [seq] is strictly        *)
(* increasing from 1. A v1 journal (bare JSON lines from PR 3) is       *)
(* detected by the missing header and loaded read-only.                 *)
(* ------------------------------------------------------------------ *)

let header = "rpq-journal-v2"
let header_line = header ^ "\n"

let frame ~seq payload =
  let body = Printf.sprintf "%d:%s" seq payload in
  Printf.sprintf "%d:%08x:%s\n" (String.length payload) (crc32 body) body

type version = V1 | V2

type torn = Truncated | Bad_checksum

type report = {
  entries : entry list;
  version : version;
  records : int;
  bytes : int;
  dead_bytes : int;
  torn_bytes : int;
  torn : torn option;
  last_seq : int;
}

let empty_report =
  {
    entries = [];
    version = V2;
    records = 0;
    bytes = 0;
    dead_bytes = 0;
    torn_bytes = 0;
    torn = None;
    last_seq = 0;
  }

(* Dead bytes = everything a compaction would drop: [Started] records and
   every [Done] superseded by a later one for the same id (plus any torn
   tail, counted by the caller). *)
let dead_of sized =
  let last_done = Hashtbl.create 32 in
  List.iteri
    (fun i (e, _) -> match e with Done { id; _ } -> Hashtbl.replace last_done id i | Started _ -> ())
    sized;
  let dead = ref 0 in
  List.iteri
    (fun i (e, size) ->
      let live =
        match e with
        | Done { id; _ } -> Hashtbl.find_opt last_done id = Some i
        | Started _ -> false
      in
      if not live then dead := !dead + size)
    sized;
  !dead

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f')

(* Parse errors that must refuse a resume (mid-file corruption) carry a
   file:line position; line 1 is the header, record [k] is line [k+1]. *)
exception Refuse of int * string

(* Scan one v2 record starting at byte [o]. Returns [Ok (entry, size, seq)]
   or [Error torn_reason] — and a torn result, by construction, always
   consumes through end-of-file: every [Error] branch below fires only
   when the record's frame runs past [n]. Structural damage that is not a
   clean truncation raises {!Refuse}. *)
let scan_record s ~lineno ~prev_seq o =
  let n = String.length s in
  let refuse fmt = Printf.ksprintf (fun msg -> raise (Refuse (lineno, msg))) fmt in
  let scan_int what j0 =
    let j = ref j0 in
    while !j < n && is_digit s.[!j] do
      incr j
    done;
    if !j >= n then Error Truncated
    else if !j = j0 then refuse "malformed record: expected %s digits at byte %d" what j0
    else if s.[!j] <> ':' then refuse "malformed record: expected ':' after %s" what
    else if !j - j0 > 12 then refuse "absurd %s field (%d digits)" what (!j - j0)
    else Ok (int_of_string (String.sub s j0 (!j - j0)), !j + 1)
  in
  match scan_int "length" o with
  | Error t -> Error t
  | Ok (len, j) -> begin
      (* 8 lowercase hex digits, then ':'. *)
      if n - j < 9 then begin
        (* Fewer bytes than the field needs: torn iff what remains is a
           clean prefix of it (all hex — a partial write cut mid-field). *)
        let k = ref j in
        while !k < n && is_hex s.[!k] do
          incr k
        done;
        if !k = n then Error Truncated
        else refuse "malformed record: bad checksum field"
      end
      else begin
        let hex = String.sub s j 8 in
        if not (String.for_all is_hex hex) || s.[j + 8] <> ':' then
          refuse "malformed record: bad checksum field";
        let crc = int_of_string ("0x" ^ hex) in
        match scan_int "sequence" (j + 9) with
        | Error t -> Error t
        | Ok (seq, p) ->
            if n - p < len + 1 then Error Truncated
            else if s.[p + len] <> '\n' then
              refuse "malformed record: payload is not %d bytes (frame length lies)" len
            else begin
              let body = String.sub s (j + 9) (p + len - (j + 9)) in
              if crc32 body <> crc then begin
                if p + len + 1 = n then Error Bad_checksum
                else refuse "checksum mismatch (record seq %d)" seq
              end
              else if seq <= prev_seq then
                refuse "sequence regressed (%d after %d): not an append-only journal" seq
                  prev_seq
              else begin
                match entry_of_json (String.sub s p len) with
                | Error msg -> refuse "checksummed record with a bad payload: %s" msg
                | Ok e -> Ok (e, p + len + 1 - o, seq)
              end
            end
      end
    end

let parse_v2 path s =
  let n = String.length s in
  let hlen = String.length header_line in
  try
    let sized = ref [] in
    let o = ref hlen in
    let lineno = ref 2 in
    let last_seq = ref 0 in
    let torn = ref None in
    while !o < n && !torn = None do
      match scan_record s ~lineno:!lineno ~prev_seq:!last_seq !o with
      | Ok (e, size, seq) ->
          sized := (e, size) :: !sized;
          last_seq := seq;
          o := !o + size;
          incr lineno
      | Error reason -> torn := Some reason
    done;
    let sized = List.rev !sized in
    let torn_bytes = n - !o in
    Ok
      {
        entries = List.map fst sized;
        version = V2;
        records = List.length sized;
        bytes = n;
        dead_bytes = dead_of sized + torn_bytes;
        torn_bytes;
        torn = (if torn_bytes = 0 then None else !torn);
        last_seq = !last_seq;
      }
  with Refuse (lineno, msg) -> Error (Printf.sprintf "%s:%d: %s" path lineno msg)

(* v1 journals: bare JSON lines, no checksums. Byte-precise torn rule
   (this is the fixed semantics — the old reader's
   [pos_in ic >= in_channel_length ic] heuristic tolerated a malformed
   *complete* final line): torn means exactly "the file does not end in a
   newline", and the newline-less tail is the discarded crash artifact.
   Any malformed *newline-terminated* line refuses the resume. *)
let parse_v1 path s =
  let ( let* ) = Result.bind in
  let n = String.length s in
  let rec go o lineno acc =
    if o >= n then Ok (List.rev acc, 0)
    else
      match String.index_from_opt s o '\n' with
      | None -> Ok (List.rev acc, n - o)
      | Some i ->
          let line = String.sub s o (i - o) in
          if String.trim line = "" then go (i + 1) (lineno + 1) acc
          else begin
            match entry_of_json line with
            | Ok e -> go (i + 1) (lineno + 1) ((e, i - o + 1) :: acc)
            | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg)
          end
  in
  let* sized, torn_bytes = go 0 1 [] in
  Ok
    {
      entries = List.map fst sized;
      version = V1;
      records = List.length sized;
      bytes = n;
      dead_bytes = dead_of sized + torn_bytes;
      torn_bytes;
      torn = (if torn_bytes = 0 then None else Some Truncated);
      last_seq = 0;
    }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match read_file path with
  | exception Sys_error _ -> Ok empty_report
  | s ->
      let n = String.length s in
      let hlen = String.length header_line in
      if n >= hlen && String.sub s 0 hlen = header_line then parse_v2 path s
      else if n < hlen && s = String.sub header_line 0 n then
        (* A crash during journal creation tore the header itself: an
           empty v2 journal with the header prefix as the torn tail. *)
        Ok
          {
            empty_report with
            bytes = n;
            dead_bytes = n;
            torn_bytes = n;
            torn = (if n = 0 then None else Some Truncated);
          }
      else parse_v1 path s

let completed entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | Started _ -> ()
      | Done { id; digest; reply } ->
          (* Last entry wins: a re-run job (e.g. after a failed
             re-verification) supersedes its earlier answer. *)
          Hashtbl.replace tbl id (digest, reply))
    entries;
  tbl

(* ------------------------------------------------------------------ *)
(* Atomic rewrite: temp + fsync + rename. Shared by explicit            *)
(* compaction, the auto-compaction in open_append, and v1 migration.    *)
(* ------------------------------------------------------------------ *)

let fsync_dir dir =
  (* Makes the rename itself durable. Some filesystems refuse fsync on a
     directory fd — then the rename is only as durable as the mount, and
     there is nothing further we can do; don't fail the rewrite over it. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let rewrite_atomic path entries =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc header_line;
  List.iteri (fun i e -> output_string oc (frame ~seq:(i + 1) (entry_to_json e))) entries;
  flush oc;
  Unix.fsync fd;
  close_out oc;
  (* The temp file is complete and durable; the original is untouched. A
     crash here (the [journal.mid_compact] site simulates one) loses
     nothing: recovery sees the original journal, plus a stale .tmp that
     the next rewrite truncates. *)
  Resilience.Faults.crash_site "journal.mid_compact";
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

(* Compaction keeps, for every job id, only its last [Done] record (in
   first-settlement order); [Started] records are purely informational
   and are dropped — an unsettled job is simply re-dispatched on resume. *)
let compact_entries entries =
  let last_done = Hashtbl.create 32 in
  List.iteri
    (fun i e -> match e with Done { id; _ } -> Hashtbl.replace last_done id i | Started _ -> ())
    entries;
  List.filteri
    (fun i e -> match e with Done { id; _ } -> Hashtbl.find_opt last_done id = Some i | Started _ -> false)
    entries

type compact_stats = { kept : int; dropped : int; before_bytes : int; after_bytes : int }

(* ------------------------------------------------------------------ *)
(* Exclusive open for appending.                                        *)
(* ------------------------------------------------------------------ *)

type sync = Never | Per_line | Per_job

type t = {
  fd : Unix.file_descr;
  oc : out_channel;
  sync : sync;
  key : int * int;  (** (st_dev, st_ino) in the in-process lock registry *)
  mutable seq : int;
}

(* [Unix.lockf] record locks are per-process: a second open of the same
   journal from the *same* process would silently succeed, which is
   exactly the two-supervisors-one-journal bug the lock exists to catch
   (e.g. a batch resumed while a serve loop still holds the file). Keep a
   process-local registry keyed by inode alongside the kernel lock. *)
let locked : (int * int, unit) Hashtbl.t = Hashtbl.create 8

let lock_failure path reason =
  Error (Printf.sprintf "%s: journal is already locked by another supervisor (%s)" path reason)

let acquire path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let st = Unix.fstat fd in
  let key = (st.Unix.st_dev, st.Unix.st_ino) in
  if Hashtbl.mem locked key then begin
    Unix.close fd;
    lock_failure path "this process"
  end
  else begin
    match Unix.lockf fd Unix.F_TLOCK 0 with
    | () ->
        Hashtbl.replace locked key ();
        Ok (fd, key)
    | exception Unix.Unix_error ((Unix.EACCES | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        lock_failure path "flock held"
    | exception e ->
        Unix.close fd;
        raise e
  end

let release fd key =
  Hashtbl.remove locked key;
  (* Closing the descriptor drops the lockf lock. *)
  try Unix.close fd with Unix.Unix_error _ -> ()

let default_compact_ratio = 0.5

let open_append ?(sync = Per_job) ?(compact_ratio = default_compact_ratio) path =
  let ( let* ) = Result.bind in
  let* fd, key = acquire path in
  match load path with
  | Error e ->
      release fd key;
      Error e
  | Ok rep ->
      let auto_compact =
        rep.records > 0
        && rep.bytes > 0
        && float_of_int rep.dead_bytes /. float_of_int rep.bytes >= compact_ratio
      in
      let* fd, key, rep =
        if rep.version = V1 || auto_compact then begin
          (* Rewrite in place (v1 migration keeps every entry; dead-ratio
             compaction keeps only live ones), then re-acquire: the rename
             replaced the inode our lock lives on. *)
          let kept = if auto_compact then compact_entries rep.entries else rep.entries in
          match rewrite_atomic path kept with
          | () ->
              release fd key;
              let* fd, key = acquire path in
              let* rep =
                match load path with
                | Ok rep -> Ok rep
                | Error e ->
                    release fd key;
                    Error e
              in
              Ok (fd, key, rep)
          | exception e ->
              release fd key;
              raise e
        end
        else Ok (fd, key, rep)
      in
      (* Truncate the torn tail so this run's appends extend the good
         prefix instead of gluing new records onto half a record — the
         crash artifact that used to make a resumed-then-resumed journal
         unreadable. *)
      if rep.torn_bytes > 0 then Unix.ftruncate fd (rep.bytes - rep.torn_bytes);
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      let oc = Unix.out_channel_of_descr fd in
      if rep.bytes - rep.torn_bytes = 0 then output_string oc header_line;
      Ok { fd; oc; sync; key; seq = rep.last_seq }

(* The single sync point every append funnels through: flush always (the
   write-ahead property needs the line out of the userland buffer), fsync
   per policy. This is the one seam the [sync] knob controls. *)
let sync_point t ~settled =
  flush t.oc;
  let want_fsync =
    match t.sync with Never -> false | Per_line -> true | Per_job -> settled
  in
  if want_fsync then begin
    Resilience.Faults.crash_site "journal.pre_fsync";
    let t0 = Obs.Clock.now () in
    Unix.fsync t.fd;
    Obs.Metrics.observe fsync_s (Obs.Clock.now () -. t0)
  end

let append_payload t ~t0 ~settled payload =
  Resilience.Faults.crash_site "journal.pre_append";
  let seq = t.seq + 1 in
  output_string t.oc (frame ~seq payload);
  t.seq <- seq;
  sync_point t ~settled;
  Resilience.Faults.crash_site "journal.post_append";
  Obs.Metrics.observe append_s (Obs.Clock.now () -. t0)

let append t entry =
  let t0 = Obs.Clock.now () in
  append_payload t ~t0
    ~settled:(match entry with Done _ -> true | Started _ -> false)
    (entry_to_json entry)

let append_done t ~id ~digest reply_json =
  let t0 = Obs.Clock.now () in
  append_payload t ~t0 ~settled:true (done_to_json ~id ~digest reply_json)

let close t =
  flush t.oc;
  Hashtbl.remove locked t.key;
  (* close_out closes the underlying descriptor, dropping the lock. *)
  close_out t.oc

let compact path =
  let t0 = Obs.Clock.now () in
  let ( let* ) = Result.bind in
  let* fd, key = acquire path in
  Fun.protect
    ~finally:(fun () -> release fd key)
    (fun () ->
      let* rep = load path in
      let kept = compact_entries rep.entries in
      rewrite_atomic path kept;
      let after_bytes = (Unix.stat path).Unix.st_size in
      Obs.Metrics.observe compact_s (Obs.Clock.now () -. t0);
      Ok
        {
          kept = List.length kept;
          dropped = rep.records - List.length kept;
          before_bytes = rep.bytes;
          after_bytes;
        })
