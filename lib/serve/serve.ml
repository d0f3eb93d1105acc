(** The [threadfuser serve] daemon: a supervised streaming analysis
    service over a Unix-domain socket (docs/robustness.md §8).

    One select loop owns every socket; worker domains own every
    [Analyzer.Session].  The loop reads client chunks into bounded
    per-session queues and hands sessions to workers, who feed the chunks
    (decode + validate + spool) and, once the stream ends, run the
    analysis and post the reply frames back through a self-pipe.

    Supervision semantics mirror [lib/runner]:
    - {e backpressure}: a session whose chunk queue is full leaves the
      read set until a worker drains it — the client's writes block on
      the kernel buffer instead of growing the daemon;
    - {e shed}: a connection over [--max-sessions] gets a typed [busy]
      reply and is closed, never silently queued;
    - {e deadlines}: a session idle past [--deadline] gets a typed
      [timeout] reply over whatever prefix it sent;
    - {e seeded backoff}: transient [accept] failures (fd exhaustion)
      mute the listener for a {!Threadfuser_runner.Backoff} delay instead
      of spinning;
    - {e crash isolation}: a session whose analysis raises is answered
      with a typed error and closed — the daemon keeps serving;
    - {e drain}: SIGTERM/SIGINT (or the [stop] flag) close the listener,
      let live sessions finish, then return cleanly. *)

module Analyzer = Threadfuser.Analyzer
module Session = Threadfuser.Analyzer.Session
module Metrics = Threadfuser.Metrics
module Program = Threadfuser_prog.Program
module Stream = Threadfuser_trace.Stream
module Serial = Threadfuser_trace.Serial
module Tf_error = Threadfuser_util.Tf_error
module Report_json = Threadfuser_report.Report_json
module Exec_fault = Threadfuser_fault.Exec_fault
module Backoff = Threadfuser_runner.Backoff
module Journal = Threadfuser_runner.Journal
module Runner = Threadfuser_runner.Runner
module Cache = Threadfuser_cache.Cache
module Crc32 = Threadfuser_util.Crc32
module Json = Threadfuser_report.Json
module Obs = Threadfuser_obs.Obs
module Prom = Threadfuser_obs.Prom
module Trace_export = Threadfuser_obs.Trace_export
module Log = Threadfuser_obs.Log

(* Service metrics (docs/observability.md).  Gauges track live daemon
   state and are never gated; counters follow the collector switch — and
   [run] turns the collector on for its lifetime, so a scrape of a live
   daemon always sees them move. *)
let g_active =
  Obs.Gauge.make "tf_serve_sessions_active" ~help:"sessions currently open"
let g_queue =
  Obs.Gauge.make "tf_serve_worker_queue_depth"
    ~help:"sessions queued for a worker domain"
let c_sessions =
  Obs.Counter.make "tf_serve_sessions_total" ~help:"sessions accepted"
let c_served =
  Obs.Counter.make "tf_serve_sessions_served_total"
    ~help:"sessions answered with an ok or degraded report"
let c_shed =
  Obs.Counter.make "tf_serve_sessions_shed_total"
    ~help:"connections shed with a busy reply at --max-sessions"
let c_failed =
  Obs.Counter.make "tf_serve_sessions_failed_total"
    ~help:"sessions that ended in an error or timeout reply"
let c_bytes =
  Obs.Counter.make "tf_serve_bytes_ingested_total"
    ~help:"stream bytes read from session sockets"
let c_scrapes =
  Obs.Counter.make "tf_serve_admin_scrapes_total"
    ~help:"admin STATS requests answered"
let h_session =
  Obs.Histogram.make "tf_serve_session_us"
    ~help:"session latency in microseconds, accept to reply posted"

(* Loop- and worker-side flight-recorder instants land on their own row. *)
let serve_track = Obs.track "serve"

type config = {
  socket_path : string;
  prog : Program.t;
  options : Analyzer.options;
  fuel : int option;
  max_sessions : int;
  session_quota : int;  (** per-session memory budget (bytes) *)
  deadline_s : float option;  (** per-session wall-clock budget *)
  workers : int;  (** analysis worker domains *)
  seed : int;  (** backoff jitter seed *)
  backoff_base_s : float;  (** base accept-retry delay *)
  fault : Exec_fault.session_plan option;  (** chaos injection *)
  tmp_dir : string option;  (** session spool directory *)
  admin_path : string option;  (** STATS admin socket; [None] disables *)
  flight_dir : string option;
      (** where poisoned/timed-out sessions dump their flight recorder;
          [None] disables the recorder *)
  cache : Cache.t option;
      (** artifact cache for clean report lookups, keyed by the stream's
          content digest; [None] disables.  Cache failures degrade to
          uncached replies — they never kill a session or the daemon. *)
}

(** Where the STATS admin socket lives relative to the session socket —
    shared with the [threadfuser stat]/[top] clients. *)
let admin_path_of socket_path =
  if Filename.check_suffix socket_path ".stats" then socket_path
  else socket_path ^ ".stats"

let default_config ~prog ~socket_path =
  {
    socket_path;
    prog;
    options = Analyzer.default_options;
    fuel = None;
    max_sessions = 8;
    session_quota = Session.default_budget;
    deadline_s = None;
    workers = 1;
    seed = 1;
    backoff_base_s = 0.05;
    fault = None;
    tmp_dir = None;
    admin_path = Some (admin_path_of socket_path);
    flight_dir = None;
    cache = None;
  }

let flight_capacity = 2048

type stats = {
  served : int;  (** sessions answered with ok/degraded *)
  failed : int;  (** sessions answered with error/timeout *)
  shed : int;  (** connections turned away busy *)
  bytes_ingested : int;
}

(* ------------------------------------------------------------------ *)
(* Per-session state.  The [mutable] fields are shared between the loop
   and one worker at a time, always under the service mutex; the
   [Session.t] itself is touched only by workers. *)

type sess_state =
  | Reading  (** loop reads chunks; worker drains them *)
  | Replying  (** reply framed; loop writes it out *)
  | Closing  (** reply flushed; close at next sweep *)

type sess = {
  id : int;  (** accept ordinal, also the chaos key *)
  fd : Unix.file_descr;
  session : Session.t option;  (** [None] for shed pseudo-sessions *)
  queue : string Queue.t;  (** chunks read but not yet fed *)
  mutable queue_bytes : int;
  mutable eof : bool;  (** peer closed (or a fault simulated it) *)
  mutable timed_out : bool;
  mutable worker_owned : bool;  (** a worker is feeding/finishing it *)
  mutable finished : bool;  (** the reply has been produced (once only) *)
  mutable state : sess_state;
  mutable reply : string;  (** framed bytes still to write *)
  mutable reply_off : int;
  mutable deadline : float;  (** absolute; [infinity] = none *)
  mutable read_cap : int option;  (** injected disconnect: bytes left *)
  mutable stalled_until : float;  (** injected writer stall *)
  mutable counted_active : bool;  (** holds a [g_active] slot *)
  accepted_wall : float;  (** wall clock at accept (stats: session age) *)
  accepted_us : float;  (** collector clock at accept (latency histogram) *)
  mutable bytes_in : int;  (** loop-side per-session ingest count *)
  mutable crc_in : int;  (** running CRC-32 of the ingested stream *)
  flight : Obs.Flight.t option;  (** per-session flight recorder *)
}

(* Flight notes from the select loop (which multiplexes sessions, so the
   per-domain tap cannot be used there): explicit, and never gated on the
   collector switch. *)
let fl_note (s : sess) ?(args = []) name =
  match s.flight with
  | None -> ()
  | Some fl -> Obs.Flight.note fl ~track:serve_track ~args name

(* A full queue takes the session out of the read set; a worker posting
   [Drained] puts it back.  One quota of queued-but-unfed chunks plus the
   session's own budget bounds the memory a client can pin. *)
let queue_high s quota = s.queue_bytes >= quota

type event = Drained of int | Finished of int * string  (* framed reply *)

(* ------------------------------------------------------------------ *)

let set_cloexec fd = try Unix.set_close_on_exec fd with Unix.Unix_error _ -> ()

let rec drain_pipe fd =
  let b = Bytes.create 64 in
  match Unix.read fd b 0 64 with
  | 64 -> drain_pipe fd
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Forged bytes for the oversize-frame injection: a thread-frame header
   whose declared payload exceeds any plausible bound. *)
let oversized_header () =
  let buf = Buffer.create 16 in
  Buffer.add_string buf Stream.magic;
  Serial.write_uint buf 0;
  Serial.write_uint buf max_int;
  Buffer.contents buf

let now () = Unix.gettimeofday ()

let monotonic_ids = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Reply construction (worker side).                                    *)

let diag_strings diags =
  List.map (fun d -> Tf_error.to_string d) diags

(* The report frame of a clean [Ok_report] reply can be served from (and
   written through to) the artifact cache, keyed on the stream's content
   digest.  A verified hit is byte-identical to fresh serialization by
   construction — the daemon is deterministic over the stream bytes — and
   any cache failure, corrupt entry included, silently degrades to the
   freshly rendered report. *)
let report_frame ?cache status rep =
  let fresh () = Report_json.to_string rep in
  match (status, cache) with
  | Protocol.Ok_report, Some (t, key) -> (
      match
        Cache.find t ~key ~kind:Cache.Report ~on_corrupt:(fun d ->
            Log.warn "corrupt cache entry quarantined"
              ~fields:[ ("error", Tf_error.to_string d) ])
      with
      | Some payload -> payload
      | None ->
          let s = fresh () in
          (try Cache.put t ~key ~kind:Cache.Report s
           with exn ->
             Log.warn "cache put failed; reply served uncached"
               ~fields:[ ("exn", Printexc.to_string exn) ]);
          s
      | exception exn ->
          Log.warn "cache lookup failed; reply served uncached"
            ~fields:[ ("exn", Printexc.to_string exn) ];
          fresh ())
  | _ -> fresh ()

let reply_of_checked ?cache ~timed_out ~truncated (c : Analyzer.checked) =
  let rep = c.Analyzer.result.Analyzer.report in
  let threads = rep.Metrics.coverage.Metrics.threads_total in
  let quarantined = List.length c.Analyzer.quarantined in
  let base =
    Protocol.reply ~threads ~quarantined
      ~diagnostics:(diag_strings c.Analyzer.diagnostics)
      ~has_report:true
  in
  let status_reply =
    if timed_out then
      {
        (base Protocol.Timeout) with
        Protocol.kind = Some (Tf_error.kind_name Tf_error.Timeout);
        message = Some "session deadline expired; report covers the prefix";
      }
    else
      match truncated with
      | Some (d : Tf_error.diagnostic) ->
          {
            (base Protocol.Error_reply) with
            Protocol.kind = Some (Tf_error.kind_name d.Tf_error.kind);
            message = Some d.Tf_error.message;
          }
      | None ->
          if quarantined > 0 || Metrics.degraded rep then base Protocol.Degraded
          else base Protocol.Ok_report
  in
  let buf = Buffer.create 4096 in
  Protocol.add_frame buf (Protocol.reply_to_json status_reply);
  Protocol.add_frame buf (report_frame ?cache status_reply.Protocol.status rep);
  (status_reply.Protocol.status, Buffer.contents buf)

let reply_of_crash exn =
  let r =
    {
      (Protocol.reply ~has_report:false Protocol.Error_reply) with
      Protocol.kind = Some (Tf_error.kind_name Tf_error.Replay_error);
      message = Some (Printexc.to_string exn);
    }
  in
  Protocol.frame (Protocol.reply_to_json r)

let busy_reply ~active ~max_sessions =
  let r =
    {
      (Protocol.reply ~has_report:false Protocol.Busy) with
      Protocol.message =
        Some
          (Printf.sprintf "%d/%d sessions active; retry later" active
             max_sessions);
    }
  in
  Buffer.contents
    (let buf = Buffer.create 128 in
     Protocol.add_frame buf (Protocol.reply_to_json r);
     buf)

let ready_reply () = Protocol.frame (Protocol.reply_to_json (Protocol.reply Protocol.Ready))

(* ------------------------------------------------------------------ *)
(* The service.                                                         *)

(* One admin (STATS) connection: read a request line, write one reply
   frame, close.  Owned entirely by the select loop. *)
type admin = {
  afd : Unix.file_descr;
  abuf : Buffer.t;  (** request bytes until the newline *)
  mutable areply : string;  (** framed reply; [""] = still reading *)
  mutable areply_off : int;
  mutable aclosed : bool;
  adeadline : float;  (** a squatting scraper is cut off, not kept *)
}

type service = {
  cfg : config;
  mutex : Mutex.t;
  cond : Condition.t;  (** signals workers: jobs or shutdown *)
  jobs : sess Queue.t;
  events : event Queue.t;
  mutable shutdown_workers : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable sessions : sess list;
  mutable admins : admin list;
  mutable n_active : int;  (** real (non-shed) open sessions *)
  mutable served : int;
  mutable failed : int;
  mutable shed_n : int;
  mutable bytes : int;
  t_start : float;  (** wall clock at [run] entry (stats: uptime) *)
}

let wake svc =
  try ignore (Unix.write svc.wake_w (Bytes.of_string "w") 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let post svc ev =
  Mutex.lock svc.mutex;
  Queue.push ev svc.events;
  Mutex.unlock svc.mutex;
  wake svc

let schedule_locked svc s =
  if (not s.worker_owned) && s.state = Reading then begin
    s.worker_owned <- true;
    Queue.push s svc.jobs;
    Obs.Gauge.set g_queue (Queue.length svc.jobs);
    Condition.signal svc.cond
  end

(* -- worker domains ----------------------------------------------------- *)

(* A poisoned or timed-out session dumps its flight recorder: the ring's
   Chrome-trace timeline plus a metrics snapshot, named by accept ordinal
   so the CLI log line and the dump correlate. *)
let dump_flight svc (s : sess) status =
  match (svc.cfg.flight_dir, s.flight) with
  | Some dir, Some fl -> (
      fl_note s
        ~args:[ ("session", Obs.itos s.id) ]
        ("session " ^ Protocol.status_name status);
      let base = Filename.concat dir (Printf.sprintf "session-%d" s.id) in
      try
        let snap = Obs.flight_snapshot fl in
        Trace_export.to_file (base ^ ".trace.json") snap;
        Prom.to_file (base ^ ".metrics.txt") snap;
        Log.warn "flight recorder dumped"
          ~fields:
            [
              ("session", string_of_int s.id);
              ("trace", base ^ ".trace.json");
            ]
      with Sys_error m ->
        Log.err "flight dump failed"
          ~fields:[ ("session", string_of_int s.id); ("error", m) ])
  | _ -> ()

(* Feed every queued chunk, then either release the session (more input
   pending) or run the analysis and post the framed reply. *)
let worker_step svc (s : sess) =
  let session = Option.get s.session in
  let finish ~timed_out =
    let truncated =
      match Session.failure session with
      | Some d -> Some d
      | None ->
          if Session.input_done session then None
          else
            Some
              (Tf_error.diag Tf_error.Corrupt_input
                 "connection closed after %d byte(s), mid-stream"
                 (Session.bytes_ingested session))
    in
    let status, framed =
      match
        Obs.span "serve_session"
          ~args:
            [
              ("session", string_of_int s.id);
              ("threads", string_of_int (Session.threads_ingested session));
            ]
          (fun () -> Session.finish session)
      with
      | checked ->
          let cache =
            match svc.cfg.cache with
            | None -> None
            | Some t ->
                (* input is complete here, so the loop-side digest is
                   final; lock anyway against a late timeout read. *)
                Mutex.lock svc.mutex;
                let crc = s.crc_in and len = s.bytes_in in
                Mutex.unlock svc.mutex;
                let key =
                  {
                    Cache.workload =
                      Printf.sprintf "serve:crc32=%08x:len=%d" crc len;
                    opt_level = 0;
                    warp_size = svc.cfg.options.Analyzer.warp_size;
                    analyzer_version = Runner.analyzer_version;
                  }
                in
                Some (t, key)
          in
          reply_of_checked ?cache ~timed_out ~truncated checked
      | exception exn ->
          (* [Session.finish] already catches non-fatal analysis failures;
             anything landing here is a daemon-side bug or a resource
             error.  The session dies typed; the daemon does not. *)
          Log.err "session analysis crashed"
            ~fields:
              [
                ("session", string_of_int s.id);
                ("exn", Printexc.to_string exn);
              ];
          (Protocol.Error_reply, reply_of_crash exn)
    in
    Session.close session;
    Mutex.lock svc.mutex;
    (match status with
    | Protocol.Ok_report | Protocol.Degraded ->
        svc.served <- svc.served + 1;
        Obs.Counter.incr c_served
    | _ ->
        svc.failed <- svc.failed + 1;
        Obs.Counter.incr c_failed);
    s.worker_owned <- false;
    Mutex.unlock svc.mutex;
    Obs.Histogram.observe h_session (Obs.now_us () -. s.accepted_us);
    (match status with
    | Protocol.Error_reply | Protocol.Timeout -> dump_flight svc s status
    | _ -> ());
    post svc (Finished (s.id, framed))
  in
  let rec feed_all () =
    let chunks, eof, timed_out =
      Mutex.lock svc.mutex;
      let cs = ref [] in
      let was_high = queue_high s svc.cfg.session_quota in
      while not (Queue.is_empty s.queue) do
        cs := Queue.pop s.queue :: !cs
      done;
      s.queue_bytes <- 0;
      let r = (List.rev !cs, s.eof, s.timed_out) in
      Mutex.unlock svc.mutex;
      if was_high && !cs <> [] then post svc (Drained s.id);
      r
    in
    List.iter (fun c -> Session.feed session c) chunks;
    let stream_done =
      Session.input_done session || Session.failure session <> None
    in
    if stream_done || eof || timed_out then begin
      (* once only: the loop may re-schedule this session in the window
         between [Finished] being posted and processed *)
      let already =
        Mutex.lock svc.mutex;
        let a = s.finished in
        if a then s.worker_owned <- false else s.finished <- true;
        Mutex.unlock svc.mutex;
        a
      in
      if not already then finish ~timed_out
    end
    else begin
      (* release or go around: more chunks may have landed while feeding *)
      Mutex.lock svc.mutex;
      let more = not (Queue.is_empty s.queue) in
      let fin = s.eof || s.timed_out in
      if not (more || fin) then s.worker_owned <- false;
      Mutex.unlock svc.mutex;
      if more || fin then feed_all ()
    end
  in
  feed_all ()

(* With a flight recorder live, tap this worker domain while it feeds and
   finishes the session so analyzer spans land in the session's ring. *)
let worker_step svc (s : sess) =
  match s.flight with
  | None -> worker_step svc s
  | Some fl -> Obs.Flight.with_attached fl (fun () -> worker_step svc s)

let worker_loop svc =
  let rec next () =
    Mutex.lock svc.mutex;
    while Queue.is_empty svc.jobs && not svc.shutdown_workers do
      Condition.wait svc.cond svc.mutex
    done;
    if svc.shutdown_workers && Queue.is_empty svc.jobs then Mutex.unlock svc.mutex
    else begin
      let s = Queue.pop svc.jobs in
      Obs.Gauge.set g_queue (Queue.length svc.jobs);
      Mutex.unlock svc.mutex;
      (try worker_step svc s
       with exn ->
         (* belt and braces: a bug in the worker machinery itself still
            answers the session and keeps the pool alive *)
         Mutex.lock svc.mutex;
         s.worker_owned <- false;
         svc.failed <- svc.failed + 1;
         Mutex.unlock svc.mutex;
         post svc (Finished (s.id, reply_of_crash exn)));
      next ()
    end
  in
  next ()

(* -- the select loop ---------------------------------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let finalize_sess svc s =
  close_quietly s.fd;
  if s.counted_active then begin
    s.counted_active <- false;
    svc.n_active <- svc.n_active - 1;
    Obs.Gauge.decr g_active
  end;
  svc.sessions <- List.filter (fun o -> o.id <> s.id) svc.sessions

let apply_fault svc (s : sess) =
  match svc.cfg.fault with
  | None -> ()
  | Some plan -> (
      match Exec_fault.decide_session plan ~session:s.id with
      | Exec_fault.Session_ok -> ()
      | Exec_fault.Disconnect n ->
          Log.warn "chaos: session will disconnect"
            ~fields:[ ("session", string_of_int s.id); ("after", string_of_int n) ];
          fl_note s ~args:[ ("after_bytes", Obs.itos n) ] "chaos: disconnect";
          s.read_cap <- Some n
      | Exec_fault.Stall_writer t ->
          Log.warn "chaos: session writer stalled"
            ~fields:[ ("session", string_of_int s.id); ("seconds", string_of_float t) ];
          fl_note s ~args:[ ("seconds", string_of_float t) ] "chaos: stall writer";
          s.stalled_until <- now () +. t
      | Exec_fault.Oversize_frame ->
          Log.warn "chaos: oversized frame injected"
            ~fields:[ ("session", string_of_int s.id) ];
          fl_note s "chaos: oversize frame";
          Option.iter
            (fun session -> Session.feed session (oversized_header ()))
            s.session)

let accept_session svc listen_fd =
  match Unix.accept ~cloexec:true listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Again
  | exception Unix.Unix_error (e, _, _) -> `Error e
  | fd, _ ->
      Unix.set_nonblock fd;
      let id = Atomic.fetch_and_add monotonic_ids 1 in
      Obs.Counter.incr c_sessions;
      if svc.n_active >= svc.cfg.max_sessions then begin
        (* shed: typed busy reply, then close.  Never counted active. *)
        Obs.Counter.incr c_shed;
        svc.shed_n <- svc.shed_n + 1;
        let s =
          {
            id;
            fd;
            session = None;
            queue = Queue.create ();
            queue_bytes = 0;
            eof = false;
            timed_out = false;
            worker_owned = false;
            finished = false;
            state = Replying;
            reply = busy_reply ~active:svc.n_active ~max_sessions:svc.cfg.max_sessions;
            reply_off = 0;
            deadline = now () +. 5.0;
            read_cap = None;
            stalled_until = 0.;
            counted_active = false;
            accepted_wall = now ();
            accepted_us = Obs.now_us ();
            bytes_in = 0;
            crc_in = 0;
            flight = None;
          }
        in
        svc.sessions <- s :: svc.sessions;
        `Shed
      end
      else begin
        let session =
          Session.create ~options:svc.cfg.options ?fuel:svc.cfg.fuel
            ~budget_bytes:svc.cfg.session_quota ?tmp_dir:svc.cfg.tmp_dir
            svc.cfg.prog
        in
        let s =
          {
            id;
            fd;
            session = Some session;
            queue = Queue.create ();
            queue_bytes = 0;
            eof = false;
            timed_out = false;
            worker_owned = false;
            finished = false;
            state = Reading;
            reply = ready_reply ();
            reply_off = 0;
            deadline =
              (match svc.cfg.deadline_s with
              | Some d -> now () +. d
              | None -> infinity);
            read_cap = None;
            stalled_until = 0.;
            counted_active = true;
            accepted_wall = now ();
            accepted_us = Obs.now_us ();
            bytes_in = 0;
            crc_in = 0;
            flight =
              (match svc.cfg.flight_dir with
              | Some _ ->
                  Some
                    (Obs.Flight.create ~capacity:flight_capacity
                       (Printf.sprintf "session-%d" id))
              | None -> None);
          }
        in
        svc.n_active <- svc.n_active + 1;
        Obs.Gauge.incr g_active;
        fl_note s "accepted";
        apply_fault svc s;
        svc.sessions <- s :: svc.sessions;
        `Accepted
      end

let read_chunk svc (s : sess) =
  let cap = match s.read_cap with Some c -> max 0 (min c 65536) | None -> 65536 in
  let b = Bytes.create (max 1 cap) in
  match Unix.read s.fd b 0 (max 1 cap) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (_, _, _) -> s.eof <- true
  | 0 ->
      s.eof <- true;
      fl_note s ~args:[ ("bytes_in", Obs.itos s.bytes_in) ] "peer closed"
  | n ->
      let chunk = Bytes.sub_string b 0 n in
      svc.bytes <- svc.bytes + n;
      s.bytes_in <- s.bytes_in + n;
      s.crc_in <- Crc32.update s.crc_in chunk 0 n;
      Obs.Counter.add c_bytes n;
      fl_note s ~args:[ ("bytes", Obs.itos n) ] "chunk";
      (match s.read_cap with
      | Some c ->
          let left = c - n in
          s.read_cap <- Some left;
          (* the injected cut: from here the peer "vanished" *)
          if left <= 0 then s.eof <- true
      | None -> ());
      Mutex.lock svc.mutex;
      Queue.push chunk s.queue;
      s.queue_bytes <- s.queue_bytes + n;
      Mutex.unlock svc.mutex

let write_reply (s : sess) =
  let len = String.length s.reply - s.reply_off in
  match
    Unix.write_substring s.fd s.reply s.reply_off len
  with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (_, _, _) ->
      (* peer went away mid-reply; nothing left to deliver *)
      s.reply_off <- String.length s.reply;
      s.state <- Closing
  | n ->
      s.reply_off <- s.reply_off + n;
      if s.reply_off >= String.length s.reply then
        s.state <- (if s.state = Replying then Closing else s.state)

(* The ready frame is written through the same path as replies: on accept
   [reply] holds it with [state = Reading], so the write set includes the
   session until the greeting is flushed. *)

let process_events svc =
  let evs =
    Mutex.lock svc.mutex;
    let l = List.of_seq (Queue.to_seq svc.events) in
    Queue.clear svc.events;
    Mutex.unlock svc.mutex;
    l
  in
  List.iter
    (fun ev ->
      match ev with
      | Drained _ -> () (* presence in the read set is recomputed per tick *)
      | Finished (id, framed) -> (
          match List.find_opt (fun s -> s.id = id) svc.sessions with
          | None -> ()
          | Some s ->
              fl_note s "reply posted";
              (* append after whatever is left of the greeting *)
              s.reply <-
                String.sub s.reply s.reply_off
                  (String.length s.reply - s.reply_off)
                ^ framed;
              s.reply_off <- 0;
              s.state <- Replying;
              (* the ingest deadline no longer applies (it may already
                 have expired — that is how timeouts get here); replace it
                 with a bounded flush window for slow readers *)
              s.deadline <- now () +. 30.))
    evs

(* -- the admin (STATS) surface ------------------------------------------ *)

(* Both documents are assembled on the select loop, which owns the session
   list and every loop-side field, so a scrape never blocks on (or races
   with) worker domains.  The few [Session.t] internals shown are plain
   immediate fields mutated by the owning worker: a cross-domain read may
   be one update stale — fine for stats — and immediates cannot tear. *)

let sess_state_name = function
  | Reading -> "reading"
  | Replying -> "replying"
  | Closing -> "closing"

let session_json svc t (s : sess) =
  let queue_bytes =
    Mutex.lock svc.mutex;
    let qb = s.queue_bytes in
    Mutex.unlock svc.mutex;
    qb
  in
  let threads, held, spilled =
    match s.session with
    | None -> (0, 0, 0)
    | Some sn ->
        ( Session.threads_ingested sn,
          Session.buffered_bytes sn,
          Session.spilled_bytes sn )
  in
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("kind", Json.String (if s.session = None then "shed" else "stream"));
      ("state", Json.String (sess_state_name s.state));
      ("age_s", Json.Float (t -. s.accepted_wall));
      ("bytes_ingested", Json.Int s.bytes_in);
      ("threads", Json.Int threads);
      ("held_bytes", Json.Int held);
      ("spilled_bytes", Json.Int spilled);
      ("budget_bytes", Json.Int svc.cfg.session_quota);
      ("queue_bytes", Json.Int queue_bytes);
      ("backpressure", Json.Bool (queue_bytes >= svc.cfg.session_quota));
      ("stalled", Json.Bool (t < s.stalled_until));
      ("eof", Json.Bool s.eof);
      ("timed_out", Json.Bool s.timed_out);
      ("worker_owned", Json.Bool s.worker_owned);
      ( "deadline_in_s",
        if s.deadline = infinity then Json.Null else Json.Float (s.deadline -. t)
      );
    ]

let stats_json svc =
  let t = now () in
  let queue_depth =
    Mutex.lock svc.mutex;
    let d = Queue.length svc.jobs in
    Mutex.unlock svc.mutex;
    d
  in
  let q p = Obs.Histogram.quantile h_session p in
  Json.Obj
    [
      ("schema", Json.String "tfserve-stats/1");
      ("uptime_s", Json.Float (t -. svc.t_start));
      ( "daemon",
        Json.Obj
          [
            ("max_sessions", Json.Int svc.cfg.max_sessions);
            ("workers", Json.Int svc.cfg.workers);
            ("session_quota", Json.Int svc.cfg.session_quota);
            ("active", Json.Int svc.n_active);
            ("served", Json.Int svc.served);
            ("failed", Json.Int svc.failed);
            ("shed", Json.Int svc.shed_n);
            ("bytes_ingested", Json.Int svc.bytes);
            ("worker_queue_depth", Json.Int queue_depth);
            ("flight_recorder", Json.Bool (svc.cfg.flight_dir <> None));
          ] );
      ( "latency_us",
        Json.Obj
          [
            ("count", Json.Int (Obs.Histogram.count h_session));
            ("p50", Json.Float (q 0.5));
            ("p95", Json.Float (q 0.95));
            ("p99", Json.Float (q 0.99));
          ] );
      ("sessions", Json.List (List.rev_map (session_json svc t) svc.sessions));
    ]

let stats_reply svc fmt =
  Obs.Counter.incr c_scrapes;
  match fmt with
  | Protocol.Stats_prom -> Protocol.frame (Prom.to_string (Obs.snapshot ()))
  | Protocol.Stats_json ->
      Protocol.frame (Json.to_compact_string (stats_json svc) ^ "\n")

let error_stats_reply msg =
  Protocol.frame
    (Json.to_compact_string (Json.Obj [ ("error", Json.String msg) ]) ^ "\n")

let admin_deadline_s = 5.0

let accept_admin svc admin_fd =
  match Unix.accept ~cloexec:true admin_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      svc.admins <-
        {
          afd = fd;
          abuf = Buffer.create 32;
          areply = "";
          areply_off = 0;
          aclosed = false;
          adeadline = now () +. admin_deadline_s;
        }
        :: svc.admins

let read_admin svc (a : admin) =
  let b = Bytes.create 256 in
  match Unix.read a.afd b 0 256 with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> a.aclosed <- true
  | 0 -> a.aclosed <- true
  | n ->
      Buffer.add_subbytes a.abuf b 0 n;
      let req = Buffer.contents a.abuf in
      if String.contains req '\n' then
        let line = List.hd (String.split_on_char '\n' req) in
        a.areply <-
          (match Protocol.parse_stats_request line with
          | Some fmt -> stats_reply svc fmt
          | None ->
              error_stats_reply
                (Printf.sprintf "unknown admin request %S" (String.trim line)))
      else if Buffer.length a.abuf > Protocol.max_admin_request then
        a.areply <- error_stats_reply "admin request too long"

let write_admin (a : admin) =
  let len = String.length a.areply - a.areply_off in
  match Unix.write_substring a.afd a.areply a.areply_off len with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> a.aclosed <- true
  | n ->
      a.areply_off <- a.areply_off + n;
      (* one request, one reply: flushing it ends the connection *)
      if a.areply_off >= String.length a.areply then a.aclosed <- true

(* -- daemon entry -------------------------------------------------------- *)

let run ?(stop = Atomic.make false) ?(on_ready = fun () -> ()) cfg =
  if cfg.max_sessions < 1 then invalid_arg "Serve.run: max_sessions must be >= 1";
  if cfg.workers < 1 then invalid_arg "Serve.run: workers must be >= 1";
  (* a peer vanishing mid-reply must surface as EPIPE, not kill the
     daemon; restored when the drain completes *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  (* the collector backs every scrape; leave it the way we found it *)
  let prev_obs = !Obs.enabled in
  Obs.set_enabled true;
  Option.iter Journal.mkdir_p cfg.flight_dir;
  let bind_unix path =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    set_cloexec fd;
    Unix.set_nonblock fd;
    (try Unix.bind fd (Unix.ADDR_UNIX path)
     with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
       (* a previous daemon left its socket behind; a live one would have
          the path locked by a connectable listener — keep it simple and
          treat the file as stale *)
       Sys.remove path;
       Unix.bind fd (Unix.ADDR_UNIX path));
    Unix.listen fd 64;
    fd
  in
  let listen_fd = bind_unix cfg.socket_path in
  let admin_fd =
    match cfg.admin_path with
    | None -> None
    | Some path -> Some (path, bind_unix path)
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let svc =
    {
      cfg;
      mutex = Mutex.create ();
      cond = Condition.create ();
      jobs = Queue.create ();
      events = Queue.create ();
      shutdown_workers = false;
      wake_r;
      wake_w;
      sessions = [];
      admins = [];
      n_active = 0;
      served = 0;
      failed = 0;
      shed_n = 0;
      bytes = 0;
      t_start = now ();
    }
  in
  let workers = List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop svc)) in
  let accept_attempt = ref 0 in
  let accept_muted_until = ref 0. in
  let listening = ref true in
  Log.info "serve: listening"
    ~fields:
      [
        ("socket", cfg.socket_path);
        ("max_sessions", string_of_int cfg.max_sessions);
        ("quota", string_of_int cfg.session_quota);
        ("workers", string_of_int cfg.workers);
      ];
  on_ready ();
  let finished () = (not !listening) && svc.sessions = [] in
  while not (finished ()) do
    if Atomic.get stop && !listening then begin
      listening := false;
      close_quietly listen_fd;
      (match admin_fd with Some (_, fd) -> close_quietly fd | None -> ());
      Log.info "serve: draining"
        ~fields:[ ("sessions", string_of_int (List.length svc.sessions)) ]
    end;
    if not (finished ()) then begin
      let t = now () in
      (* deadlines: time out readers; hard-close flushers *)
      List.iter
        (fun s ->
          if t >= s.deadline then
            match s.state with
            | Reading when not s.timed_out ->
                s.timed_out <- true;
                fl_note s
                  ~args:[ ("bytes_in", Obs.itos s.bytes_in) ]
                  "deadline expired";
                Mutex.lock svc.mutex;
                schedule_locked svc s;
                Mutex.unlock svc.mutex
            | Replying -> s.state <- Closing
            | _ -> ())
        svc.sessions;
      List.iter
        (fun s -> if s.state = Closing && not s.worker_owned then finalize_sess svc s)
        svc.sessions;
      (* admin conns: reap the answered and the squatting *)
      let dead_admin a = a.aclosed || t >= a.adeadline in
      List.iter (fun a -> if dead_admin a then close_quietly a.afd) svc.admins;
      svc.admins <- List.filter (fun a -> not (dead_admin a)) svc.admins;
      if finished () then ()
      else begin
        let readable =
          (if !listening && t >= !accept_muted_until then [ listen_fd ] else [])
          @ (match admin_fd with
            | Some (_, fd) when !listening -> [ fd ]
            | _ -> [])
          @ [ svc.wake_r ]
          @ List.filter_map
              (fun a -> if a.areply = "" then Some a.afd else None)
              svc.admins
          @ List.filter_map
              (fun s ->
                match s.state with
                | Reading
                  when (not s.eof) && (not s.timed_out)
                       && t >= s.stalled_until
                       && not (queue_high s svc.cfg.session_quota) ->
                    Some s.fd
                | Replying when s.session <> None && not s.eof ->
                    (* drain a still-talking peer so its writes cannot
                       deadlock against our reply *)
                    Some s.fd
                | _ -> None)
              svc.sessions
        in
        let writable =
          List.filter_map
            (fun s ->
              if s.reply_off < String.length s.reply && s.state <> Closing then
                Some s.fd
              else None)
            svc.sessions
          @ List.filter_map
              (fun a ->
                if a.areply <> "" && a.areply_off < String.length a.areply then
                  Some a.afd
                else None)
              svc.admins
        in
        let next_deadline =
          List.fold_left
            (fun acc s ->
              let d =
                if s.state = Reading && t < s.stalled_until then
                  min s.deadline s.stalled_until
                else s.deadline
              in
              min acc d)
            (if !listening && t < !accept_muted_until then !accept_muted_until
             else infinity)
            svc.sessions
        in
        let next_deadline =
          List.fold_left (fun acc a -> min acc a.adeadline) next_deadline
            svc.admins
        in
        let timeout =
          if Atomic.get stop then 0.1
          else if next_deadline = infinity then 1.0
          else max 0.01 (min 5.0 (next_deadline -. t))
        in
        match Unix.select readable writable [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rs, ws, _ ->
            if List.mem svc.wake_r rs then drain_pipe svc.wake_r;
            process_events svc;
            if !listening && List.mem listen_fd rs then begin
              match accept_session svc listen_fd with
              | `Accepted | `Shed | `Again -> accept_attempt := 0
              | `Error e ->
                  (* transient fd pressure: mute the listener for a
                     seeded backoff delay rather than spinning *)
                  incr accept_attempt;
                  let delay =
                    Backoff.delay_s ~base:cfg.backoff_base_s ~seed:cfg.seed
                      ~attempt:!accept_attempt
                  in
                  accept_muted_until := now () +. delay;
                  Log.warn "accept failed; backing off"
                    ~fields:
                      [
                        ("error", Unix.error_message e);
                        ("delay_s", Printf.sprintf "%.3f" delay);
                        ("attempt", string_of_int !accept_attempt);
                      ]
            end;
            (match admin_fd with
            | Some (_, fd) when !listening && List.mem fd rs ->
                accept_admin svc fd
            | _ -> ());
            List.iter
              (fun a ->
                if List.mem a.afd rs then read_admin svc a;
                if List.mem a.afd ws then write_admin a)
              svc.admins;
            List.iter
              (fun s ->
                if List.mem s.fd rs then begin
                  if s.state = Reading then begin
                    read_chunk svc s;
                    Mutex.lock svc.mutex;
                    if
                      (not (Queue.is_empty s.queue))
                      || s.eof
                    then schedule_locked svc s;
                    Mutex.unlock svc.mutex
                  end
                  else begin
                    (* replying: discard whatever the peer still sends *)
                    let b = Bytes.create 4096 in
                    match Unix.read s.fd b 0 4096 with
                    | 0 -> s.eof <- true
                    | _ -> ()
                    | exception Unix.Unix_error _ -> s.eof <- true
                  end
                end;
                if List.mem s.fd ws && s.state <> Closing then write_reply s)
              svc.sessions;
            List.iter
              (fun s ->
                if s.state = Closing && not s.worker_owned then
                  finalize_sess svc s)
              svc.sessions
      end
    end
  done;
  if !listening then begin
    close_quietly listen_fd;
    match admin_fd with Some (_, fd) -> close_quietly fd | None -> ()
  end;
  List.iter (fun a -> close_quietly a.afd) svc.admins;
  svc.admins <- [];
  (try Sys.remove cfg.socket_path with Sys_error _ -> ());
  (match admin_fd with
  | Some (path, _) -> ( try Sys.remove path with Sys_error _ -> ())
  | None -> ());
  Mutex.lock svc.mutex;
  svc.shutdown_workers <- true;
  Condition.broadcast svc.cond;
  Mutex.unlock svc.mutex;
  List.iter Domain.join workers;
  close_quietly wake_r;
  close_quietly wake_w;
  Option.iter
    (fun b -> try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
    prev_sigpipe;
  Obs.set_enabled prev_obs;
  Log.info "serve: drained"
    ~fields:
      [
        ("served", string_of_int svc.served);
        ("failed", string_of_int svc.failed);
        ("shed", string_of_int svc.shed_n);
      ];
  { served = svc.served; failed = svc.failed; shed = svc.shed_n; bytes_ingested = svc.bytes }
