(** The ThreadFuser analyzer — the framework's public entry point
    (paper Fig. 3b):

    {v traces -> DCFG -> IPDOM -> warp formation -> SIMT-stack replay
       -> efficiency / divergence report (+ warp traces) v}

    Typical use:

    {[
      let machine = Machine.create prog in
      (* ... write inputs into (Machine.memory machine) ... *)
      let run = Machine.run_workers machine ~worker ~args in
      let result = Analyzer.analyze prog run.Machine.traces in
      Fmt.pr "%a@." Metrics.pp_summary result.Analyzer.report
    ]} *)

type options = {
  warp_size : int;
  batching : Batching.t;
  sync : Emulator.sync_mode;
  reconv : Emulator.reconv_mode;
  gen_warp_trace : bool;  (** also produce the simulator trace *)
  record_timeline : bool;  (** record per-warp occupancy timelines *)
  domains : int;
      (** replay worker domains; warps are sharded across an OCaml 5
          domain pool and reduced deterministically, so any value >= 1
          yields byte-identical output (docs/performance.md).  1 =
          sequential replay in the calling domain. *)
  schedule : Par_replay.schedule;
      (** warp-to-domain scheduling policy; {!Par_replay.Static} unless
          warp costs are heavily skewed *)
  auto_domains : bool;
      (** cap [domains] by trace volume ({!Par_replay.auto_domains}) so a
          workload too small to amortize domain hand-offs replays on
          fewer domains than requested.  The reduction is
          grouping-invariant, so output is byte-identical either way;
          only the wall-clock changes.  On by default. *)
}

(** warp 32, sequential batching, lock serialization on, IPDOM
    reconvergence, no warp-trace generation, 1 replay domain (static
    schedule, auto -j cap on). *)
val default_options : options

(** One folded call stack of the replay flamegraph ({!result.flame}):
    frames root-first, weighted both by warp lock-step issues and by
    lost-lane issue slots (inactive lanes x issues under that stack). *)
type flame_stack = {
  frames : string list;  (** function names, root first *)
  fl_issues : int;
  fl_lost : int;
}

type result = {
  report : Metrics.report;
  warp_trace : Warp_trace.t option;
  timelines : Timeline.t list;  (** in warp order; empty unless recorded *)
  flame : flame_stack list;
      (** folded replay stacks, by descending issue weight *)
  dcfgs : Threadfuser_cfg.Dcfg.t array;
  ipdoms : Threadfuser_cfg.Ipdom.t array;
  options : options;
}

(** Run the full analysis pipeline over a trace set.  Trusts its input:
    malformed traces raise ({!Emulator.Emulation_error} or the typed
    [Tf_error.Error]).  Use {!analyze_checked} for untrusted traces. *)
val analyze :
  ?options:options ->
  Threadfuser_prog.Program.t ->
  Threadfuser_trace.Thread_trace.t array ->
  result

(** Result of the checked pipeline: a (possibly partial) analysis plus
    everything it refused to analyze.  [result.report.coverage] accounts
    for the quarantined threads, so partial reports are explicit. *)
type checked = {
  result : result;
  diagnostics : Threadfuser_util.Tf_error.diagnostic list;
      (** validation diagnostics (including warnings) + replay verdicts *)
  quarantined : (int * Threadfuser_util.Tf_error.diagnostic) list;
      (** (tid, why) per thread excluded from the report *)
}

(** Fuel the checked pipeline gives each replay when none is supplied
    (proportional to the trace set's event count). *)
val default_fuel : Threadfuser_trace.Thread_trace.t array -> int

(** Graceful-degradation variant of {!analyze} for untrusted traces
    (docs/robustness.md): validates every thread against the program
    ({!Threadfuser_trace.Validate}), quarantines threads that fail,
    replays the surviving warp lanes under a fuel watchdog, and
    quarantines the lanes of any warp whose replay ends in a typed
    [Timeout] / [Deadlock] / desync verdict instead of aborting.  Never
    raises on malformed trace data. *)
val analyze_checked :
  ?options:options ->
  ?fuel:int ->
  Threadfuser_prog.Program.t ->
  Threadfuser_trace.Thread_trace.t array ->
  checked

(** {1 Streaming sessions}

    Bounded-memory incremental analysis: feed {!Threadfuser_trace.Stream}
    chunks as they arrive, then {!Session.finish} for a report that is
    byte-identical to {!analyze_checked} over the same traces — at any
    chunking, any session budget and any [options.domains].  Memory is
    bounded by the per-session budget, not the trace length: ingested
    threads stay decoded in memory, charged at their heap size
    ({!Threadfuser_trace.Thread_trace.heap_bytes}), until they pass half
    the budget; then they are framed onto a temp spill file.  The
    finishing replay reads the spill file back, then the in-memory
    threads, in warp-aligned batches of roughly half a budget of decoded
    trace.  A session that never spills encodes and re-decodes nothing.
    Used by [threadfuser serve] (docs/robustness.md §8). *)
module Session : sig
  type t

  (** Default per-session budget (64 MiB). *)
  val default_budget : int

  (** [create prog] starts a session.  [budget_bytes] bounds the heap
      held by in-memory threads (they spill once they pass half of it, or
      64 KiB if that is more) and a single stream frame (at least 64 KiB);
      [tmp_dir] hosts the spill file (default: [Filename.temp_dir_name]).
      @raise Invalid_argument if [budget_bytes <= 0] or
        [options.batching] is not [Sequential] (other policies need every
        trace at once, which streaming cannot provide). *)
  val create :
    ?options:options ->
    ?fuel:int ->
    ?budget_bytes:int ->
    ?tmp_dir:string ->
    Threadfuser_prog.Program.t ->
    t

  (** Feed a chunk of a {!Threadfuser_trace.Stream}-encoded trace set
      (magic + thread frames + end frame), any chunk boundaries.  Decoded
      threads are validated and spooled immediately.  Corruption is
      recorded ({!failure}) rather than raised; chunks fed after it are
      discarded, so a hostile stream cannot grow the session. *)
  val feed : t -> ?off:int -> ?len:int -> string -> unit

  (** Ingest an already-decoded thread directly (in-process use).  The
      session holds the trace as given, not a copy, until it spills or
      the session finishes. *)
  val add_thread : t -> Threadfuser_trace.Thread_trace.t -> unit

  (** The stream's end frame has been consumed. *)
  val input_done : t -> bool

  (** The sticky stream-corruption diagnostic, if any. *)
  val failure : t -> Threadfuser_util.Tf_error.diagnostic option

  val threads_ingested : t -> int
  val bytes_ingested : t -> int

  (** Bytes currently held in memory: the decoder's reassembly buffer plus
      the heap size of the threads not yet spilled — the quantity the
      budget bounds.  A machine-produced trace may share events with
      others, so this can overstate what it keeps alive, never
      understate it. *)
  val buffered_bytes : t -> int

  (** Encoded bytes written to the spill file so far; 0 for a session
      that stayed under half its budget, which creates no file. *)
  val spilled_bytes : t -> int

  (** Rolling report over the threads ingested so far (the warp-trace and
      timeline side products are skipped).  After {!finish}, returns the
      final report. *)
  val snapshot : t -> Metrics.report

  (** Run the analysis over everything ingested.  Quarantine, coverage,
      fuel defaulting and crash fallback match {!analyze_checked} exactly;
      a stream {!failure} is prepended to [diagnostics].  Idempotent; the
      spool is released. *)
  val finish : t -> checked

  (** Release the spool and temp file.  Safe to call at any point (e.g.
      on a dropped connection); a finished session keeps its result. *)
  val close : t -> unit
end
