(** The ThreadFuser analyzer: the public entry point tying the pipeline
    together (paper Fig. 3b).

    {[ traces --> DCFG --> IPDOM --> warp formation --> SIMT-stack
       emulation --> efficiency / divergence report (+ warp traces) ]}

    Typical use:

    {[
      let machine = Machine.create prog in
      setup (Machine.memory machine);
      let run = Machine.run_workers machine ~worker ~args in
      let result = Analyzer.analyze prog run.traces in
      Fmt.pr "%a@." Metrics.pp_summary result.report
    ]} *)

module Program = Threadfuser_prog.Program
module Thread_trace = Threadfuser_trace.Thread_trace
module Validate = Threadfuser_trace.Validate
module Serial = Threadfuser_trace.Serial
module Stream = Threadfuser_trace.Stream
module Tf_error = Threadfuser_util.Tf_error
module Dcfg = Threadfuser_cfg.Dcfg
module Ipdom = Threadfuser_cfg.Ipdom
module Obs = Threadfuser_obs.Obs
module Log = Threadfuser_obs.Log

(* Observability instruments (docs/observability.md); all no-ops until the
   collector is enabled. *)
let c_warps = Obs.Counter.make "tf_warps_replayed_total" ~help:"warps replayed"
let c_warp_failures =
  Obs.Counter.make "tf_warp_failures_total"
    ~help:"warps whose checked replay aborted"
let h_warp_replay =
  Obs.Histogram.make "tf_warp_replay_us"
    ~help:"per-warp SIMT-stack replay latency (us)"
let c_par_merge_ns =
  Obs.Counter.make "tf_par_merge_ns"
    ~help:"cumulative wall time spent merging replay shards (ns)"

type options = {
  warp_size : int;
  batching : Batching.t;
  sync : Emulator.sync_mode; (* serialize same-lock lanes or ignore locks *)
  reconv : Emulator.reconv_mode; (* IPDOM or function-exit-only (ablation) *)
  gen_warp_trace : bool; (* also produce the simulator trace *)
  record_timeline : bool; (* record per-warp occupancy timelines *)
  domains : int; (* replay domains; 1 = sequential (docs/performance.md) *)
  schedule : Par_replay.schedule; (* warp-to-domain scheduling policy *)
  auto_domains : bool;
      (* cap [domains] by trace volume ([Par_replay.auto_domains]) so tiny
         workloads don't pay hand-off costs; identical output either way *)
}

let default_options =
  {
    warp_size = 32;
    batching = Batching.Sequential;
    sync = Emulator.Serialize;
    reconv = Emulator.Ipdom_reconv;
    gen_warp_trace = false;
    record_timeline = false;
    domains = 1;
    schedule = Par_replay.Static;
    auto_domains = true;
  }

(* One folded call stack of the replay flamegraph: frames root-first,
   weighted by lock-step issues and by lost-lane issue slots. *)
type flame_stack = {
  frames : string list; (* function names, root first *)
  fl_issues : int;
  fl_lost : int;
}

type result = {
  report : Metrics.report;
  warp_trace : Warp_trace.t option;
  timelines : Timeline.t list; (* in warp order; empty unless recorded *)
  flame : flame_stack list; (* folded replay stacks, by descending issues *)
  dcfgs : Dcfg.t array;
  ipdoms : Ipdom.t array;
  options : options;
}

let build_report (options : options) prog (emu : Emulator.t) ~n_threads ~n_warps
    ~per_warp ~skipped_io ~skipped_spin ~skipped_excluded ~coverage =
  let total_instrs = emu.Emulator.thread_instrs in
  let per_function =
    let stats = ref [] in
    Array.iteri
      (fun fid issues ->
        if issues > 0 then
          stats :=
            {
              Metrics.fid;
              func_name = Program.func_name prog fid;
              issues;
              thread_instrs = emu.Emulator.func_instrs.(fid);
              efficiency =
                Metrics.efficiency ~issues
                  ~thread_instrs:emu.Emulator.func_instrs.(fid)
                  ~warp_size:options.warp_size;
              instr_share =
                (if total_instrs = 0 then 0.0
                 else
                   float_of_int emu.Emulator.func_instrs.(fid)
                   /. float_of_int total_instrs);
            }
            :: !stats)
      emu.Emulator.func_issues;
    List.sort
      (fun (a : Metrics.func_stat) (b : Metrics.func_stat) ->
        compare b.thread_instrs a.thread_instrs)
      !stats
  in
  (* hottest divergent blocks: ranked by wasted issue slots
     (issues * warp_size - instrs), keeping clearly-divergent ones *)
  let hot_blocks =
    let acc = ref [] in
    Array.iteri
      (fun fid per_block ->
        Array.iteri
          (fun bid issues ->
            if issues > 0 then begin
              let instrs = emu.Emulator.block_instrs.(fid).(bid) in
              let eff =
                Metrics.efficiency ~issues ~thread_instrs:instrs
                  ~warp_size:options.warp_size
              in
              if eff < 0.9 then
                acc :=
                  {
                    Metrics.block_fid = fid;
                    block_func = Program.func_name prog fid;
                    block_id = bid;
                    src_label =
                      (Program.func prog fid).Program.blocks.(bid).Program.src_label;
                    block_issues = issues;
                    block_instrs = instrs;
                    block_efficiency = eff;
                  }
                  :: !acc
            end)
          per_block)
      emu.Emulator.block_issues;
    List.sort
      (fun (a : Metrics.block_stat) (b : Metrics.block_stat) ->
        compare
          ((b.block_issues * options.warp_size) - b.block_instrs)
          ((a.block_issues * options.warp_size) - a.block_instrs))
      !acc
    |> List.filteri (fun i _ -> i < 10)
  in
  (* blame attribution: divergence sites by lost-lane cost, access sites
     by excess transactions (top 20 each — the Fig. 7 workflow wants the
     head of the ranking, and reports stay diffable) *)
  let src_label fid bid =
    (Program.func prog fid).Program.blocks.(bid).Program.src_label
  in
  let total_slots = emu.Emulator.issues * options.warp_size in
  let divergence_sites =
    Hashtbl.fold
      (fun (fid, bid) (c : Emulator.div_site_cell) acc ->
        if c.Emulator.sc_splits = 0 && c.Emulator.sc_lost = 0 then acc
        else
          {
            Metrics.ds_fid = fid;
            ds_func = Program.func_name prog fid;
            ds_block = bid;
            ds_label = src_label fid bid;
            ds_kind =
              (match c.Emulator.sc_kind with
              | Emulator.Branch_site -> `Branch
              | Emulator.Sync_site -> `Sync);
            ds_splits = c.Emulator.sc_splits;
            ds_lost_lanes = c.Emulator.sc_lost;
            ds_recoverable =
              (if total_slots = 0 then 0.0
               else float_of_int c.Emulator.sc_lost /. float_of_int total_slots);
          }
          :: acc)
      emu.Emulator.div_sites []
    |> List.sort (fun (a : Metrics.div_site) b ->
           (* full tiebreak to (fid, block): sites are keyed by that pair,
              so the order is total and Hashtbl iteration order (which
              differs between sequential and shard-merged tables) can
              never leak into the ranking *)
           compare
             ( b.Metrics.ds_lost_lanes,
               b.Metrics.ds_splits,
               a.Metrics.ds_fid,
               a.Metrics.ds_block )
             ( a.Metrics.ds_lost_lanes,
               a.Metrics.ds_splits,
               b.Metrics.ds_fid,
               b.Metrics.ds_block ))
    |> List.filteri (fun i _ -> i < 20)
  in
  let mem_sites =
    Hashtbl.fold
      (fun (fid, bid, ioff) (c : Coalesce.site_counters) acc ->
        let excess =
          c.Coalesce.a_stack_excess + c.Coalesce.a_heap_excess
          + c.Coalesce.a_global_excess
        in
        if excess = 0 then acc
        else
          {
            Metrics.ms_fid = fid;
            ms_func = Program.func_name prog fid;
            ms_block = bid;
            ms_ioff = ioff;
            ms_label = src_label fid bid;
            ms_issues = c.Coalesce.a_issues;
            ms_txns = c.Coalesce.a_txns;
            ms_min_txns = c.Coalesce.a_min_txns;
            ms_excess = excess;
            ms_stack_excess = c.Coalesce.a_stack_excess;
            ms_heap_excess = c.Coalesce.a_heap_excess;
            ms_global_excess = c.Coalesce.a_global_excess;
          }
          :: acc)
      emu.Emulator.coalesce.Coalesce.sites []
    |> List.sort (fun (a : Metrics.mem_site) b ->
           (* tiebreak down to ioff — the full site key — for the same
              total-order reason as divergence_sites above *)
           compare
             ( b.Metrics.ms_excess,
               a.Metrics.ms_fid,
               a.Metrics.ms_block,
               a.Metrics.ms_ioff )
             ( a.Metrics.ms_excess,
               b.Metrics.ms_fid,
               b.Metrics.ms_block,
               b.Metrics.ms_ioff ))
    |> List.filteri (fun i _ -> i < 20)
  in
  let c = emu.Emulator.coalesce in
  (* the coalescing aggregation phase: per-transaction counting happened
     inline during replay (memory track); this span covers the roll-up *)
  let total_mem_txns, total_mem_issues, stack_mem, heap_mem, global_mem =
    Obs.span "coalesce" (fun () ->
        let txns, issues = Coalesce.totals c in
        ( txns,
          issues,
          Metrics.segment_stat c.Coalesce.stack,
          Metrics.segment_stat c.Coalesce.heap,
          Metrics.segment_stat c.Coalesce.global ))
  in
  {
    Metrics.warp_size = options.warp_size;
    n_threads;
    n_warps;
    per_warp;
    hot_blocks;
    issues = emu.Emulator.issues;
    thread_instrs = total_instrs;
    simt_efficiency =
      Metrics.efficiency ~issues:emu.Emulator.issues ~thread_instrs:total_instrs
        ~warp_size:options.warp_size;
    per_function;
    divergence_sites;
    mem_sites;
    stack_mem;
    heap_mem;
    global_mem;
    total_mem_txns;
    total_mem_issues;
    skipped_io;
    skipped_spin;
    skipped_excluded;
    lock_acquires = emu.Emulator.lock_acquires;
    barrier_syncs = emu.Emulator.barrier_syncs;
    serializations = emu.Emulator.serializations;
    serialized_instrs = emu.Emulator.serialized_instrs;
    coverage;
  }

(* A warp whose replay aborted (checked pipeline only): the lanes it
   carried (as indices into the analyzed trace array) and the verdict. *)
type warp_failure = {
  fw_warp : int;
  fw_tids : int array;
  fw_diag : Tf_error.diagnostic;
}

(* Exceptions the checked pipeline must not swallow. *)
let fatal = function
  | Out_of_memory | Sys.Break -> true
  | _ -> false

let diag_of_exn ?thread = function
  | Tf_error.Error d -> d
  | Emulator.Emulation_error m ->
      Tf_error.diag ?thread Tf_error.Replay_error "%s" m
  | Serial.Corrupt m -> Tf_error.diag ?thread Tf_error.Corrupt_input "%s" m
  | e ->
      Tf_error.diag ?thread Tf_error.Replay_error "unexpected exception: %s"
        (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Shared replay machinery (batch pipeline and streaming session).

   Replay shard: one per worker domain.  The emulator (and the per-warp
   stat / failure accumulators) are private to the shard, so nothing
   shared is mutated during replay — the warp-trace builder is shared,
   but its per-warp streams are preallocated and each domain only
   touches the streams of its own warps.  Shards merge in worker order,
   and [Emulator.merge_into] is additive in every field, so any grouping
   of warps into batches reduces to byte-identical output at any domain
   count (docs/performance.md). *)

type shard = {
  sh_emu : Emulator.t;
  mutable sh_failures : warp_failure list; (* reversed *)
  mutable sh_io : int;
  mutable sh_spin : int;
  mutable sh_excluded : int;
}

let econfig_of (options : options) =
  {
    Emulator.warp_size = options.warp_size;
    sync = options.sync;
    reconv = options.reconv;
    record_timeline = options.record_timeline;
  }

let new_shard ?wt_builder prog ipdoms econfig () =
  {
    sh_emu = Emulator.create ?warp_trace:wt_builder prog ipdoms econfig;
    sh_failures = [];
    sh_io = 0;
    sh_spin = 0;
    sh_excluded = 0;
  }

(* Replay warp [warp_id] carrying lanes [tids] into [sh].  [lane_trace]
   resolves a tid (an index into the analyzed set) to its trace: direct
   array indexing in batch mode, a batch-relative lookup in streaming
   mode.  Per-warp stats land in the preallocated [stats] slot for
   [warp_id]: each warp is owned by exactly one worker, so the writes are
   domain-confined and no post-merge sort/concat is needed. *)
let shard_replay_warp ~(options : options) ?fuel ~catch sh
    ~(stats : Metrics.warp_stat option array) ~warp_id ~tids ~lane_trace =
  let emu = sh.sh_emu in
  let cursors = Array.map (fun tid -> Cursor.of_trace (lane_trace tid)) tids in
  let issues0 = emu.Emulator.issues
  and instrs0 = emu.Emulator.thread_instrs in
  let replay () =
    if not !Obs.enabled then Emulator.run_warp ?fuel emu ~warp_id cursors
    else
      Obs.span ~track:Obs.replay_track
        ~args:[ ("lanes", Obs.itos (Array.length tids)) ]
        ("warp " ^ Obs.itos warp_id)
        (fun () ->
          Obs.timed h_warp_replay (fun () ->
              let r = Emulator.run_warp ?fuel emu ~warp_id cursors in
              Obs.Counter.incr c_warps;
              r))
  in
  (match replay () with
  | () ->
      let warp_issues = emu.Emulator.issues - issues0
      and warp_instrs = emu.Emulator.thread_instrs - instrs0 in
      stats.(warp_id) <-
        Some
          {
            Metrics.warp_id;
            warp_issues;
            warp_instrs;
            warp_efficiency =
              Metrics.efficiency ~issues:warp_issues ~thread_instrs:warp_instrs
                ~warp_size:options.warp_size;
            lanes = Array.length tids;
          }
  | exception e when catch && not (fatal e) ->
      Obs.Counter.incr c_warp_failures;
      let diag = diag_of_exn e in
      Log.warn "warp replay aborted"
        ~fields:
          [
            ("warp", string_of_int warp_id);
            ("lanes", string_of_int (Array.length tids));
            ("diag", Tf_error.to_string diag);
          ];
      sh.sh_failures <-
        { fw_warp = warp_id; fw_tids = tids; fw_diag = diag }
        :: sh.sh_failures);
  Array.iter
    (fun (c : Cursor.t) ->
      sh.sh_io <- sh.sh_io + c.Cursor.skipped_io;
      sh.sh_spin <- sh.sh_spin + c.Cursor.skipped_spin;
      sh.sh_excluded <- sh.sh_excluded + c.Cursor.skipped_excluded)
    cursors

(* Deterministic shard reduction, timed: fold every later shard into the
   first, in worker order (merge-in-place over the first shard's
   preallocated accumulators), summing the scalar skip counters as we
   go.  [tf_par_merge_ns] (and the "par_merge" span) make the fan-in
   overhead visible in `threadfuser profile`. *)
let merge_shards (shards : shard list) : shard =
  Obs.span "par_merge" @@ fun () ->
  let t0 = Obs.now_us () in
  let first, rest =
    match shards with
    | s :: rest -> (s, rest)
    | [] -> assert false (* map_shards always returns >= 1 shard *)
  in
  List.iter
    (fun (r : shard) ->
      Emulator.merge_into ~dst:first.sh_emu r.sh_emu;
      first.sh_failures <- List.rev_append r.sh_failures first.sh_failures;
      first.sh_io <- first.sh_io + r.sh_io;
      first.sh_spin <- first.sh_spin + r.sh_spin;
      first.sh_excluded <- first.sh_excluded + r.sh_excluded)
    rest;
  Obs.Counter.add c_par_merge_ns
    (int_of_float ((Obs.now_us () -. t0) *. 1e3));
  first

(* Total trace events — the cheap up-front work estimate feeding the
   auto -j cap. *)
let work_of (traces : Thread_trace.t array) =
  Array.fold_left
    (fun acc (t : Thread_trace.t) -> acc + Array.length t.Thread_trace.events)
    0 traces

let effective_domains (options : options) ~items ~work =
  let requested = max 1 options.domains in
  if options.auto_domains then
    Par_replay.auto_domains ~requested ~items ~work
  else requested

(* Fold the per-call-stack accumulation into root-first named stacks. *)
let fold_flame prog (emu : Emulator.t) =
  Hashtbl.fold
    (fun stack (c : Emulator.flame_cell) acc ->
      {
        frames = List.rev_map (Program.func_name prog) stack;
        fl_issues = c.Emulator.fc_issues;
        fl_lost = c.Emulator.fc_lost;
      }
      :: acc)
    emu.Emulator.flame []
  |> List.sort (fun a b ->
         compare (b.fl_issues, b.fl_lost, a.frames)
           (a.fl_issues, a.fl_lost, b.frames))

(* The shared pipeline body.  [catch = false] re-raises warp replay
   failures (the historical [analyze] contract); [catch = true] records
   them as {!warp_failure}s and keeps replaying the remaining warps.
   [threads_total] / [pre_quarantined] / [pre_dropped] describe threads
   already quarantined by validation so the coverage fields account for
   them. *)
let run_pipeline ~(options : options) ?fuel ~catch ~threads_total
    ~pre_quarantined ~pre_dropped prog (traces : Thread_trace.t array) :
    result * warp_failure list =
  let dcfgs = Obs.span "dcfg" (fun () -> Dcfg.of_traces prog traces) in
  let ipdoms = Obs.span "ipdom" (fun () -> Ipdom.of_dcfgs dcfgs) in
  let warps =
    Obs.span "warp_formation" (fun () ->
        Batching.form options.batching ~warp_size:options.warp_size traces)
  in
  Log.debug "pipeline: warps formed"
    ~fields:
      [
        ("threads", string_of_int (Array.length traces));
        ("warps", string_of_int (Array.length warps));
        ("warp_size", string_of_int options.warp_size);
      ];
  let wt_builder =
    if options.gen_warp_trace then
      Some
        (Warp_trace.Builder.create ~warp_size:options.warp_size
           ~n_warps:(Array.length warps))
    else None
  in
  let econfig = econfig_of options in
  let domains =
    effective_domains options ~items:(Array.length warps)
      ~work:(work_of traces)
  in
  (* per-warp stats land in preallocated warp-id slots (warp-confined
     writes), so the fan-in needs no sort/concat *)
  let warp_stats : Metrics.warp_stat option array =
    Array.make (Array.length warps) None
  in
  let replay_warp sh warp_id =
    shard_replay_warp ~options ?fuel ~catch sh ~stats:warp_stats ~warp_id
      ~tids:warps.(warp_id)
      ~lane_trace:(fun tid -> traces.(tid))
  in
  let shards =
    Obs.span "replay"
      ~args:
        [
          ("warps", string_of_int (Array.length warps));
          ("domains", string_of_int domains);
          ("requested_domains", string_of_int (max 1 options.domains));
          ("schedule", Par_replay.schedule_name options.schedule);
        ]
      (fun () ->
        Par_replay.map_shards ~domains ~schedule:options.schedule
          ~n:(Array.length warps)
          ~init:(new_shard ?wt_builder prog ipdoms econfig)
          ~item:replay_warp)
  in
  (* Deterministic reduction: fold every shard into the first; per-warp
     stats are already in global warp order, and failure warp ids are
     unique, so the failure sort is total at any schedule. *)
  let merged = merge_shards shards in
  let emu = merged.sh_emu in
  let per_warp =
    Array.to_list warp_stats |> List.filter_map (fun s -> s)
  in
  let failures =
    List.sort (fun a b -> compare a.fw_warp b.fw_warp) merged.sh_failures
  in
  let skipped_io = ref merged.sh_io
  and skipped_spin = ref merged.sh_spin
  and skipped_excluded = ref merged.sh_excluded in
  let replay_quarantined =
    List.fold_left (fun acc f -> acc + Array.length f.fw_tids) 0 failures
  in
  let replay_dropped =
    List.fold_left
      (fun acc f ->
        Array.fold_left
          (fun acc tid ->
            acc + Array.length traces.(tid).Thread_trace.events)
          acc f.fw_tids)
      0 failures
  in
  let coverage =
    {
      Metrics.threads_total;
      threads_analyzed = Array.length traces - replay_quarantined;
      threads_quarantined = pre_quarantined + replay_quarantined;
      events_dropped = pre_dropped + replay_dropped;
      warps_failed = List.length failures;
    }
  in
  let report =
    build_report options prog emu ~n_threads:(Array.length traces)
      ~n_warps:(Array.length warps) ~per_warp ~skipped_io:!skipped_io
      ~skipped_spin:!skipped_spin ~skipped_excluded:!skipped_excluded ~coverage
  in
  let flame = fold_flame prog emu in
  if !Obs.enabled then begin
    List.iter
      (fun (s : Metrics.div_site) ->
        Obs.instant ~track:Obs.blame_track "divergence site"
          ~args:
            [
              ("func", s.Metrics.ds_func);
              ("block", string_of_int s.Metrics.ds_block);
              ("label", Option.value ~default:"-" s.Metrics.ds_label);
              ("kind", Metrics.site_kind_name s.Metrics.ds_kind);
              ("splits", string_of_int s.Metrics.ds_splits);
              ("lost_lane_slots", string_of_int s.Metrics.ds_lost_lanes);
            ])
      report.Metrics.divergence_sites;
    List.iter
      (fun (m : Metrics.mem_site) ->
        Obs.instant ~track:Obs.blame_track "memory site"
          ~args:
            [
              ("func", m.Metrics.ms_func);
              ("block", string_of_int m.Metrics.ms_block);
              ("instr", string_of_int m.Metrics.ms_ioff);
              ("label", Option.value ~default:"-" m.Metrics.ms_label);
              ("txns", string_of_int m.Metrics.ms_txns);
              ("min_txns", string_of_int m.Metrics.ms_min_txns);
              ("excess", string_of_int m.Metrics.ms_excess);
            ])
      report.Metrics.mem_sites
  end;
  Log.info "analysis complete"
    ~fields:
      [
        ("warps", string_of_int (Array.length warps));
        ("issues", string_of_int report.Metrics.issues);
        ("thread_instrs", string_of_int report.Metrics.thread_instrs);
        ( "simt_efficiency",
          Printf.sprintf "%.4f" report.Metrics.simt_efficiency );
        ("warp_failures", string_of_int (List.length failures));
      ];
  ( {
      report;
      warp_trace = Option.map Warp_trace.Builder.finish wt_builder;
      timelines =
        (* warp order, under any shard count (each shard accumulates its
           timelines reversed; the merged list interleaves shards) *)
        List.sort
          (fun (a : Timeline.t) b -> compare a.Timeline.warp_id b.Timeline.warp_id)
          emu.Emulator.timelines;
      flame;
      dcfgs;
      ipdoms;
      options;
    },
    failures )

(** Run the full analysis pipeline over a trace set. *)
let analyze ?(options = default_options) prog (traces : Thread_trace.t array) :
    result =
  fst
    (run_pipeline ~options ~catch:false ~threads_total:(Array.length traces)
       ~pre_quarantined:0 ~pre_dropped:0 prog traces)

(* ------------------------------------------------------------------ *)
(* The checked pipeline: validate -> quarantine -> bounded replay.      *)

type checked = {
  result : result;
  diagnostics : Tf_error.diagnostic list;
  quarantined : (int * Tf_error.diagnostic) list;
}

let bounds_of_program prog =
  {
    Validate.func_count = Program.func_count prog;
    block_count = (fun f -> Program.block_count (Program.func prog f));
    block_instrs =
      Some
        (fun f b ->
          Array.length (Program.func prog f).Program.blocks.(b).Program.instrs);
  }

(* Every replay step consumes at least one event across the warp in any
   non-pathological schedule; the factor leaves room for stack churn
   (pushes, pops, reconvergence retargets) on damaged traces. *)
let default_fuel (traces : Thread_trace.t array) =
  let events =
    Array.fold_left
      (fun acc (t : Thread_trace.t) -> acc + Array.length t.Thread_trace.events)
      0 traces
  in
  (64 * events) + 4096

(** Like {!analyze}, but fail typed, bounded and partial-result-capable:
    threads that fail validation are quarantined up front, every warp
    replays under a fuel watchdog, and a warp whose replay aborts
    quarantines its lanes instead of aborting the analysis.  The report's
    coverage fields account for everything dropped. *)
let analyze_checked ?(options = default_options) ?fuel prog
    (traces : Thread_trace.t array) : checked =
  let threads_total = Array.length traces in
  let diagnostics, bad = Validate.quarantine ~bounds:(bounds_of_program prog) traces in
  let bad_tids = List.map fst bad in
  let survivors =
    Array.of_list
      (List.filter
         (fun (t : Thread_trace.t) ->
           not (List.mem t.Thread_trace.tid bad_tids))
         (Array.to_list traces))
  in
  let pre_quarantined = threads_total - Array.length survivors in
  let pre_dropped =
    Array.fold_left
      (fun acc (t : Thread_trace.t) ->
        if List.mem t.Thread_trace.tid bad_tids then
          acc + Array.length t.Thread_trace.events
        else acc)
      0 traces
  in
  let fuel = match fuel with Some f -> f | None -> default_fuel survivors in
  let run survivors ~pre_quarantined ~pre_dropped =
    run_pipeline ~options ~fuel ~catch:true ~threads_total ~pre_quarantined
      ~pre_dropped prog survivors
  in
  match run survivors ~pre_quarantined ~pre_dropped with
  | result, failures ->
      let replay_quar =
        List.concat_map
          (fun f ->
            Array.to_list f.fw_tids
            |> List.map (fun idx ->
                   (survivors.(idx).Thread_trace.tid, f.fw_diag)))
          failures
      in
      {
        result;
        diagnostics =
          diagnostics @ List.map (fun f -> f.fw_diag) failures;
        quarantined = bad @ replay_quar;
      }
  | exception e when not (fatal e) ->
      (* DCFG / IPDOM / warp formation blew up despite validation: the
         whole trace set is quarantined and the report is empty-but-typed. *)
      let d = diag_of_exn e in
      let all_events =
        Array.fold_left
          (fun acc (t : Thread_trace.t) ->
            acc + Array.length t.Thread_trace.events)
          0 traces
      in
      let result, _ =
        run_pipeline ~options ~fuel ~catch:true ~threads_total
          ~pre_quarantined:threads_total ~pre_dropped:all_events prog [||]
      in
      {
        result;
        diagnostics = diagnostics @ [ d ];
        quarantined =
          bad
          @ (Array.to_list survivors
            |> List.map (fun (t : Thread_trace.t) -> (t.Thread_trace.tid, d)));
      }

(* ------------------------------------------------------------------ *)
(* Streaming sessions: bounded-memory incremental analysis.            *)

module Session = struct
  let default_budget = 64 * 1024 * 1024

  type phase = Ingest | Finished of checked | Closed

  type t = {
    s_options : options;
    s_fuel : int option;
    s_budget : int;
    s_max_frame : int;
    s_prog : Program.t;
    s_bounds : Validate.bounds;
    s_dec : Stream.t;
    s_tmp_dir : string option;
    (* The spool: every ingested thread in ingest order.  The newest are
       kept decoded in [s_tail]; once the tail's heap size passes half the
       budget it is framed in [Stream]'s format (no magic) onto a temp
       file, which holds the older threads.  Threads with validation
       errors are spooled too: quarantine is by tid and a clean thread
       sharing a tid with a later bad one must still be excluded, exactly
       as [Validate.quarantine] does. *)
    mutable s_tail : Thread_trace.t list; (* newest first *)
    mutable s_tail_bytes : int; (* [Thread_trace.heap_bytes] of [s_tail] *)
    mutable s_file : (string * out_channel) option;
    mutable s_spilled : int; (* encoded bytes written to the spill file *)
    (* Per-thread metadata, newest first (O(threads), not O(bytes)). *)
    mutable s_n : int;
    mutable s_tids : int list;
    mutable s_seqs : int list list; (* barrier sequences, for the vote *)
    mutable s_events : int list; (* event count per thread *)
    mutable s_sizes : int list; (* heap bytes per thread *)
    mutable s_diags : (int * Tf_error.diagnostic list) list;
        (* (ingest index, per-thread diagnostics newest-first); only
           threads that produced any *)
    mutable s_failure : Tf_error.diagnostic option;
    mutable s_done : bool;
    mutable s_phase : phase;
  }

  let create ?(options = default_options) ?fuel
      ?(budget_bytes = default_budget) ?tmp_dir prog =
    if budget_bytes <= 0 then
      invalid_arg "Analyzer.Session.create: budget_bytes must be positive";
    if options.batching <> Batching.Sequential then
      invalid_arg
        "Analyzer.Session.create: streaming analysis requires Sequential \
         batching (other policies need every trace at once)";
    let max_frame = max budget_bytes 65536 in
    {
      s_options = options;
      s_fuel = fuel;
      s_budget = budget_bytes;
      s_max_frame = max_frame;
      s_prog = prog;
      s_bounds = bounds_of_program prog;
      s_dec = Stream.create ~max_frame_bytes:max_frame ();
      s_tmp_dir = tmp_dir;
      s_tail = [];
      s_tail_bytes = 0;
      s_file = None;
      s_spilled = 0;
      s_n = 0;
      s_tids = [];
      s_seqs = [];
      s_events = [];
      s_sizes = [];
      s_diags = [];
      s_failure = None;
      s_done = false;
      s_phase = Ingest;
    }

  let buffered_bytes t = Stream.buffered t.s_dec + t.s_tail_bytes
  let spilled_bytes t = t.s_spilled
  let bytes_ingested t = Stream.bytes_fed t.s_dec
  let threads_ingested t = t.s_n
  let input_done t = t.s_done
  let failure t = t.s_failure

  (* The in-memory spool tail stays under half the budget; the other half
     covers the decoder's reassembly buffer and the replay batch. *)
  let spill_at t = max 65536 (t.s_budget / 2)

  (* Frame the tail onto the spill file, oldest first, through a buffer
     written out whenever it reaches 64 KiB. *)
  let spill t =
    let oc =
      match t.s_file with
      | Some (_, oc) -> oc
      | None ->
          let path =
            Filename.temp_file ?temp_dir:t.s_tmp_dir "tfsession" ".spool"
          in
          let oc = open_out_bin path in
          t.s_file <- Some (path, oc);
          oc
    in
    let buf = Buffer.create 65536 in
    let write () =
      Buffer.output_buffer oc buf;
      t.s_spilled <- t.s_spilled + Buffer.length buf;
      Buffer.clear buf
    in
    List.iter
      (fun tr ->
        Stream.add_thread buf tr;
        if Buffer.length buf >= 65536 then write ())
      (List.rev t.s_tail);
    write ();
    t.s_tail <- [];
    t.s_tail_bytes <- 0

  let require_ingest t what =
    match t.s_phase with
    | Ingest -> ()
    | Finished _ | Closed ->
        invalid_arg
          (Printf.sprintf "Analyzer.Session.%s: session already %s" what
             (match t.s_phase with Closed -> "closed" | _ -> "finished"))

  let add_thread t (trace : Thread_trace.t) =
    require_ingest t "add_thread";
    t.s_tids <- trace.Thread_trace.tid :: t.s_tids;
    t.s_seqs <- Validate.barrier_seq trace :: t.s_seqs;
    t.s_events <- Array.length trace.Thread_trace.events :: t.s_events;
    (let diags = Validate.thread ~bounds:t.s_bounds trace in
     if diags <> [] then t.s_diags <- (t.s_n, diags) :: t.s_diags);
    let bytes = Thread_trace.heap_bytes trace in
    t.s_sizes <- bytes :: t.s_sizes;
    t.s_tail <- trace :: t.s_tail;
    t.s_tail_bytes <- t.s_tail_bytes + bytes;
    t.s_n <- t.s_n + 1;
    if t.s_tail_bytes > spill_at t then spill t

  let feed t ?off ?len chunk =
    require_ingest t "feed";
    if t.s_failure = None then begin
      Stream.feed t.s_dec ?off ?len chunk;
      let continue_ = ref true in
      while !continue_ do
        match Stream.next t.s_dec with
        | Stream.Need_more -> continue_ := false
        | Stream.Frame tr -> add_thread t tr
        | Stream.End_of_stream ->
            t.s_done <- true;
            (* loop once more only if trailing bytes remain: the decoder
               reports them as a (sticky) protocol error *)
            if Stream.buffered t.s_dec = 0 then continue_ := false
        | Stream.Corrupt d ->
            t.s_failure <- Some d;
            continue_ := false
      done
    end

  (* Iterate the spooled threads in ingest order: the spill file (oldest),
     re-decoded through a bounded decoder that holds one frame plus one
     chunk, then the in-memory tail as it is. *)
  let iter_spool t f =
    let dec =
      Stream.create ~max_frame_bytes:t.s_max_frame ~expect_magic:false ()
    in
    let drain () =
      let continue_ = ref true in
      while !continue_ do
        match Stream.next dec with
        | Stream.Need_more -> continue_ := false
        | Stream.Frame tr -> f tr
        | Stream.End_of_stream | Stream.Corrupt _ ->
            (* the spill file is written only by [spill]: well-formed
               thread frames, no end frame *)
            assert false
      done
    in
    (match t.s_file with
    | Some (path, oc) ->
        flush oc;
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let chunk = Bytes.create 65536 in
            let rec go () =
              let n = input ic chunk 0 (Bytes.length chunk) in
              if n > 0 then begin
                Stream.feed dec ~len:n (Bytes.unsafe_to_string chunk);
                drain ();
                go ()
              end
            in
            go ())
    | None -> ());
    List.iter f (List.rev t.s_tail)

  (* The streaming equivalent of [analyze_checked]'s body.  Barrier vote
     over the retained sequences -> quarantine by tid (exactly
     [Validate.quarantine]'s rule) -> pass A re-feeds surviving spool
     frames to a DCFG builder in ingest order (identical insertion order
     to [Dcfg.of_traces], hence identical graphs and IPDOMs) -> pass B
     replays Sequential warps in warp-aligned bounded batches, merging
     every batch's shards into a running accumulator.
     [Emulator.merge_into] is additive in every field and every ranking
     [build_report] emits is totally ordered, so the result is
     byte-identical to the batch pipeline at any chunking, batch size and
     domain count. *)
  let analyze_ingested t ~(options : options) : checked =
    let prog = t.s_prog in
    let n_total = t.s_n in
    let tids = Array.of_list (List.rev t.s_tids) in
    let seqs = Array.of_list (List.rev t.s_seqs) in
    let evs = Array.of_list (List.rev t.s_events) in
    let sizes = Array.of_list (List.rev t.s_sizes) in
    (* diagnostics in [Validate.all]'s order: per thread in ingest order
       (newest-first within a thread), then the barrier vote *)
    let barrier_diags = Validate.barrier_check ~tids seqs in
    let diagnostics =
      List.concat_map (fun (_, ds) -> ds) (List.rev t.s_diags) @ barrier_diags
    in
    (* quarantine by tid with the first matching Error in list order *)
    let first_err : (int, Tf_error.diagnostic) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (d : Tf_error.diagnostic) ->
        match d.Tf_error.thread with
        | Some tid when d.Tf_error.severity = Tf_error.Error ->
            if not (Hashtbl.mem first_err tid) then Hashtbl.add first_err tid d
        | _ -> ())
      diagnostics;
    let bad =
      Array.to_list tids
      |> List.filter_map (fun tid ->
             Hashtbl.find_opt first_err tid |> Option.map (fun d -> (tid, d)))
    in
    let keep = Array.map (fun tid -> not (Hashtbl.mem first_err tid)) tids in
    let surv_tids = ref [] and surv_events = ref [] in
    Array.iteri
      (fun i k ->
        if k then begin
          surv_tids := tids.(i) :: !surv_tids;
          surv_events := evs.(i) :: !surv_events
        end)
      keep;
    let surv_tids = Array.of_list (List.rev !surv_tids) in
    let surv_events = Array.of_list (List.rev !surv_events) in
    let n_surv = Array.length surv_tids in
    let pre_quarantined = n_total - n_surv in
    let pre_dropped =
      let acc = ref 0 in
      Array.iteri (fun i k -> if not k then acc := !acc + evs.(i)) keep;
      !acc
    in
    let fuel =
      match t.s_fuel with
      | Some f -> f
      | None -> (64 * Array.fold_left ( + ) 0 surv_events) + 4096
    in
    let run () =
      (* pass A: DCFG over survivors in ingest order *)
      let builder = Dcfg.Builder.create prog in
      Obs.span "dcfg" (fun () ->
          let idx = ref 0 in
          iter_spool t (fun tr ->
              if keep.(!idx) then Dcfg.Builder.feed builder tr;
              incr idx));
      let dcfgs = Dcfg.Builder.finish builder in
      let ipdoms = Obs.span "ipdom" (fun () -> Ipdom.of_dcfgs dcfgs) in
      let ws = options.warp_size in
      let n_warps = (n_surv + ws - 1) / ws in
      let wt_builder =
        if options.gen_warp_trace then
          Some (Warp_trace.Builder.create ~warp_size:ws ~n_warps)
        else None
      in
      let econfig = econfig_of options in
      let requested_domains = max 1 options.domains in
      let acc = Emulator.create prog ipdoms econfig in
      let warp_stats : Metrics.warp_stat option array =
        Array.make n_warps None
      in
      let failures = ref [] in
      let io = ref 0 and spin = ref 0 and excluded = ref 0 in
      (* pass B: warp-aligned batches of roughly half a budget of decoded
         trace (heap bytes), replayed over the domain pool *)
      let batch_target = max 65536 (t.s_budget / 2) in
      let batch = ref [] and batch_n = ref 0 and batch_bytes = ref 0 in
      let base = ref 0 in
      (* survivor index of the batch's first lane *)
      let flush_batch () =
        if !batch_n > 0 then begin
          let traces_b = Array.of_list (List.rev !batch) in
          let nb = !batch_n in
          batch := [];
          batch_n := 0;
          batch_bytes := 0;
          let warps_b = (nb + ws - 1) / ws in
          let base_warp = !base / ws in
          let replay sh i =
            let lo = i * ws in
            let hi = min nb (lo + ws) in
            let tids_w = Array.init (hi - lo) (fun k -> !base + lo + k) in
            shard_replay_warp ~options ~fuel ~catch:true sh
              ~stats:warp_stats ~warp_id:(base_warp + i) ~tids:tids_w
              ~lane_trace:(fun g -> traces_b.(g - !base))
          in
          let domains =
            effective_domains options ~items:warps_b ~work:(work_of traces_b)
          in
          let shards =
            Par_replay.map_shards ~domains ~schedule:options.schedule
              ~n:warps_b
              ~init:(new_shard ?wt_builder prog ipdoms econfig)
              ~item:replay
          in
          let merged = merge_shards shards in
          Emulator.merge_into ~dst:acc merged.sh_emu;
          failures := List.rev_append merged.sh_failures !failures;
          io := !io + merged.sh_io;
          spin := !spin + merged.sh_spin;
          excluded := !excluded + merged.sh_excluded;
          base := !base + nb
        end
      in
      Obs.span "replay"
        ~args:
          [
            ("warps", string_of_int n_warps);
            ("domains", string_of_int requested_domains);
            ("schedule", Par_replay.schedule_name options.schedule);
          ]
        (fun () ->
          let idx = ref 0 in
          iter_spool t (fun tr ->
              let i = !idx in
              incr idx;
              if keep.(i) then begin
                batch := tr :: !batch;
                incr batch_n;
                batch_bytes := !batch_bytes + sizes.(i);
                if !batch_n mod ws = 0 && !batch_bytes >= batch_target then
                  flush_batch ()
              end);
          flush_batch ());
      let per_warp =
        Array.to_list warp_stats |> List.filter_map (fun s -> s)
      in
      let failures =
        List.sort (fun a b -> compare a.fw_warp b.fw_warp) !failures
      in
      let replay_quarantined =
        List.fold_left (fun a f -> a + Array.length f.fw_tids) 0 failures
      in
      let replay_dropped =
        List.fold_left
          (fun a f ->
            Array.fold_left (fun a idx -> a + surv_events.(idx)) a f.fw_tids)
          0 failures
      in
      let coverage =
        {
          Metrics.threads_total = n_total;
          threads_analyzed = n_surv - replay_quarantined;
          threads_quarantined = pre_quarantined + replay_quarantined;
          events_dropped = pre_dropped + replay_dropped;
          warps_failed = List.length failures;
        }
      in
      let report =
        build_report options prog acc ~n_threads:n_surv ~n_warps ~per_warp
          ~skipped_io:!io ~skipped_spin:!spin ~skipped_excluded:!excluded
          ~coverage
      in
      ( {
          report;
          warp_trace = Option.map Warp_trace.Builder.finish wt_builder;
          timelines =
            List.sort
              (fun (a : Timeline.t) b ->
                compare a.Timeline.warp_id b.Timeline.warp_id)
              acc.Emulator.timelines;
          flame = fold_flame prog acc;
          dcfgs;
          ipdoms;
          options;
        },
        failures )
    in
    match run () with
    | result, failures ->
        let replay_quar =
          List.concat_map
            (fun f ->
              Array.to_list f.fw_tids
              |> List.map (fun idx -> (surv_tids.(idx), f.fw_diag)))
            failures
        in
        {
          result;
          diagnostics = diagnostics @ List.map (fun f -> f.fw_diag) failures;
          quarantined = bad @ replay_quar;
        }
    | exception e when not (fatal e) ->
        (* mirror [analyze_checked]'s whole-set quarantine fallback *)
        let d = diag_of_exn e in
        let all_events = Array.fold_left ( + ) 0 evs in
        let result, _ =
          run_pipeline ~options ~fuel ~catch:true ~threads_total:n_total
            ~pre_quarantined:n_total ~pre_dropped:all_events prog [||]
        in
        {
          result;
          diagnostics = diagnostics @ [ d ];
          quarantined =
            bad @ (Array.to_list surv_tids |> List.map (fun tid -> (tid, d)));
        }

  let snapshot t : Metrics.report =
    match t.s_phase with
    | Closed -> invalid_arg "Analyzer.Session.snapshot: session closed"
    | Finished c -> c.result.report
    | Ingest ->
        (* advisory rolling report over the ingested prefix: skip the
           warp-trace / timeline side products *)
        let options =
          { t.s_options with gen_warp_trace = false; record_timeline = false }
        in
        (analyze_ingested t ~options).result.report

  let remove_spool t =
    (match t.s_file with
    | Some (path, oc) ->
        (try close_out oc with Sys_error _ -> ());
        (try Sys.remove path with Sys_error _ -> ())
    | None -> ());
    t.s_file <- None;
    t.s_tail <- [];
    t.s_tail_bytes <- 0

  let finish t : checked =
    match t.s_phase with
    | Closed -> invalid_arg "Analyzer.Session.finish: session closed"
    | Finished c -> c
    | Ingest ->
        let c = analyze_ingested t ~options:t.s_options in
        let c =
          match t.s_failure with
          | None -> c
          | Some d -> { c with diagnostics = d :: c.diagnostics }
        in
        t.s_phase <- Finished c;
        remove_spool t;
        c

  let close t =
    remove_spool t;
    t.s_phase <- (match t.s_phase with Finished c -> Finished c | _ -> Closed)
end
