(* analyze-pigz: what `threadfuser analyze pigz -t 128 --json` does,
   in-process — link, trace, analyze, render JSON.  The timed op runs on
   one domain; -j2 is measured and checked in the traced run. *)

open Common
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Rtlib = Threadfuser_workloads.Rtlib
module Machine = Threadfuser_machine.Machine
module Compiler = Threadfuser_compiler.Compiler
module Thread_trace = Threadfuser_trace.Thread_trace
module Analyzer = Threadfuser.Analyzer
module Emulator = Threadfuser.Emulator
module Batching = Threadfuser.Batching
module Cursor = Threadfuser.Cursor
module Par_replay = Threadfuser.Par_replay
module Dcfg = Threadfuser_cfg.Dcfg
module Ipdom = Threadfuser_cfg.Ipdom
module Report_json = Threadfuser_report.Report_json

let threads = 128

(* The op's -j, and the -j the traced run compares it with.  On a 2-core
   host a second domain shares its cores with the host's other work, and
   every minor collection waits for both domains, so -j2 op times follow
   the host's load more than the program's; they are measured in the
   traced run, not timed end to end. *)
let jobs = 1
let par_jobs = 2

(* The seed picks which thread serves which input block: the same 128
   blocks, dealt to different lanes and so to different warps. *)
let seeded_workload ~seed ~threads (w : W.t) =
  let perm = Harness.permutation ~seed threads in
  {
    w with
    W.cpu =
      {
        w.W.cpu with
        W.args = (fun ~tid ~n ~scale -> w.W.cpu.W.args ~tid:perm.(tid) ~n ~scale);
      };
  }

(* Workload.trace_cpu, one layer call at a time. *)
let machine_run prog (w : W.t) ~threads =
  let m = Machine.create ~config:W.machine_config prog in
  Rtlib.init (Machine.memory m);
  w.W.cpu.W.setup (Machine.memory m) ~scale:1;
  let args =
    Array.init threads (fun tid -> w.W.cpu.W.args ~tid ~n:threads ~scale:1)
  in
  (Machine.run_workers m ~worker:w.W.cpu.W.worker ~args).Machine.traces

let options domains = { Analyzer.default_options with Analyzer.domains }

let events traces =
  Array.fold_left
    (fun acc (t : Thread_trace.t) -> acc + Array.length t.Thread_trace.events)
    0 traces

type out = { traces : Thread_trace.t array; result : Analyzer.result; json : string }

let op rec_ (w : W.t) ~domains =
  let sp name f = Harness.with_span rec_ name f in
  let prog =
    sp "compiler.link" (fun () -> W.link ~alloc:w.W.alloc w.W.cpu Compiler.O1)
  in
  let traces = sp "machine.run" (fun () -> machine_run prog w ~threads) in
  let result =
    sp (Printf.sprintf "core.analyze_j%d" domains) (fun () ->
        Analyzer.analyze ~options:(options domains) prog traces)
  in
  let json =
    sp "report.json" (fun () -> Report_json.to_string result.Analyzer.report)
  in
  { traces; result; json }

(* The analysis layers called one by one on the op's traces, replay
   sharded over [domains] the way Analyzer.analyze shards it; returns the
   merged replay's issue count. *)
let layer_probe rec_ prog traces ~domains =
  let sp name f = Harness.with_span rec_ name f in
  let dcfgs = sp "cfg.dcfg" (fun () -> Dcfg.of_traces prog traces) in
  let ipdoms = sp "cfg.ipdom" (fun () -> Ipdom.of_dcfgs dcfgs) in
  let opts = Analyzer.default_options in
  let warps =
    sp "core.warp_formation" (fun () ->
        Batching.form opts.Analyzer.batching ~warp_size:opts.Analyzer.warp_size
          traces)
  in
  let config =
    {
      Emulator.warp_size = opts.Analyzer.warp_size;
      sync = opts.Analyzer.sync;
      reconv = opts.Analyzer.reconv;
      record_timeline = false;
    }
  in
  let domains =
    Par_replay.auto_domains ~requested:domains ~items:(Array.length warps)
      ~work:(events traces)
  in
  let shards =
    sp "core.replay" (fun () ->
        let parent = Harness.current rec_ in
        Par_replay.map_shards ~domains ~schedule:opts.Analyzer.schedule
          ~n:(Array.length warps)
          ~init:(fun () -> Emulator.create prog ipdoms config)
          ~item:(fun emu warp_id ->
            let cursors =
              Array.map (fun tid -> Cursor.of_trace traces.(tid)) warps.(warp_id)
            in
            let t0 = now () in
            Emulator.run_warp emu ~warp_id cursors;
            ignore (Harness.add rec_ ?parent "core.run_warp" ~t0 ~t1:(now ()))))
  in
  let emu =
    sp "core.merge" (fun () ->
        let first = List.hd shards in
        List.iter (fun e -> Emulator.merge_into ~dst:first e) (List.tl shards);
        first)
  in
  emu.Emulator.issues

let run ~seed ~seconds ~trace r =
  let base = seeded_workload ~seed ~threads (Registry.find "pigz") in
  let off = Harness.recorder ~enabled:false in
  (* the -j1 reference; computing it is also the warm-up op *)
  let setup () = op off base ~domains:1 in
  let ref_, setup_s = repeat_setup ~reps:3 setup in
  let check (o : out) what = op_checked r ~what (o.json = ref_.json) in
  if not trace then begin
    let op_ms, cpu_ms =
      timed_ops ~seconds
        ~op:(fun () -> op off base ~domains:jobs)
        ~check:(fun o -> check o "report differs from the -j1 reference")
    in
    report_in_process r ~op_ms ~cpu_ms ~setup_s;
    []
  end
  else begin
    let rec_ = Harness.recorder ~enabled:true in
    let plain = ref [] in
    let prog = W.link ~alloc:base.W.alloc base.W.cpu Compiler.O1 in
    let issues = ref 0 and n_events = ref 0 in
    for_seconds seconds (fun () ->
        settle ();
        let o, ms = ms_of (fun () -> op off base ~domains:jobs) in
        check o "report differs from the -j1 reference";
        plain := ms :: !plain;
        settle ();
        let o = Harness.with_span rec_ "op" (fun () -> op rec_ base ~domains:jobs) in
        check o "traced report differs from the -j1 reference";
        let par =
          Harness.with_span rec_ (Printf.sprintf "core.analyze_j%d" par_jobs)
            (fun () -> Analyzer.analyze ~options:(options par_jobs) prog o.traces)
        in
        op_checked r ~what:(Printf.sprintf "-j%d analysis differs from -j1" par_jobs)
          (Report_json.to_string par.Analyzer.report = ref_.json);
        issues := layer_probe rec_ prog o.traces ~domains:jobs;
        op_checked r ~what:"decomposed replay issue count differs"
          (!issues = o.result.Analyzer.report.Threadfuser.Metrics.issues);
        n_events := events o.traces;
        layer r "core.mem_txns"
          (float_of_int o.result.Analyzer.report.Threadfuser.Metrics.total_mem_txns));
    let spans = Harness.spans rec_ in
    let m = median_span spans in
    let replay = child_stats spans ~parent:"core.replay" ~child:"core.run_warp" in
    let op_ms = m "op" in
    layer r "compiler.link_ms" (m "compiler.link");
    layer r "machine.run_ms" (m "machine.run");
    layer r "machine.events" (float_of_int !n_events);
    layer r "machine.events_per_ms" (float_of_int !n_events /. m "machine.run");
    layer r "cfg.dcfg_ms" (m "cfg.dcfg");
    layer r "cfg.ipdom_ms" (m "cfg.ipdom");
    layer r "core.warp_formation_ms" (m "core.warp_formation");
    layer r "core.replay_ms" (median (List.map fst replay));
    layer r "core.replay_warp_max_ms" (median (List.map snd replay));
    layer r "core.issues" (float_of_int !issues);
    layer r "core.analyze_j1_ms" (m "core.analyze_j1");
    layer r "core.analyze_j2_ms" (m "core.analyze_j2");
    layer r "core.par_speedup" (m "core.analyze_j1" /. m "core.analyze_j2");
    layer r "core.merge_ms" (m "core.merge");
    layer r "report.json_ms" (m "report.json");
    (* the op's analyze call stands in for its layers, measured apart at
       the same -j *)
    layer r "residual_ms"
      (Harness.residual ~total:op_ms
         [
           m "compiler.link"; m "machine.run"; m "cfg.dcfg"; m "cfg.ipdom";
           m "core.warp_formation"; m "core.replay"; m "core.merge";
           m "report.json";
         ]);
    layer r "trace_overhead" (op_ms /. median !plain);
    spans
  end
