(* simulate-hdsearch: decode a .tfwarp warp trace, run the Fig. 6 scaled
   GPU model and the CPU model, project the speedup.  The timed op runs on
   one domain (see W_analyze.jobs); the traced run also times gpusim at
   -j2 and checks it against -j1. *)

open Common
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Thread_trace = Threadfuser_trace.Thread_trace
module Analyzer = Threadfuser.Analyzer
module Warp_serial = Threadfuser.Warp_serial
module Gpusim = Threadfuser_gpusim.Gpusim
module Cpusim = Threadfuser_cpusim.Cpusim
module Fig6 = Threadfuser_experiments.Fig6

let threads = 512
let jobs = W_analyze.jobs
let par_jobs = W_analyze.par_jobs

type sim = { gpu : Gpusim.stats; cpu : Cpusim.stats; speedup : float }

let speedup gpu cpu =
  Cpusim.seconds ~config:Fig6.cpu_config cpu
  /. Gpusim.seconds ~config:Fig6.gpu_config gpu

type input = {
  bytes : string;  (* the .tfwarp file *)
  cpu_traces : Thread_trace.t array;
  expect : sim;  (* -j1 reference, from the in-memory warp trace *)
}

let setup ~seed () =
  let w =
    W_analyze.seeded_workload ~seed ~threads (Registry.find "hdsearch-mid")
  in
  let tr = W.trace_cpu ~threads w in
  let res =
    Analyzer.analyze
      ~options:{ Analyzer.default_options with Analyzer.gen_warp_trace = true }
      tr.W.prog tr.W.traces
  in
  let wt = Option.get res.Analyzer.warp_trace in
  let gpu = Gpusim.run ~config:Fig6.gpu_config ~domains:1 wt in
  let cpu = Cpusim.run ~config:Fig6.cpu_config ~domains:1 tr.W.traces in
  {
    bytes = Warp_serial.to_string wt;
    cpu_traces = tr.W.traces;
    expect = { gpu; cpu; speedup = speedup gpu cpu };
  }

let op rec_ input =
  let sp name f = Harness.with_span rec_ name f in
  let wt = sp "warp_serial.decode" (fun () -> Warp_serial.of_string input.bytes) in
  let gpu =
    sp (Printf.sprintf "gpusim.run_j%d" jobs) (fun () ->
        Gpusim.run ~config:Fig6.gpu_config ~domains:jobs wt)
  in
  let cpu =
    sp "cpusim.run" (fun () ->
        Cpusim.run ~config:Fig6.cpu_config ~domains:jobs input.cpu_traces)
  in
  (wt, { gpu; cpu; speedup = speedup gpu cpu })

let run ~seed ~seconds ~trace r =
  let off = Harness.recorder ~enabled:false in
  let setup () =
    let input = setup ~seed () in
    let _, warm = op off input in
    if warm <> input.expect then problem r "warm-up simulation differs from -j1";
    input
  in
  let input, setup_s = repeat_setup ~reps:3 setup in
  let check s what = op_checked r ~what (s = input.expect) in
  if not trace then begin
    let op_ms, cpu_ms =
      timed_ops ~seconds
        ~op:(fun () -> op off input)
        ~check:(fun (_, s) -> check s "simulation differs from the -j1 reference")
    in
    report_in_process r ~op_ms ~cpu_ms ~setup_s;
    []
  end
  else begin
    let rec_ = Harness.recorder ~enabled:true in
    let plain = ref [] in
    for_seconds seconds (fun () ->
        settle ();
        let (_, s), ms = ms_of (fun () -> op off input) in
        check s "simulation differs from the -j1 reference";
        plain := ms :: !plain;
        settle ();
        let wt, s = Harness.with_span rec_ "op" (fun () -> op rec_ input) in
        check s "traced simulation differs from the -j1 reference";
        let g =
          Harness.with_span rec_ (Printf.sprintf "gpusim.run_j%d" par_jobs)
            (fun () -> Gpusim.run ~config:Fig6.gpu_config ~domains:par_jobs wt)
        in
        check { s with gpu = g }
          (Printf.sprintf "-j%d gpusim differs from -j1" par_jobs));
    let spans = Harness.spans rec_ in
    let m = median_span spans in
    let g = input.expect.gpu in
    let op_ms = m "op" in
    layer r "warp_serial.decode_ms" (m "warp_serial.decode");
    layer r "warp_serial.mb" (float_of_int (String.length input.bytes) /. 1e6);
    layer r "gpusim.run_j1_ms" (m "gpusim.run_j1");
    layer r "gpusim.run_j2_ms" (m "gpusim.run_j2");
    layer r "gpusim.par_speedup" (m "gpusim.run_j1" /. m "gpusim.run_j2");
    layer r "gpusim.cycles" (float_of_int g.Gpusim.cycles);
    layer r "gpusim.minstr_per_s"
      (float_of_int g.Gpusim.instructions /. (m "gpusim.run_j1" *. 1000.));
    layer r "gpusim.dram_transactions" (float_of_int g.Gpusim.dram_transactions);
    layer r "cpusim.run_ms" (m "cpusim.run");
    layer r "cpusim.cycles" (float_of_int input.expect.cpu.Cpusim.cycles);
    layer r "residual_ms"
      (Harness.residual ~total:op_ms
         [ m "warp_serial.decode"; m "gpusim.run_j1"; m "cpusim.run" ]);
    layer r "trace_overhead" (op_ms /. median !plain);
    spans
  end
