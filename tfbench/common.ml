(* Shared plumbing of the benchmark: clocks, /proc readers, the metric
   catalogue and the result line. *)

module H = Harness

let now = Unix.gettimeofday

(* user + sys CPU seconds of this process, all domains *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Reads to end of file, so /proc pseudo-files (length 0) work too. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let kb =
    String.split_on_char '\n' status
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf l "VmHWM: %d kB" Option.some
           else None)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1000.
  | None -> failwith ("no VmHWM in /proc/" ^ pid ^ "/status")

(* user + sys CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in USER_HZ = 100 ticks). *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces; fields restart after its ')' *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* Host CPU ticks from /proc/stat: (steal, total) over all CPUs.  Steal is
   time a virtual CPU was runnable but the hypervisor ran something else;
   it inflates every wall-clock figure measured while it grows. *)
let host_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let f =
    String.split_on_char ' ' line
    |> List.filter (fun x -> x <> "" && x <> "cpu")
    |> List.map int_of_string
  in
  (List.nth f 7, List.fold_left ( + ) 0 f)

let median xs = (H.summarize (Array.of_list xs)).H.p50

let sum xs = List.fold_left ( +. ) 0. xs

(* ------------------------------------------------------------------ *)
(* Metric catalogue — must match BENCHMARK.json.                        *)

let end_to_end =
  [ ("op_cpu_p90_ms", "ms"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let per_layer =
  [
    ("compiler.link_ms", "ms");
    ("machine.run_ms", "ms");
    ("machine.events", "count");
    ("machine.events_per_ms", "1/ms");
    ("cfg.dcfg_ms", "ms");
    ("cfg.ipdom_ms", "ms");
    ("core.warp_formation_ms", "ms");
    ("core.replay_ms", "ms");
    ("core.replay_warp_max_ms", "ms");
    ("core.merge_ms", "ms");
    ("core.issues", "count");
    ("core.mem_txns", "count");
    ("core.analyze_j1_ms", "ms");
    ("core.analyze_j2_ms", "ms");
    ("core.par_speedup", "x");
    ("warp_serial.decode_ms", "ms");
    ("warp_serial.mb", "MB");
    ("gpusim.run_j1_ms", "ms");
    ("gpusim.run_j2_ms", "ms");
    ("gpusim.par_speedup", "x");
    ("gpusim.cycles", "count");
    ("gpusim.minstr_per_s", "M/s");
    ("gpusim.dram_transactions", "count");
    ("cpusim.run_ms", "ms");
    ("cpusim.cycles", "count");
    ("stream.encode_ms", "ms");
    ("stream.mb", "MB");
    ("session.ingest_ms", "ms");
    ("session.finish_ms", "ms");
    ("session.spilled_mb", "MB");
    ("session.vs_batch_ratio", "x");
    ("cache.find_ms", "ms");
    ("cache.put_ms", "ms");
    ("cache.hit_ratio", "ratio");
    ("serve.daemon_p50_ms", "ms");
    ("serve.wait_ms", "ms");
    ("serve.shed", "count");
    ("serve.daemon_cpu_ms", "ms");
    ("serve.daemon_rss_mb", "MB");
    ("report.json_ms", "ms");
    ("residual_ms", "ms");
    ("trace_overhead", "x");
  ]

(* ------------------------------------------------------------------ *)
(* Results                                                              *)

type result = {
  mutable values : (string * float) list;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* checks that failed, besides ops *)
}

let result () = { values = []; attempted = 0; failed = 0; problems = [] }

let set r name v = r.values <- (name, v) :: List.remove_assoc name r.values

let note fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* Record one checked op: [ok] is its oracle verdict. *)
let op_checked r ~what ok =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    note "FAIL %s" what
  end

let problem r fmt =
  Printf.ksprintf
    (fun s ->
      r.problems <- s :: r.problems;
      note "FAIL %s" s)
    fmt

(* One summary line: median, quartiles, 90th percentile, sample count. *)
let summary_line name unit samples =
  let s = H.summarize (Array.of_list samples) in
  note "%-16s %12.4f %-4s p25 %.4f  p75 %.4f  p90 %.4f  n=%d" name s.H.p50 unit
    s.H.p25 s.H.p75 s.H.p90 s.H.n;
  s

(* The end-to-end block shared by every workload.  [op_ms] and [cpu_ms]
   are the timed ops' wall and CPU times (newest first), [tail_ms] the
   samples of the tail ([op_ms] when absent), [rates] ops per second per
   op or per pass, [setup_s] the set-up repetitions.

   Only [op_cpu_p90_ms], [peak_rss_mb] and [setup_s] go into the result
   line.  On a shared 2-core host the same op runs in a fast and a slow
   state, each lasting seconds to minutes and up to 1.6x apart, and wall
   time grows further with hypervisor steal.  CPU time leaves steal out
   (the kernel accounts it apart), and the 90th percentile reads the slow
   state whenever a run spends a tenth of its ops in it, where the median
   of a run follows whichever state the run was mostly in.  The rest is
   printed for reading. *)
let report_e2e r ~op_ms ~cpu_ms ?(tail_ms = op_ms) ~rates ~rss_mb ~setup_s () =
  ignore (summary_line "op_p50_ms" "ms" op_ms);
  let pct, v = H.tail (Array.of_list tail_ms) in
  note "%-16s %12.4f %-4s p%d of n=%d (highest percentile with >=10 beyond)"
    "op_tail_ms" v "ms" pct (List.length tail_ms);
  note "# op_ms: %s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") op_ms));
  ignore (summary_line "ops_per_s" "1/s" rates);
  let cpu = summary_line "cpu_ms_per_op" "ms" cpu_ms in
  note "%-16s %12.4f %-4s" "op_cpu_p90_ms" cpu.H.p90 "ms";
  set r "op_cpu_p90_ms" cpu.H.p90;
  note "%-16s %12.4f %-4s" "peak_rss_mb" rss_mb "MB";
  set r "peak_rss_mb" rss_mb;
  set r "setup_s" (summary_line "setup_s" "s" setup_s).H.p50;
  note "%-16s %12.4f %-4s %d failed of %d attempted" "fail_ratio"
    (if r.attempted = 0 then 0.
     else float_of_int r.failed /. float_of_int r.attempted)
    "ratio" r.failed r.attempted

let layer r name v =
  if not (List.mem_assoc name per_layer) then
    invalid_arg ("Common.layer: unknown metric " ^ name);
  set r name v

(* Print the per-layer table; layers the workload's op never enters read
   0 (their time in the op is nil). *)
let report_layers r =
  List.iter
    (fun (name, unit) ->
      let v = Option.value ~default:0. (List.assoc_opt name r.values) in
      note "%-26s %14.4f %s" name v unit)
    per_layer

let json_line r ~trace =
  let catalogue = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name r.values) in
        Printf.sprintf "%S: {\"value\": %.6f, \"unit\": %S}" name v unit)
      catalogue
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0 && r.problems = [] && r.attempted > 0)
    (max 1 r.attempted) r.failed
    (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                       *)

let ms_of f =
  let t0 = now () in
  let x = f () in
  (x, (now () -. t0) *. 1000.)

(* An in-process op starts from a collected heap, as a fresh CLI process
   would, so no op pays for the garbage of the one before it.  Called
   outside the timed region. *)
let settle () = Gc.full_major ()

(* Repeat [f] until [seconds] have passed; at least once. *)
let for_seconds seconds f =
  let deadline = now () +. seconds in
  let rec go () =
    f ();
    if now () < deadline then go ()
  in
  go ()

(* Time [op] until [seconds] have passed, each run from a settled heap;
   [check] sees every result outside the timing.  Returns the op wall
   times and the process CPU time of each op, in ms, newest first. *)
let timed_ops ~seconds ~op ~check =
  let op_ms = ref [] and cpu_ms = ref [] in
  for_seconds seconds (fun () ->
      settle ();
      let c0 = cpu_self () in
      let x, ms = ms_of op in
      let c1 = cpu_self () in
      check x;
      op_ms := ms :: !op_ms;
      cpu_ms := ((c1 -. c0) *. 1000.) :: !cpu_ms);
  (!op_ms, !cpu_ms)

(* The end-to-end block of a workload whose ops run in this process. *)
let report_in_process r ~op_ms ~cpu_ms ~setup_s =
  report_e2e r ~op_ms ~cpu_ms
    ~rates:(List.map (fun ms -> 1000. /. ms) op_ms)
    ~rss_mb:(peak_rss_mb "self") ~setup_s ()

(* Run the set-up [reps] times; keep the last state and every duration. *)
let repeat_setup ~reps setup =
  let rec go k acc last =
    if k = 0 then (Option.get last, List.rev acc)
    else
      let x, ms = ms_of setup in
      go (k - 1) ((ms /. 1000.) :: acc) (Some x)
  in
  go reps [] None

(* Durations (ms) of the spans named [name], their median, and the
   median self time. *)
let span_ms spans name =
  List.filter_map
    (fun s -> if s.H.name = name then Some (H.duration s *. 1000.) else None)
    spans

let median_span spans name = median (span_ms spans name)

let self_ms spans name =
  List.filter_map
    (fun s ->
      if s.H.name = name then Some (H.self_time spans s *. 1000.) else None)
    spans
  |> median

(* Per span name, in first-seen order: count, median total and median
   self time (ms) — where the traced run's time went. *)
let report_spans spans =
  let names =
    List.fold_left
      (fun acc s -> if List.mem s.H.name acc then acc else s.H.name :: acc)
      [] spans
    |> List.rev
  in
  note "# %-24s %6s %12s %12s" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun name ->
      note "# %-24s %6d %12.3f %12.3f" name
        (List.length (span_ms spans name))
        (median_span spans name) (self_ms spans name))
    names

(* Write the spans out, one JSON object a line, times in ms from the first
   span's start. *)
let write_spans path spans =
  let origin = List.fold_left (fun a s -> Float.min a s.H.t0) infinity spans in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %s, \"start_ms\": %.3f, \"end_ms\": %.3f}\n"
            s.H.id s.H.name
            (match s.H.parent with Some p -> string_of_int p | None -> "null")
            ((s.H.t0 -. origin) *. 1000.)
            ((s.H.t1 -. origin) *. 1000.))
        spans);
  note "# spans: %s (%d)" path (List.length spans)

(* Per parent span named [parent]: sum and max of its [child] spans. *)
let child_stats spans ~parent ~child =
  List.filter_map
    (fun p ->
      if p.H.name <> parent then None
      else
        let d =
          List.filter_map
            (fun c ->
              if c.H.name = child && c.H.parent = Some p.H.id then
                Some (H.duration c *. 1000.)
              else None)
            spans
        in
        Some (sum d, List.fold_left Float.max 0. d))
    spans
