(* serve-hdsearch: the work `threadfuser serve hdsearch-mid` does for each
   session, in-process on one domain: ingest a TFSTREAM1 stream into an
   analysis Session (decode, spool, spill), finish it, look the stream's
   digest up in the artifact cache and, on a miss, render the report and
   write it through.  A pass sends each of 8 trace sets twice in seeded
   order against a fresh cache, so half the lookups miss and half hit.

   The timed op stays in this process: a daemon and its client are two
   processes and the daemon two domains, and on a shared 2-core host their
   hand-offs stall whenever the hypervisor takes a core away (session
   times doubled at 20 % steal, daemon CPU per session grew by half).  The
   traced run also drives a real `threadfuser serve --workers 1` daemon
   with the same schedule for the serve.* metrics. *)

open Common
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Thread_trace = Threadfuser_trace.Thread_trace
module Stream = Threadfuser_trace.Stream
module Analyzer = Threadfuser.Analyzer
module Session = Threadfuser.Analyzer.Session
module Metrics = Threadfuser.Metrics
module Report_json = Threadfuser_report.Report_json
module Json = Threadfuser_report.Json
module Cache = Threadfuser_cache.Cache
module Client = Threadfuser_serve.Client
module Protocol = Threadfuser_serve.Protocol
module Lcg = Threadfuser_util.Lcg
module Crc32 = Threadfuser_util.Crc32

let workload = "hdsearch-mid"
let n_inputs = 8
let threads_of i = 64 + (16 * i)
let workers = 1
let chunk_bytes = 65536 (* Client.session's default slice *)

type input = {
  prog : Threadfuser_prog.Program.t;
  traces : Thread_trace.t array;
  bytes : string;  (* TFSTREAM1 *)
  expect : string;  (* batch analyze_checked report JSON *)
  report : Metrics.report;
}

let make_inputs ~seed =
  let w = Registry.find workload in
  Array.init n_inputs (fun i ->
      let threads = threads_of i in
      let w =
        W_analyze.seeded_workload ~seed:(Lcg.derive ~seed ~index:i) ~threads w
      in
      let tr = W.trace_cpu ~threads w in
      let checked = Analyzer.analyze_checked tr.W.prog tr.W.traces in
      let report = checked.Analyzer.result.Analyzer.report in
      {
        prog = tr.W.prog;
        traces = tr.W.traces;
        bytes = Stream.encode tr.W.traces;
        expect = Report_json.to_string report;
        report;
      })

(* ------------------------------------------------------------------ *)
(* In-process sessions (the timed op)                                   *)

type session = {
  ms : float;
  cpu_ms : float;
  hit : bool;
  spilled_mb : float;
}

(* One session as a daemon worker runs it.  The cache key is the one the
   daemon derives: the stream's CRC-32 and length. *)
let session rec_ ~tmp ~cache (input : input) =
  let sp name f = Harness.with_span rec_ name f in
  let s =
    sp "session.ingest" (fun () ->
        let s = Session.create ~tmp_dir:tmp input.prog in
        let n = String.length input.bytes in
        let rec feed off =
          if off < n then begin
            Session.feed s ~off ~len:(min chunk_bytes (n - off)) input.bytes;
            feed (off + chunk_bytes)
          end
        in
        feed 0;
        s)
  in
  let checked, spilled =
    Fun.protect
      ~finally:(fun () -> Session.close s)
      (fun () ->
        let c = sp "session.finish" (fun () -> Session.finish s) in
        (c, Session.spilled_bytes s))
  in
  let key =
    {
      Cache.workload =
        Printf.sprintf "serve:crc32=%08x:len=%d" (Crc32.string input.bytes)
          (String.length input.bytes);
      opt_level = 0;
      warp_size = Analyzer.default_options.Analyzer.warp_size;
      analyzer_version = "tfbench";
    }
  in
  let json, hit =
    match sp "cache.find" (fun () -> Cache.find cache ~key ~kind:Cache.Report) with
    | Some json -> (json, true)
    | None ->
        let json =
          sp "report.json" (fun () ->
              Report_json.to_string checked.Analyzer.result.Analyzer.report)
        in
        sp "cache.put" (fun () -> Cache.put cache ~key ~kind:Cache.Report json);
        (json, false)
  in
  (json, hit, float_of_int spilled /. 1e6)

(* Sessions of [order]'s inputs against a fresh cache and spool
   directory; every session is checked against the batch report. *)
let pass r rec_ ~root ~inputs ~order ~index =
  let dir = Printf.sprintf "%s/pass%d" root index in
  let tmp = Filename.concat dir "tmp" in
  Daemon.mkdir_p tmp;
  let cache = Cache.open_ (Filename.concat dir "cache") in
  Fun.protect
    ~finally:(fun () ->
      Cache.close cache;
      Daemon.rm_rf dir)
    (fun () ->
      Array.to_list order
      |> List.map (fun i ->
             let input = inputs.(i) in
             let c0 = cpu_self () and t0 = now () in
             let json, hit, spilled_mb =
               Harness.with_span rec_ "serve.session" (fun () ->
                   session rec_ ~tmp ~cache input)
             in
             let ms = (now () -. t0) *. 1000. in
             let cpu_ms = (cpu_self () -. c0) *. 1000. in
             op_checked r
               ~what:(Printf.sprintf "session of input %d differs from batch" i)
               (json = input.expect);
             { ms; cpu_ms; hit; spilled_mb }))

(* Every pass sends the same 16 sessions of 8 sizes, so a pass's mean per
   session is one comparable sample; single sessions would mix the sizes. *)
let per_session f sessions =
  sum (List.map f sessions) /. float_of_int (List.length sessions)

let hits sessions = List.length (List.filter (fun s -> s.hit) sessions)

(* ------------------------------------------------------------------ *)
(* Daemon passes (traced run only)                                      *)

type daemon_pass = {
  client_ms : float list;  (* per session, at the client *)
  daemon_cpu_ms : float;  (* per session *)
  daemon_rss_mb : float;  (* peak *)
  daemon_p50_ms : float;
  shed : int;
  daemon_hits : int;
  daemon_misses : int;
}

let json_num path j =
  let rec go j = function
    | [] -> Some j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  match go j path with
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> failwith ("STATS document lacks " ^ String.concat "." path)

let prom_counter text name =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)
  |> Option.value ~default:0

(* One closed-loop client sends the pass's schedule in order, so each
   repeat goes out after its first send's reply. *)
let daemon_pass r ~cli ~root ~inputs ~seed ~index =
  let d = Daemon.start ~cli ~root ~workload ~workers in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      let cpu0 = proc_cpu_s d.Daemon.pid in
      let client_ms =
        Harness.schedule ~seed:(Lcg.derive ~seed ~index) ~inputs:n_inputs
        |> Array.to_list
        |> List.map (fun i ->
               let input = inputs.(i) in
               let t0 = now () in
               let ok =
                 match
                   Client.session ~chunk_bytes ~socket_path:d.Daemon.socket
                     input.bytes
                 with
                 | o ->
                     o.Client.reply.Protocol.status = Protocol.Ok_report
                     && o.Client.report = Some input.expect
                 | exception e ->
                     note "session error: %s" (Printexc.to_string e);
                     false
               in
               let ms = (now () -. t0) *. 1000. in
               op_checked r
                 ~what:(Printf.sprintf "served session of input %d" i)
                 ok;
               ms)
      in
      let daemon_cpu_ms =
        (proc_cpu_s d.Daemon.pid -. cpu0) *. 1000.
        /. float_of_int (List.length client_ms)
      in
      let daemon_rss_mb = peak_rss_mb (string_of_int d.Daemon.pid) in
      let stats =
        match Json.parse (Client.stats ~socket_path:d.Daemon.socket ()) with
        | Ok j -> j
        | Error m -> failwith ("unparseable STATS document: " ^ m)
      in
      let prom =
        Client.stats ~format:Protocol.Stats_prom ~socket_path:d.Daemon.socket ()
      in
      {
        client_ms;
        daemon_cpu_ms;
        daemon_rss_mb;
        daemon_p50_ms = json_num [ "latency_us"; "p50" ] stats /. 1000.;
        shed = int_of_float (json_num [ "daemon"; "shed" ] stats);
        daemon_hits = prom_counter prom "tf_cache_hits_total";
        daemon_misses = prom_counter prom "tf_cache_misses_total";
      })

(* The layers below a session, called in-process on each input: the
   codec's encoder, batch analysis (the session's baseline) and the
   analysis layers one by one at the daemon's -j1. *)
let layer_probe r rec_ inputs =
  let sp name f = Harness.with_span rec_ name f in
  Array.iter
    (fun (input : input) ->
      let bytes = sp "stream.encode" (fun () -> Stream.encode input.traces) in
      op_checked r ~what:"stream encoding differs" (bytes = input.bytes);
      let batch =
        sp "core.analyze_checked" (fun () ->
            Analyzer.analyze_checked input.prog input.traces)
      in
      op_checked r ~what:"batch report differs"
        (Report_json.to_string batch.Analyzer.result.Analyzer.report
        = input.expect);
      let issues =
        W_analyze.layer_probe rec_ input.prog input.traces ~domains:1
      in
      op_checked r ~what:"decomposed replay issue count differs"
        (issues = input.report.Metrics.issues))
    inputs

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace ~cli ~root r =
  let off = Harness.recorder ~enabled:false in
  let index = ref 0 in
  let next_pass rec_ inputs =
    incr index;
    settle ();
    let order =
      Harness.schedule ~seed:(Lcg.derive ~seed ~index:!index) ~inputs:n_inputs
    in
    pass r rec_ ~root ~inputs ~order ~index:!index
  in
  (* inputs, then a warm-up session of the largest input *)
  let setup () =
    let inputs = make_inputs ~seed in
    incr index;
    ignore (pass r off ~root ~inputs ~order:[| n_inputs - 1 |] ~index:!index);
    inputs
  in
  let inputs, setup_s = repeat_setup ~reps:3 setup in
  let passes = ref [] in
  let check_half sessions =
    let h = hits sessions and n = List.length sessions in
    if 2 * h <> n then problem r "pass hit the cache %d times in %d" h n
  in
  if not trace then begin
    for_seconds seconds (fun () ->
        let p = next_pass off inputs in
        check_half p;
        passes := p :: !passes);
    report_e2e r
      ~op_ms:(List.map (per_session (fun s -> s.ms)) !passes)
      ~cpu_ms:(List.map (per_session (fun s -> s.cpu_ms)) !passes)
      ~tail_ms:(List.concat_map (List.map (fun s -> s.ms)) !passes)
      ~rates:(List.map (fun p -> 1000. /. per_session (fun s -> s.ms) p) !passes)
      ~rss_mb:(peak_rss_mb "self") ~setup_s ();
    []
  end
  else begin
    let rec_ = Harness.recorder ~enabled:true in
    let plain = ref [] and traced = ref [] and daemon = ref [] in
    for_seconds seconds (fun () ->
        plain := next_pass off inputs :: !plain;
        let p = next_pass rec_ inputs in
        check_half p;
        traced := p :: !traced;
        incr index;
        daemon := daemon_pass r ~cli ~root ~inputs ~seed ~index:!index :: !daemon;
        layer_probe r rec_ inputs);
    let spans = Harness.spans rec_ in
    let m = median_span spans in
    let sessions = List.concat !traced in
    let d_hits = List.fold_left (fun a d -> a + d.daemon_hits) 0 !daemon
    and d_misses = List.fold_left (fun a d -> a + d.daemon_misses) 0 !daemon in
    let hit_ratio =
      float_of_int (hits sessions + d_hits)
      /. float_of_int (List.length sessions + d_hits + d_misses)
    in
    if hit_ratio <> 0.5 then
      problem r "cache hit ratio %d/%d is not exactly 0.5" (hits sessions + d_hits)
        (List.length sessions + d_hits + d_misses);
    let client_p50 = median (List.concat_map (fun d -> d.client_ms) !daemon) in
    let daemon_p50 = median (List.map (fun d -> d.daemon_p50_ms) !daemon) in
    let per_input f = median (Array.to_list (Array.map f inputs)) in
    layer r "cfg.dcfg_ms" (m "cfg.dcfg");
    layer r "cfg.ipdom_ms" (m "cfg.ipdom");
    layer r "core.warp_formation_ms" (m "core.warp_formation");
    let replay = child_stats spans ~parent:"core.replay" ~child:"core.run_warp" in
    layer r "core.replay_ms" (median (List.map fst replay));
    layer r "core.replay_warp_max_ms" (median (List.map snd replay));
    layer r "core.issues" (per_input (fun i -> float_of_int i.report.Metrics.issues));
    layer r "core.merge_ms" (m "core.merge");
    layer r "core.mem_txns"
      (per_input (fun i -> float_of_int i.report.Metrics.total_mem_txns));
    layer r "stream.encode_ms" (m "stream.encode");
    layer r "stream.mb" (per_input (fun i -> float_of_int (String.length i.bytes) /. 1e6));
    layer r "session.ingest_ms" (m "session.ingest");
    layer r "session.finish_ms" (m "session.finish");
    layer r "session.spilled_mb"
      (List.fold_left (fun a s -> Float.max a s.spilled_mb) 0. sessions);
    layer r "session.vs_batch_ratio"
      ((m "session.ingest" +. m "session.finish") /. m "core.analyze_checked");
    layer r "cache.find_ms" (m "cache.find");
    layer r "cache.put_ms" (m "cache.put");
    layer r "cache.hit_ratio" hit_ratio;
    layer r "serve.daemon_p50_ms" daemon_p50;
    layer r "serve.wait_ms" (client_p50 -. daemon_p50);
    layer r "serve.shed" (float_of_int (List.fold_left (fun a d -> a + d.shed) 0 !daemon));
    layer r "serve.daemon_cpu_ms" (median (List.map (fun d -> d.daemon_cpu_ms) !daemon));
    layer r "serve.daemon_rss_mb" (median (List.map (fun d -> d.daemon_rss_mb) !daemon));
    layer r "report.json_ms" (m "report.json");
    (* a session's time outside its named layers: the cache key's CRC-32,
       the spool's clean-up and glue *)
    layer r "residual_ms" (self_ms spans "serve.session");
    layer r "trace_overhead"
      (median (List.map (per_session (fun s -> s.ms)) !traced)
      /. median (List.map (per_session (fun s -> s.ms)) !plain));
    spans
  end
