(* Streaming sessions: the byte-identity contract.  For any chunking of
   the input stream, any session budget (spill or no spill) and any
   domain count, [Analyzer.Session.finish] must produce artifacts
   byte-identical to the batch [Analyzer.analyze_checked] over the same
   traces — and the session's in-memory footprint must stay bounded by
   the budget while ingesting trace sets far larger than it. *)

module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Analyzer = Threadfuser.Analyzer
module Session = Threadfuser.Analyzer.Session
module Metrics = Threadfuser.Metrics
module Par_replay = Threadfuser.Par_replay
module Warp_serial = Threadfuser.Warp_serial
module Stream = Threadfuser_trace.Stream
module Thread_trace = Threadfuser_trace.Thread_trace
module Event = Threadfuser_trace.Event
module Tf_error = Threadfuser_util.Tf_error
module Report_json = Threadfuser_report.Report_json
module Flamegraph = Threadfuser_report.Flamegraph

let options ~domains =
  {
    Analyzer.default_options with
    Analyzer.warp_size = 8;
    domains;
    gen_warp_trace = true;
    record_timeline = true;
  }

(* Feed [stream] to [session] in chunks cut by [sizes] (cycled). *)
let feed_chunked session stream sizes =
  let n = String.length stream in
  let pos = ref 0 and i = ref 0 in
  let sizes = Array.of_list sizes in
  while !pos < n do
    let len = min (max 1 sizes.(!i mod Array.length sizes)) (n - !pos) in
    Session.feed session ~off:!pos ~len stream;
    pos := !pos + len;
    incr i
  done

let check_equal ~tag (batch : Analyzer.checked) (streamed : Analyzer.checked) =
  Alcotest.(check string)
    (tag ^ ": report JSON")
    (Report_json.to_string batch.Analyzer.result.Analyzer.report)
    (Report_json.to_string streamed.Analyzer.result.Analyzer.report);
  Alcotest.(check string)
    (tag ^ ": folded flamegraph")
    (Flamegraph.folded ~weight:Flamegraph.Lost batch.Analyzer.result.Analyzer.flame)
    (Flamegraph.folded ~weight:Flamegraph.Lost
       streamed.Analyzer.result.Analyzer.flame);
  Alcotest.(check bool)
    (tag ^ ": timelines")
    true
    (batch.Analyzer.result.Analyzer.timelines
    = streamed.Analyzer.result.Analyzer.timelines);
  (match
     ( batch.Analyzer.result.Analyzer.warp_trace,
       streamed.Analyzer.result.Analyzer.warp_trace )
   with
  | Some b, Some s ->
      Alcotest.(check string)
        (tag ^ ": warp trace bytes")
        (Warp_serial.to_string b) (Warp_serial.to_string s)
  | None, None -> ()
  | _ -> Alcotest.fail (tag ^ ": warp trace presence differs"));
  Alcotest.(check bool)
    (tag ^ ": quarantine set")
    true
    (batch.Analyzer.quarantined = streamed.Analyzer.quarantined);
  Alcotest.(check bool)
    (tag ^ ": diagnostics")
    true
    (batch.Analyzer.diagnostics = streamed.Analyzer.diagnostics)

let session_over ?budget_bytes ~options ~chunks traces prog =
  let s = Session.create ~options ?budget_bytes prog in
  feed_chunked s (Stream.encode traces) chunks;
  Alcotest.(check bool) "end frame consumed" true (Session.input_done s);
  Alcotest.(check int) "all threads ingested" (Array.length traces)
    (Session.threads_ingested s);
  Session.finish s

(* Clean workload traces: chunkings × budgets (forcing and not forcing a
   spill) × domain counts. *)
let test_identical_to_batch () =
  List.iter
    (fun name ->
      let traced = W.trace_cpu (Registry.find name) in
      List.iter
        (fun domains ->
          let options = options ~domains in
          let batch =
            Analyzer.analyze_checked ~options traced.W.prog traced.W.traces
          in
          List.iter
            (fun (chunks, budget_bytes) ->
              let streamed =
                session_over ?budget_bytes ~options ~chunks traced.W.traces
                  traced.W.prog
              in
              check_equal
                ~tag:
                  (Printf.sprintf "%s -j%d chunks=%s budget=%s" name domains
                     (String.concat "," (List.map string_of_int chunks))
                     (match budget_bytes with
                     | None -> "default"
                     | Some b -> string_of_int b))
                batch streamed)
            [
              ([ max_int ], None);
              ([ 1; 7; 3 ], None);
              ([ 4096 ], Some 1);
              (* 1-byte budget: frame bound clamps to 64 KiB, spool spills
                 constantly — the maximal-stress configuration *)
              ([ 13; 4096; 1 ], Some 1);
            ])
        [ 1; 4 ])
    [ "vectoradd"; "bfs" ]

(* QCheck: random chunk boundaries, random budget, random domains. *)
let test_random_chunking =
  let traced = lazy (W.trace_cpu (Registry.find "vectoradd")) in
  let batch = Hashtbl.create 4 in
  let batch_for domains =
    match Hashtbl.find_opt batch domains with
    | Some c -> c
    | None ->
        let traced = Lazy.force traced in
        let c =
          Analyzer.analyze_checked ~options:(options ~domains) traced.W.prog
            traced.W.traces
        in
        Hashtbl.add batch domains c;
        c
  in
  QCheck.Test.make
    ~name:"streamed report independent of (chunking, budget, domains)"
    ~count:10
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 8) (int_range 1 2048))
        (int_range 1 (1 lsl 20))
        (int_range 1 4))
    (fun (chunks, budget_bytes, domains) ->
      let traced = Lazy.force traced in
      let streamed =
        session_over ~budget_bytes ~options:(options ~domains) ~chunks
          traced.W.traces traced.W.prog
      in
      let batch = batch_for domains in
      Report_json.to_string batch.Analyzer.result.Analyzer.report
      = Report_json.to_string streamed.Analyzer.result.Analyzer.report
      && batch.Analyzer.quarantined = streamed.Analyzer.quarantined)

(* Quarantine parity: damaged threads (bad block refs, unbalanced calls,
   a barrier deserter) stream to the same partial report, diagnostics and
   quarantine set as the batch path. *)
let test_quarantine_parity () =
  let traced = W.trace_cpu (Registry.find "vectoradd") in
  let bad_call =
    { Thread_trace.tid = 9001; events = [| Event.Call 9999; Event.Return |] }
  in
  let deserter =
    (* casts a lone barrier vote; every other thread disagrees *)
    { Thread_trace.tid = 9002; events = [| Event.Barrier 0xdead |] }
  in
  let traces = Array.append traced.W.traces [| bad_call; deserter |] in
  let options = options ~domains:2 in
  let batch = Analyzer.analyze_checked ~options traced.W.prog traces in
  Alcotest.(check bool) "fixture actually quarantines" true
    (batch.Analyzer.quarantined <> []);
  let streamed =
    session_over ~options ~chunks:[ 37; 1; 511 ] traces traced.W.prog
  in
  check_equal ~tag:"damaged set" batch streamed

(* The memory contract: ingesting a stream much larger than the budget
   keeps [buffered_bytes] under it and spills the rest to disk. *)
let test_bounded_memory () =
  let traced = W.trace_cpu ~threads:64 (Registry.find "hdsearch-mid") in
  let stream = Stream.encode traced.W.traces in
  let budget_bytes = 128 * 1024 in
  Alcotest.(check bool) "fixture larger than budget" true
    (String.length stream > 4 * budget_bytes);
  let s = Session.create ~options:(options ~domains:1) ~budget_bytes traced.W.prog in
  let peak = ref 0 in
  let pos = ref 0 in
  let n = String.length stream in
  while !pos < n do
    let len = min 4096 (n - !pos) in
    Session.feed s ~off:!pos ~len stream;
    peak := max !peak (Session.buffered_bytes s);
    pos := !pos + len
  done;
  Alcotest.(check bool)
    (Printf.sprintf "peak in-memory bytes %d <= budget %d" !peak budget_bytes)
    true (!peak <= budget_bytes);
  Alcotest.(check bool) "the rest went to the spill file" true
    (Session.spilled_bytes s > String.length stream / 2);
  Alcotest.(check int) "ingestion metered" n (Session.bytes_ingested s);
  let c = Session.finish s in
  let batch =
    Analyzer.analyze_checked ~options:(options ~domains:1) traced.W.prog
      traced.W.traces
  in
  Alcotest.(check string) "spilled session still byte-identical"
    (Report_json.to_string batch.Analyzer.result.Analyzer.report)
    (Report_json.to_string c.Analyzer.result.Analyzer.report);
  Session.close s

let dir_entries dir = Array.to_list (Sys.readdir dir)

let with_dir f =
  let dir = Filename.temp_dir "tfsession-test" "" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun e -> Sys.remove (Filename.concat dir e)) (dir_entries dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* A session that fits its budget never touches the disk: no spill file
   is created, not even an empty one. *)
let test_under_budget_no_file () =
  with_dir (fun tmp_dir ->
      let traced = W.trace_cpu (Registry.find "vectoradd") in
      let options = options ~domains:1 in
      let s = Session.create ~options ~tmp_dir traced.W.prog in
      feed_chunked s (Stream.encode traced.W.traces) [ 4096 ];
      Alcotest.(check int) "nothing spilled" 0 (Session.spilled_bytes s);
      Alcotest.(check (list string)) "no file before finish" []
        (dir_entries tmp_dir);
      let c = Session.finish s in
      Alcotest.(check (list string)) "no file after finish" []
        (dir_entries tmp_dir);
      check_equal ~tag:"under budget"
        (Analyzer.analyze_checked ~options traced.W.prog traced.W.traces)
        c)

(* Several spills plus a non-empty in-memory tail at [finish]: the spool
   must replay the spill file first and the tail after it, or the warps
   form from reordered threads and the report changes. *)
let test_spills_then_tail () =
  with_dir (fun tmp_dir ->
      let traced = W.trace_cpu ~threads:64 (Registry.find "hdsearch-mid") in
      let options = options ~domains:2 in
      let s =
        Session.create ~options ~budget_bytes:(1024 * 1024) ~tmp_dir
          traced.W.prog
      in
      let stream = Stream.encode traced.W.traces in
      let spills = ref 0 and last = ref 0 and pos = ref 0 in
      let n = String.length stream in
      while !pos < n do
        let len = min 4096 (n - !pos) in
        Session.feed s ~off:!pos ~len stream;
        if Session.spilled_bytes s > !last then begin
          incr spills;
          last := Session.spilled_bytes s
        end;
        pos := !pos + len
      done;
      Alcotest.(check bool) "input complete" true (Session.input_done s);
      Alcotest.(check bool)
        (Printf.sprintf "spilled at least twice (%d)" !spills)
        true (!spills >= 2);
      Alcotest.(check bool) "tail still in memory at finish" true
        (Session.buffered_bytes s > 0);
      Alcotest.(check int) "one spill file" 1
        (List.length (dir_entries tmp_dir));
      let c = Session.finish s in
      Alcotest.(check (list string)) "spill file removed" []
        (dir_entries tmp_dir);
      check_equal ~tag:"file then tail"
        (Analyzer.analyze_checked ~options traced.W.prog traced.W.traces)
        c)

(* [Thread_trace.heap_bytes] is what the session charges against its
   budget.  On decoded traces (nothing shared) it must cover the words
   the trace really keeps alive and overstate them by at most a quarter;
   on the machine's traces, whose access-free blocks share one event, it
   must still cover them, alone and as a session's in-memory tail. *)
let test_heap_accounting () =
  let word = Sys.word_size / 8 in
  let reachable v = word * Obj.reachable_words (Obj.repr v) in
  List.iter
    (fun name ->
      let traced = W.trace_cpu (Registry.find name) in
      let decoded =
        match Stream.decode (Stream.encode traced.W.traces) with
        | Ok ts -> ts
        | Error _ -> Alcotest.failf "%s: stream round trip failed" name
      in
      Array.iter
        (fun (tr : Thread_trace.t) ->
          let est = Thread_trace.heap_bytes tr and real = reachable tr in
          if est < real || float_of_int est > 1.25 *. float_of_int real then
            Alcotest.failf "%s tid %d decoded: heap_bytes %d vs reachable %d"
              name tr.Thread_trace.tid est real)
        decoded;
      Array.iter
        (fun (tr : Thread_trace.t) ->
          let est = Thread_trace.heap_bytes tr and real = reachable tr in
          if est < real then
            Alcotest.failf "%s tid %d traced: heap_bytes %d < reachable %d"
              name tr.Thread_trace.tid est real)
        traced.W.traces;
      let s = Session.create ~options:(options ~domains:1) traced.W.prog in
      Array.iter (Session.add_thread s) traced.W.traces;
      Alcotest.(check int) (name ^ ": nothing spilled") 0
        (Session.spilled_bytes s);
      let held = Session.buffered_bytes s in
      let real =
        reachable traced.W.traces - (word * (1 + Array.length traced.W.traces))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: session holds %d >= reachable %d" name held real)
        true (held >= real);
      Session.close s)
    [ "vectoradd"; "bfs"; "hdsearch-mid"; "uniqueid" ]

(* Corruption mid-stream degrades the session, not the process: the
   sticky failure is reported, later chunks are discarded, and finish
   still analyzes the clean prefix. *)
let test_corrupt_midstream () =
  let traced = W.trace_cpu (Registry.find "vectoradd") in
  let stream = Stream.encode traced.W.traces in
  let cut = String.length stream / 2 in
  let s = Session.create ~options:(options ~domains:1) traced.W.prog in
  Session.feed s ~len:cut stream;
  let prefix = Session.threads_ingested s in
  Session.feed s "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff";
  (match Session.failure s with
  | Some d ->
      Alcotest.(check bool) "typed corruption" true
        (d.Tf_error.kind = Tf_error.Corrupt_input)
  | None -> Alcotest.fail "corruption not recorded");
  (* post-corruption bytes are discarded, not buffered *)
  let before = Session.buffered_bytes s in
  Session.feed s (String.make 65536 'z');
  Alcotest.(check int) "chunks after corruption discarded" before
    (Session.buffered_bytes s);
  Alcotest.(check bool) "stream never completed" false (Session.input_done s);
  let c = Session.finish s in
  Alcotest.(check int) "prefix analyzed" prefix
    c.Analyzer.result.Analyzer.report.Metrics.coverage.Metrics.threads_total;
  (match c.Analyzer.diagnostics with
  | d :: _ -> Alcotest.(check bool) "failure leads diagnostics" true
      (d.Tf_error.kind = Tf_error.Corrupt_input)
  | [] -> Alcotest.fail "no diagnostics on a corrupt session")

(* Snapshots: a rolling report mid-ingest, the final report afterwards. *)
let test_snapshot () =
  let traced = W.trace_cpu (Registry.find "vectoradd") in
  let stream = Stream.encode traced.W.traces in
  let s = Session.create ~options:(options ~domains:2) traced.W.prog in
  Session.feed s ~len:(String.length stream / 2) stream;
  let mid = Session.snapshot s in
  Alcotest.(check int) "snapshot covers the ingested prefix"
    (Session.threads_ingested s)
    mid.Metrics.coverage.Metrics.threads_total;
  Session.feed s ~off:(String.length stream / 2) stream;
  let c = Session.finish s in
  Alcotest.(check string) "post-finish snapshot = final report"
    (Report_json.to_string c.Analyzer.result.Analyzer.report)
    (Report_json.to_string (Session.snapshot s))

(* Lifecycle edges: empty stream, misuse after finish/close, bad budgets. *)
let test_lifecycle () =
  let traced = W.trace_cpu (Registry.find "vectoradd") in
  let prog = traced.W.prog in
  (* empty stream (magic + end) analyzes like an empty batch *)
  let s = Session.create ~options:(options ~domains:1) prog in
  Session.feed s (Stream.encode [||]);
  let c = Session.finish s in
  let batch = Analyzer.analyze_checked ~options:(options ~domains:1) prog [||] in
  Alcotest.(check string) "empty session = empty batch"
    (Report_json.to_string batch.Analyzer.result.Analyzer.report)
    (Report_json.to_string c.Analyzer.result.Analyzer.report);
  (* finish is idempotent; feeding afterwards is a programming error *)
  Alcotest.(check bool) "finish idempotent" true (Session.finish s == c);
  (match Session.feed s "x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "feed after finish accepted");
  (* close keeps a finished result, kills an open session *)
  Session.close s;
  Alcotest.(check bool) "close keeps the result" true (Session.finish s == c);
  let s2 = Session.create prog in
  Session.close s2;
  (match Session.finish s2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "finish after close accepted");
  (match Session.create ~budget_bytes:0 prog with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero budget accepted");
  match
    Session.create
      ~options:{ (options ~domains:1) with Analyzer.batching = Threadfuser.Batching.Strided }
      prog
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-sequential batching accepted"

let () =
  Alcotest.run "session"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "identical to batch" `Slow test_identical_to_batch;
          QCheck_alcotest.to_alcotest test_random_chunking;
          Alcotest.test_case "quarantine parity" `Quick test_quarantine_parity;
        ] );
      ( "bounded memory",
        [
          Alcotest.test_case "budget respected" `Quick test_bounded_memory;
          Alcotest.test_case "under budget leaves no file" `Quick
            test_under_budget_no_file;
          Alcotest.test_case "spill file then tail" `Quick test_spills_then_tail;
          Alcotest.test_case "heap accounting" `Quick test_heap_accounting;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "corrupt mid-stream" `Quick test_corrupt_midstream;
          Alcotest.test_case "snapshots" `Quick test_snapshot;
          Alcotest.test_case "lifecycle edges" `Quick test_lifecycle;
        ] );
    ]
