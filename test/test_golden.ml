(* Byte-identity pins for the tracer and the replay.  Each case digests
   (MD5) the serialized traces ([Serial.to_string]), the JSON report
   ([Report_json.to_string]) and, where noted, the warp-level trace
   ([Warp_serial.to_string]).  The expected digests were computed with the
   instruction-by-instruction interpreter and the ioff-by-ioff replay
   gather that the lowered tracer and the pending-ioff gather replaced, so
   any change to trace, report or warp-trace bytes fails here. *)

open Threadfuser_prog
open Threadfuser
module Machine = Threadfuser_machine.Machine
module Event = Threadfuser_trace.Event
module Serial = Threadfuser_trace.Serial
module Thread_trace = Threadfuser_trace.Thread_trace
module Report_json = Threadfuser_report.Report_json
module W = Threadfuser_workloads.Workload
module Registry = Threadfuser_workloads.Registry
module Lcg = Threadfuser_util.Lcg

let md5 s = Digest.to_hex (Digest.string s)

let check_md5 what expected actual = Alcotest.(check string) what expected actual

let report_md5 (r : Analyzer.result) = md5 (Report_json.to_string r.Analyzer.report)

let warp_trace_md5 prog traces =
  let options = { Analyzer.default_options with Analyzer.gen_warp_trace = true } in
  match (Analyzer.analyze ~options prog traces).Analyzer.warp_trace with
  | Some wt -> md5 (Warp_serial.to_string wt)
  | None -> Alcotest.fail "no warp trace generated"

let check_digests name ~trace ~report prog traces =
  check_md5 (name ^ " trace bytes") trace (md5 (Serial.to_string traces));
  check_md5 (name ^ " report bytes") report
    (report_md5 (Analyzer.analyze prog traces))

let workload_case ?exclude ?(label = "") name ~trace ~report () =
  let tr = W.trace_cpu ?exclude (Registry.find name) in
  check_digests (name ^ label) ~trace ~report tr.W.prog tr.W.traces;
  tr

let test_pigz () =
  let tr =
    workload_case "pigz" ~trace:"e4084e3c19dbfcbdcac37b1e38fe2ddc"
      ~report:"d2e33ea3316cfd4f2a1d93093877e9f7" ()
  in
  check_md5 "pigz warp-trace bytes" "6f3b2e4f7508dffd4060c7772bce67dc"
    (warp_trace_md5 tr.W.prog tr.W.traces)

let test_bfs () =
  ignore
    (workload_case "bfs" ~trace:"2fb04f44facad6ef391e55519231d251"
       ~report:"76c9685c61e83d9749192be8e4ce0f48" ())

let test_hdsearch_mid () =
  ignore
    (workload_case "hdsearch-mid" ~trace:"7bd58c87055cd1a3448aa7c2e1854b0e"
       ~report:"bedc4d200631969605a26d7444b33ff8" ())

(* UniqueID: one coarse global lock, so nearly every lane serializes. *)
let test_lock_heavy () =
  let tr =
    workload_case "uniqueid" ~trace:"5f52b7f16bb6c4fcdcbf8171392bf9e4"
      ~report:"a6652f56928a098e1edb33b1ccae6f98" ()
  in
  let locks =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.lock_ops)
      0 tr.W.traces
  in
  Alcotest.(check bool) "uniqueid takes locks" true (locks > 0)

(* hdsearch-mid with its allocator excluded from tracing: each call
   becomes one Skip[Excluded] record. *)
let test_excluded () =
  let tr =
    workload_case ~exclude:[ "__malloc" ] ~label:" (no __malloc)" "hdsearch-mid"
      ~trace:"925d53ce4957643c034432d366c2ff0b"
      ~report:"c1555e304e09ffbd1fa056eab112b0fe" ()
  in
  let excluded =
    Array.fold_left
      (fun acc t -> acc + (Thread_trace.stats t).Thread_trace.skipped_excluded)
      0 tr.W.traces
  in
  Alcotest.(check bool) "allocator calls excluded" true (excluded > 0)

(* Two barrier-separated phases: publish a[tid], then read the right
   neighbour's value through memory. *)
let test_barrier () =
  let bar = 0x50000 and phase_a = 0x20000 and out = 0x60000 in
  let worker =
    Build.(
      func "worker"
        [
          mov (reg 6) (reg 0);
          mov (reg 7) (reg 6);
          mul (reg 7) (imm 31);
          add (reg 7) (imm 1);
          mov (mem ~scale:8 ~index:6 ~disp:phase_a ()) (reg 7);
          barrier (imm bar);
          mov (reg 8) (reg 6);
          add (reg 8) (imm 1);
          rem (reg 8) (reg 1);
          mov (reg 9) (mem ~scale:8 ~index:8 ~disp:phase_a ());
          mov (mem ~scale:8 ~index:6 ~disp:out ()) (reg 9);
          ret;
        ])
  in
  let prog = Program.assemble [ worker ] in
  let n = 40 in
  let m = Machine.create ~config:{ Machine.default_config with quantum = 1 } prog in
  let r = Machine.run_workers m ~worker:"worker" ~args:(Array.init n (fun i -> [ i; n ])) in
  check_digests "barrier" ~trace:"144b3147411b988f0a6bd6b2282e9647"
    ~report:"d9a58853c503cc4ebe5c1cc567f85b9b" prog r.Machine.traces

(* Hostile input: pigz with every access array shuffled, and a few
   offsets pushed out of the block.  The checked pipeline quarantines
   what validation rejects; the unchecked replay gathers the unsorted
   arrays as they are (a lane whose next offset lies behind the walk
   gathers nothing more in that block). *)
let shuffled_pigz () =
  let tr = W.trace_cpu (Registry.find "pigz") in
  let rng = Lcg.create 7 in
  let traces =
    Array.map
      (fun (t : Thread_trace.t) ->
        let events =
          Array.map
            (fun (e : Event.t) ->
              match e with
              | Event.Block b when Array.length b.accesses > 0 ->
                  let accesses = Array.copy b.accesses in
                  Lcg.shuffle rng accesses;
                  if Lcg.chance rng 1 16 then begin
                    let k = Lcg.int rng (Array.length accesses) in
                    let a = accesses.(k) in
                    accesses.(k) <-
                      {
                        a with
                        Event.ioff = (if Lcg.chance rng 1 2 then -1 else b.n_instr + 3);
                      }
                  end;
                  Event.Block { b with accesses }
              | e -> e)
            t.Thread_trace.events
        in
        { t with Thread_trace.events })
      tr.W.traces
  in
  (tr.W.prog, traces)

let test_hostile_shuffled () =
  let prog, traces = shuffled_pigz () in
  check_md5 "shuffled trace bytes" "063fb187c111878cebd0e19fe86aaf5a"
    (md5 (Serial.to_string traces));
  let checked = Analyzer.analyze_checked prog traces in
  check_md5 "checked report bytes" "90a292ebcd9638c8b04b09e08e3d05f5"
    (report_md5 checked.Analyzer.result);
  check_md5 "unchecked report bytes" "71aac6e0562c98eb694ea312acb96f74"
    (report_md5 (Analyzer.analyze prog traces))

let () =
  Alcotest.run "golden"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "pigz" `Quick test_pigz;
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "hdsearch-mid" `Quick test_hdsearch_mid;
          Alcotest.test_case "lock-heavy uniqueid" `Quick test_lock_heavy;
          Alcotest.test_case "excluded allocator" `Quick test_excluded;
          Alcotest.test_case "barrier phases" `Quick test_barrier;
          Alcotest.test_case "shuffled accesses" `Quick test_hostile_shuffled;
        ] );
    ]
