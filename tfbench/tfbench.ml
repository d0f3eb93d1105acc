(* The repository benchmark: one workload per run, end-to-end metrics with
   tracing off (--trace 0), per-layer metrics from a traced run
   (--trace 1).  See METRICS.md.  The last stdout line is the result:
   {"correct", "attempted", "failed", "metrics"}. *)

open Common

(* each workload with the parallelism its op runs at *)
let workloads =
  [
    ("analyze-pigz", "-j1 (traced run: -j1 and -j2)");
    ("simulate-hdsearch", "-j1 (traced run: gpusim -j1 and -j2)");
    ("serve-hdsearch", "-j1 (traced run: daemon --workers 1 -j1, 1 client)");
  ]

let usage =
  "tfbench --workload NAME --seed N --seconds S --trace 0|1 [--cli PATH]\n\
   workloads: " ^ String.concat ", " (List.map fst workloads)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let cli = ref "_build/default/bin/threadfuser_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--cli", Arg.Set_string cli, "PATH built threadfuser CLI (serve daemon)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem_assoc !workload workloads) || !seconds < 1
     || not (List.mem !trace [ 0; 1 ])
  then begin
    prerr_endline usage;
    exit 1
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* run.sh's timeout sends SIGTERM: stop the daemons on the way out *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  (* scratch files (daemon sockets, caches, spools) stay in the checkout *)
  let root = Printf.sprintf ".tfbench/run%d" (Unix.getpid ()) in
  Daemon.mkdir_p root;
  let cleanup () =
    Daemon.stop_all ();
    Daemon.rm_rf root;
    try Unix.rmdir ".tfbench" with Unix.Unix_error _ -> ()
  in
  at_exit cleanup;
  let trace = !trace = 1 in
  note "# tfbench %s seed=%d seconds=%d trace=%b" !workload !seed !seconds trace;
  note "# host: cores=%d parallelism=%s ocaml=%s commit=%s"
    (Domain.recommended_domain_count ())
    (List.assoc !workload workloads)
    Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "TFBENCH_COMMIT"));
  let r = result () in
  let seconds = float_of_int !seconds and seed = !seed in
  let steal0, total0 = host_ticks () in
  let spans =
    try
      match !workload with
      | "analyze-pigz" -> W_analyze.run ~seed ~seconds ~trace r
      | "simulate-hdsearch" -> W_simulate.run ~seed ~seconds ~trace r
      | _ -> W_serve.run ~seed ~seconds ~trace ~cli:!cli ~root r
    with e ->
      (* no result line: the run failed *)
      Printf.eprintf "tfbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
      exit 2
  in
  let steal1, total1 = host_ticks () in
  note "# host: steal %.1f%% of CPU time during the run"
    (100. *. float_of_int (steal1 - steal0)
     /. float_of_int (max 1 (total1 - total0)));
  if trace then begin
    report_layers r;
    report_spans spans;
    write_spans
      (Printf.sprintf ".tfbench/spans-%s-seed%d.jsonl" !workload seed)
      spans
  end;
  print_endline (json_line r ~trace)
