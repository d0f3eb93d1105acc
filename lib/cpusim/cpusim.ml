(** First-order multicore CPU timing model.

    The paper normalizes its Fig. 6 GPU projections against multi-threaded
    execution on a real CPU; this model plays that role.  Each thread's
    dynamic trace is replayed on an in-order core at one instruction per
    cycle plus memory stalls from a private-L1 / shared-L2 / DRAM-latency
    hierarchy (reusing the {!Threadfuser_gpusim.Cache} model).  Threads are
    assigned round-robin to cores; a core runs its threads back to back and
    the program finishes when the slowest core does.  Skipped regions (I/O,
    lock spinning) are charged at one cycle per skipped instruction.

    {b Execution model: core-local legs + deterministic shared-L2 merge.}
    Like {!Threadfuser_gpusim.Gpusim}, the simulation is decoupled so the
    cores can run on separate domains ([-j]): each core replays its
    threads touching only its private L1 and logs every L1 miss with its
    core-local cycle stamp; a single deterministic reduction then replays
    the union of the logs through the shared L2 in total order
    [(cycle, core, emission order)], charging [l2_miss_penalty] back to
    the owning core per L2 miss.  Core-local time never feeds back into
    the shared level, so the merge degenerates to one epoch and the
    statistics are byte-identical at any domain count — and, on one core,
    identical to the historical inline walk (the log order {e is} the
    program order there). *)

module Cache = Threadfuser_gpusim.Cache
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace
module Par_replay = Threadfuser.Par_replay

type config = {
  n_cores : int;
  l1 : Cache.config;
  l1_miss_penalty : int; (* to L2 *)
  l2 : Cache.config;
  l2_miss_penalty : int; (* to DRAM *)
  clock_ghz : float;
}

(* A Xeon-class 20-core part, like the paper's trace machine. *)
let default_config =
  {
    n_cores = 20;
    l1 = { Cache.size_bytes = 32 * 1024; assoc = 8; line_bytes = 64 };
    l1_miss_penalty = 12;
    l2 = { Cache.size_bytes = 8 * 1024 * 1024; assoc = 16; line_bytes = 64 };
    l2_miss_penalty = 180;
    clock_ghz = 3.0;
  }

type stats = {
  cycles : int; (* max over cores *)
  core_cycles : int array;
  instructions : int;
  l1_hit_rate : float;
}

(* One logged L1 miss: [c_ts] is the core-local cycle at which the
   request reaches L2 (nondecreasing within a core's log). *)
type access = { c_ts : int; c_core : int; c_addr : int }

type core = {
  l1 : Cache.t;
  mutable cycles : int; (* local leg: 1 IPC + L1 miss penalties *)
  mutable instrs : int;
  mutable log : access array;
  mutable log_n : int;
}

let no_access = { c_ts = 0; c_core = 0; c_addr = 0 }

let log_access core ~core_id addr =
  if core.log_n = Array.length core.log then begin
    let bigger = Array.make (max 64 (2 * Array.length core.log)) no_access in
    Array.blit core.log 0 bigger 0 core.log_n;
    core.log <- bigger
  end;
  core.log.(core.log_n) <- { c_ts = core.cycles; c_core = core_id; c_addr = addr };
  core.log_n <- core.log_n + 1

(* Local leg of one thread on [core]: private L1 only; L1 misses are
   charged the L1 penalty and logged for the shared-L2 merge. *)
let thread_cycles config core ~core_id (trace : Thread_trace.t) =
  Array.iter
    (fun (e : Event.t) ->
      match e with
      | Event.Block b ->
          core.cycles <- core.cycles + b.n_instr;
          Array.iter
            (fun (a : Event.access) ->
              if not (Cache.access core.l1 a.Event.addr) then begin
                core.cycles <- core.cycles + config.l1_miss_penalty;
                log_access core ~core_id a.Event.addr
              end)
            b.accesses
      | Event.Skip { n_instr; _ } -> core.cycles <- core.cycles + n_instr
      | Event.Lock_acq _ | Event.Lock_rel _ -> core.cycles <- core.cycles + 20
      | Event.Barrier _ -> core.cycles <- core.cycles + 40
      | Event.Call _ | Event.Return -> core.cycles <- core.cycles + 2)
    trace.events

(** [domains] partitions the cores over the persistent domain pool;
    statistics are byte-identical at any value. *)
let run ?(config = default_config) ?(domains = 1)
    (traces : Thread_trace.t array) : stats =
  let cores =
    Array.init config.n_cores (fun _ ->
        { l1 = Cache.create config.l1; cycles = 0; instrs = 0; log = [||]; log_n = 0 })
  in
  (* core-local legs: core c owns threads c, c + n_cores, ... in order *)
  Par_replay.parallel_for ~domains ~n:config.n_cores (fun c ->
      let core = cores.(c) in
      let i = ref c in
      while !i < Array.length traces do
        let trace = traces.(!i) in
        thread_cycles config core ~core_id:c trace;
        core.instrs <-
          core.instrs + (Thread_trace.stats trace).Thread_trace.traced_instrs;
        i := !i + config.n_cores
      done);
  (* deterministic shared-L2 merge in (cycle, core, emission) order *)
  let l2 = Cache.create config.l2 in
  let extra = Array.make config.n_cores 0 in
  let total = Array.fold_left (fun acc c -> acc + c.log_n) 0 cores in
  if total > 0 then begin
    let buf = Array.make total no_access in
    let k = ref 0 in
    Array.iter
      (fun core ->
        Array.blit core.log 0 buf !k core.log_n;
        k := !k + core.log_n;
        core.log <- [||];
        core.log_n <- 0)
      cores;
    Array.stable_sort
      (fun a b ->
        let c = Int.compare a.c_ts b.c_ts in
        if c <> 0 then c else Int.compare a.c_core b.c_core)
      buf;
    Array.iter
      (fun a ->
        if not (Cache.access l2 a.c_addr) then
          extra.(a.c_core) <- extra.(a.c_core) + config.l2_miss_penalty)
      buf
  end;
  let core_cycles =
    Array.init config.n_cores (fun c -> cores.(c).cycles + extra.(c))
  in
  let l1_hits = Array.fold_left (fun a c -> a + c.l1.Cache.hits) 0 cores in
  let l1_total =
    Array.fold_left (fun a c -> a + c.l1.Cache.hits + c.l1.Cache.misses) 0 cores
  in
  {
    cycles = Array.fold_left max 0 core_cycles;
    core_cycles;
    instructions = Array.fold_left (fun a c -> a + c.instrs) 0 cores;
    l1_hit_rate =
      (if l1_total = 0 then 0.0 else float_of_int l1_hits /. float_of_int l1_total);
  }

(** Wall-clock seconds at the configured clock. *)
let seconds ~config (s : stats) =
  float_of_int s.cycles /. (config.clock_ghz *. 1e9)
