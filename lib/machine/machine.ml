(** The MIMD CPU emulator — ThreadFuser's stand-in for "run the unmodified
    binary under Intel PIN".

    It executes an assembled {!Threadfuser_prog.Program} with any number of
    software threads under a deterministic round-robin scheduler and emits,
    per thread, exactly the dynamic trace abstraction the paper's tracer
    produces: executed basic blocks with per-instruction memory accesses,
    call/return markers, lock acquire/release events, and skipped-instruction
    records for I/O work and lock spinning.

    Scheduling is at basic-block granularity ([quantum] blocks per slot), so
    runs are bit-reproducible.  Locks are futex-like: a thread that fails to
    acquire blocks; when the holder releases, ownership transfers FIFO and
    the waiter's wasted spin time is charged as [spin_cost] skipped
    instructions per scheduling slot spent waiting (cf. paper Fig. 8). *)

open Threadfuser_isa
module Program = Threadfuser_prog.Program
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace
module Vec = Threadfuser_util.Vec

exception Machine_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

type config = {
  trace : bool; (* record events (disable for timing-only runs) *)
  quantum : int; (* basic blocks per scheduling slot *)
  spin_cost : int; (* skipped instructions per slot spent lock-waiting *)
  max_instrs : int; (* global budget; exceeded = runaway program *)
  max_call_depth : int;
  untraced_functions : string list;
      (* selective tracing (paper §III): calls into these functions (and
         everything beneath them) execute normally but appear in traces as
         one [Skip Excluded] record instead of events *)
}

let default_config =
  {
    trace = true;
    quantum = 8;
    spin_cost = 12;
    max_instrs = 2_000_000_000;
    max_call_depth = 10_000;
    untraced_functions = [];
  }

type thread_state = Ready | Blocked | Finished

(* What a thread was granted while blocked; events are emitted when it is
   next scheduled. *)
type wake = Wake_lock of int | Wake_barrier of int

type thread = {
  tid : int;
  regs : int array;
  mutable fa : int; (* flags: operands of the last Cmp *)
  mutable fb : int;
  mutable fid : int; (* current function *)
  mutable bid : int; (* current block *)
  callstack : (int * int) Vec.t;
  mutable state : thread_state;
  builder : Thread_trace.Builder.t;
  mutable acc : int array; (* the running block's accesses, see [record] *)
  mutable n_acc : int;
  mutable pending_wake : wake option;
  mutable blocked_since : int; (* scheduler slot when blocking started *)
  mutable suppress_depth : int; (* >0 while inside an excluded function *)
  mutable suppressed_instrs : int; (* instructions hidden so far *)
}

type lock = { mutable owner : int; waiters : int Queue.t }

type barrier = { mutable arrived : int list }

(* ---------------------------------------------------------------- *)
(* Lowering                                                          *)

(* Each basic block is lowered once, when the machine is created, into
   one closure per instruction.  Lowering resolves everything static about
   an instruction — operand shapes, width truncation masks, the binop and
   the branch condition — and preallocates the outcome of static control
   transfers, so executing a block neither re-matches the instruction
   variants nor allocates.  Dynamic errors (a store to an immediate, a
   [cmov] into memory) stay lazy: the lowered code raises them only when
   the instruction executes. *)

type outcome =
  | Next
  | Goto of int
  | Do_call of int
  | Do_ret
  | Do_lock of int
  | Do_unlock of int
  | Do_io of int
  | Do_barrier of int
  | Do_halt

type code = {
  body : (thread -> unit) array; (* every instruction but the last *)
  term : thread -> outcome; (* the last one, which decides the outcome *)
  n_instr : int;
  plain : Event.t; (* the block's event when it touched no memory *)
}

(* Accesses are staged as (meta, addr) int pairs in [th.acc], where
   meta packs the instruction offset, the access size and the direction;
   [meta] is a lowering-time constant of the accessing operand. *)
let meta ~ioff ~size ~is_store =
  (ioff lsl 5) lor (size lsl 1) lor if is_store then 1 else 0

let record th meta addr =
  let k = th.n_acc in
  if k + 2 > Array.length th.acc then begin
    let a = Array.make (2 * Array.length th.acc) 0 in
    Array.blit th.acc 0 a 0 k;
    th.acc <- a
  end;
  th.acc.(k) <- meta;
  th.acc.(k + 1) <- addr;
  th.n_acc <- k + 2

let staged_accesses th =
  Array.init (th.n_acc / 2) (fun k ->
      let meta = th.acc.(2 * k) in
      {
        Event.ioff = meta lsr 5;
        addr = th.acc.((2 * k) + 1);
        size = (meta lsr 1) land 15;
        is_store = meta land 1 = 1;
      })

let mask_of = function
  | Width.W8 -> -1
  | Width.W4 -> 0xffffffff
  | Width.W2 -> 0xffff
  | Width.W1 -> 0xff

let lower_addr (m : Operand.mem) : int array -> int =
  let d = m.disp in
  match (m.base, m.index) with
  | None, None -> fun _ -> d
  | Some b, None -> fun regs -> regs.(b) + d
  | None, Some (i, s) -> fun regs -> (regs.(i) * s) + d
  | Some b, Some (i, s) -> fun regs -> regs.(b) + (regs.(i) * s) + d

(* A source operand: registers and immediates read truncated to the width;
   memory records a load, then reads [width] bytes (zero-extended). *)
let lower_src mem ~ioff width (op : Operand.t) : thread -> int =
  let mask = mask_of width in
  match op with
  | Operand.Reg r -> fun th -> th.regs.(r) land mask
  | Operand.Imm n ->
      let v = n land mask in
      fun _ -> v
  | Operand.Mem mm ->
      let addr = lower_addr mm
      and meta = meta ~ioff ~size:(Width.bytes width) ~is_store:false in
      fun th ->
        let a = addr th.regs in
        record th meta a;
        Memory.load mem ~width a

(* A destination operand: registers take the value truncated to the
   width; memory records a store, then writes [width] bytes. *)
let lower_dst mem ~ioff width (op : Operand.t) : thread -> int -> unit =
  match op with
  | Operand.Reg r ->
      let mask = mask_of width in
      fun th v -> th.regs.(r) <- v land mask
  | Operand.Mem mm ->
      let addr = lower_addr mm
      and meta = meta ~ioff ~size:(Width.bytes width) ~is_store:true in
      fun th v ->
        let a = addr th.regs in
        record th meta a;
        Memory.store mem ~width a v
  | Operand.Imm _ -> fun th _ -> errf "thread %d: store to immediate operand" th.tid

(* The value a lock primitive names: memory operands denote their address
   (like [lea]); registers and immediates denote their value. *)
let lower_target (op : Operand.t) : thread -> int =
  match op with
  | Operand.Mem mm ->
      let addr = lower_addr mm in
      fun th -> addr th.regs
  | Operand.Reg r -> fun th -> th.regs.(r)
  | Operand.Imm n -> fun _ -> n

(* [Op.eval_binop op], resolved to the operator's own function. *)
let binop_fn : Op.binop -> int -> int -> int = function
  | Op.Add | Op.Fadd -> ( + )
  | Op.Sub | Op.Fsub -> ( - )
  | Op.Mul | Op.Fmul -> ( * )
  | Op.Div | Op.Fdiv -> fun a b -> if b = 0 then 0 else a / b
  | Op.Rem -> fun a b -> if b = 0 then 0 else a mod b
  | Op.And -> ( land )
  | Op.Or -> ( lor )
  | Op.Xor -> ( lxor )
  | Op.Shl -> fun a b -> a lsl (b land 63)
  | Op.Shr -> fun a b -> a lsr (b land 63)
  | Op.Sar -> fun a b -> a asr (b land 63)
  | Op.Min -> Int.min
  | Op.Max -> Int.max

let lower_mov mem ~ioff w (dst : Operand.t) (src : Operand.t) : thread -> unit =
  let mask = mask_of w in
  match (dst, src) with
  | Operand.Reg r, Operand.Reg s -> fun th -> th.regs.(r) <- th.regs.(s) land mask
  | Operand.Reg r, Operand.Imm n ->
      let v = n land mask in
      fun th -> th.regs.(r) <- v
  | Operand.Reg r, Operand.Mem mm ->
      let addr = lower_addr mm
      and meta = meta ~ioff ~size:(Width.bytes w) ~is_store:false in
      fun th ->
        let a = addr th.regs in
        record th meta a;
        th.regs.(r) <- Memory.load mem ~width:w a
  | _ ->
      let src = lower_src mem ~ioff w src and dst = lower_dst mem ~ioff w dst in
      fun th -> dst th (src th)

let lower_binop mem ~ioff op w (dst : Operand.t) (src : Operand.t) :
    thread -> unit =
  let mask = mask_of w in
  match (op, dst, src) with
  | (Op.Add | Op.Fadd), Operand.Reg r, Operand.Imm n ->
      let n = n land mask in
      fun th -> th.regs.(r) <- ((th.regs.(r) land mask) + n) land mask
  | (Op.Add | Op.Fadd), Operand.Reg r, Operand.Reg s ->
      fun th ->
        let regs = th.regs in
        regs.(r) <- ((regs.(r) land mask) + (regs.(s) land mask)) land mask
  | (Op.Sub | Op.Fsub), Operand.Reg r, Operand.Imm n ->
      let n = n land mask in
      fun th -> th.regs.(r) <- ((th.regs.(r) land mask) - n) land mask
  | _, Operand.Reg r, (Operand.Reg _ | Operand.Imm _) ->
      let f = binop_fn op and src = lower_src mem ~ioff w src in
      fun th -> th.regs.(r) <- f (th.regs.(r) land mask) (src th) land mask
  | _ ->
      let f = binop_fn op
      and src = lower_src mem ~ioff w src
      and read = lower_src mem ~ioff w dst
      and write = lower_dst mem ~ioff w dst in
      fun th ->
        let b = src th in
        let a = read th in
        write th (f a b land mask)

let lower_cmp mem ~ioff w (x : Operand.t) (y : Operand.t) : thread -> unit =
  let mask = mask_of w in
  match (x, y) with
  | Operand.Reg a, Operand.Reg b ->
      fun th ->
        th.fa <- th.regs.(a) land mask;
        th.fb <- th.regs.(b) land mask
  | Operand.Reg a, Operand.Imm n ->
      let n = n land mask in
      fun th ->
        th.fa <- th.regs.(a) land mask;
        th.fb <- n
  | _ ->
      let x = lower_src mem ~ioff w x and y = lower_src mem ~ioff w y in
      fun th ->
        th.fa <- x th;
        th.fb <- y th

(* [if Cond.eval c fa fb then taken else Next], resolved per condition. *)
let lower_branch (c : Cond.t) taken : thread -> outcome =
  match c with
  | Cond.Eq -> fun th -> if th.fa = th.fb then taken else Next
  | Cond.Ne -> fun th -> if th.fa <> th.fb then taken else Next
  | Cond.Lt -> fun th -> if th.fa < th.fb then taken else Next
  | Cond.Le -> fun th -> if th.fa <= th.fb then taken else Next
  | Cond.Gt -> fun th -> if th.fa > th.fb then taken else Next
  | Cond.Ge -> fun th -> if th.fa >= th.fb then taken else Next

let next f th =
  f th;
  Next

let lower_instr mem ~ioff (instr : (int, int) Instr.t) : thread -> outcome =
  match instr with
  | Instr.Mov (w, dst, src) -> next (lower_mov mem ~ioff w dst src)
  | Instr.Cmov (c, dst, src) -> (
      let src = lower_src mem ~ioff Width.W8 src in
      match dst with
      | Operand.Reg r ->
          fun th ->
            let v = src th in
            if Cond.eval c th.fa th.fb then th.regs.(r) <- v;
            Next
      | Operand.Imm _ | Operand.Mem _ ->
          fun th ->
            ignore (src th);
            errf "thread %d: cmov destination must be a register" th.tid)
  | Instr.Lea (r, mm) ->
      let addr = lower_addr mm in
      fun th ->
        th.regs.(r) <- addr th.regs;
        Next
  | Instr.Binop (op, w, dst, src) -> next (lower_binop mem ~ioff op w dst src)
  | Instr.Unop (op, w, dst) ->
      let mask = mask_of w
      and read = lower_src mem ~ioff w dst
      and write = lower_dst mem ~ioff w dst in
      fun th ->
        write th (Op.eval_unop op (read th) land mask);
        Next
  | Instr.Cmp (w, x, y) -> next (lower_cmp mem ~ioff w x y)
  | Instr.Jcc (c, target) -> lower_branch c (Goto target)
  | Instr.Jmp target ->
      let o = Goto target in
      fun _ -> o
  | Instr.Call f ->
      let o = Do_call f in
      fun _ -> o
  | Instr.Ret -> fun _ -> Do_ret
  | Instr.Lock_acquire op ->
      let target = lower_target op in
      fun th -> Do_lock (target th)
  | Instr.Lock_release op ->
      let target = lower_target op in
      fun th -> Do_unlock (target th)
  | Instr.Atomic_rmw (op, w, mm, src) ->
      let f = binop_fn op
      and mask = mask_of w
      and src = lower_src mem ~ioff w src
      and addr = lower_addr mm
      and ld = meta ~ioff ~size:(Width.bytes w) ~is_store:false
      and st = meta ~ioff ~size:(Width.bytes w) ~is_store:true in
      fun th ->
        let b = src th in
        let a = addr th.regs in
        record th ld a;
        let v = Memory.load mem ~width:w a in
        record th st a;
        Memory.store mem ~width:w a (f v b land mask);
        Next
  | Instr.Io (_, cost) ->
      let cost = lower_src mem ~ioff Width.W8 cost in
      fun th -> Do_io (cost th)
  | Instr.Barrier op ->
      let target = lower_target op in
      fun th -> Do_barrier (target th)
  | Instr.Halt -> fun _ -> Do_halt

(* An instruction before the block's last: only its effect matters (a
   terminator there still evaluates its operand, as the block's outcome is
   the last instruction's). *)
let lower_effect mem ~ioff (instr : (int, int) Instr.t) : thread -> unit =
  match instr with
  | Instr.Mov (w, dst, src) -> lower_mov mem ~ioff w dst src
  | Instr.Binop (op, w, dst, src) -> lower_binop mem ~ioff op w dst src
  | Instr.Cmp (w, x, y) -> lower_cmp mem ~ioff w x y
  | _ ->
      let f = lower_instr mem ~ioff instr in
      fun th -> ignore (f th)

let lower_block mem ~func ~block (b : Program.block) =
  let instrs = b.Program.instrs in
  let n = Array.length instrs in
  {
    body =
      Array.init (max 0 (n - 1)) (fun ioff -> lower_effect mem ~ioff instrs.(ioff));
    term =
      (if n = 0 then fun _ -> Next else lower_instr mem ~ioff:(n - 1) instrs.(n - 1));
    n_instr = n;
    plain =
      Event.Block { func; block; n_instr = n; accesses = Event.no_accesses };
  }

type t = {
  prog : Program.t;
  mem : Memory.t;
  config : config;
  locks : (int, lock) Hashtbl.t;
  barriers : (int, barrier) Hashtbl.t;
  untraced : bool array; (* per function id *)
  code : code array array; (* lowered blocks, per function, per block *)
  mutable instr_count : int;
  mutable slot : int;
}

type result = {
  traces : Thread_trace.t array;
  final_regs : int array array;
  instrs_executed : int;
}

let create ?(config = default_config) prog =
  let untraced = Array.make (Program.func_count prog) false in
  List.iter
    (fun name -> untraced.(Program.find_func prog name) <- true)
    config.untraced_functions;
  let mem = Memory.create () in
  {
    prog;
    mem;
    config;
    locks = Hashtbl.create 64;
    barriers = Hashtbl.create 8;
    untraced;
    code =
      Array.map
        (fun (f : Program.func) ->
          Array.mapi
            (fun block b -> lower_block mem ~func:f.Program.fid ~block b)
            f.Program.blocks)
        prog.Program.funcs;
    instr_count = 0;
    slot = 0;
  }

let memory t = t.mem

let instrs_executed t = t.instr_count

(* ---------------------------------------------------------------- *)
(* Execution                                                         *)

let emit m th e =
  if m.config.trace && th.suppress_depth = 0 then
    Thread_trace.Builder.emit th.builder e

let find_barrier m addr =
  match Hashtbl.find_opt m.barriers addr with
  | Some b -> b
  | None ->
      let b = { arrived = [] } in
      Hashtbl.add m.barriers addr b;
      b

let alive_count threads =
  Array.fold_left
    (fun acc th -> if th.state = Finished then acc else acc + 1)
    0 threads

(* Release every barrier whose whole (still-running) team has arrived.
   [except] passes without a wake record (it emits its event inline). *)
let check_barriers ?(except = -1) m threads =
  Hashtbl.iter
    (fun _addr b ->
      if b.arrived <> [] && List.length b.arrived >= alive_count threads then begin
        List.iter
          (fun tid ->
            if tid <> except then begin
              let w = threads.(tid) in
              w.pending_wake <- Some (Wake_barrier _addr);
              w.state <- Ready
            end)
          b.arrived;
        b.arrived <- []
      end)
    m.barriers

let find_lock m addr =
  match Hashtbl.find_opt m.locks addr with
  | Some l -> l
  | None ->
      let l = { owner = -1; waiters = Queue.create () } in
      Hashtbl.add m.locks addr l;
      l

(* Execute the thread's current basic block to completion and apply the
   terminator's control effect.  Returns unit; thread state tells the
   scheduler what happened. *)
let run_block m threads th =
  let code = m.code.(th.fid) in
  if th.bid >= Array.length code then
    errf "thread %d: fell off the end of %s" th.tid
      m.prog.Program.funcs.(th.fid).Program.name;
  let c = code.(th.bid) in
  let n = c.n_instr in
  m.instr_count <- m.instr_count + n;
  if m.instr_count > m.config.max_instrs then
    errf "instruction budget exceeded (%d): runaway program?"
      m.config.max_instrs;
  if th.suppress_depth > 0 then th.suppressed_instrs <- th.suppressed_instrs + n;
  th.n_acc <- 0;
  let body = c.body in
  for i = 0 to Array.length body - 1 do
    body.(i) th
  done;
  let outcome = c.term th in
  if m.config.trace && th.suppress_depth = 0 then
    Thread_trace.Builder.emit th.builder
      (if th.n_acc = 0 then c.plain
       else
         Event.Block
           { func = th.fid; block = th.bid; n_instr = n; accesses = staged_accesses th });
  match outcome with
  | Next -> th.bid <- th.bid + 1
  | Goto target -> th.bid <- target
  | Do_call callee ->
      if Vec.length th.callstack >= m.config.max_call_depth then
        errf "thread %d: call depth exceeded" th.tid;
      if th.suppress_depth > 0 then th.suppress_depth <- th.suppress_depth + 1
      else if m.untraced.(callee) then th.suppress_depth <- 1
      else emit m th (Event.Call callee);
      Vec.push th.callstack (th.fid, th.bid + 1);
      th.fid <- callee;
      th.bid <- 0
  | Do_ret ->
      if th.suppress_depth > 0 then begin
        th.suppress_depth <- th.suppress_depth - 1;
        if th.suppress_depth = 0 && th.suppressed_instrs > 0 then begin
          (* back in traced code: one record for the excluded region *)
          emit m th
            (Event.Skip { reason = Event.Excluded; n_instr = th.suppressed_instrs });
          th.suppressed_instrs <- 0
        end
      end
      else emit m th Event.Return;
      if Vec.is_empty th.callstack then th.state <- Finished
      else begin
        let fid, bid = Vec.pop th.callstack in
        th.fid <- fid;
        th.bid <- bid
      end
  | Do_halt -> th.state <- Finished
  | Do_io cost ->
      if cost > 0 then emit m th (Event.Skip { reason = Event.Io; n_instr = cost });
      th.bid <- th.bid + 1
  | Do_barrier addr ->
      let b = find_barrier m addr in
      th.bid <- th.bid + 1;
      b.arrived <- th.tid :: b.arrived;
      if List.length b.arrived >= alive_count threads then begin
        (* last arriver: release the team and pass through *)
        check_barriers ~except:th.tid m threads;
        emit m th (Event.Barrier addr)
      end
      else begin
        th.state <- Blocked;
        th.blocked_since <- m.slot
      end
  | Do_lock addr ->
      let l = find_lock m addr in
      th.bid <- th.bid + 1;
      if l.owner = -1 then begin
        l.owner <- th.tid;
        emit m th (Event.Lock_acq addr)
      end
      else if l.owner = th.tid then
        errf "thread %d: recursive acquisition of lock 0x%x" th.tid addr
      else begin
        Queue.add th.tid l.waiters;
        th.state <- Blocked;
        th.blocked_since <- m.slot
      end
  | Do_unlock addr ->
      let l = find_lock m addr in
      if l.owner <> th.tid then
        errf "thread %d: released lock 0x%x it does not hold" th.tid addr;
      emit m th (Event.Lock_rel addr);
      th.bid <- th.bid + 1;
      if Queue.is_empty l.waiters then l.owner <- -1
      else begin
        (* FIFO ownership transfer; the waiter resumes next time it is
           scheduled and logs its spin cost then. *)
        let next = Queue.pop l.waiters in
        l.owner <- next;
        let w = threads.(next) in
        w.pending_wake <- Some (Wake_lock addr);
        w.state <- Ready
      end

(* ---------------------------------------------------------------- *)
(* Scheduler                                                         *)

let make_thread m ~trace ~tid ~fid ~args =
  ignore trace;
  let regs = Array.make Reg.count 0 in
  List.iteri (fun i v -> regs.(Reg.arg i) <- v) args;
  regs.(Reg.sp) <- Layout.stack_top tid;
  regs.(Reg.tls) <- Layout.tls_base tid;
  ignore m;
  {
    tid;
    regs;
    fa = 0;
    fb = 0;
    fid;
    bid = 0;
    callstack = Vec.create (0, 0);
    state = Ready;
    builder = Thread_trace.Builder.create tid;
    acc = Array.make 16 0;
    n_acc = 0;
    pending_wake = None;
    blocked_since = 0;
    suppress_depth = 0;
    suppressed_instrs = 0;
  }

let run_threads m threads =
  let n = Array.length threads in
  let finished = ref 0 in
  Array.iter (fun th -> if th.state = Finished then incr finished) threads;
  let cursor = ref 0 in
  while !finished < n do
    (* Find the next ready thread, round-robin. *)
    let found = ref (-1) in
    let k = ref 0 in
    while !found < 0 && !k < n do
      let i = (!cursor + !k) mod n in
      if threads.(i).state = Ready then found := i;
      incr k
    done;
    if !found < 0 then errf "deadlock: %d threads blocked" (n - !finished);
    let th = threads.(!found) in
    cursor := (!found + 1) mod n;
    m.slot <- m.slot + 1;
    (match th.pending_wake with
    | None -> ()
    | Some wake ->
        let waited = m.slot - th.blocked_since in
        let spin = waited * m.config.spin_cost in
        if spin > 0 then
          emit m th (Event.Skip { reason = Event.Spin; n_instr = spin });
        (match wake with
        | Wake_lock addr -> emit m th (Event.Lock_acq addr)
        | Wake_barrier addr -> emit m th (Event.Barrier addr));
        th.pending_wake <- None);
    let budget = ref m.config.quantum in
    while !budget > 0 && th.state = Ready do
      run_block m threads th;
      decr budget
    done;
    if th.state = Finished then begin
      incr finished;
      (* a thread leaving the team can complete a barrier *)
      check_barriers m threads
    end
  done

(** [run_workers m ~worker ~args] spawns one thread per element of [args]
    (thread [i] starts in function [worker] with [args.(i)] in the argument
    registers) and runs them to completion under the deterministic
    scheduler.  This is the paper's SIMT-thread extraction: one CPU thread
    per OpenMP iteration / pthread worker invocation. *)
let c_machine_instrs =
  Threadfuser_obs.Obs.Counter.make "tf_machine_instrs_total"
    ~help:"instructions executed by the traced MIMD machine"

let run_workers m ~worker ~(args : int list array) : result =
  Threadfuser_obs.Obs.span "machine_run"
    ~args:[ ("threads", string_of_int (Array.length args)); ("worker", worker) ]
    (fun () ->
      let fid = Program.find_func m.prog worker in
      let before = m.instr_count in
      let threads =
        Array.mapi
          (fun tid args -> make_thread m ~trace:m.config.trace ~tid ~fid ~args)
          args
      in
      run_threads m threads;
      Threadfuser_obs.Obs.Counter.add c_machine_instrs (m.instr_count - before);
      {
        traces =
          Array.map (fun th -> Thread_trace.Builder.finish th.builder) threads;
        final_regs = Array.map (fun th -> Array.copy th.regs) threads;
        instrs_executed = m.instr_count;
      })

(** Run a single function to completion on thread 0; returns its r0. *)
let run_func m ~fn ~args =
  let r = run_workers m ~worker:fn ~args:[| args |] in
  r.final_regs.(0).(Reg.ret)
