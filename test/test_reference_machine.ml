(* Differential test of the tracer's per-block lowered code against a
   reference interpreter: the instruction-by-instruction [exec_instr]
   the machine used before it lowered blocks to closures, kept here
   verbatim as the oracle (the tracer's counterpart to
   test_reference_emulator.ml).

   A random single block runs inside a fixed harness program:

   - worker: b0 [call inner]; b1 [jlt b4]; b2 [jeq b5]; b3-b5 [halt]
   - inner:  b0 <the random block>; b1 [ret]; b2 [ret]
   - callee: b0 [ret]

   Every static target in the random block is inner.b2 (branches) or
   callee (calls), so the block's outcome shows in the trace as the
   events after it, and the worker's branch chain after the return
   reveals the latched flags' order — all a later [jcc]/[cmov] can
   observe of them.  Registers, memory, the recorded accesses (in order)
   and every dynamic error message must match the reference. *)

open Threadfuser_isa
open Threadfuser_prog
module Machine = Threadfuser_machine.Machine
module Memory = Threadfuser_machine.Memory
module Layout = Threadfuser_machine.Layout
module Event = Threadfuser_trace.Event
module Vec = Threadfuser_util.Vec

(* ---------------------------------------------------------------- *)
(* Reference interpreter                                             *)

exception Machine_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

type thread = {
  tid : int;
  regs : int array;
  mutable fa : int;
  mutable fb : int;
  accesses : Event.access Vec.t;
}

type machine = { mem : Memory.t }

let trunc width v =
  match width with
  | Width.W8 -> v
  | Width.W4 -> v land 0xffffffff
  | Width.W2 -> v land 0xffff
  | Width.W1 -> v land 0xff

let mem_addr th (m : Operand.mem) =
  let base = match m.base with Some r -> th.regs.(r) | None -> 0 in
  let index = match m.index with Some (r, s) -> th.regs.(r) * s | None -> 0 in
  base + index + m.disp

let record th ioff addr size is_store =
  Vec.push th.accesses { Event.ioff; addr; size; is_store }

let eval_src m th ioff width (op : Operand.t) =
  match op with
  | Operand.Reg r -> trunc width th.regs.(r)
  | Operand.Imm n -> trunc width n
  | Operand.Mem mm ->
      let addr = mem_addr th mm in
      record th ioff addr (Width.bytes width) false;
      Memory.load m.mem ~width addr

let store_dst m th ioff width (op : Operand.t) v =
  match op with
  | Operand.Reg r -> th.regs.(r) <- trunc width v
  | Operand.Mem mm ->
      let addr = mem_addr th mm in
      record th ioff addr (Width.bytes width) true;
      Memory.store m.mem ~width addr v
  | Operand.Imm _ -> errf "thread %d: store to immediate operand" th.tid

(* The value a lock primitive names: memory operands denote their address
   (like [lea]); registers and immediates denote their value. *)
let lock_target th (op : Operand.t) =
  match op with
  | Operand.Mem mm -> mem_addr th mm
  | Operand.Reg r -> th.regs.(r)
  | Operand.Imm n -> n

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

let exec_instr m th ioff (instr : (int, int) Instr.t) : outcome =
  match instr with
  | Instr.Mov (w, dst, src) ->
      let v = eval_src m th ioff w src in
      store_dst m th ioff w dst v;
      Next
  | Instr.Cmov (c, dst, src) ->
      let v = eval_src m th ioff Width.W8 src in
      (match dst with
      | Operand.Reg r -> if Cond.eval c th.fa th.fb then th.regs.(r) <- v
      | Operand.Imm _ | Operand.Mem _ ->
          errf "thread %d: cmov destination must be a register" th.tid);
      Next
  | Instr.Lea (r, mm) ->
      th.regs.(r) <- mem_addr th mm;
      Next
  | Instr.Binop (op, w, dst, src) ->
      let b = eval_src m th ioff w src in
      let a = eval_src m th ioff w dst in
      store_dst m th ioff w dst (trunc w (Op.eval_binop op a b));
      Next
  | Instr.Unop (op, w, dst) ->
      let a = eval_src m th ioff w dst in
      store_dst m th ioff w dst (trunc w (Op.eval_unop op a));
      Next
  | Instr.Cmp (w, x, y) ->
      th.fa <- eval_src m th ioff w x;
      th.fb <- eval_src m th ioff w y;
      Next
  | Instr.Jcc (c, target) -> if Cond.eval c th.fa th.fb then Goto target else Next
  | Instr.Jmp target -> Goto target
  | Instr.Call f -> Do_call f
  | Instr.Ret -> Do_ret
  | Instr.Lock_acquire op -> Do_lock (lock_target th op)
  | Instr.Lock_release op -> Do_unlock (lock_target th op)
  | Instr.Atomic_rmw (op, w, mm, src) ->
      let b = eval_src m th ioff w src in
      let addr = mem_addr th mm in
      record th ioff addr (Width.bytes w) false;
      let a = Memory.load m.mem ~width:w addr in
      record th ioff addr (Width.bytes w) true;
      Memory.store m.mem ~width:w addr (trunc w (Op.eval_binop op a b));
      Next
  | Instr.Io (_, cost) -> Do_io (eval_src m th ioff Width.W8 cost)
  | Instr.Barrier op -> Do_barrier (lock_target th op)
  | Instr.Halt -> Do_halt

(* The reference run of one block: every instruction in order; the block's
   outcome is its last instruction's. *)
let reference_block mem ~args (instrs : (int, int) Instr.t array) =
  let regs = Array.make Reg.count 0 in
  List.iteri (fun i v -> regs.(Reg.arg i) <- v) args;
  regs.(Reg.sp) <- Layout.stack_top 0;
  regs.(Reg.tls) <- Layout.tls_base 0;
  let th =
    {
      tid = 0;
      regs;
      fa = 0;
      fb = 0;
      accesses = Vec.create { Event.ioff = 0; addr = 0; size = 0; is_store = false };
    }
  in
  let outcome = ref Next in
  Array.iteri (fun ioff i -> outcome := exec_instr { mem } th ioff i) instrs;
  (th, !outcome)

(* ---------------------------------------------------------------- *)
(* Harness program                                                   *)

let taken = 2 (* inner.b2: the target of every branch in the block *)

let callee = 2

let harness ?(landing = [| Instr.Ret |]) (random : (int, int) Instr.t array) :
    Program.t =
  let block instrs = { Program.instrs = Array.of_list instrs; src_label = None } in
  let funcs =
    [|
      {
        Program.name = "worker";
        fid = 0;
        blocks =
          [|
            block [ Instr.Call 1 ];
            block [ Instr.Jcc (Cond.Lt, 4) ];
            block [ Instr.Jcc (Cond.Eq, 5) ];
            block [ Instr.Halt ];
            block [ Instr.Halt ];
            block [ Instr.Halt ];
          |];
      };
      {
        Program.name = "inner";
        fid = 1;
        blocks =
          [|
            { Program.instrs = random; src_label = None };
            block [ Instr.Ret ];
            { Program.instrs = landing; src_label = None };
          |];
      };
      { Program.name = "callee"; fid = callee; blocks = [| block [ Instr.Ret ] |] };
    |]
  in
  let index = Hashtbl.create 4 in
  Array.iter (fun (f : Program.func) -> Hashtbl.replace index f.Program.name f.Program.fid) funcs;
  { Program.funcs; index }

(* Both memories start with the same pseudo-random data where the
   generated addresses land. *)
let data_base = 0x20000

let data_words = 0x800

let init_memory mem =
  Memory.store_array64 mem data_base
    (Array.init data_words (fun i -> (i * 0x1E3779B97F4A7C15) lxor (i lsl 17)))

let blk func block n_instr accesses = Event.Block { func; block; n_instr; accesses }

(* The worker's events after inner returns: which halt block the flags
   select. *)
let probe fa fb =
  blk 0 1 1 [||]
  :: (if fa < fb then [ blk 0 4 1 [||] ]
      else [ blk 0 2 1 [||]; (if fa = fb then blk 0 5 1 [||] else blk 0 3 1 [||]) ])

(* The whole trace the machine must produce, or the error it must raise. *)
let expected_trace th outcome ~n_instr =
  let accesses = Vec.to_array th.accesses in
  let after = probe th.fa th.fb in
  let landing b = blk 1 b 1 [||] :: Event.Return :: after in
  let prefix = [ blk 0 0 1 [||]; Event.Call 1; blk 1 0 n_instr accesses ] in
  match outcome with
  | Next -> Ok (prefix @ landing 1)
  | Goto b -> Ok (prefix @ landing b)
  | Do_call f -> Ok (prefix @ (Event.Call f :: blk f 0 1 [||] :: Event.Return :: landing 1))
  | Do_ret -> Ok (prefix @ (Event.Return :: after))
  | Do_lock a -> Ok (prefix @ (Event.Lock_acq a :: landing 1))
  | Do_unlock a -> Error (Printf.sprintf "thread 0: released lock 0x%x it does not hold" a)
  | Do_io cost ->
      Ok
        (prefix
        @ (if cost > 0 then [ Event.Skip { reason = Event.Io; n_instr = cost } ] else [])
        @ landing 1)
  | Do_barrier a -> Ok (prefix @ (Event.Barrier a :: landing 1))
  | Do_halt -> Ok prefix

let describe = function
  | Machine_error s | Machine.Machine_error s -> "Machine_error: " ^ s
  | e -> Printexc.to_string e

(* ---------------------------------------------------------------- *)
(* Generators                                                        *)

module G = QCheck.Gen

let gen_width = G.oneofl Width.[ W1; W2; W4; W8 ]

let gen_cond = G.oneofl Cond.[ Eq; Ne; Lt; Le; Gt; Ge ]

let gen_binop =
  G.oneofl
    Op.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar; Min; Max; Fadd; Fsub; Fmul; Fdiv ]

let gen_unop = G.oneofl Op.[ Neg; Not; Fsqrt ]

let gen_imm =
  G.frequency
    [
      (4, G.int_range (-64) 64);
      (1, G.int);
      (1, G.oneofl [ 0; 1; -1; 0xff; 0x100; 0xffff; 0xffffffff; 0x1_0000_0000; max_int; min_int ]);
    ]

(* r0..r3 hold the arguments, small enough to address the data region
   as bases and indexes; ALU destinations mostly avoid them. *)
let addr_reg = G.int_bound 3

let any_reg = G.int_bound (Reg.count - 1)

let dst_reg = G.frequency [ (6, G.int_range 4 (Reg.count - 1)); (1, any_reg) ]

let gen_mem =
  let disp = G.int_range 0 512 and scale = G.oneofl [ 1; 2; 4; 8 ] in
  G.oneof
    [
      G.map2 (fun base disp -> Operand.mem ~base ~disp ()) addr_reg disp;
      G.map3
        (fun i s disp -> Operand.mem ~index:(i, s) ~disp:(data_base + disp) ())
        addr_reg scale disp;
      G.map4
        (fun base i s disp -> Operand.mem ~base ~index:(i, s) ~disp ())
        addr_reg addr_reg scale disp;
      G.map (fun disp -> Operand.mem ~disp:(data_base + disp) ()) (G.int_range 0 4096);
    ]

let gen_src =
  G.frequency
    [
      (4, G.map (fun r -> Operand.Reg r) any_reg);
      (3, G.map (fun n -> Operand.Imm n) gen_imm);
      (2, G.map (fun m -> Operand.Mem m) gen_mem);
    ]

(* Mostly valid destinations; an immediate one is a dynamic error. *)
let gen_dst =
  G.frequency
    [
      (6, G.map (fun r -> Operand.Reg r) dst_reg);
      (3, G.map (fun m -> Operand.Mem m) gen_mem);
      (1, G.map (fun n -> Operand.Imm n) gen_imm);
    ]

let gen_named =
  G.oneof
    [
      G.map (fun r -> Operand.Reg r) any_reg;
      G.map (fun n -> Operand.Imm n) gen_imm;
      G.map (fun m -> Operand.Mem m) gen_mem;
    ]

let gen_plain : (int, int) Instr.t G.t =
  G.frequency
    [
      (4, G.map3 (fun w d s -> Instr.Mov (w, d, s)) gen_width gen_dst gen_src);
      (1, G.map3 (fun c d s -> Instr.Cmov (c, d, s)) gen_cond gen_dst gen_src);
      (1, G.map2 (fun r m -> Instr.Lea (r, m)) dst_reg gen_mem);
      (4, G.map4 (fun op w d s -> Instr.Binop (op, w, d, s)) gen_binop gen_width gen_dst gen_src);
      (1, G.map3 (fun op w d -> Instr.Unop (op, w, d)) gen_unop gen_width gen_dst);
      (3, G.map3 (fun w x y -> Instr.Cmp (w, x, y)) gen_width gen_src gen_src);
      (1, G.map4 (fun op w m s -> Instr.Atomic_rmw (op, w, m, s)) gen_binop gen_width gen_mem gen_src);
    ]

let gen_terminator : (int, int) Instr.t G.t =
  G.oneof
    [
      G.map (fun c -> Instr.Jcc (c, taken)) gen_cond;
      G.return (Instr.Jmp taken);
      G.return (Instr.Call callee);
      G.return Instr.Ret;
      G.map (fun op -> Instr.Lock_acquire op) gen_named;
      G.map (fun op -> Instr.Lock_release op) gen_named;
      G.map2
        (fun dir cost -> Instr.Io (dir, cost))
        (G.oneofl Instr.[ In; Out ])
        (G.frequency
           [ (3, G.map (fun n -> Operand.Imm n) (G.int_range (-2) 20)); (1, gen_src) ]);
      G.map (fun op -> Instr.Barrier op) gen_named;
      G.return Instr.Halt;
    ]

(* A block: a few instructions (rarely a terminator mid-block, whose
   outcome is discarded), then any instruction last. *)
let gen_block =
  G.map2
    (fun body last -> Array.of_list (body @ [ last ]))
    (G.list_size (G.int_bound 7) (G.frequency [ (9, gen_plain); (1, gen_terminator) ]))
    (G.frequency [ (1, gen_plain); (1, gen_terminator) ])

let gen_args =
  G.list_repeat 4 (G.frequency [ (3, G.int_range data_base (data_base + 0x2000)); (1, G.int_range 0 64) ])

let print_case (instrs, args) =
  Fmt.str "args=[%a]@\n%a" Fmt.(list ~sep:semi int) args
    Fmt.(array ~sep:cut Instr.pp_resolved)
    instrs

(* ---------------------------------------------------------------- *)
(* The property                                                      *)

let check_case (instrs, args) =
  let prog = harness instrs in
  let ref_mem = Memory.create () in
  init_memory ref_mem;
  let expected =
    match reference_block ref_mem ~args instrs with
    | th, outcome -> (
        match expected_trace th outcome ~n_instr:(Array.length instrs) with
        | Ok events -> Ok (th, events)
        | Error msg -> Error ("Machine_error: " ^ msg))
    | exception e -> Error (describe e)
  in
  let m = Machine.create prog in
  init_memory (Machine.memory m);
  let actual =
    match Machine.run_workers m ~worker:"worker" ~args:[| args |] with
    | r -> Ok r
    | exception e -> Error (describe e)
  in
  match (expected, actual) with
  | Error e, Error a ->
      if e <> a then QCheck.Test.fail_reportf "error %S, reference %S" a e;
      true
  | Ok _, Error a -> QCheck.Test.fail_reportf "machine raised %s" a
  | Error e, Ok _ -> QCheck.Test.fail_reportf "reference raised %s, machine did not" e
  | Ok (th, events), Ok r ->
      let trace = r.Machine.traces.(0).Threadfuser_trace.Thread_trace.events in
      if not (List.length events = Array.length trace && List.for_all2 Event.equal events (Array.to_list trace))
      then
        QCheck.Test.fail_reportf "trace@\n%a@\nreference@\n%a"
          Fmt.(array ~sep:cut Event.pp) trace
          Fmt.(list ~sep:cut Event.pp) events;
      if r.Machine.final_regs.(0) <> th.regs then
        QCheck.Test.fail_reportf "registers [%a], reference [%a]"
          Fmt.(array ~sep:semi int) r.Machine.final_regs.(0)
          Fmt.(array ~sep:semi int) th.regs;
      let mem = Machine.memory m in
      if Memory.touched_pages mem <> Memory.touched_pages ref_mem then
        QCheck.Test.fail_reportf "%d pages touched, reference %d" (Memory.touched_pages mem)
          (Memory.touched_pages ref_mem);
      let same_bytes addr n =
        let ok = ref true in
        for a = addr to addr + n - 1 do
          if Memory.load_byte mem a <> Memory.load_byte ref_mem a then ok := false
        done;
        !ok
      in
      if not (same_bytes data_base (8 * data_words)) then
        QCheck.Test.fail_report "data region differs";
      Vec.to_array th.accesses
      |> Array.iter (fun (a : Event.access) ->
             if not (same_bytes a.addr a.size) then
               QCheck.Test.fail_reportf "memory at 0x%x differs" a.addr);
      true

let prop_lowered_matches_reference =
  QCheck.Test.make ~name:"lowered block = reference interpreter" ~count:2000
    (QCheck.make ~print:print_case (G.pair gen_block gen_args))
    check_case

(* Each dynamic error fires only when its instruction executes, with the
   reference's message. *)
let test_lazy_errors () =
  let run ?landing instrs =
    let m = Machine.create (harness ?landing instrs) in
    match Machine.run_workers m ~worker:"worker" ~args:[| [ data_base ] |] with
    | _ -> "ok"
    | exception Machine.Machine_error s -> s
  in
  let mem0 = Operand.Mem (Operand.mem ~base:0 ()) in
  Alcotest.(check string) "store to immediate" "thread 0: store to immediate operand"
    (run [| Instr.Mov (Width.W8, Operand.Imm 3, Operand.Reg 1); Instr.Ret |]);
  Alcotest.(check string) "cmov into memory" "thread 0: cmov destination must be a register"
    (run [| Instr.Cmov (Cond.Eq, mem0, Operand.Imm 1); Instr.Ret |]);
  let faulty = [| Instr.Mov (Width.W8, Operand.Imm 3, Operand.Reg 1); Instr.Ret |] in
  Alcotest.(check string) "faulty block never run" "ok" (run ~landing:faulty [| Instr.Ret |]);
  Alcotest.(check string) "faulty block run" "thread 0: store to immediate operand"
    (run ~landing:faulty [| Instr.Jmp taken |])

let () =
  Alcotest.run "reference_machine"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_lowered_matches_reference;
          Alcotest.test_case "lazy dynamic errors" `Quick test_lazy_errors;
        ] );
    ]
