(** A reading position in one thread's dynamic trace.

    The warp emulator drives one cursor per lane.  [Skip] events (I/O, lock
    spinning) carry no control flow; they are absorbed transparently whenever
    the cursor is inspected and accumulated into the skip counters (paper
    Fig. 8 reports their share). *)

module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace

type control =
  | C_block of { func : int; block : int; n_instr : int; accesses : Event.access array }
  | C_call of int
  | C_ret
  | C_lock of int
  | C_unlock of int
  | C_barrier of int
  | C_end

type t = {
  tid : int;
  events : Event.t array;
  mutable pos : int;
  mutable skipped_io : int;
  mutable skipped_spin : int;
  mutable skipped_excluded : int;
}

let of_trace (trace : Thread_trace.t) =
  {
    tid = trace.tid;
    events = trace.events;
    pos = 0;
    skipped_io = 0;
    skipped_spin = 0;
    skipped_excluded = 0;
  }

let rec absorb_skips c =
  if c.pos < Array.length c.events then
    match c.events.(c.pos) with
    | Event.Skip { reason = Event.Io; n_instr } ->
        c.skipped_io <- c.skipped_io + n_instr;
        c.pos <- c.pos + 1;
        absorb_skips c
    | Event.Skip { reason = Event.Spin; n_instr } ->
        c.skipped_spin <- c.skipped_spin + n_instr;
        c.pos <- c.pos + 1;
        absorb_skips c
    | Event.Skip { reason = Event.Excluded; n_instr } ->
        c.skipped_excluded <- c.skipped_excluded + n_instr;
        c.pos <- c.pos + 1;
        absorb_skips c
    | Event.Block _ | Event.Call _ | Event.Return | Event.Lock_acq _
    | Event.Lock_rel _ | Event.Barrier _ ->
        ()

(** Next control item without consuming it (skips are absorbed). *)
let peek c : control =
  absorb_skips c;
  if c.pos >= Array.length c.events then C_end
  else
    match c.events.(c.pos) with
    | Event.Block { func; block; n_instr; accesses } ->
        C_block { func; block; n_instr; accesses }
    | Event.Call f -> C_call f
    | Event.Return -> C_ret
    | Event.Lock_acq a -> C_lock a
    | Event.Lock_rel a -> C_unlock a
    | Event.Barrier a -> C_barrier a
    | Event.Skip _ -> assert false

(* Allocation-free reads of the next control item for the replay hot
   path; [peek] stays for error messages. *)

(** Whether the next control item is a block of function [func]. *)
let at_block c ~func =
  absorb_skips c;
  c.pos < Array.length c.events
  &&
  match c.events.(c.pos) with
  | Event.Block b -> b.func = func
  | Event.Call _ | Event.Return | Event.Lock_acq _ | Event.Lock_rel _
  | Event.Barrier _ | Event.Skip _ ->
      false

(** The block id of the next control item; only after [at_block]. *)
let block c =
  match c.events.(c.pos) with
  | Event.Block b -> b.block
  | _ -> invalid_arg "Cursor.block: not at a block"

(** The access array of the next control item; only after [at_block]. *)
let accesses c =
  match c.events.(c.pos) with
  | Event.Block b -> b.accesses
  | _ -> invalid_arg "Cursor.accesses: not at a block"

(** Consume the control item [peek] would return. *)
let advance c =
  absorb_skips c;
  if c.pos < Array.length c.events then c.pos <- c.pos + 1

let next c =
  let item = peek c in
  advance c;
  item

let at_end c =
  absorb_skips c;
  c.pos >= Array.length c.events
