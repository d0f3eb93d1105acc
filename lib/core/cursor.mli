(** A reading position in one thread's dynamic trace.

    The warp emulator drives one cursor per lane.  [Skip] events carry no
    control flow; they are absorbed transparently whenever the cursor is
    inspected and accumulated into the skip counters (paper Fig. 8). *)

type control =
  | C_block of {
      func : int;
      block : int;
      n_instr : int;
      accesses : Threadfuser_trace.Event.access array;
    }
  | C_call of int
  | C_ret
  | C_lock of int
  | C_unlock of int
  | C_barrier of int
  | C_end

type t = {
  tid : int;
  events : Threadfuser_trace.Event.t array;
  mutable pos : int;
  mutable skipped_io : int;
  mutable skipped_spin : int;
  mutable skipped_excluded : int;
}

val of_trace : Threadfuser_trace.Thread_trace.t -> t

(** Next control item without consuming it (skips are absorbed). *)
val peek : t -> control

(** {2 Allocation-free inspection}

    The replay hot path reads the next control item in place instead of
    through [peek]'s freshly built [control]. *)

(** Whether the next control item (skips absorbed) is a block of [func]. *)
val at_block : t -> func:int -> bool

(** The next control item's block id; call only after [at_block]. *)
val block : t -> int

(** The next control item's access array; call only after [at_block]. *)
val accesses : t -> Threadfuser_trace.Event.access array

(** Consume the item [peek] would return. *)
val advance : t -> unit

(** [peek] then [advance]. *)
val next : t -> control

val at_end : t -> bool
