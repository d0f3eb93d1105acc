(** The dynamic trace of one CPU thread, plus summary statistics. *)

type t = { tid : int; events : Event.t array }

type stats = {
  traced_instrs : int;  (** instructions inside [Block] events *)
  skipped_io : int;
  skipped_spin : int;
  skipped_excluded : int;
  blocks : int;
  loads : int;
  stores : int;
  lock_ops : int;  (** acquires + releases *)
  barriers : int;
}

val stats : t -> stats

val heap_bytes : t -> int
(** The trace's size on the OCaml heap, from its structure in one walk
    over the events: every event's block, access array and access records
    counted as if unshared.  Matches [Obj.reachable_words] (in bytes) to
    within one word for a decoded trace; an upper bound for one whose
    blocks share events, as the machine's access-free [Block]s do. *)

(** Mutable trace under construction; the machine appends as it executes. *)
module Builder : sig
  type trace := t

  type t

  val create : int -> t

  val emit : t -> Event.t -> unit

  val finish : t -> trace
end

val pp : Format.formatter -> t -> unit
