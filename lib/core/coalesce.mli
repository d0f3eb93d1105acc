(** Memory-coalescing model (paper §III, Fig. 4): the active lanes' accesses
    of one warp-level memory instruction merge into the minimal set of
    32-byte transactions, counted separately per address segment
    (stack/heap/global) for the paper's Fig. 10 breakdown. *)

val transaction_bytes : int

(** Distinct 32 B lines covered by [(addr, size)] accesses. *)
val count_transactions : (int * int) list -> int

type seg_counters = {
  mutable ld_txns : int;
  mutable st_txns : int;
  mutable ld_issues : int;  (** warp-level load instructions in the segment *)
  mutable st_issues : int;
  mutable ld_lanes : int;  (** per-lane accesses *)
  mutable st_lanes : int;
}

(** Per-access-site attribution: transactions a site generated beyond the
    perfectly-coalesced minimum, split by address segment.  Sites are keyed
    by the originating instruction [(fid, block, ioff)]. *)
type site_counters = {
  mutable a_issues : int;  (** warp-level load/store instructions at the site *)
  mutable a_txns : int;  (** 32 B transactions generated *)
  mutable a_min_txns : int;  (** perfectly-coalesced minimum *)
  mutable a_stack_excess : int;  (** excess transactions per segment *)
  mutable a_heap_excess : int;
  mutable a_global_excess : int;
}

type seg_scratch
(** Internal staging for the allocation-free record path. *)

type obs_batch
(** Collector instrument updates staged during a warp (see {!flush_obs}). *)

type t = {
  stack : seg_counters;
  heap : seg_counters;
  global : seg_counters;
  sites : (int * int * int, site_counters) Hashtbl.t;
  xs : seg_scratch array;
  mutable lines_buf : int array;
  obs : obs_batch;
  evt_seen : (int, unit) Hashtbl.t;
}

val create : unit -> t

(** With the collector enabled, {!record_lanes} stages its counter and
    histogram updates instead of taking an atomic or a lock per memory
    instruction; [flush_obs] hands them over.  {!Emulator.run_warp} calls
    it when a warp's replay ends (also when it raises), and {!record}
    after every call. *)
val flush_obs : t -> unit

(** Reset the per-warp instant-thinning state; {!Emulator.run_warp}
    calls this when a warp's replay starts.  Unless [Obs.full_events] is
    on, the "serialized access" instant fires once per (warp, site) —
    counters still count every occurrence. *)
val new_warp : t -> unit

(** Perfectly-coalesced floor for an access set: the 32 B lines needed if
    the same bytes were laid out contiguously (at least 1). *)
val min_transactions : (int * int) list -> int

(** Record one warp-level memory instruction ([lanes] = active lanes'
    [(addr, size)] pairs); returns the total transactions generated.
    [site] attributes the instruction and its excess transactions to an
    [(fid, block, ioff)] instruction site. *)
val record : t -> is_store:bool -> ?site:int * int * int -> (int * int) list -> int

(** An access site resolved to its counters cell (see {!resolve_site}). *)
type site

(** [resolve_site t (fid, block, ioff)] looks up the site's counters,
    adding them on first use; hot callers resolve each site once and keep
    the result, so the [sites] table fills in first-use order. *)
val resolve_site : t -> int * int * int -> site

(** Allocation-free twin of {!record} over parallel arrays
    [addrs]/[sizes][0..n-1] — the replay hot path ({!Emulator.count_block}
    stages each instruction's accesses into reusable buffers and passes
    sites it has already resolved).  Identical accounting and return
    value. *)
val record_lanes :
  t ->
  is_store:bool ->
  ?site:site ->
  n:int ->
  int array ->
  int array ->
  int

(** Fold [src]'s counters into [dst] (shard reduction of the
    domain-parallel replay); every field is a sum. *)
val merge_into : dst:t -> t -> unit

(** Total (transactions, warp-level memory instructions) over all segments. *)
val totals : t -> int * int

(** Mean 32 B transactions per warp-level load/store in a segment. *)
val txns_per_instr : seg_counters -> float
