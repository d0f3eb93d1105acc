(** Pure helpers of the benchmark: sample summaries, span arithmetic and
    the seeded serve schedule.  Everything here is deterministic and
    free of I/O so it can be unit-tested (test_harness.ml). *)

(** {1 Sample summaries} *)

type summary = { n : int; p25 : float; p50 : float; p75 : float; p90 : float }

(** Linear-interpolated quartiles, median and 90th percentile.  Raises
    [Invalid_argument] on an empty array. *)
val summarize : float array -> summary

(** [tail xs] is [(pct, value)]: the highest whole percentile that has at
    least 10 samples above it (nearest-rank), never below the median.
    With fewer than 20 samples no percentile above the median qualifies,
    and the result is [(50, median)].  Raises [Invalid_argument] on an
    empty array. *)
val tail : float array -> int * float

(** {1 Spans}

    A span is one timed call into a layer, recorded by the benchmark
    around the public function it calls.  Spans are kept in memory. *)

type span = {
  id : int;
  name : string;
  parent : int option;  (** the span that caused this one *)
  t0 : float;  (** seconds *)
  t1 : float;
}

(** A recorder.  A disabled recorder runs the wrapped calls and keeps
    nothing, so the untraced run pays one branch per call. *)
type recorder

val recorder : enabled:bool -> recorder
val enabled : recorder -> bool

(** [with_span r name f] runs [f] inside a span nested under the
    innermost span open in [r].  Nesting is tracked for one domain: call
    it only from the domain that created [r]. *)
val with_span : recorder -> string -> (unit -> 'a) -> 'a

(** [add r ?parent name ~t0 ~t1] records a span timed by the caller —
    for calls made on other domains, such as concurrent serve clients.
    Returns its id.  Safe to call from any domain. *)
val add : recorder -> ?parent:int -> string -> t0:float -> t1:float -> int

(** The innermost span open through {!with_span}, if any. *)
val current : recorder -> int option

(** Recorded spans, in start order. *)
val spans : recorder -> span list

val duration : span -> float

(** [self_time spans s] is [s]'s duration minus the part of its interval
    that its direct children cover; overlapping children count once. *)
val self_time : span list -> span -> float

(** [residual ~total layers] is [total] minus the sum of [layers] — the
    share of an end-to-end time no named layer accounts for.  Negative
    when layers measured apart overlap or run in parallel inside it. *)
val residual : total:float -> float list -> float

(** {1 Seeded inputs} *)

(** [permutation ~seed n] is a seeded permutation of [0 .. n-1]. *)
val permutation : seed:int -> int -> int array

(** [schedule ~seed ~inputs] sends every input index in [0, inputs) twice,
    in seeded order.  The first occurrence of an index is its cache miss,
    the second its hit. *)
val schedule : seed:int -> inputs:int -> int array

(** [repeats order] flags each slot that repeats an earlier slot's input. *)
val repeats : int array -> bool array

