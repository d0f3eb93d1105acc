(** Warp-trace files — the on-disk form of ThreadFuser's simulator
    integration (paper §III): a line-oriented text format carrying one
    cracked micro-op per line with its active mask and per-lane addresses.
    Round-trips exactly.

    The reader is a single pass of a byte cursor that parses each field
    in place.  It treats every byte as untrusted and raises only
    {!Corrupt}, with a message naming the field:
    - warp, op and source counts are bounded by the bytes left in the
      input before any allocation, so a corrupt header cannot trigger a
      multi-GB [Array.init];
    - a number that does not fit an [int] is rejected, not wrapped;
    - decimal fields take an optional [-] and digits only (no [0x], [0b]
      or [_]) and hex fields lowercase hex digits, exactly as the writer
      emits them;
    - a mask bit at or above the warp size, and any byte after the last
      declared warp, are errors.

    [of_string (to_string t) = t], and [to_string (of_string s) = s] for
    every [s] that [to_string] produced. *)

exception Corrupt of string

val to_buffer : Warp_trace.t -> Buffer.t

val to_string : Warp_trace.t -> string

val of_string : string -> Warp_trace.t

val to_file : string -> Warp_trace.t -> unit

val of_file : string -> Warp_trace.t
