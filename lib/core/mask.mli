(** Warp active masks: up to {!max_lanes} lanes packed in an [int]. *)

type t = private int

val max_lanes : int

val empty : t

(** [full w] — all of the first [w] lanes active; raises outside
    [1, max_lanes]. *)
val full : int -> t

val singleton : int -> t

val mem : t -> int -> bool

val add : t -> int -> t

val remove : t -> int -> t

val union : t -> t -> t

val inter : t -> t -> t

val is_empty : t -> bool

(** Population count (number of active lanes). *)
val count : t -> int

(** Active lane indices, ascending. *)
val to_list : t -> int list

val of_list : int list -> t

(** [of_bits b] — the mask whose active lanes are the set bits of [b] (the
    inverse of [(m :> int)]); raises [Invalid_argument] if [b] sets a bit
    at or above {!max_lanes}. *)
val of_bits : int -> t

val iter : (int -> unit) -> t -> unit

(** [fold f acc m] — left fold over the active lanes, ascending;
    allocation-free (the hot-path replacement for [to_list]). *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val pp : warp_size:int -> Format.formatter -> t -> unit
