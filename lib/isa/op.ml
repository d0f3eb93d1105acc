(** ALU operations.

    Floating-point is modelled in fixed point: the [F*] operators compute on
    the same 63-bit integers as their integer counterparts but are classified
    as floating-point work by the timing models ({!Opclass}).  Division and
    remainder by zero are defined to yield 0 so that every program is total. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Sar
  | Min
  | Max
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type unop = Neg | Not | Fsqrt

let eval_binop op a b =
  match op with
  | Add | Fadd -> a + b
  | Sub | Fsub -> a - b
  | Mul | Fmul -> a * b
  | Div | Fdiv -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a lsr (b land 63)
  | Sar -> a asr (b land 63)
  | Min -> Int.min a b
  | Max -> Int.max a b

(* Integer square root by Newton iteration; used for [Fsqrt].  Starting
   from n the iterates decrease monotonically until they reach
   floor(sqrt n); stopping as soon as an iterate fails to decrease avoids
   the classic 2-cycle of the "iterate until equal" formulation. *)
let isqrt n =
  if n <= 0 then 0
  else begin
    let x = ref n in
    let next = ref ((!x + (n / !x)) / 2) in
    while !next < !x do
      x := !next;
      next := (!x + (n / !x)) / 2
    done;
    !x
  end

let eval_unop op a =
  match op with Neg -> -a | Not -> lnot a | Fsqrt -> isqrt a

let binop_is_float = function
  | Fadd | Fsub | Fmul | Fdiv -> true
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar | Min | Max
    ->
      false

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Min -> "min"
  | Max -> "max"
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let unop_to_string = function Neg -> "neg" | Not -> "not" | Fsqrt -> "fsqrt"

let pp_binop ppf op = Fmt.string ppf (binop_to_string op)

let pp_unop ppf op = Fmt.string ppf (unop_to_string op)
