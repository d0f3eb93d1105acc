(** Warp-trace files — the on-disk form of ThreadFuser's simulator
    integration (paper §III generates trace files that feed Accel-Sim).

    A line-oriented text format, one micro-op per line:

    {v
      TFWARP1 <warp_size> <n_warps>
      W <warp_id> <n_ops>
      <mask-hex> <cls> <dst> <n-srcs> <srcs...> -
      <mask-hex> <cls> <dst> <n-srcs> <srcs...> M <L|S> <size> <G|P> <addrs...>
    v}

    Memory micro-ops list one address per lane ([-] for inactive lanes);
    [G]/[P] select the global/local (private) space.  The format
    round-trips exactly ([of_string (to_string t) = t]). *)

open Threadfuser_isa

exception Corrupt of string

let magic = "TFWARP1"

let cls_to_string = Opclass.to_string

(* Direct decimal/hex emitters: serialization is a hot stage for large
   warp traces, and one [Printf.sprintf] per field used to dominate its
   profile (a fresh format interpretation + string per number).  These
   write digits straight into the buffer. *)
let rec add_udec buf n =
  if n >= 10 then add_udec buf (n / 10);
  Buffer.add_char buf (Char.chr (Char.code '0' + (n mod 10)))

let add_dec buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_udec buf (-n)
  end
  else add_udec buf n

let hex_digits = "0123456789abcdef"

let rec add_hex buf n =
  if n >= 16 then add_hex buf (n lsr 4);
  Buffer.add_char buf hex_digits.[n land 15]

let emit_entry buf warp_size (e : Warp_trace.entry) =
  let op = e.Warp_trace.op in
  (* a mask is already the bit pattern the format wants *)
  add_hex buf (e.Warp_trace.mask :> int);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (cls_to_string op.Warp_trace.cls);
  Buffer.add_char buf ' ';
  add_dec buf op.Warp_trace.dst;
  Buffer.add_char buf ' ';
  add_udec buf (Array.length op.Warp_trace.srcs);
  Array.iter
    (fun s ->
      Buffer.add_char buf ' ';
      add_dec buf s)
    op.Warp_trace.srcs;
  (match op.Warp_trace.mem with
  | None -> Buffer.add_string buf " -"
  | Some m ->
      Buffer.add_string buf (if m.Warp_trace.is_store then " M S " else " M L ");
      add_udec buf m.Warp_trace.size;
      Buffer.add_string buf
        (match m.Warp_trace.space with
        | Warp_trace.Global -> " G"
        | Warp_trace.Local -> " P");
      for lane = 0 to warp_size - 1 do
        let a = m.Warp_trace.addrs.(lane) in
        if a < 0 then Buffer.add_string buf " -"
        else begin
          Buffer.add_char buf ' ';
          add_hex buf a
        end
      done);
  Buffer.add_char buf '\n'

let to_buffer (t : Warp_trace.t) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n" magic t.Warp_trace.warp_size
       (Array.length t.Warp_trace.warps));
  Array.iter
    (fun (w : Warp_trace.warp) ->
      Buffer.add_string buf
        (Printf.sprintf "W %d %d\n" w.Warp_trace.warp_id
           (Array.length w.Warp_trace.ops));
      Array.iter (emit_entry buf t.Warp_trace.warp_size) w.Warp_trace.ops)
    t.Warp_trace.warps;
  buf

let to_string t = Buffer.contents (to_buffer t)

(* ---- parsing ----------------------------------------------------------- *)

(* The reader is a single pass of a byte cursor over the input: every
   field is parsed in place and each entry is built directly, with no line
   or token strings in between.  All input is untrusted:

   - every failure is [Corrupt] naming the field, never [Failure] or
     [Invalid_argument];
   - numbers are written by the emitters above and read back in exactly
     that syntax: decimal fields take an optional ['-'] and digits only
     (no [0x], [0b] or [_]), hex fields take lowercase hex digits only,
     and a value that does not fit an [int] is rejected instead of
     wrapping;
   - each declared count is checked against the bytes left, at the
     smallest encoding of what it counts, before anything is allocated
     for it, so a corrupt header cannot trigger a multi-GB [Array.init];
   - mask bits at or above the warp size, and bytes after the last
     declared warp, are rejected. *)

type cursor = { s : string; mutable pos : int }

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let remaining c = String.length c.s - c.pos

let is_sep = function ' ' | '\n' -> true | _ -> false

(* The field starting at [start], for error messages: up to the next
   separator, at most 32 bytes. *)
let field_text c start =
  let n = String.length c.s in
  let e = ref start in
  while !e < n && !e - start < 32 && not (is_sep c.s.[!e]) do
    incr e
  done;
  String.sub c.s start (!e - start)

let bad c start what = fail "bad %s %S at byte %d" what (field_text c start) start

(* [sep c ch ~after] consumes the separator [ch] that must follow field
   [after]. *)
let sep c ch ~after =
  if c.pos < String.length c.s && c.s.[c.pos] = ch then c.pos <- c.pos + 1
  else if c.pos >= String.length c.s then fail "input ends after %s" after
  else
    fail "expected %s after %s at byte %d, found %C"
      (if ch = ' ' then "a space" else "end of line")
      after c.pos c.s.[c.pos]

(* A field's digits end at a separator or at the end of the input;
   anything else ([0x10], [1_000], [12ab]) makes the whole field bad. *)
let end_field c start ~first p what =
  if p = first || (p < String.length c.s && not (is_sep c.s.[p])) then
    bad c start what;
  c.pos <- p

let digits c ~start first what =
  let s = c.s and n = String.length c.s in
  let v = ref 0 and p = ref first in
  while
    !p < n && match s.[!p] with '0' .. '9' -> true | _ -> false
  do
    let d = Char.code s.[!p] - Char.code '0' in
    if !v > (max_int - d) / 10 then
      fail "%s %S overflows an int" what (field_text c start);
    v := (!v * 10) + d;
    incr p
  done;
  end_field c start ~first !p what;
  !v

let udec c what = digits c ~start:c.pos c.pos what

let dec c what =
  let start = c.pos in
  if start < String.length c.s && c.s.[start] = '-' then
    -digits c ~start (start + 1) what
  else digits c ~start start what

let hex_value = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | _ -> -1

let hex c what =
  let s = c.s and n = String.length c.s in
  let start = c.pos in
  let v = ref 0 and p = ref start in
  while !p < n && hex_value s.[!p] >= 0 do
    if !v > max_int lsr 4 then
      fail "%s %S overflows an int" what (field_text c start);
    v := (!v lsl 4) lor hex_value s.[!p];
    incr p
  done;
  end_field c start ~first:start !p what;
  !v

(* a one-byte flag field *)
let flag c what =
  if c.pos >= String.length c.s then fail "input ends before %s" what;
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let classes =
  Array.map
    (fun cls -> (cls_to_string cls, cls))
    Opclass.
      [| Ialu; Imul; Idiv; Falu; Fmul; Fdiv; Load; Store; Branch; Callret; Sync |]

(* [name] is at [start] of [s] (which has room for it) *)
let rec same_at s start name j =
  j = String.length name
  || (name.[j] = s.[start + j] && same_at s start name (j + 1))

(* the first of [classes] from [i] on whose name is the whole field at
   [start]; the cursor moves past it *)
let rec find_class c start i =
  if i = Array.length classes then
    fail "unknown op class %S" (field_text c start)
  else
    let name, cls = classes.(i) in
    let s = c.s and k = String.length name in
    if
      start + k <= String.length s
      && same_at s start name 0
      && (start + k = String.length s || is_sep s.[start + k])
    then begin
      c.pos <- start + k;
      cls
    end
    else find_class c start (i + 1)

(* match the op class name in place, without building a token string *)
let op_class c = find_class c c.pos 0

(* The smallest encodings of what the counts count, which bound them by
   the bytes left: a source register is [" 0"]; an op line is
   ["0 <cls> 0 0 -\n"] with the shortest class name; a warp is
   ["W 0 0\n"]. *)
let min_src_bytes = 2

let min_entry_bytes =
  9 + Array.fold_left (fun m (name, _) -> min m (String.length name)) max_int classes

let min_warp_bytes = 6

let check_count c n ~unit_bytes what =
  if n < 0 || n > remaining c / unit_bytes then
    fail "%s %d exceeds what the %d bytes left can hold" what n (remaining c)

let parse_mem c warp_size : Warp_trace.mem_op =
  sep c ' ' ~after:"M";
  let is_store =
    match flag c "load/store flag" with
    | 'S' -> true
    | 'L' -> false
    | ch -> fail "bad load/store flag %C at byte %d" ch (c.pos - 1)
  in
  sep c ' ' ~after:"load/store flag";
  let size = udec c "access size" in
  sep c ' ' ~after:"access size";
  let space =
    match flag c "space" with
    | 'G' -> Warp_trace.Global
    | 'P' -> Warp_trace.Local
    | ch -> fail "bad space %C at byte %d" ch (c.pos - 1)
  in
  let addrs = Array.make warp_size (-1) in
  for lane = 0 to warp_size - 1 do
    sep c ' ' ~after:(if lane = 0 then "space" else "lane address");
    if c.pos < String.length c.s && c.s.[c.pos] = '-' then begin
      let start = c.pos in
      end_field c start ~first:start (start + 1) "lane address"
    end
    else addrs.(lane) <- hex c "lane address"
  done;
  { Warp_trace.is_store; size; space; addrs }

let parse_entry c warp_size : Warp_trace.entry =
  let start = c.pos in
  let bits = hex c "mask" in
  if bits lsr warp_size <> 0 then
    fail "mask %S at byte %d sets a lane at or above the warp size %d"
      (field_text c start) start warp_size;
  let mask = Mask.of_bits bits in
  sep c ' ' ~after:"mask";
  let cls = op_class c in
  sep c ' ' ~after:"op class";
  let dst = dec c "dst" in
  sep c ' ' ~after:"dst";
  let n_srcs = udec c "src count" in
  check_count c n_srcs ~unit_bytes:min_src_bytes "src count";
  let srcs = Array.make n_srcs 0 in
  for i = 0 to n_srcs - 1 do
    sep c ' ' ~after:(if i = 0 then "src count" else "src");
    srcs.(i) <- dec c "src"
  done;
  sep c ' ' ~after:"srcs";
  let mem =
    match flag c "memory field" with
    | '-' -> None
    | 'M' -> Some (parse_mem c warp_size)
    | ch -> fail "expected - or M at byte %d, found %C" (c.pos - 1) ch
  in
  sep c '\n' ~after:"op";
  { Warp_trace.mask; op = { Warp_trace.cls; dst; srcs; mem } }

let parse_warp c warp_size : Warp_trace.warp =
  if flag c "warp header" <> 'W' then
    fail "expected warp header at byte %d" (c.pos - 1);
  sep c ' ' ~after:"W";
  let warp_id = dec c "warp id" in
  sep c ' ' ~after:"warp id";
  let n_ops = dec c "op count" in
  sep c '\n' ~after:"op count";
  check_count c n_ops ~unit_bytes:min_entry_bytes "op count";
  let ops = Array.init n_ops (fun _ -> parse_entry c warp_size) in
  { Warp_trace.warp_id; ops }

let of_string s : Warp_trace.t =
  let c = { s; pos = 0 } in
  let m = String.length magic in
  if not (String.length s > m && String.sub s 0 m = magic && s.[m] = ' ') then
    fail "bad magic";
  c.pos <- m + 1;
  let warp_size = dec c "warp size" in
  sep c ' ' ~after:"warp size";
  let n_warps = dec c "warp count" in
  sep c '\n' ~after:"warp count";
  if warp_size < 1 || warp_size > Mask.max_lanes then
    fail "warp size %d outside [1, %d]" warp_size Mask.max_lanes;
  check_count c n_warps ~unit_bytes:min_warp_bytes "warp count";
  let warps = Array.init n_warps (fun _ -> parse_warp c warp_size) in
  if remaining c > 0 then
    fail "%d trailing bytes after the last declared warp" (remaining c);
  { Warp_trace.warp_size; warps }

module Log = Threadfuser_obs.Log

let to_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc (to_buffer t));
  Log.debug "warp trace written"
    ~fields:
      [
        ("path", path);
        ("warps", string_of_int (Array.length t.Warp_trace.warps));
        ("ops", string_of_int (Warp_trace.total_ops t));
      ]

let of_file path =
  let ic = open_in path in
  let t =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))
  in
  Log.debug "warp trace loaded"
    ~fields:
      [ ("path", path); ("warps", string_of_int (Array.length t.Warp_trace.warps)) ];
  t
