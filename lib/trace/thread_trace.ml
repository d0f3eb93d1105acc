(** The dynamic trace of one CPU thread, plus summary statistics. *)

module Vec = Threadfuser_util.Vec

type t = { tid : int; events : Event.t array }

type stats = {
  traced_instrs : int; (* instructions inside Block events *)
  skipped_io : int;
  skipped_spin : int;
  skipped_excluded : int;
  blocks : int;
  loads : int;
  stores : int;
  lock_ops : int;
  barriers : int;
}

let stats t =
  let traced = ref 0
  and io = ref 0
  and spin = ref 0
  and excluded = ref 0
  and blocks = ref 0
  and loads = ref 0
  and stores = ref 0
  and locks = ref 0
  and barriers = ref 0 in
  Array.iter
    (fun (e : Event.t) ->
      match e with
      | Event.Block b ->
          traced := !traced + b.n_instr;
          incr blocks;
          Array.iter
            (fun (a : Event.access) ->
              if a.is_store then incr stores else incr loads)
            b.accesses
      | Event.Skip { reason = Event.Io; n_instr } -> io := !io + n_instr
      | Event.Skip { reason = Event.Spin; n_instr } -> spin := !spin + n_instr
      | Event.Skip { reason = Event.Excluded; n_instr } ->
          excluded := !excluded + n_instr
      | Event.Lock_acq _ | Event.Lock_rel _ -> incr locks
      | Event.Barrier _ -> incr barriers
      | Event.Call _ | Event.Return -> ())
    t.events;
  {
    traced_instrs = !traced;
    skipped_io = !io;
    skipped_spin = !spin;
    skipped_excluded = !excluded;
    blocks = !blocks;
    loads = !loads;
    stores = !stores;
    lock_ops = !locks;
    barriers = !barriers;
  }

(* Heap words of one event: its block (header + fields) plus, for a
   [Block] with accesses, the access array (header + one pointer each)
   and the access records.  Constant constructors are immediates; every
   empty array is the one shared atom. *)
let event_words (e : Event.t) =
  match e with
  | Event.Block b ->
      let n = Array.length b.accesses in
      5 + if n = 0 then 0 else 1 + (6 * n)
  | Event.Call _ | Event.Lock_acq _ | Event.Lock_rel _ | Event.Barrier _ -> 2
  | Event.Skip _ -> 3
  | Event.Return -> 0

let heap_bytes t =
  (* the record, the event array, and the empty-array atom (one word) *)
  let base = 3 + (1 + Array.length t.events) + 1 in
  let words =
    Array.fold_left (fun acc e -> acc + event_words e) base t.events
  in
  words * (Sys.word_size / 8)

(** Mutable trace under construction; the machine appends as it executes. *)
module Builder = struct
  type trace = t

  type t = { tid : int; events : Event.t Vec.t }

  let create tid = { tid; events = Vec.create ~capacity:256 Event.Return }

  let emit t e = Vec.push t.events e

  let finish t : trace = { tid = t.tid; events = Vec.to_array t.events }
end

let pp ppf t =
  Fmt.pf ppf "thread %d (%d events):@." t.tid (Array.length t.events);
  Array.iter (fun e -> Fmt.pf ppf "  %a@." Event.pp e) t.events
