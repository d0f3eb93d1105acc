(** Per-function Dynamic Control Flow Graphs.

    The paper builds CFGs from the *observed* basic-block traces rather than
    from static code ("Dynamic CFG"): edges exist only if some thread
    actually took them.  The DCFG is built per function with a virtual exit
    node appended, so divergent threads are forced to reconverge at function
    end, mirroring real SIMT hardware (paper §III, "per-function DCFG").

    Node numbering: blocks keep their static indices [0, n_blocks); the
    virtual exit node is [n_blocks]. *)

module Program = Threadfuser_prog.Program
module Event = Threadfuser_trace.Event
module Thread_trace = Threadfuser_trace.Thread_trace

type t = {
  func : int;
  n_blocks : int;
  exit_node : int; (* = n_blocks *)
  succs : int list array; (* length n_blocks + 1 *)
  preds : int list array;
  observed : bool array; (* blocks that appeared in some trace *)
}

let entry_node = 0

let n_nodes t = t.n_blocks + 1

(** Builder accumulating edges from any number of thread traces. *)
module Builder = struct
  type dcfg = t

  type func_acc = {
    fid : int;
    nb : int;
    edges : (int, unit) Hashtbl.t; (* from * (nb+1) + to *)
    known : Bytes.t; (* bit per edge key: already in [edges] *)
    seen : bool array;
  }

  type t = { prog : Program.t; funcs : func_acc option array (* per fid *) }

  let create prog = { prog; funcs = Array.make (Program.func_count prog) None }

  let acc t fid =
    match t.funcs.(fid) with
    | Some a -> a
    | None ->
        let nb = Program.block_count (Program.func t.prog fid) in
        let a =
          {
            fid;
            nb;
            edges = Hashtbl.create 64;
            known = Bytes.make ((((nb + 1) * (nb + 1)) + 7) / 8) '\000';
            seen = Array.make (nb + 1) false;
          }
        in
        t.funcs.(fid) <- Some a;
        a

  (* The bitmap keeps the (polymorphically hashed) table to one insertion
     per distinct edge; insertion order, and so [finish]'s list orders,
     are unchanged. *)
  let add_edge a from_ to_ =
    let key = (from_ * (a.nb + 1)) + to_ in
    let byte = Bytes.get_uint8 a.known (key lsr 3) and bit = 1 lsl (key land 7) in
    if byte land bit = 0 then begin
      Bytes.set_uint8 a.known (key lsr 3) (byte lor bit);
      Hashtbl.replace a.edges key ()
    end

  (* Frame: the function being executed and the last block observed in it. *)
  type frame = { facc : func_acc; mutable last : int }

  let enter t fid = { facc = acc t fid; last = -1 }

  (* Pop the innermost frame; its last block flows to the virtual exit. *)
  let leave = function
    | [] -> []
    | fr :: rest ->
        if fr.last >= 0 then begin
          add_edge fr.facc fr.last fr.facc.nb;
          fr.facc.seen.(fr.facc.nb) <- true
        end;
        rest

  let feed t (trace : Thread_trace.t) =
    let stack = ref [] in
    let events = trace.events in
    for i = 0 to Array.length events - 1 do
      match events.(i) with
      | Event.Block { func; block; _ } ->
          let fr =
            match !stack with
            | fr :: _ when fr.facc.fid = func -> fr
            | frames ->
                let fr = enter t func in
                stack := fr :: frames;
                fr
          in
          fr.facc.seen.(block) <- true;
          if fr.last >= 0 then add_edge fr.facc fr.last block;
          fr.last <- block
      | Event.Call callee -> stack := enter t callee :: !stack
      | Event.Return -> stack := leave !stack
      | Event.Lock_acq _ | Event.Lock_rel _ | Event.Barrier _ | Event.Skip _ -> ()
    done;
    (* A thread cut short (Halt) still reconverges at the virtual exit. *)
    while !stack <> [] do
      stack := leave !stack
    done

  let finish_func (a : func_acc) : dcfg =
    let n = a.nb + 1 in
    let succs = Array.make n [] and preds = Array.make n [] in
    Hashtbl.iter
      (fun key () ->
        let from_ = key / n and to_ = key mod n in
        succs.(from_) <- to_ :: succs.(from_);
        preds.(to_) <- from_ :: preds.(to_))
      a.edges;
    {
      func = a.fid;
      n_blocks = a.nb;
      exit_node = a.nb;
      succs;
      preds;
      observed = a.seen;
    }

  (** Finish into an array indexed by function id; functions never observed
      get an empty graph. *)
  let finish t : dcfg array =
    Array.init (Program.func_count t.prog) (fun fid ->
        match t.funcs.(fid) with
        | Some a -> finish_func a
        | None ->
            let nb = Program.block_count (Program.func t.prog fid) in
            {
              func = fid;
              n_blocks = nb;
              exit_node = nb;
              succs = Array.make (nb + 1) [];
              preds = Array.make (nb + 1) [];
              observed = Array.make (nb + 1) false;
            })
end

module Obs = Threadfuser_obs.Obs

let c_dcfg_edges =
  Obs.Counter.make "tf_dcfg_edges_total" ~help:"distinct observed DCFG edges"
let c_dcfg_funcs =
  Obs.Counter.make "tf_dcfg_functions_total" ~help:"per-function DCFGs built"

(** Build the per-function DCFGs of a whole trace set in one pass. *)
let of_traces prog traces =
  let b = Builder.create prog in
  Array.iter (Builder.feed b) traces;
  let dcfgs = Builder.finish b in
  if !Obs.enabled then begin
    Obs.Counter.add c_dcfg_funcs (Array.length dcfgs);
    Obs.Counter.add c_dcfg_edges
      (Array.fold_left
         (fun acc d ->
           Array.fold_left (fun acc succs -> acc + List.length succs) acc d.succs)
         0 dcfgs)
  end;
  dcfgs

let pp ppf t =
  Fmt.pf ppf "dcfg f%d (%d blocks + exit):@." t.func t.n_blocks;
  Array.iteri
    (fun from_ succs ->
      if succs <> [] then
        Fmt.pf ppf "  %d -> %a@." from_ Fmt.(list ~sep:comma int) succs)
    t.succs
