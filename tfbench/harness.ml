module Stats = Threadfuser_stats.Stats
module Lcg = Threadfuser_util.Lcg

type summary = { n : int; p25 : float; p50 : float; p75 : float; p90 : float }

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Harness.summarize: no samples";
  let q q = Stats.percentile ~q xs in
  { n = Array.length xs; p25 = q 0.25; p50 = q 0.5; p75 = q 0.75; p90 = q 0.9 }

let tail xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Harness.tail: no samples";
  let s = Array.copy xs in
  Array.sort compare s;
  (* nearest rank of whole percentile p is ceil(p n / 100), 1-based *)
  let rank p = max 1 ((p * n + 99) / 100) in
  let rec search p =
    if p <= 50 then (50, Stats.percentile ~q:0.5 xs)
    else if n - rank p >= 10 then (p, s.(rank p - 1))
    else search (p - 1)
  in
  search 100

(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int option;
  t0 : float;
  t1 : float;
}

type recorder = {
  on : bool;
  mutex : Mutex.t;
  mutable next_id : int;
  mutable recorded : span list;  (* reversed *)
  mutable open_ : int list;  (* innermost first *)
}

let recorder ~enabled =
  { on = enabled; mutex = Mutex.create (); next_id = 0; recorded = [];
    open_ = [] }

let enabled r = r.on

let fresh_id r =
  Mutex.lock r.mutex;
  let id = r.next_id in
  r.next_id <- id + 1;
  Mutex.unlock r.mutex;
  id

let push r s =
  Mutex.lock r.mutex;
  r.recorded <- s :: r.recorded;
  Mutex.unlock r.mutex

let current r = match r.open_ with id :: _ -> Some id | [] -> None

let add r ?parent name ~t0 ~t1 =
  if not r.on then -1
  else begin
    let id = fresh_id r in
    push r { id; name; parent; t0; t1 };
    id
  end

let with_span r name f =
  if not r.on then f ()
  else begin
    let id = fresh_id r in
    let parent = current r in
    r.open_ <- id :: r.open_;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        r.open_ <- List.tl r.open_;
        push r { id; name; parent; t0; t1 })
      f
  end

let spans r =
  Mutex.lock r.mutex;
  let l = r.recorded in
  Mutex.unlock r.mutex;
  List.stable_sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) l

let duration s = s.t1 -. s.t0

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.t0, c.t1) else None)
      all
  in
  duration s -. covered ~lo:s.t0 ~hi:s.t1 children

let residual ~total layers = total -. List.fold_left ( +. ) 0. layers

(* ------------------------------------------------------------------ *)

let permutation ~seed n =
  let p = Array.init n Fun.id in
  Lcg.shuffle (Lcg.create seed) p;
  p

let schedule ~seed ~inputs =
  let order = Array.init (2 * inputs) (fun i -> i / 2) in
  Lcg.shuffle (Lcg.create seed) order;
  order

let repeats order =
  let seen = Hashtbl.create 16 in
  Array.map
    (fun input ->
      if Hashtbl.mem seen input then true
      else begin
        Hashtbl.add seen input ();
        false
      end)
    order

