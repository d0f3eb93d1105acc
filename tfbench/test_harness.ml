(* Unit tests of the benchmark's own helpers: percentile and quartile
   selection, span self time and residual arithmetic, and the seeded serve
   schedule with its exact one-half hit ratio. *)

module H = Harness

let feq = Alcotest.float 1e-9

let test_summarize () =
  let s = H.summarize [| 4.; 1.; 3.; 2.; 5. |] in
  Alcotest.(check int) "n" 5 s.H.n;
  Alcotest.check feq "p25" 2. s.H.p25;
  Alcotest.check feq "p50" 3. s.H.p50;
  Alcotest.check feq "p75" 4. s.H.p75;
  Alcotest.check feq "p90" 4.6 s.H.p90;
  let s = H.summarize [| 10.; 20. |] in
  Alcotest.check feq "interpolated median" 15. s.H.p50;
  Alcotest.check_raises "empty" (Invalid_argument "Harness.summarize: no samples")
    (fun () -> ignore (H.summarize [||]))

let test_tail () =
  let seq n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* 100 samples: p90 is the 90th value, with 10 above it *)
  Alcotest.(check (pair int feq)) "n=100" (90, 90.) (H.tail (seq 100));
  (* 150 samples: p93 has rank 140, 10 above; p94 has rank 141 *)
  Alcotest.(check (pair int feq)) "n=150" (93, 140.) (H.tail (seq 150));
  (* 20 samples: only the 10th value has 10 above it — the median *)
  Alcotest.(check (pair int feq)) "n=20" (50, 10.5) (H.tail (seq 20));
  Alcotest.(check (pair int feq)) "n=25" (60, 15.) (H.tail (seq 25));
  (* too few for any tail: fall back to the median, never below it *)
  Alcotest.(check (pair int feq)) "n=5" (50, 3.) (H.tail (seq 5));
  (* order of the input does not matter *)
  let shuffled = seq 100 in
  Threadfuser_util.Lcg.shuffle (Threadfuser_util.Lcg.create 7) shuffled;
  Alcotest.(check (pair int feq)) "unsorted" (90, 90.) (H.tail shuffled);
  (* every qualifying percentile really has >= 10 samples beyond it *)
  for n = 20 to 300 do
    let xs = seq n in
    let _, v = H.tail xs in
    let beyond = Array.fold_left (fun a x -> if x > v then a + 1 else a) 0 xs in
    if beyond < 10 then Alcotest.failf "n=%d: %d beyond the tail" n beyond
  done

let span id ?parent t0 t1 = { H.id; name = "s"; parent; t0; t1 }

let test_self_time () =
  let root = span 0 0. 10. in
  let all =
    [
      root;
      span 1 ~parent:0 1. 3.;
      (* overlapping children count once: [2, 5] *)
      span 2 ~parent:0 2. 5.;
      (* a child sticking out of its parent counts only inside it *)
      span 3 ~parent:0 9. 12.;
      (* grandchildren do not reduce the root's self time *)
      span 4 ~parent:1 1. 2.;
    ]
  in
  Alcotest.check feq "root self" 5. (H.self_time all root);
  Alcotest.check feq "child self" 1. (H.self_time all (List.nth all 1));
  Alcotest.check feq "leaf self" 1. (H.self_time all (List.nth all 4));
  Alcotest.check feq "no children" 10. (H.self_time [ root ] root)

let test_residual () =
  Alcotest.check feq "remainder" 1.5 (H.residual ~total:10. [ 5.; 2.5; 1. ]);
  Alcotest.check feq "no layers" 10. (H.residual ~total:10. []);
  Alcotest.check feq "overlap goes negative" (-2.) (H.residual ~total:4. [ 3.; 3. ]);
  (* a tree whose layers tile the op exactly leaves the op's self time *)
  let all = [ span 0 0. 10.; span 1 ~parent:0 0. 4.; span 2 ~parent:0 4. 9. ] in
  Alcotest.check feq "residual = self time"
    (H.self_time all (List.hd all))
    (H.residual ~total:10. [ 4.; 5. ])

let test_recorder () =
  let r = H.recorder ~enabled:true in
  let x =
    H.with_span r "op" (fun () ->
        let a = H.with_span r "a" (fun () -> 1) in
        let b = H.with_span r "b" (fun () -> 2) in
        ignore (H.add r ?parent:(H.current r) "remote" ~t0:0. ~t1:0.);
        a + b)
  in
  Alcotest.(check int) "value" 3 x;
  let spans = H.spans r in
  let find n = List.find (fun s -> s.H.name = n) spans in
  let op = find "op" in
  Alcotest.(check (option int)) "root" None op.H.parent;
  List.iter
    (fun n -> Alcotest.(check (option int)) n (Some op.H.id) (find n).H.parent)
    [ "a"; "b"; "remote" ];
  Alcotest.(check (option int)) "closed" None (H.current r);
  let off = H.recorder ~enabled:false in
  Alcotest.(check int) "disabled runs f" 5 (H.with_span off "op" (fun () -> 5));
  Alcotest.(check int) "disabled keeps nothing" 0 (List.length (H.spans off))

let test_permutation () =
  let p = H.permutation ~seed:3 128 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "a permutation" (Array.init 128 Fun.id) sorted;
  Alcotest.(check (array int)) "deterministic" p (H.permutation ~seed:3 128);
  Alcotest.(check bool) "seed matters" false (p = H.permutation ~seed:4 128)

let test_schedule () =
  for seed = 0 to 200 do
    let order = H.schedule ~seed ~inputs:8 in
    Alcotest.(check (array int)) "deterministic" order (H.schedule ~seed ~inputs:8);
    let counts = Array.make 8 0 in
    Array.iter (fun i -> counts.(i) <- counts.(i) + 1) order;
    Alcotest.(check (array int)) "each input twice" (Array.make 8 2) counts;
    let rep = H.repeats order in
    let hits = Array.fold_left (fun a b -> if b then a + 1 else a) 0 rep in
    (* exactly one half of the lookups repeat an earlier send *)
    Alcotest.(check int) "half hit" 8 hits;
    Array.iteri
      (fun slot is_rep ->
        let earlier = ref false in
        for k = 0 to slot - 1 do
          if order.(k) = order.(slot) then earlier := true
        done;
        Alcotest.(check bool) "repeat iff seen" !earlier is_rep)
      rep
  done;
  Alcotest.(check bool) "seed matters" false
    (H.schedule ~seed:1 ~inputs:8 = H.schedule ~seed:2 ~inputs:8)

let () =
  Alcotest.run "tfbench harness"
    [
      ( "summaries",
        [
          Alcotest.test_case "quartiles" `Quick test_summarize;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "residual" `Quick test_residual;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "seeded, half hit" `Quick test_schedule;
        ] );
    ]
