(* The domain pool and the one parallel layer inside a solve, the
   speculative guess bisection: pool semantics (ordering, chunking,
   exception propagation, nesting, serial fallback), a pin that the
   speculation really runs on a wide pool, and the headline determinism
   contract — a pool of any width returns exactly the serial solver's
   answer. *)

module G = Krsp_graph.Digraph
module X = Krsp_util.Xoshiro
module Pool = Krsp_util.Pool
module Instance = Krsp_core.Instance
module Krsp = Krsp_core.Krsp
module Scaling = Krsp_core.Scaling

let with_pool size f =
  let p = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- pool unit tests -------------------------------------------------------- *)

let test_map_positional () =
  with_pool 4 (fun p ->
      let n = 257 in
      let arr = Array.init n (fun i -> i) in
      let expect = Array.map (fun i -> (i * i) + 1) arr in
      (* several chunkings, including ones that do not divide n *)
      List.iter
        (fun chunk ->
          let got = Pool.parallel_map ~chunk p (fun i -> (i * i) + 1) arr in
          Alcotest.(check (array int))
            (Printf.sprintf "chunk=%d positional" chunk)
            expect got)
        [ 1; 3; 64; 1024 ];
      let got = Pool.parallel_map p (fun i -> (i * i) + 1) arr in
      Alcotest.(check (array int)) "default chunk positional" expect got)

exception Boom of int

let test_exception_propagation () =
  with_pool 4 (fun p ->
      let raised =
        try
          ignore
            (Pool.parallel_map ~chunk:1 p
               (fun i -> if i mod 3 = 0 then raise (Boom i) else i)
               (Array.init 30 (fun i -> i)));
          None
        with Boom i -> Some i
      in
      (* lowest-indexed failing chunk wins, whatever the interleaving *)
      Alcotest.(check (option int)) "lowest failing chunk's exn" (Some 0) raised;
      (* the batch failure must not poison the pool *)
      let got = Pool.parallel_map p (fun i -> i + 1) (Array.init 10 (fun i -> i)) in
      Alcotest.(check (array int)) "pool survives" (Array.init 10 (fun i -> i + 1)) got)

let test_nested_no_deadlock () =
  (* a task fans out again on the same pool — help-first waiting must keep
     this live even at width 2 *)
  with_pool 2 (fun p ->
      let got =
        Pool.parallel_map ~chunk:1 p
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.parallel_map ~chunk:1 p (fun j -> (10 * i) + j) (Array.init 4 Fun.id)))
          (Array.init 6 Fun.id)
      in
      let expect = Array.init 6 (fun i -> (40 * i) + 6) in
      Alcotest.(check (array int)) "nested sums" expect got)

let test_serial_fallback () =
  with_pool 1 (fun p ->
      Alcotest.(check int) "width" 1 (Pool.width p);
      let got = Pool.parallel_map p (fun i -> i * 2) (Array.init 20 Fun.id) in
      Alcotest.(check (array int)) "map works" (Array.init 20 (fun i -> i * 2)) got;
      (* the serial path never touches the queue: no tasks recorded *)
      Alcotest.(check (option string))
        "no queued tasks" (Some "0")
        (List.assoc_opt "pool.tasks" (Pool.to_kv p)))

let test_shutdown_idempotent () =
  let p = Pool.create ~size:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* after shutdown everything degrades to inline execution *)
  let got = Pool.parallel_map p (fun i -> i + 1) (Array.init 5 Fun.id) in
  Alcotest.(check (array int)) "post-shutdown inline" (Array.init 5 (fun i -> i + 1)) got

(* --- speculative guess bisection ------------------------------------------ *)

(* the diamond of test_core: min-sum takes both 2-hop routes (cost 6, delay
   22), min-delay the lower one plus the direct edge (cost 14, delay 7) *)
let diamond () =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5);
  g

(* D = 10 rejects the min-sum start, so the guess bisection runs over
   [6, 14]: a width-2 pool must speculate on it, a width-1 pool never *)
let test_speculation_runs () =
  let t = Instance.create (diamond ()) ~src:0 ~dst:3 ~k:2 ~delay_bound:10 in
  let launched = Krsp_util.Metrics.counter Krsp.metrics "solver.spec_launched" in
  let run w =
    let before = Krsp_util.Metrics.value launched in
    let result =
      with_pool w (fun p ->
          match Krsp.solve t ~pool:p () with
          | Ok (sol, stats) -> (sol.Instance.cost, sol.Instance.delay, sol.Instance.paths, stats)
          | Error _ -> Alcotest.failf "width %d: diamond at D = 10 is feasible" w)
    in
    (result, Krsp_util.Metrics.value launched - before)
  in
  let serial, serial_launched = run 1 in
  let wide, wide_launched = run 2 in
  let cost, delay, _, stats = serial in
  Alcotest.(check bool) "start was infeasible" true (stats.Krsp.guesses_tried > 1);
  Alcotest.(check (pair int int)) "cost and delay" (14, 7) (cost, delay);
  Alcotest.(check int) "width 1 never speculates" 0 serial_launched;
  Alcotest.(check bool) "width 2 speculates" true (wide_launched > 0);
  Alcotest.(check bool) "answer and stats equal at widths 1 and 2" true (serial = wide)

(* --- determinism across pool widths ----------------------------------------- *)

let random_graph rng ~n ~p ~cmax ~dmax =
  let g = G.create ~n () in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && X.float rng 1.0 < p then
        ignore
          (G.add_edge g ~src:u ~dst:v ~cost:(X.int_in rng 0 cmax) ~delay:(X.int_in rng 0 dmax))
    done
  done;
  g

(* canonical rendering: cost, delay and the path multiset *)
let canon = function
  | Error e -> Error e
  | Ok (sol, (stats : Krsp.stats)) ->
    Ok
      ( sol.Instance.cost,
        sol.Instance.delay,
        List.sort compare sol.Instance.paths,
        (stats.Krsp.guesses_tried, stats.Krsp.final_guess, stats.Krsp.used_fallback) )

let prop name ?(count = 25) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let solve_width_independent =
  prop "solve: pool width 4 = width 1 (bit-identical)" QCheck2.Gen.int (fun seed ->
      let rng = X.create ~seed in
      let n = 4 + X.int rng 5 in
      let g = random_graph rng ~n ~p:0.5 ~cmax:6 ~dmax:6 in
      let dbound = 2 + X.int rng 20 in
      let t = Instance.create g ~src:0 ~dst:(n - 1) ~k:2 ~delay_bound:dbound in
      let run w = with_pool w (fun p -> canon (Krsp.solve t ~pool:p ())) in
      run 1 = run 4)

let scaling_width_independent =
  prop "scaling solve: pool width 3 = width 1" ~count:10 QCheck2.Gen.int (fun seed ->
      let rng = X.create ~seed in
      let n = 5 + X.int rng 4 in
      let g = random_graph rng ~n ~p:0.5 ~cmax:30 ~dmax:30 in
      let dbound = 10 + X.int rng 60 in
      let t = Instance.create g ~src:0 ~dst:(n - 1) ~k:2 ~delay_bound:dbound in
      let run w =
        with_pool w (fun p ->
            match Scaling.solve t ~epsilon1:0.5 ~epsilon2:0.5 ~pool:p () with
            | Error e -> Error e
            | Ok r ->
              Ok
                ( r.Scaling.solution.Instance.cost,
                  r.Scaling.solution.Instance.delay,
                  List.sort compare r.Scaling.solution.Instance.paths ))
      in
      run 1 = run 3)

let suites =
  [ ( "util.pool",
      [ Alcotest.test_case "parallel_map is positional" `Quick test_map_positional;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "nested batches do not deadlock" `Quick test_nested_no_deadlock;
        Alcotest.test_case "width-1 serial fallback" `Quick test_serial_fallback;
        Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent
      ] );
    ( "parallel.speculation",
      [ Alcotest.test_case "width 2 speculates, width 1 does not" `Quick
          test_speculation_runs
      ] );
    ("parallel.determinism", [ solve_width_independent; scaling_width_independent ])
  ]
