(* Tests for the flow substrate: min-cost flow, Suurballe's disjoint paths,
   and fractional decomposition. Cross-checks: Suurballe cost equals the
   delay-free flow LP optimum; decompositions reproduce their input. *)

module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module Mcmf = Krsp_flow.Mcmf
module Suurballe = Krsp_flow.Suurballe
module Decompose = Krsp_flow.Decompose
module Lp_flow = Krsp_lp.Lp_flow
module Q = Krsp_bigint.Q
module X = Krsp_util.Xoshiro

let rational = Alcotest.testable Q.pp Q.equal

let diamond () =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5);
  g

(* the trap graph: greedy shortest path (0-1-2-3) blocks both disjoint paths;
   min-cost flow must reroute via the residual edge *)
let trap () =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:2 ~cost:1 ~delay:0);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:1 ~delay:0);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:10 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:10 ~delay:0);
  g

let test_mcmf_single_unit () =
  let g = diamond () in
  match Mcmf.min_cost_flow g ~capacity:(fun _ -> 1) ~cost:(G.cost g) ~src:0 ~dst:3 ~amount:1 with
  | Some { Mcmf.cost; _ } -> Alcotest.(check int) "cheapest path" 2 cost
  | None -> Alcotest.fail "feasible"

let test_mcmf_two_units () =
  let g = diamond () in
  match Mcmf.min_cost_flow g ~capacity:(fun _ -> 1) ~cost:(G.cost g) ~src:0 ~dst:3 ~amount:2 with
  | Some { Mcmf.cost; _ } -> Alcotest.(check int) "two cheap paths" 6 cost
  | None -> Alcotest.fail "feasible"

let test_mcmf_saturation () =
  let g = diamond () in
  (match Mcmf.min_cost_flow g ~capacity:(fun _ -> 1) ~cost:(G.cost g) ~src:0 ~dst:3 ~amount:3 with
  | Some { Mcmf.cost; _ } -> Alcotest.(check int) "all three" 16 cost
  | None -> Alcotest.fail "feasible");
  match Mcmf.min_cost_flow g ~capacity:(fun _ -> 1) ~cost:(G.cost g) ~src:0 ~dst:3 ~amount:4 with
  | None -> ()
  | Some _ -> Alcotest.fail "only 3 disjoint paths exist"

let test_mcmf_needs_rerouting () =
  let g = trap () in
  match Mcmf.min_cost_flow g ~capacity:(fun _ -> 1) ~cost:(G.cost g) ~src:0 ~dst:3 ~amount:2 with
  | Some { Mcmf.cost; _ } -> Alcotest.(check int) "reroutes around greedy trap" 22 cost
  | None -> Alcotest.fail "two disjoint paths exist"

let test_mcmf_capacities () =
  (* one edge of capacity 2 carries both units *)
  let g = G.create ~n:2 () in
  let e = G.add_edge g ~src:0 ~dst:1 ~cost:3 ~delay:0 in
  match Mcmf.min_cost_flow g ~capacity:(fun _ -> 2) ~cost:(G.cost g) ~src:0 ~dst:1 ~amount:2 with
  | Some { Mcmf.cost; flow } ->
    Alcotest.(check int) "cost 6" 6 cost;
    Alcotest.(check int) "edge carries 2" 2 flow.(e)
  | None -> Alcotest.fail "feasible"

let test_mcmf_rejects_negative () =
  let g = G.create ~n:2 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:(-1) ~delay:0);
  Alcotest.check_raises "negative cost" (Invalid_argument "Mcmf: negative cost") (fun () ->
      ignore (Mcmf.min_cost_flow g ~capacity:(fun _ -> 1) ~cost:(G.cost g) ~src:0 ~dst:1 ~amount:1))

let test_suurballe_diamond () =
  let g = diamond () in
  match Suurballe.solve g ~src:0 ~dst:3 ~k:2 with
  | Some paths ->
    Alcotest.(check int) "two paths" 2 (List.length paths);
    Alcotest.(check bool) "disjoint" true (Path.edge_disjoint paths);
    List.iter
      (fun p -> Alcotest.(check bool) "valid" true (Path.is_valid g ~src:0 ~dst:3 p))
      paths;
    Alcotest.(check int) "total cost" 6 (List.fold_left (fun a p -> a + Path.cost g p) 0 paths)
  | None -> Alcotest.fail "feasible"

let test_suurballe_trap () =
  let g = trap () in
  match Suurballe.solve g ~src:0 ~dst:3 ~k:2 with
  | Some paths ->
    Alcotest.(check bool) "disjoint" true (Path.edge_disjoint paths);
    Alcotest.(check int) "total cost" 22 (List.fold_left (fun a p -> a + Path.cost g p) 0 paths)
  | None -> Alcotest.fail "feasible"

let test_suurballe_infeasible () =
  let g = diamond () in
  Alcotest.(check bool) "k=4 impossible" true (Suurballe.solve g ~src:0 ~dst:3 ~k:4 = None)

(* random graph helper *)
let random_graph rng ~n ~p ~cmax =
  let g = G.create ~n () in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && X.float rng 1.0 < p then
        ignore (G.add_edge g ~src:u ~dst:v ~cost:(X.int_in rng 0 cmax) ~delay:(X.int_in rng 0 cmax))
    done
  done;
  g

let suurballe_matches_lp_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"suurballe cost = delay-free flow LP optimum" ~count:40
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 4 in
         let g = random_graph rng ~n ~p:0.5 ~cmax:9 in
         let k = 1 + X.int rng 2 in
         let huge = max 1 (G.total_delay g) in
         match (Suurballe.min_cost g ~src:0 ~dst:(n - 1) ~k,
                Lp_flow.solve g ~src:0 ~dst:(n - 1) ~k ~delay_bound:huge) with
         | None, None -> true
         | Some c, Some { Lp_flow.objective; _ } ->
           (* delay-free flow polytope is integral: LP optimum = flow cost *)
           Q.equal objective (Q.of_int c)
         | _ -> false))

let suurballe_paths_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"suurballe returns k valid disjoint paths" ~count:60
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 5 in
         let g = random_graph rng ~n ~p:0.5 ~cmax:9 in
         let k = 1 + X.int rng 3 in
         match Suurballe.solve g ~src:0 ~dst:(n - 1) ~k with
         | None -> not (Krsp_graph.Bfs.edge_connectivity_at_least g ~src:0 ~dst:(n - 1) ~k)
         | Some paths ->
           List.length paths = k
           && Path.edge_disjoint paths
           && List.for_all (fun p -> Path.is_valid g ~src:0 ~dst:(n - 1) p) paths))

(* The solver's prologue lets a failed min-cost flow stand for "fewer than
   k disjoint paths", with no BFS connectivity check before it: the two
   verdicts must agree on every multigraph — parallel edges, self-loops
   and tombstoned edges included. *)
let bfs_iff_mcmf_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"k-connectivity by BFS iff an MCMF k-flow exists" ~count:300
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 2 + X.int rng 6 in
         let g = G.create ~n () in
         for _ = 1 to X.int rng (4 * n) do
           ignore
             (G.add_edge g ~src:(X.int rng n) ~dst:(X.int rng n) ~cost:(X.int rng 9)
                ~delay:(X.int rng 9))
         done;
         G.iter_edges g (fun e -> if X.int rng 4 = 0 then G.remove_edge g e);
         let src = X.int rng n in
         let dst = (src + 1 + X.int rng (n - 1)) mod n in
         let k = 1 + X.int rng 4 in
         Krsp_graph.Bfs.edge_connectivity_at_least g ~src ~dst ~k
         = (Mcmf.min_cost_flow g ~capacity:(fun _ -> 1) ~cost:(G.cost g) ~src ~dst ~amount:k
            <> None)))

(* --- Decompose ------------------------------------------------------------ *)

let test_decompose_circulation () =
  let g = G.create ~n:3 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0 in
  let e12 = G.add_edge g ~src:1 ~dst:2 ~cost:0 ~delay:0 in
  let e20 = G.add_edge g ~src:2 ~dst:0 ~cost:0 ~delay:0 in
  let half = Q.of_ints 1 2 in
  let cycles = Decompose.circulation g (fun _ -> half) in
  (match cycles with
  | [ (w, c) ] ->
    Alcotest.check rational "weight 1/2" half w;
    Alcotest.(check int) "3 edges" 3 (List.length c);
    ignore (e01, e12, e20)
  | _ -> Alcotest.fail "expected a single cycle")

let test_decompose_circulation_unbalanced () =
  let g = G.create ~n:2 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0);
  Alcotest.check_raises "unbalanced"
    (Invalid_argument "Decompose.circulation: unbalanced vertex") (fun () ->
      ignore (Decompose.circulation g (fun _ -> Q.one)))

let test_decompose_st_flow () =
  let g = diamond () in
  (* half a unit on each 2-edge path, one unit direct *)
  let v = [| Q.of_ints 1 2; Q.of_ints 1 2; Q.of_ints 1 2; Q.of_ints 1 2; Q.one |] in
  let paths, cycles = Decompose.st_flow g ~src:0 ~dst:3 (fun e -> v.(e)) in
  Alcotest.(check int) "no cycles" 0 (List.length cycles);
  let total = List.fold_left (fun acc (w, _) -> Q.add acc w) Q.zero paths in
  Alcotest.check rational "total value 2" (Q.of_int 2) total;
  List.iter
    (fun (_, p) -> Alcotest.(check bool) "valid path" true (Path.is_valid g ~src:0 ~dst:3 p))
    paths

let decompose_reproduces_input_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"st decomposition reproduces edge values" ~count:40
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 4 in
         let g = random_graph rng ~n ~p:0.5 ~cmax:5 in
         let k = 1 + X.int rng 2 in
         let huge = max 1 (G.total_delay g) in
         match Lp_flow.solve g ~src:0 ~dst:(n - 1) ~k ~delay_bound:huge with
         | None -> true
         | Some { Lp_flow.flow; _ } ->
           let paths, cycles = Decompose.st_flow g ~src:0 ~dst:(n - 1) (fun e -> flow.(e)) in
           (* re-accumulate *)
           let acc = Array.make (G.m g) Q.zero in
           List.iter
             (fun (w, p) -> List.iter (fun e -> acc.(e) <- Q.add acc.(e) w) p)
             (paths @ cycles);
           Array.for_all2 (fun a b -> Q.equal a b) acc flow))

let suites =
  [ ( "mcmf",
      [ Alcotest.test_case "single unit" `Quick test_mcmf_single_unit;
        Alcotest.test_case "two units" `Quick test_mcmf_two_units;
        Alcotest.test_case "saturation" `Quick test_mcmf_saturation;
        Alcotest.test_case "rerouting via residual" `Quick test_mcmf_needs_rerouting;
        Alcotest.test_case "capacities > 1" `Quick test_mcmf_capacities;
        Alcotest.test_case "rejects negative cost" `Quick test_mcmf_rejects_negative
      ] );
    ( "suurballe",
      [ Alcotest.test_case "diamond" `Quick test_suurballe_diamond;
        Alcotest.test_case "trap graph" `Quick test_suurballe_trap;
        Alcotest.test_case "infeasible" `Quick test_suurballe_infeasible;
        suurballe_matches_lp_prop;
        suurballe_paths_prop;
        bfs_iff_mcmf_prop
      ] );
    ( "decompose",
      [ Alcotest.test_case "circulation" `Quick test_decompose_circulation;
        Alcotest.test_case "unbalanced rejected" `Quick test_decompose_circulation_unbalanced;
        Alcotest.test_case "st flow" `Quick test_decompose_st_flow;
        decompose_reproduces_input_prop
      ] )
  ]
