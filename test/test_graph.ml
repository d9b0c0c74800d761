(* Tests for the graph substrate: Digraph / Path / Heap / Dijkstra /
   Bellman-Ford / Bfs / Scc / Karp / Walk, with property tests comparing
   engines against each other and against brute force. *)

module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module Heap = Krsp_graph.Heap
module Dijkstra = Krsp_graph.Dijkstra
module BF = Krsp_graph.Bellman_ford
module Bfs = Krsp_graph.Bfs
module Scc = Krsp_graph.Scc
module Karp = Krsp_graph.Karp
module Walk = Krsp_graph.Walk
module X = Krsp_util.Xoshiro

(* --- helpers ------------------------------------------------------------ *)

(* Small random digraph with given edge probability and weight range. *)
let random_graph rng ~n ~p ~wmin ~wmax =
  let g = G.create ~n () in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && X.float rng 1.0 < p then
        ignore
          (G.add_edge g ~src:u ~dst:v ~cost:(X.int_in rng wmin wmax)
             ~delay:(X.int_in rng wmin wmax))
    done
  done;
  g

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3, plus a slow direct edge 0 -> 3 *)
  let g = G.create ~n:4 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10 in
  let e13 = G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10 in
  let e02 = G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1 in
  let e23 = G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1 in
  let e03 = G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5 in
  (g, e01, e13, e02, e23, e03)

(* --- Digraph ------------------------------------------------------------ *)

let test_digraph_basics () =
  let g, e01, _, _, _, _ = diamond () in
  Alcotest.(check int) "n" 4 (G.n g);
  Alcotest.(check int) "m" 5 (G.m g);
  Alcotest.(check int) "src" 0 (G.src g e01);
  Alcotest.(check int) "dst" 1 (G.dst g e01);
  Alcotest.(check int) "cost" 1 (G.cost g e01);
  Alcotest.(check int) "delay" 10 (G.delay g e01);
  Alcotest.(check int) "out deg 0" 3 (G.out_degree g 0);
  Alcotest.(check int) "in deg 3" 3 (G.in_degree g 3);
  Alcotest.(check int) "total cost" 16 (G.total_cost g);
  Alcotest.(check int) "total delay" 27 (G.total_delay g)

let test_digraph_parallel_edges () =
  let g = G.create ~n:2 () in
  let e1 = G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:1 in
  let e2 = G.add_edge g ~src:0 ~dst:1 ~cost:2 ~delay:2 in
  Alcotest.(check bool) "distinct ids" true (e1 <> e2);
  Alcotest.(check int) "both present" 2 (G.out_degree g 0)

let test_digraph_growth () =
  let g = G.create ~expected_edges:1 ~n:1 () in
  let vs = List.init 100 (fun _ -> G.add_vertex g) in
  Alcotest.(check int) "n grows" 101 (G.n g);
  List.iter (fun v -> ignore (G.add_edge g ~src:0 ~dst:v ~cost:1 ~delay:1)) vs;
  Alcotest.(check int) "m grows" 100 (G.m g)

let test_digraph_bad_edge () =
  let g = G.create ~n:2 () in
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Digraph.add_edge: endpoint out of range") (fun () ->
      ignore (G.add_edge g ~src:0 ~dst:5 ~cost:0 ~delay:0))

let test_digraph_reverse () =
  let g, _, _, _, _, _ = diamond () in
  let r = G.reverse g in
  Alcotest.(check int) "same m" (G.m g) (G.m r);
  Alcotest.(check int) "in/out swapped" (G.out_degree g 0) (G.in_degree r 0);
  G.iter_edges r (fun e ->
      Alcotest.(check bool) "reversed edge exists" true
        (Option.is_some (G.find_edge g ~src:(G.dst r e) ~dst:(G.src r e))))

let test_digraph_copy_isolated () =
  let g = G.create ~n:2 () in
  let _ = G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:1 in
  let g2 = G.copy g in
  ignore (G.add_edge g2 ~src:1 ~dst:0 ~cost:5 ~delay:5);
  Alcotest.(check int) "original untouched" 1 (G.m g);
  Alcotest.(check int) "copy extended" 2 (G.m g2)

(* --- CSR views ----------------------------------------------------------- *)

module V = G.View

let sorted_iter_out view u =
  let acc = ref [] in
  V.iter_out view u (fun e -> acc := e :: !acc);
  List.sort compare !acc

let sorted_iter_in view u =
  let acc = ref [] in
  V.iter_in view u (fun e -> acc := e :: !acc);
  List.sort compare !acc

(* the graph-level iterators must agree with the lists whether or not the
   CSR fast path is engaged *)
let sorted_g_iter_out g u =
  let acc = ref [] in
  G.iter_out g u (fun e -> acc := e :: !acc);
  List.sort compare !acc

let test_freeze_caching () =
  let g, _, _, _, _, _ = diamond () in
  let gen0 = G.generation g in
  Alcotest.(check bool) "fresh graph unfrozen" false (G.is_frozen g);
  let v1 = G.freeze g in
  Alcotest.(check bool) "frozen" true (G.is_frozen g);
  let v2 = G.freeze g in
  Alcotest.(check bool) "second freeze is cached" true (v1 == v2);
  ignore (G.add_edge g ~src:3 ~dst:0 ~cost:1 ~delay:1);
  Alcotest.(check bool) "generation bumped" true (G.generation g > gen0);
  Alcotest.(check bool) "add_edge invalidates" false (G.is_frozen g);
  let v3 = G.freeze g in
  Alcotest.(check bool) "rebuilt after mutation" true (not (v1 == v3));
  ignore (G.add_vertex g);
  Alcotest.(check bool) "add_vertex invalidates" false (G.is_frozen g)

let test_view_stale_semantics () =
  let g, e01, _, _, _, e03 = diamond () in
  let view = G.freeze g in
  Alcotest.(check bool) "valid when fresh" true (V.valid view);
  let e30 = G.add_edge g ~src:3 ~dst:0 ~cost:1 ~delay:1 in
  Alcotest.(check bool) "stale after add_edge" false (V.valid view);
  (* the stale view still describes the pre-mutation adjacency *)
  Alcotest.(check int) "old m" 5 (V.m view);
  Alcotest.(check (list int)) "old out 3" [] (sorted_iter_out view 3);
  Alcotest.(check (list int)) "old in 0" [] (sorted_iter_in view 0);
  let view' = G.freeze g in
  Alcotest.(check (list int)) "new out 3" [ e30 ] (sorted_iter_out view' 3);
  let w = G.add_vertex g in
  Alcotest.check_raises "vertex beyond the freeze"
    (Invalid_argument "Digraph.View: vertex outside snapshot") (fun () ->
      V.iter_out view' w (fun _ -> ()));
  ignore (e01, e03)

let test_view_weight_readthrough () =
  let g, e01, _, _, _, _ = diamond () in
  let view = G.freeze g in
  G.set_cost g e01 42;
  G.set_delay g e01 7;
  (* weights are live, adjacency is frozen: the view stays current *)
  Alcotest.(check bool) "set_cost keeps view valid" true (V.valid view);
  Alcotest.(check bool) "set_cost keeps graph frozen" true (G.is_frozen g);
  Alcotest.(check int) "cost reads through" 42 (V.cost view e01);
  Alcotest.(check int) "delay reads through" 7 (V.delay view e01)

(* regression: [copy] must not share the cached CSR snapshot — a copy that
   reused it would miss its own subsequent add_edge in iter_out *)
let test_copy_csr_isolated () =
  let g, e01, _, _, _, _ = diamond () in
  let view = G.freeze g in
  let g2 = G.copy g in
  let e_new = G.add_edge g2 ~src:3 ~dst:0 ~cost:9 ~delay:9 in
  Alcotest.(check (list int)) "copy sees its own edge" [ e_new ] (sorted_g_iter_out g2 3);
  Alcotest.(check bool) "original still frozen" true (G.is_frozen g);
  Alcotest.(check bool) "original view still valid" true (V.valid view);
  Alcotest.(check (list int)) "original out 3 untouched" [] (sorted_iter_out view 3);
  (* weight mutations cannot leak through either direction *)
  G.set_cost g e01 1000;
  Alcotest.(check int) "copy keeps its own cost" 1 (G.cost g2 e01);
  G.set_cost g2 e01 500;
  Alcotest.(check int) "original keeps its own cost" 1000 (G.cost g e01)

(* satellite property: under an interleaved script of add_edge (parallel
   edges and self-loops included), add_vertex and freeze, every frozen view
   exposes exactly the adjacency-list edge multisets, in both directions *)
let csr_matches_lists_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"frozen csr = adjacency lists under interleaved mutation"
       ~count:200 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let g = G.create ~expected_edges:4 ~n:(1 + X.int rng 4) () in
         let ok = ref true in
         let check_view () =
           let view = G.freeze g in
           ok := !ok && V.valid view && V.n view = G.n g && V.m view = G.m g;
           for u = 0 to G.n g - 1 do
             ok :=
               !ok
               && sorted_iter_out view u = List.sort compare (G.out_edges g u)
               && sorted_iter_in view u = List.sort compare (G.in_edges g u)
               && sorted_g_iter_out g u = List.sort compare (G.out_edges g u)
               && V.out_degree view u = G.out_degree g u
               && V.in_degree view u = G.in_degree g u
           done;
           G.iter_edges g (fun e ->
               ok :=
                 !ok
                 && V.src view e = G.src g e
                 && V.dst view e = G.dst g e
                 && V.cost view e = G.cost g e
                 && V.delay view e = G.delay g e)
         in
         for _ = 1 to 25 do
           match X.int rng 8 with
           | 0 | 1 | 2 | 3 | 4 ->
             (* arbitrary endpoints: self-loops and parallel edges welcome *)
             let n = G.n g in
             let u = X.int rng n and v = X.int rng n in
             ignore (G.add_edge g ~src:u ~dst:v ~cost:(X.int_in rng (-9) 9) ~delay:(X.int rng 9))
           | 5 -> ignore (G.add_vertex g)
           | _ -> check_view ()
         done;
         check_view ();
         !ok))

(* tentpole property: after any interleaved script of inserts, deletes,
   revives, re-weights, vertex additions and renumberings, the overlay
   freeze is
   bit-indistinguishable from a from-scratch full build — identical edge
   sequences (ids and weights) per vertex in both directions, identical
   spans and degrees — at every compaction regime, including runs that
   cross compaction boundaries mid-script *)
let overlay_equals_refreeze_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"overlay freeze = full refreeze under churn" ~count:150
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let g = G.create ~expected_edges:8 ~n:(2 + X.int rng 4) () in
         (* 0 = overlays disabled (always compact), 8 = effectively never
            compact, the rest straddle the boundary *)
         let frac = [| 0.; 0.05; 0.125; 0.5; 8. |].(X.int rng 5) in
         G.set_compaction_threshold g frac;
         let ok = ref true in
         let out_row v u =
           let acc = ref [] in
           V.iter_out v u (fun e ->
               acc := (e, V.src v e, V.dst v e, V.cost v e, V.delay v e) :: !acc);
           List.rev !acc
         in
         let in_row v u =
           let acc = ref [] in
           V.iter_in v u (fun e ->
               acc := (e, V.src v e, V.dst v e, V.cost v e, V.delay v e) :: !acc);
           List.rev !acc
         in
         let span_row v u =
           let lo, hi = V.out_span v u in
           List.init (hi - lo) (fun i -> V.out_entry v (lo + i))
         in
         let same_view va vb =
           ok := !ok && V.n va = V.n vb && V.m va = V.m vb;
           for u = 0 to V.n va - 1 do
             ok :=
               !ok
               && out_row va u = out_row vb u
               && in_row va u = in_row vb u
               && V.out_degree va u = V.out_degree vb u
               && V.in_degree va u = V.in_degree vb u
               (* the span/entry cursor must agree with the iterator on
                  both sides, whatever representation each one uses *)
               && span_row va u = List.map (fun (e, _, _, _, _) -> e) (out_row va u)
               && span_row vb u = List.map (fun (e, _, _, _, _) -> e) (out_row vb u)
           done
         in
         let check () =
           let va = G.freeze g in
           let vb = G.rebuild (G.copy g) in
           ok := !ok && V.valid va;
           same_view va vb
         in
         for _ = 1 to 30 do
           let n = G.n g and m = G.m g in
           match X.int rng 11 with
           | 0 | 1 | 2 ->
             let u = X.int rng n and v = X.int rng n in
             ignore (G.add_edge g ~src:u ~dst:v ~cost:(X.int rng 9) ~delay:(X.int rng 9))
           | 3 | 4 ->
             if m > 0 then begin
               let e = X.int rng m in
               if G.alive g e then G.remove_edge g e
             end
           | 5 ->
             if m > 0 then begin
               let e = X.int rng m in
               if not (G.alive g e) then G.unremove_edge g e
             end
           | 6 ->
             if m > 0 then begin
               let e = X.int rng m in
               G.set_cost g e (X.int rng 9);
               G.set_delay g e (X.int rng 9)
             end
           | 7 -> ignore (G.add_vertex g)
           | 8 -> ignore (G.renumber g ~keep:(fun _ -> X.bool rng))
           | _ -> check ()
         done;
         check ();
         !ok))

(* deterministic companions to the property: the counters and the alive
   bookkeeping the property does not pin down *)
let test_remove_unremove () =
  let g, e01, e13, e02, _, e03 = diamond () in
  Alcotest.(check int) "all alive" (G.m g) (G.m_alive g);
  G.remove_edge g e01;
  Alcotest.(check bool) "dead" false (G.alive g e01);
  Alcotest.(check int) "m stable" 5 (G.m g);
  Alcotest.(check int) "m_alive drops" 4 (G.m_alive g);
  Alcotest.(check (list int)) "out 0 skips dead" (List.sort compare [ e02; e03 ])
    (List.sort compare (G.out_edges g 0));
  Alcotest.check_raises "double remove rejected"
    (Invalid_argument "Digraph.remove_edge: edge already removed") (fun () ->
      G.remove_edge g e01);
  G.unremove_edge g e01;
  Alcotest.(check bool) "back" true (G.alive g e01);
  Alcotest.(check int) "m_alive restored" 5 (G.m_alive g);
  Alcotest.check_raises "unremove of live edge rejected"
    (Invalid_argument "Digraph.unremove_edge: edge is not removed") (fun () ->
      G.unremove_edge g e13)

(* A renumbered graph is, through the returned table, a fresh build of
   the kept edges — live ones and the tombstones [keep] accepted, appended
   in ascending old-id order: the same endpoints, weights and liveness per
   id, the same newest-first lists and CSR rows — and its next freeze is a
   full build, not an overlay over the stale base. *)
let renumber_equals_fresh_build_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"renumber = fresh build of the kept edges" ~count:200
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 1 + X.int rng 5 in
         let g = G.create ~expected_edges:4 ~n () in
         for _ = 1 to X.int rng 30 do
           ignore
             (G.add_edge g ~src:(X.int rng n) ~dst:(X.int rng n) ~cost:(X.int rng 9)
                ~delay:(X.int rng 9))
         done;
         ignore (G.freeze g);
         G.iter_edges g (fun e -> if X.int rng 3 = 0 then G.remove_edge g e);
         let before = G.copy g in
         let keep = Array.init (G.m g) (fun _ -> X.bool rng) in
         let full0 = (G.topo_stats g).G.full_freezes in
         let table = G.renumber g ~keep:(fun e -> keep.(e)) in
         let fresh = G.create ~n () in
         let expect =
           Array.init (G.m before) (fun e ->
               if G.alive before e || keep.(e) then
                 G.add_edge fresh ~src:(G.src before e) ~dst:(G.dst before e)
                   ~cost:(G.cost before e) ~delay:(G.delay before e)
               else -1)
         in
         Array.iteri
           (fun e e' -> if e' >= 0 && not (G.alive before e) then G.remove_edge fresh e')
           expect;
         let ids = List.init (G.m g) Fun.id in
         let lists h = List.init n (fun u -> (G.out_edges h u, G.in_edges h u)) in
         let rows v =
           List.init n (fun u ->
               ( V.fold_out v u ~init:[] ~f:(fun a e -> e :: a),
                 V.fold_in v u ~init:[] ~f:(fun a e -> e :: a) ))
         in
         let view = G.freeze g in
         table = expect
         && G.m g = G.m fresh
         && G.m_alive g = G.m_alive before
         && (G.topo_stats g).G.removed_edges = (G.topo_stats fresh).G.removed_edges
         && List.for_all
              (fun e ->
                G.src g e = G.src fresh e
                && G.dst g e = G.dst fresh e
                && G.cost g e = G.cost fresh e
                && G.delay g e = G.delay fresh e
                && G.alive g e = G.alive fresh e)
              ids
         && lists g = lists fresh
         && rows view = rows (G.rebuild fresh)
         && (not (V.is_overlay view))
         && (G.topo_stats g).G.full_freezes = full0 + 1))

let test_topo_stats_counters () =
  let g = G.create ~n:4 () in
  for v = 0 to 2 do
    ignore (G.add_edge g ~src:v ~dst:(v + 1) ~cost:1 ~delay:1)
  done;
  ignore (G.freeze g);
  let s0 = G.topo_stats g in
  Alcotest.(check int) "first freeze is full" 1 s0.G.full_freezes;
  (* a small patch goes through the overlay path... *)
  G.remove_edge g 0;
  ignore (G.freeze g);
  let s1 = G.topo_stats g in
  Alcotest.(check int) "overlay freeze counted" 1 s1.G.overlay_freezes;
  Alcotest.(check int) "patched edge counted" 1 s1.G.patched_edges;
  (* the overlay keeps carrying its patch over the base until a
     compaction folds it in *)
  Alcotest.(check int) "patch still pending over base" 1 s1.G.patch_pending;
  Alcotest.(check int) "removed edges tracked" 1 s1.G.removed_edges;
  (* ...and with compaction forced, the next mutation re-freezes fully *)
  G.set_compaction_threshold g 0.;
  G.unremove_edge g 0;
  ignore (G.freeze g);
  let s2 = G.topo_stats g in
  Alcotest.(check int) "compaction counted" (s1.G.compactions + 1) s2.G.compactions;
  Alcotest.(check int) "second full freeze" 2 s2.G.full_freezes

(* --- Path --------------------------------------------------------------- *)

let test_path_accessors () =
  let g, e01, e13, _, _, _ = diamond () in
  let p = [ e01; e13 ] in
  Alcotest.(check int) "cost" 2 (Path.cost g p);
  Alcotest.(check int) "delay" 20 (Path.delay g p);
  Alcotest.(check int) "source" 0 (Path.source g p);
  Alcotest.(check int) "target" 3 (Path.target g p);
  Alcotest.(check (list int)) "vertices" [ 0; 1; 3 ] (Path.vertices g p);
  Alcotest.(check bool) "valid" true (Path.is_valid g ~src:0 ~dst:3 p);
  Alcotest.(check bool) "invalid chain" false (Path.is_valid g ~src:0 ~dst:3 [ e13; e01 ]);
  Alcotest.(check bool) "simple" true (Path.is_simple g p)

let test_path_disjoint () =
  let _g, e01, e13, e02, e23, e03 = diamond () in
  Alcotest.(check bool) "disjoint" true (Path.edge_disjoint [ [ e01; e13 ]; [ e02; e23 ] ]);
  Alcotest.(check bool) "shared edge" false (Path.edge_disjoint [ [ e01; e13 ]; [ e01; e13 ] ]);
  Alcotest.(check bool) "three disjoint" true
    (Path.edge_disjoint [ [ e01; e13 ]; [ e02; e23 ]; [ e03 ] ])

let test_path_simple_cycle () =
  let g = G.create ~n:3 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0 in
  let e12 = G.add_edge g ~src:1 ~dst:2 ~cost:0 ~delay:0 in
  let e20 = G.add_edge g ~src:2 ~dst:0 ~cost:0 ~delay:0 in
  Alcotest.(check bool) "cycle" true (Path.is_simple_cycle g [ e01; e12; e20 ]);
  Alcotest.(check bool) "open path" false (Path.is_simple_cycle g [ e01; e12 ])

(* --- Heap ---------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h ~prio:p ~value:v) [ (5, 50); (1, 10); (3, 30); (2, 20); (4, 40) ];
  let out = List.init 5 (fun _ -> Option.get (Heap.pop_min h)) in
  Alcotest.(check (list (pair int int)))
    "sorted" [ (1, 10); (2, 20); (3, 30); (4, 40); (5, 50) ] out;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let heap_sort_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"heap sorts any sequence" ~count:300
       QCheck2.Gen.(list (int_range (-1000) 1000))
       (fun xs ->
         let h = Heap.create () in
         List.iter (fun x -> Heap.push h ~prio:x ~value:0) xs;
         let rec drain acc = match Heap.pop_min h with None -> List.rev acc | Some (p, _) -> drain (p :: acc) in
         drain [] = List.sort compare xs))

(* --- Dijkstra / Bellman-Ford --------------------------------------------- *)

let test_dijkstra_diamond () =
  let g, e01, e13, e02, e23, _ = diamond () in
  (match Dijkstra.shortest_path g ~weight:(G.cost g) ~src:0 ~dst:3 () with
  | Some (d, p) ->
    Alcotest.(check int) "min cost" 2 d;
    Alcotest.(check (list int)) "cheap path" [ e01; e13 ] p
  | None -> Alcotest.fail "expected path");
  match Dijkstra.shortest_path g ~weight:(G.delay g) ~src:0 ~dst:3 () with
  | Some (d, p) ->
    Alcotest.(check int) "min delay" 2 d;
    Alcotest.(check (list int)) "fast path" [ e02; e23 ] p
  | None -> Alcotest.fail "expected path"

let test_dijkstra_unreachable () =
  let g = G.create ~n:3 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:1);
  Alcotest.(check bool) "no path" true
    (Dijkstra.shortest_path g ~weight:(G.cost g) ~src:0 ~dst:2 () = None)

let test_dijkstra_disabled () =
  let g, e01, _, _, _, e03 = diamond () in
  match
    Dijkstra.shortest_path g ~weight:(G.cost g)
      ~disabled:(fun e -> e = e01)
      ~src:0 ~dst:3 ()
  with
  | Some (d, p) ->
    Alcotest.(check int) "detour cost" 4 d;
    Alcotest.(check bool) "avoids disabled" true (not (List.mem e01 p));
    ignore e03
  | None -> Alcotest.fail "expected path"

let test_dijkstra_negative_rejected () =
  let g = G.create ~n:2 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:(-1) ~delay:0);
  Alcotest.check_raises "negative weight" (Invalid_argument "Dijkstra: negative edge weight")
    (fun () -> ignore (Dijkstra.run g ~weight:(G.cost g) ~src:0 ()))

let test_bf_negative_edges () =
  (* negative edges but no negative cycle *)
  let g = G.create ~n:4 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:5 ~delay:0 in
  let e12 = G.add_edge g ~src:1 ~dst:2 ~cost:(-3) ~delay:0 in
  let e02 = G.add_edge g ~src:0 ~dst:2 ~cost:4 ~delay:0 in
  let e23 = G.add_edge g ~src:2 ~dst:3 ~cost:1 ~delay:0 in
  ignore e02;
  match BF.shortest_path g ~weight:(G.cost g) ~src:0 ~dst:3 () with
  | Some (d, p) ->
    Alcotest.(check int) "distance through negative edge" 3 d;
    Alcotest.(check (list int)) "path" [ e01; e12; e23 ] p
  | None -> Alcotest.fail "expected path"

let test_bf_negative_cycle () =
  let g = G.create ~n:3 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:0 in
  let e12 = G.add_edge g ~src:1 ~dst:2 ~cost:(-2) ~delay:0 in
  let e20 = G.add_edge g ~src:2 ~dst:0 ~cost:(-1) ~delay:0 in
  (match BF.negative_cycle g ~weight:(G.cost g) () with
  | Some c ->
    Alcotest.(check bool) "is cycle" true (Path.is_simple_cycle g c);
    Alcotest.(check bool) "negative" true (Path.cost g c < 0);
    Alcotest.(check int) "all three edges" 3 (List.length c);
    ignore (e01, e12, e20)
  | None -> Alcotest.fail "expected negative cycle");
  match BF.run g ~weight:(G.cost g) ~src:0 () with
  | BF.Negative_cycle c -> Alcotest.(check bool) "run detects too" true (Path.cost g c < 0)
  | BF.Dist _ -> Alcotest.fail "run should detect cycle"

let test_bf_no_negative_cycle () =
  let g, _, _, _, _, _ = diamond () in
  Alcotest.(check bool) "none" true (BF.negative_cycle g ~weight:(G.cost g) () = None)

let dijkstra_equals_bf_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"dijkstra = bellman-ford on non-negative graphs" ~count:100
       QCheck2.Gen.(pair (int_range 2 10) int)
       (fun (n, seed) ->
         let rng = X.create ~seed in
         let g = random_graph rng ~n ~p:0.4 ~wmin:0 ~wmax:20 in
         let dj = Dijkstra.run g ~weight:(G.cost g) ~src:0 () in
         match BF.run g ~weight:(G.cost g) ~src:0 () with
         | BF.Negative_cycle _ -> false
         | BF.Dist { dist; _ } -> dist = dj.Dijkstra.dist))

(* --- Bfs ----------------------------------------------------------------- *)

let test_bfs_reachable () =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:2 ~cost:0 ~delay:0);
  let r = Bfs.reachable g ~src:0 () in
  Alcotest.(check (array bool)) "reach" [| true; true; true; false |] r

let test_bfs_hop_path () =
  let g, _, _, _, _, e03 = diamond () in
  match Bfs.hop_path g ~src:0 ~dst:3 () with
  | Some p ->
    Alcotest.(check (list int)) "direct edge wins hops" [ e03 ] p
  | None -> Alcotest.fail "expected path"

let test_edge_connectivity () =
  let g, _, _, _, _, _ = diamond () in
  Alcotest.(check bool) "k=3" true (Bfs.edge_connectivity_at_least g ~src:0 ~dst:3 ~k:3);
  Alcotest.(check bool) "k=4" false (Bfs.edge_connectivity_at_least g ~src:0 ~dst:3 ~k:4)

let test_edge_connectivity_needs_backward () =
  (* classic example where greedy forward paths block each other and the
     residual (backward) edges are required to reach the optimum of 2 *)
  let g = G.create ~n:4 () in
  (* s=0, t=3; paths 0-1-3 and 0-2-3 exist but 0-1-2-3 steals both *)
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:2 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:0 ~delay:0);
  Alcotest.(check bool) "two disjoint paths" true
    (Bfs.edge_connectivity_at_least g ~src:0 ~dst:3 ~k:2);
  Alcotest.(check bool) "not three" false (Bfs.edge_connectivity_at_least g ~src:0 ~dst:3 ~k:3)

(* --- Scc ------------------------------------------------------------------ *)

let test_scc_basic () =
  let g = G.create ~n:5 () in
  (* cycle 0-1-2, then 3, 4 in a chain *)
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:2 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:2 ~dst:0 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:3 ~dst:4 ~cost:0 ~delay:0);
  let r = Scc.run g in
  Alcotest.(check int) "three components" 3 r.Scc.count;
  Alcotest.(check bool) "0~1" true (Scc.same_component r 0 1);
  Alcotest.(check bool) "1~2" true (Scc.same_component r 1 2);
  Alcotest.(check bool) "2!~3" false (Scc.same_component r 2 3);
  Alcotest.(check bool) "3!~4" false (Scc.same_component r 3 4)

let test_scc_acyclic () =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:2 ~cost:0 ~delay:0);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:0 ~delay:0);
  Alcotest.(check int) "n components" 4 (Scc.run g).Scc.count

let test_scc_long_path_no_overflow () =
  let n = 50_000 in
  let g = G.create ~n () in
  for i = 0 to n - 2 do
    ignore (G.add_edge g ~src:i ~dst:(i + 1) ~cost:0 ~delay:0)
  done;
  Alcotest.(check int) "iterative tarjan survives" n (Scc.run g).Scc.count

(* --- Karp ------------------------------------------------------------------ *)

(* brute force: enumerate all simple cycles by DFS (tiny graphs only) *)
let brute_min_mean g ~weight =
  let n = G.n g in
  let best = ref None in
  let rec dfs start path_edges visited v =
    G.iter_out g v (fun e ->
        let w = G.dst g e in
        if w = start then begin
          let cyc = List.rev (e :: path_edges) in
          let s = List.fold_left (fun acc e -> acc + weight e) 0 cyc in
          let l = List.length cyc in
          match !best with
          | None -> best := Some (s, l)
          | Some (bs, bl) -> if s * bl < bs * l then best := Some (s, l)
        end
        else if w > start && not (List.mem w visited) then
          dfs start (e :: path_edges) (w :: visited) w)
  in
  for v = 0 to n - 1 do
    dfs v [] [ v ] v
  done;
  !best

let test_karp_simple () =
  let g = G.create ~n:4 () in
  (* cycle A: 0-1-0 weight 4 over 2 edges (mean 2); cycle B: 1-2-3-1 weight 3
     over 3 edges (mean 1) *)
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:2 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:0 ~cost:2 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:2 ~cost:1 ~delay:0);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:1 ~delay:0);
  ignore (G.add_edge g ~src:3 ~dst:1 ~cost:1 ~delay:0);
  match Karp.min_mean_cycle g ~weight:(G.cost g) () with
  | Some ((num, den), cyc) ->
    Alcotest.(check bool) "mean = 1" true (num = den);
    Alcotest.(check bool) "valid cycle" true (Path.is_simple_cycle g cyc);
    (* direct check: cost(cyc)/len(cyc) = num/den *)
    Alcotest.(check int) "exact mean" 0 ((Path.cost g cyc * den) - (num * List.length cyc))
  | None -> Alcotest.fail "expected cycle"

let test_karp_acyclic () =
  let g = G.create ~n:3 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:0);
  ignore (G.add_edge g ~src:1 ~dst:2 ~cost:1 ~delay:0);
  Alcotest.(check bool) "no cycle" true (Karp.min_mean_cycle g ~weight:(G.cost g) () = None)

let karp_matches_brute_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"karp matches brute force on small graphs" ~count:100
       QCheck2.Gen.(pair (int_range 2 6) int)
       (fun (n, seed) ->
         let rng = X.create ~seed in
         let g = random_graph rng ~n ~p:0.5 ~wmin:(-5) ~wmax:10 in
         match (Karp.min_mean_cycle g ~weight:(G.cost g) (), brute_min_mean g ~weight:(G.cost g)) with
         | None, None -> true
         | Some ((num, den), cyc), Some (bs, bl) ->
           (* means agree and the returned cycle attains it *)
           num * bl = bs * den
           && Path.is_simple_cycle g cyc
           && Path.cost g cyc * den = num * List.length cyc
         | _ -> false))

(* --- Walk ------------------------------------------------------------------ *)

let test_walk_single_cycle () =
  let g = G.create ~n:3 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0 in
  let e12 = G.add_edge g ~src:1 ~dst:2 ~cost:0 ~delay:0 in
  let e20 = G.add_edge g ~src:2 ~dst:0 ~cost:0 ~delay:0 in
  match Walk.decompose_cycles g [ e01; e12; e20 ] with
  | [ c ] ->
    Alcotest.(check bool) "simple cycle" true (Path.is_simple_cycle g c);
    Alcotest.(check int) "3 edges" 3 (List.length c)
  | cs -> Alcotest.fail (Printf.sprintf "expected 1 cycle, got %d" (List.length cs))

let test_walk_figure_eight () =
  (* two cycles sharing vertex 0 *)
  let g = G.create ~n:3 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0 in
  let e10 = G.add_edge g ~src:1 ~dst:0 ~cost:0 ~delay:0 in
  let e02 = G.add_edge g ~src:0 ~dst:2 ~cost:0 ~delay:0 in
  let e20 = G.add_edge g ~src:2 ~dst:0 ~cost:0 ~delay:0 in
  let cycles = Walk.decompose_cycles g [ e01; e10; e02; e20 ] in
  Alcotest.(check int) "two cycles" 2 (List.length cycles);
  List.iter
    (fun c -> Alcotest.(check bool) "each simple" true (Path.is_simple_cycle g c))
    cycles

let test_walk_unbalanced_rejected () =
  let g = G.create ~n:2 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0 in
  Alcotest.check_raises "unbalanced"
    (Invalid_argument "Walk.decompose_cycles: unbalanced vertex") (fun () ->
      ignore (Walk.decompose_cycles g [ e01 ]))

let test_walk_decompose_st () =
  let g, e01, e13, e02, e23, e03 = diamond () in
  let paths, cycles = Walk.decompose_st g ~src:0 ~dst:3 ~k:3 [ e01; e13; e02; e23; e03 ] in
  Alcotest.(check int) "three paths" 3 (List.length paths);
  Alcotest.(check int) "no cycles" 0 (List.length cycles);
  Alcotest.(check bool) "disjoint" true (Path.edge_disjoint paths);
  List.iter
    (fun p -> Alcotest.(check bool) "valid st path" true (Path.is_valid g ~src:0 ~dst:3 p))
    paths

let test_walk_decompose_st_with_cycle () =
  let g = G.create ~n:4 () in
  let e01 = G.add_edge g ~src:0 ~dst:1 ~cost:0 ~delay:0 in
  let e12 = G.add_edge g ~src:1 ~dst:2 ~cost:0 ~delay:0 in
  let e21 = G.add_edge g ~src:2 ~dst:1 ~cost:0 ~delay:0 in
  let e13 = G.add_edge g ~src:1 ~dst:3 ~cost:0 ~delay:0 in
  let paths, cycles = Walk.decompose_st g ~src:0 ~dst:3 ~k:1 [ e01; e12; e21; e13 ] in
  Alcotest.(check int) "one path" 1 (List.length paths);
  Alcotest.(check int) "one cycle" 1 (List.length cycles);
  (match paths with
  | [ p ] -> Alcotest.(check bool) "valid" true (Path.is_valid g ~src:0 ~dst:3 p)
  | _ -> Alcotest.fail "expected one path");
  match cycles with
  | [ c ] -> Alcotest.(check bool) "cycle is 1-2-1" true (Path.is_simple_cycle g c)
  | _ -> Alcotest.fail "expected one cycle"

(* property: random eulerian-ish multiset built from random simple cycles
   decomposes into cycles covering exactly the input edges *)
let walk_decomposition_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cycle decomposition covers input exactly" ~count:100
       QCheck2.Gen.(pair (int_range 3 8) int)
       (fun (n, seed) ->
         let rng = X.create ~seed in
         let g = G.create ~n () in
         (* build 1-3 random vertex cycles, edges all fresh (multigraph) *)
         let all_edges = ref [] in
         let rounds = 1 + X.int rng 3 in
         for _ = 1 to rounds do
           let len = 2 + X.int rng (n - 1) in
           let vs = Array.init n (fun i -> i) in
           X.shuffle rng vs;
           let cycle_vs = Array.sub vs 0 len in
           Array.iteri
             (fun i u ->
               let v = cycle_vs.((i + 1) mod len) in
               all_edges := G.add_edge g ~src:u ~dst:v ~cost:0 ~delay:0 :: !all_edges)
             cycle_vs
         done;
         let cycles = Walk.decompose_cycles g !all_edges in
         let out = List.concat cycles in
         List.sort compare out = List.sort compare !all_edges
         && List.for_all (fun c -> Path.is_simple_cycle g c) cycles))

let suites =
  [ ( "digraph",
      [ Alcotest.test_case "basics" `Quick test_digraph_basics;
        Alcotest.test_case "parallel edges" `Quick test_digraph_parallel_edges;
        Alcotest.test_case "growth" `Quick test_digraph_growth;
        Alcotest.test_case "bad edge rejected" `Quick test_digraph_bad_edge;
        Alcotest.test_case "reverse" `Quick test_digraph_reverse;
        Alcotest.test_case "copy isolated" `Quick test_digraph_copy_isolated
      ] );
    ( "csr-view",
      [ Alcotest.test_case "freeze caching" `Quick test_freeze_caching;
        Alcotest.test_case "stale semantics" `Quick test_view_stale_semantics;
        Alcotest.test_case "weight read-through" `Quick test_view_weight_readthrough;
        Alcotest.test_case "copy does not share snapshot" `Quick test_copy_csr_isolated;
        csr_matches_lists_prop
      ] );
    ( "dynamic-topology",
      [ Alcotest.test_case "remove/unremove bookkeeping" `Quick test_remove_unremove;
        Alcotest.test_case "topo_stats counters" `Quick test_topo_stats_counters;
        overlay_equals_refreeze_prop;
        renumber_equals_fresh_build_prop
      ] );
    ( "path",
      [ Alcotest.test_case "accessors" `Quick test_path_accessors;
        Alcotest.test_case "edge disjoint" `Quick test_path_disjoint;
        Alcotest.test_case "simple cycle" `Quick test_path_simple_cycle
      ] );
    ("heap", [ Alcotest.test_case "ordering" `Quick test_heap_ordering; heap_sort_prop ]);
    ( "shortest-paths",
      [ Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra_diamond;
        Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "dijkstra disabled edges" `Quick test_dijkstra_disabled;
        Alcotest.test_case "dijkstra rejects negative" `Quick test_dijkstra_negative_rejected;
        Alcotest.test_case "bf negative edges" `Quick test_bf_negative_edges;
        Alcotest.test_case "bf negative cycle" `Quick test_bf_negative_cycle;
        Alcotest.test_case "bf no negative cycle" `Quick test_bf_no_negative_cycle;
        dijkstra_equals_bf_prop
      ] );
    ( "bfs",
      [ Alcotest.test_case "reachable" `Quick test_bfs_reachable;
        Alcotest.test_case "hop path" `Quick test_bfs_hop_path;
        Alcotest.test_case "edge connectivity" `Quick test_edge_connectivity;
        Alcotest.test_case "connectivity needs residual" `Quick test_edge_connectivity_needs_backward
      ] );
    ( "scc",
      [ Alcotest.test_case "basic" `Quick test_scc_basic;
        Alcotest.test_case "acyclic" `Quick test_scc_acyclic;
        Alcotest.test_case "long path (stack safety)" `Quick test_scc_long_path_no_overflow
      ] );
    ( "karp",
      [ Alcotest.test_case "simple" `Quick test_karp_simple;
        Alcotest.test_case "acyclic" `Quick test_karp_acyclic;
        karp_matches_brute_prop
      ] );
    ( "walk",
      [ Alcotest.test_case "single cycle" `Quick test_walk_single_cycle;
        Alcotest.test_case "figure eight" `Quick test_walk_figure_eight;
        Alcotest.test_case "unbalanced rejected" `Quick test_walk_unbalanced_rejected;
        Alcotest.test_case "decompose st" `Quick test_walk_decompose_st;
        Alcotest.test_case "decompose st with cycle" `Quick test_walk_decompose_st_with_cycle;
        walk_decomposition_prop
      ] )
  ]
