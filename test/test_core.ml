(* Tests for the paper's machinery: residual graphs (Def. 6), the ⊕ operation
   (Prop. 7), bicameral classification (Def. 10), the layered auxiliary graph
   (Algorithm 2 / Lemma 15), both cycle-search engines (Algorithm 3), the
   Algorithm 1 driver, the Theorem 4 scaling wrapper, the exact solver, and
   the baselines — with end-to-end ratio checks against the exact optimum. *)

module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module X = Krsp_util.Xoshiro
module Instance = Krsp_core.Instance
module Residual = Krsp_core.Residual
module Bicameral = Krsp_core.Bicameral
module Layered = Krsp_core.Layered
module Dp = Krsp_core.Cycle_search_dp
module Lp_engine = Krsp_core.Cycle_search_lp
module Phase1 = Krsp_core.Phase1
module Krsp = Krsp_core.Krsp
module Scaling = Krsp_core.Scaling
module Exact = Krsp_core.Exact
module Baselines = Krsp_core.Baselines
module Hard = Krsp_gen.Hard

(* --- fixtures -------------------------------------------------------------- *)

let diamond_instance ~delay_bound ~k =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5);
  Instance.create g ~src:0 ~dst:3 ~k ~delay_bound

let random_graph rng ~n ~p ~cmax ~dmax =
  let g = G.create ~n () in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && X.float rng 1.0 < p then
        ignore (G.add_edge g ~src:u ~dst:v ~cost:(X.int_in rng 0 cmax) ~delay:(X.int_in rng 0 dmax))
    done
  done;
  g

(* a random *feasible* instance with its exact optimum, or None *)
let random_feasible_instance rng ~n ~k =
  let g = random_graph rng ~n ~p:0.5 ~cmax:6 ~dmax:6 in
  let probe_bound = max 1 (G.total_delay g) in
  if not (Krsp_graph.Bfs.edge_connectivity_at_least g ~src:0 ~dst:(n - 1) ~k) then None
  else begin
    let probe = Instance.create g ~src:0 ~dst:(n - 1) ~k ~delay_bound:probe_bound in
    match Instance.min_possible_delay probe with
    | None -> None
    | Some dmin ->
      (* pick a bound somewhere at or above the minimum achievable *)
      let bound = dmin + X.int rng (max 1 (dmin + 5)) in
      Some (Instance.create g ~src:0 ~dst:(n - 1) ~k ~delay_bound:bound)
  end

(* --- Instance -------------------------------------------------------------- *)

let test_instance_validation () =
  let g = G.create ~n:3 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:1);
  Alcotest.check_raises "src=dst" (Invalid_argument "Instance.create: src = dst") (fun () ->
      ignore (Instance.create g ~src:0 ~dst:0 ~k:1 ~delay_bound:1));
  Alcotest.check_raises "k<1" (Invalid_argument "Instance.create: k < 1") (fun () ->
      ignore (Instance.create g ~src:0 ~dst:1 ~k:0 ~delay_bound:1));
  let g2 = G.create ~n:2 () in
  ignore (G.add_edge g2 ~src:0 ~dst:1 ~cost:(-1) ~delay:1);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Instance.create: negative edge weight") (fun () ->
      ignore (Instance.create g2 ~src:0 ~dst:1 ~k:1 ~delay_bound:1))

let test_instance_solution () =
  let t = diamond_instance ~delay_bound:30 ~k:2 in
  let sol = Instance.solution_of_paths t [ [ 0; 1 ]; [ 2; 3 ] ] in
  Alcotest.(check int) "cost" 6 sol.Instance.cost;
  Alcotest.(check int) "delay" 22 sol.Instance.delay;
  Alcotest.(check bool) "feasible" true (Instance.is_feasible t sol);
  Alcotest.check_raises "not disjoint"
    (Invalid_argument "Instance.solution_of_paths: not k disjoint st-paths") (fun () ->
      ignore (Instance.solution_of_paths t [ [ 0; 1 ]; [ 0; 1 ] ]))

let test_instance_min_delay () =
  let t = diamond_instance ~delay_bound:30 ~k:2 in
  Alcotest.(check (option int)) "min possible" (Some 7) (Instance.min_possible_delay t);
  let t3 = diamond_instance ~delay_bound:30 ~k:3 in
  Alcotest.(check (option int)) "k=3" (Some 27) (Instance.min_possible_delay t3);
  Alcotest.(check bool) "k=4 disconnected" true
    (Instance.min_possible_delay (diamond_instance ~delay_bound:30 ~k:4) = None)

(* --- Residual / ⊕ ---------------------------------------------------------- *)

let test_residual_structure () =
  let t = diamond_instance ~delay_bound:30 ~k:2 in
  let paths = [ [ 0; 1 ] ] in
  let res = Residual.build t.Instance.graph ~paths in
  let rg = res.Residual.graph in
  Alcotest.(check int) "same m" (G.m t.Instance.graph) (G.m rg);
  G.iter_edges rg (fun re ->
      let base = res.Residual.base_edge.(re) in
      if res.Residual.is_reversed.(re) then begin
        Alcotest.(check int) "reversed src" (G.dst t.Instance.graph base) (G.src rg re);
        Alcotest.(check int) "reversed dst" (G.src t.Instance.graph base) (G.dst rg re);
        Alcotest.(check int) "negated cost" (-G.cost t.Instance.graph base) (G.cost rg re);
        Alcotest.(check int) "negated delay" (-G.delay t.Instance.graph base) (G.delay rg re)
      end
      else begin
        Alcotest.(check int) "same cost" (G.cost t.Instance.graph base) (G.cost rg re);
        Alcotest.(check int) "same delay" (G.delay t.Instance.graph base) (G.delay rg re)
      end);
  let n_reversed =
    Array.to_list res.Residual.is_reversed |> List.filter (fun b -> b) |> List.length
  in
  Alcotest.(check int) "two reversed" 2 n_reversed

let test_residual_rejects_shared () =
  let t = diamond_instance ~delay_bound:30 ~k:2 in
  Alcotest.check_raises "shared edges" (Invalid_argument "Residual.build: paths share edges")
    (fun () -> ignore (Residual.build t.Instance.graph ~paths:[ [ 0; 1 ]; [ 0; 3 ] ]))

(* The arena path must be observationally equivalent to a fresh build: for
   every base edge exactly one of its two doubled copies is active, and the
   active copy carries the orientation and weights the built residual gives
   that edge. The cycle search must then see the same space through either. *)
let arena_matches_build_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"arena residual = built residual (mask + search)" ~count:50
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 4 in
         let k = 1 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k with
         | None -> true
         | Some t -> (
           match Phase1.min_sum t with
           | Phase1.No_k_paths | Phase1.Lp_infeasible -> true
           | Phase1.Start s ->
             let g = t.Instance.graph in
             let paths = s.Phase1.paths in
             let res_b = Residual.build g ~paths in
             let res_a = Residual.of_arena (Residual.arena g) ~paths in
             let ga = res_a.Residual.graph and gb = res_b.Residual.graph in
             let ok = ref true in
             (* build aligns residual ids with base ids; the arena doubles
                them as forward 2e / reversed 2e+1 *)
             G.iter_edges g (fun e ->
                 let fwd = Residual.active res_a (2 * e)
                 and rev = Residual.active res_a ((2 * e) + 1) in
                 ok := !ok && fwd <> rev;
                 let ae = if fwd then 2 * e else (2 * e) + 1 in
                 ok :=
                   !ok
                   && res_a.Residual.base_edge.(ae) = e
                   && res_a.Residual.is_reversed.(ae) = res_b.Residual.is_reversed.(e)
                   && G.src ga ae = G.src gb e
                   && G.dst ga ae = G.dst gb e
                   && G.cost ga ae = G.cost gb e
                   && G.delay ga ae = G.delay gb e);
             let bound = max 1 (min 30 (G.total_cost g)) in
             let sol = Instance.solution_of_paths t paths in
             let ctx =
               {
                 Bicameral.delta_d = t.Instance.delay_bound - sol.Instance.delay;
                 delta_c = bound - sol.Instance.cost;
                 cost_cap = bound;
               }
             in
             let sig_of = function None -> None | Some c -> Some (c.Dp.cost, c.Dp.delay) in
             let from_build = Dp.find res_b ~ctx ~bound ~exhaustive:true () in
             let from_arena = Dp.find res_a ~ctx ~bound ~exhaustive:true () in
             !ok && sig_of from_build = sig_of from_arena)))

(* Proposition 7 as a property: applying any simple residual cycle to k
   disjoint paths yields k disjoint paths whose cost/delay shift by exactly
   (c(O), d(O)). *)
let oplus_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"⊕ preserves k disjoint paths, shifts (cost,delay) by cycle"
       ~count:80 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 4 in
         let k = 1 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k with
         | None -> true
         | Some t -> (
           match Phase1.min_sum t with
           | Phase1.No_k_paths | Phase1.Lp_infeasible -> true
           | Phase1.Start s ->
             let sol = Instance.solution_of_paths t s.Phase1.paths in
             let res = Residual.build t.Instance.graph ~paths:sol.Instance.paths in
             let cands = Dp.enumerate_raw res ~bound:(max 1 (G.total_cost t.Instance.graph)) in
             List.for_all
               (fun (cyc, ccost, cdelay) ->
                 let edges =
                   Residual.apply_cycle res ~current:(Instance.edge_set sol) ~cycle:cyc
                 in
                 let paths, _ =
                   Krsp_graph.Walk.decompose_st t.Instance.graph ~src:t.Instance.src
                     ~dst:t.Instance.dst ~k edges
                 in
                 Instance.is_structurally_valid t paths
                 &&
                 let cost' = List.fold_left (fun a p -> a + Path.cost t.Instance.graph p) 0 paths in
                 let delay' =
                   List.fold_left (fun a p -> a + Path.delay t.Instance.graph p) 0 paths
                 in
                 (* the ⊕ result is the same edge SET; path decomposition may
                    drop zero-weight cycles, so the shift is exact on the edge
                    set, and paths can only be cheaper/faster *)
                 cost' <= sol.Instance.cost + ccost && delay' <= sol.Instance.delay + cdelay)
               cands)))

(* Lemma 9: while over the delay bound (and the instance feasible), the
   residual graph always contains a negative-delay cycle. *)
let lemma9_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"lemma 9: over-budget residual has negative-delay cycle"
       ~count:60 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 3 in
         let k = 1 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k with
         | None -> true
         | Some t -> (
           match Phase1.min_sum t with
           | Phase1.No_k_paths | Phase1.Lp_infeasible -> true
           | Phase1.Start s ->
             let sol = Instance.solution_of_paths t s.Phase1.paths in
             if sol.Instance.delay <= t.Instance.delay_bound then true
             else begin
               let res = Residual.build t.Instance.graph ~paths:sol.Instance.paths in
               let cands =
                 Dp.enumerate_raw res ~bound:(max 1 (G.total_cost t.Instance.graph))
               in
               List.exists (fun (_, _, d) -> d < 0) cands
             end)))

(* --- Bicameral ------------------------------------------------------------- *)

let test_bicameral_type0 () =
  let ctx = { Bicameral.delta_d = -10; delta_c = 5; cost_cap = 100 } in
  Alcotest.(check bool) "d<0 c<=0" true
    (Bicameral.classify ctx ~cost:0 ~delay:(-1) = Some Bicameral.Type0);
  Alcotest.(check bool) "d<=0 c<0" true
    (Bicameral.classify ctx ~cost:(-1) ~delay:0 = Some Bicameral.Type0);
  Alcotest.(check bool) "zero cycle not bicameral" true
    (Bicameral.classify ctx ~cost:0 ~delay:0 = None)

let test_bicameral_type1 () =
  (* ΔD/ΔC = -10/5 = -2: type-1 needs d/c <= -2 *)
  let ctx = { Bicameral.delta_d = -10; delta_c = 5; cost_cap = 100 } in
  Alcotest.(check bool) "steep enough" true
    (Bicameral.classify ctx ~cost:1 ~delay:(-3) = Some Bicameral.Type1);
  Alcotest.(check bool) "exactly ratio" true
    (Bicameral.classify ctx ~cost:1 ~delay:(-2) = Some Bicameral.Type1);
  Alcotest.(check bool) "too shallow" true (Bicameral.classify ctx ~cost:1 ~delay:(-1) = None);
  Alcotest.(check bool) "over cap" true
    (Bicameral.classify ctx ~cost:101 ~delay:(-500) = None)

let test_bicameral_type2 () =
  let ctx = { Bicameral.delta_d = -10; delta_c = 5; cost_cap = 100 } in
  (* type-2 needs d/c >= -2 with c < 0: e.g. (c=-1, d=1): 1/-1 = -1 >= -2 ✓ *)
  Alcotest.(check bool) "ok" true
    (Bicameral.classify ctx ~cost:(-1) ~delay:1 = Some Bicameral.Type2);
  Alcotest.(check bool) "too much delay gain" true
    (Bicameral.classify ctx ~cost:(-1) ~delay:3 = None);
  Alcotest.(check bool) "over cap" true
    (Bicameral.classify ctx ~cost:(-101) ~delay:1 = None)

let test_bicameral_delta_c_nonpositive () =
  let ctx = { Bicameral.delta_d = -10; delta_c = 0; cost_cap = 100 } in
  Alcotest.(check bool) "only type0 allowed" true
    (Bicameral.classify ctx ~cost:1 ~delay:(-100) = None);
  Alcotest.(check bool) "type0 still fine" true
    (Bicameral.classify ctx ~cost:(-1) ~delay:(-1) = Some Bicameral.Type0)

let test_bicameral_preference () =
  let ctx = { Bicameral.delta_d = -10; delta_c = 5; cost_cap = 100 } in
  (* type-0 beats type-1 *)
  Alcotest.(check bool) "type0 first" true
    (Bicameral.compare_candidates ctx (-1, -1) (1, -5) < 0);
  (* steeper ratio wins among type-1 *)
  Alcotest.(check bool) "steeper wins" true
    (Bicameral.compare_candidates ctx (1, -5) (1, -3) < 0)

(* --- Layered / Lemma 15 ----------------------------------------------------- *)

(* Figure-2 style check: build a small residual graph, a layered H⁺, and
   verify the bijection by brute-force cycle enumeration on both sides. *)
let enumerate_simple_cycles g =
  (* all vertex-simple cycles, deduplicated by edge set *)
  let out = ref [] in
  let n = G.n g in
  let rec dfs start visited path v =
    G.iter_out g v (fun e ->
        let w = G.dst g e in
        if w = start then out := List.rev (e :: path) :: !out
        else if w > start && not (List.mem w visited) then
          dfs start (w :: visited) (e :: path) w)
  in
  for v = 0 to n - 1 do
    dfs v [ v ] [] v
  done;
  !out

let test_layered_lemma15 () =
  let t = diamond_instance ~delay_bound:4 ~k:1 in
  (* one path 0->1->3 used; residual reverses edges 0 and 1 *)
  let res = Residual.build t.Instance.graph ~paths:[ [ 0; 1 ] ] in
  let bound = 6 in
  (* Lemma 15, executable form: every residual cycle with |cost| ≤ B whose
     prefix-sum spread fits in B (from its best rotation) appears in the H of
     some vertex on it. *)
  let rcycles = enumerate_simple_cycles res.Residual.graph in
  Alcotest.(check bool) "some residual cycle exists" true (rcycles <> []);
  let rotations cyc =
    let arr = Array.of_list cyc in
    let len = Array.length arr in
    List.init len (fun r -> List.init len (fun i -> arr.((r + i) mod len)))
  in
  let spread cyc =
    let acc = ref 0 and lo = ref 0 and hi = ref 0 in
    List.iter
      (fun e ->
        acc := !acc + G.cost res.Residual.graph e;
        if !acc < !lo then lo := !acc;
        if !acc > !hi then hi := !acc)
      cyc;
    !hi - !lo
  in
  let checked = ref 0 in
  List.iter
    (fun cyc ->
      let c = Krsp_core.Residual.cycle_cost res cyc in
      let min_spread =
        List.fold_left (fun acc r -> min acc (spread r)) max_int (rotations cyc)
      in
      if abs c <= bound && min_spread <= bound then begin
        incr checked;
        let side = if c >= 0 then Layered.Plus else Layered.Minus in
        let found =
          List.exists
            (fun rot ->
              let root = G.src res.Residual.graph (List.hd rot) in
              let h = Layered.build res ~root ~bound ~side in
              let hcycles = enumerate_simple_cycles h.Layered.graph in
              List.exists
                (fun hc ->
                  List.sort compare (Layered.to_residual_edges h hc)
                  = List.sort compare cyc)
                hcycles)
            (rotations cyc)
        in
        Alcotest.(check bool) (Printf.sprintf "cycle cost %d embeds in some H" c) true found
      end)
    rcycles;
  Alcotest.(check bool) "at least one cycle checked" true (!checked > 0)

let test_layered_counts () =
  let t = diamond_instance ~delay_bound:4 ~k:1 in
  let res = Residual.build t.Instance.graph ~paths:[ [ 0; 1 ] ] in
  let bound = 3 in
  let h = Layered.build res ~root:0 ~bound ~side:Layered.Plus in
  Alcotest.(check int) "vertices = n·(B+1)" (G.n res.Residual.graph * (bound + 1))
    (G.n h.Layered.graph);
  (* closing edges: bound many *)
  let closing =
    List.length (List.filter (fun e -> h.Layered.res_edge.(e) = -1) (G.edges h.Layered.graph))
  in
  Alcotest.(check int) "closing edges" bound closing

(* H cycles map back to residual cycles with cost within [-B, B] *)
let layered_projection_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"lemma 15: H-cycles project to cost-bounded residual cycles"
       ~count:40 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k:1 with
         | None -> true
         | Some t -> (
           match Phase1.min_sum t with
           | Phase1.No_k_paths | Phase1.Lp_infeasible -> true
           | Phase1.Start s ->
             let res = Residual.build t.Instance.graph ~paths:s.Phase1.paths in
             let bound = 4 in
             let root = t.Instance.src in
             let h = Layered.build res ~root ~bound ~side:Layered.Plus in
             let hcycles = enumerate_simple_cycles h.Layered.graph in
             List.for_all
               (fun hc ->
                 let redges = Layered.to_residual_edges h hc in
                 if redges = [] then true
                 else begin
                   let cycles =
                     Krsp_graph.Walk.decompose_cycles res.Residual.graph redges
                   in
                   List.for_all
                     (fun cyc ->
                       let c = Krsp_core.Residual.cycle_cost res cyc in
                       c >= -bound && c <= bound)
                     cycles
                 end)
               hcycles)))

(* --- engines agree ----------------------------------------------------------- *)

(* The LP engine solves LP (6) exactly as the paper states it, with the
   circulation's *total* delay capped at ΔD. A single shallow bicameral cycle
   (delay in (ΔD, 0)) is therefore invisible to it while the DP engine finds
   it — a gap of the brief announcement discussed in DESIGN.md. The sound
   direction is: whatever either engine returns must really be bicameral, and
   anything the LP engine can see the DP engine must see too. *)
let engines_agree_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"lp engine candidates are bicameral and dominated by dp"
       ~count:20 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k:1 with
         | None -> true
         | Some t -> (
           match Phase1.min_sum t with
           | Phase1.No_k_paths | Phase1.Lp_infeasible -> true
           | Phase1.Start s ->
             let sol = Instance.solution_of_paths t s.Phase1.paths in
             if sol.Instance.delay <= t.Instance.delay_bound then true
             else begin
               match Exact.solve t with
               | None -> true
               | Some opt ->
                 let ctx =
                   {
                     Bicameral.delta_d = t.Instance.delay_bound - sol.Instance.delay;
                     delta_c = opt.Exact.cost - sol.Instance.cost;
                     cost_cap = max 1 opt.Exact.cost;
                   }
                 in
                 let bound = 5 (* keep the exact-rational LPs small *) in
                 let res = Residual.build t.Instance.graph ~paths:sol.Instance.paths in
                 let dp = Dp.find res ~ctx ~bound ~exhaustive:true () in
                 let lp = Lp_engine.find res ~ctx ~bound ~exhaustive:true () in
                 let valid = function
                   | None -> true
                   | Some c ->
                     Bicameral.is_bicameral ctx ~cost:c.Dp.cost ~delay:c.Dp.delay
                 in
                 valid dp && valid lp && (lp = None || dp <> None)
             end)))

(* --- the implicit DP state space against a materialised product ----------- *)

module BF = Krsp_graph.Bellman_ford

(* The reference: the (2B+1)-layer product built as a graph, vertex
   u·(2B+1) + (c+B) per state and one edge per active residual edge per
   layer that keeps the cost inside the window, weighted by the residual
   delay; [pmap] maps product edges back to residual edges. *)
let materialised_product res ~bound =
  let rg = res.Residual.graph in
  let width = (2 * bound) + 1 in
  let idx u c = (u * width) + (c + bound) in
  let p = G.create ~expected_edges:(G.m rg * width) ~n:(G.n rg * width) () in
  let pmap = ref [] in
  G.iter_edges rg (fun e ->
      if Residual.active res e then begin
        let u = G.src rg e and w = G.dst rg e in
        let c = G.cost rg e and d = G.delay rg e in
        for i = max (-bound) (-bound - c) to min bound (bound - c) do
          ignore (G.add_edge p ~src:(idx u i) ~dst:(idx w (i + c)) ~cost:d ~delay:0);
          pmap := e :: !pmap
        done
      end);
  (p, Array.of_list (List.rev !pmap), idx)

(* the reference search over the materialised product, phase by phase *)
let reference_search res ~bound =
  let p, pmap, idx = materialised_product res ~bound in
  let project pe = if pe < 0 then pe else pmap.(pe) in
  let phase_a = Option.map (List.map project) (BF.negative_cycle p ~weight:(G.cost p) ()) in
  let phase_b root =
    match BF.run p ~weight:(G.cost p) ~src:(idx root 0) () with
    | BF.Negative_cycle _ -> None
    | BF.Dist { dist; parent } -> Some (dist, parent)
  in
  let root_walks root =
    match phase_b root with
    | None -> []
    | Some (dist, parent) ->
      let rec collect acc v =
        let e = parent.(v) in
        if e = -1 then acc else collect (pmap.(e) :: acc) (G.src p e)
      in
      List.filter_map
        (fun c ->
          if c <> 0 && dist.(idx root c) <> max_int then Some (collect [] (idx root c)) else None)
        (List.init ((2 * bound) + 1) (fun i -> i - bound))
  in
  let phase_b_projected root =
    Option.map (fun (dist, parent) -> (dist, Array.map project parent)) (phase_b root)
  in
  (phase_a, phase_b_projected, root_walks)

let search_roots res =
  let rg = res.Residual.graph in
  List.filter
    (fun v ->
      let touches = ref false in
      G.iter_edges rg (fun e ->
          if res.Residual.is_reversed.(e) && Residual.active res e
             && (G.src rg e = v || G.dst rg e = v)
          then touches := true);
      !touches)
    (List.init (G.n rg) Fun.id)

let reference_enumerate_raw res ~bound =
  let phase_a, _, root_walks = reference_search res ~bound in
  let cycles walk =
    List.map
      (fun cyc -> (cyc, Residual.cycle_cost res cyc, Residual.cycle_delay res cyc))
      (Krsp_graph.Walk.decompose_cycles res.Residual.graph walk)
  in
  let walks =
    match phase_a with
    | Some walk -> [ walk ]
    | None -> List.concat_map root_walks (search_roots res)
  in
  List.fold_left (fun acc walk -> List.rev_append (cycles walk) acc) [] walks

let reference_find_exhaustive res ~ctx ~bound =
  let phase_a, _, root_walks = reference_search res ~bound in
  let candidates walk =
    List.filter_map
      (fun cyc ->
        let cost = Residual.cycle_cost res cyc and delay = Residual.cycle_delay res cyc in
        Option.map
          (fun kind -> { Dp.edges = cyc; cost; delay; kind })
          (Bicameral.classify ctx ~cost ~delay))
      (Krsp_graph.Walk.decompose_cycles res.Residual.graph walk)
  in
  let per_root root =
    List.fold_left (fun acc walk -> candidates walk @ acc) [] (root_walks root)
  in
  let all =
    List.fold_left
      (fun acc root -> per_root root @ acc)
      (match phase_a with None -> [] | Some walk -> candidates walk)
      (search_roots res)
  in
  List.fold_left
    (fun best c ->
      match best with
      | Some b
        when Bicameral.compare_candidates ctx (b.Dp.cost, b.Dp.delay) (c.Dp.cost, c.Dp.delay)
             <= 0 ->
        best
      | _ -> Some c)
    None all

(* The starts are min-sum paths under four weightings of the same graph —
   cost, delay, random, and 6 − delay (long paths, so reversed edges carry
   large negative delays) — giving residuals with negative cycles of every
   sign pattern; small cost ranges make zero-cost negative-delay cycles,
   which phase A hunts, common. After the paths are fixed, a fifth of the
   off-path base edges are tombstoned. *)
let implicit_product_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"implicit product = materialised product (dp search)" ~count:150
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 5 in
         let k = 1 + X.int rng 3 in
         let g = random_graph rng ~n ~p:0.5 ~cmax:[| 1; 2; 6 |].(X.int rng 3) ~dmax:6 in
         if not (Krsp_graph.Bfs.edge_connectivity_at_least g ~src:0 ~dst:(n - 1) ~k) then true
         else begin
           let weigh f =
             (* no tombstones yet, so edge ids carry over to the copy *)
             let g', _ = G.filter_map_edges g ~f:(fun e -> Some (f e, 0)) in
             Phase1.min_sum (Instance.create g' ~src:0 ~dst:(n - 1) ~k ~delay_bound:0)
           in
           let start =
             match X.int rng 4 with
             | 0 -> weigh (G.cost g)
             | 1 -> weigh (G.delay g)
             | 2 -> weigh (fun _ -> X.int rng 7)
             | _ -> weigh (fun e -> 6 - G.delay g e)
           in
           match start with
           | Phase1.No_k_paths | Phase1.Lp_infeasible -> true
           | Phase1.Start s ->
             let paths = s.Phase1.paths in
             let on_path = Hashtbl.create 16 in
             List.iter (List.iter (fun e -> Hashtbl.replace on_path e ())) paths;
             G.iter_edges g (fun e ->
                 if (not (Hashtbl.mem on_path e)) && X.int rng 5 = 0 then G.remove_edge g e);
             let res =
               if X.bool rng then Residual.build g ~paths
               else Residual.of_arena (Residual.arena g) ~paths
             in
             let bound = 1 + X.int rng 8 in
             let ctx =
               {
                 Bicameral.delta_d = X.int_in rng (-10) 10;
                 delta_c = X.int rng (2 * bound);
                 cost_cap = bound;
               }
             in
             let ref_a, ref_b, _ = reference_search res ~bound in
             let sp = Dp.space res ~bound in
             Dp.phase_a sp = ref_a
             && List.for_all (fun root -> Dp.phase_b sp ~root = ref_b root) (List.init n Fun.id)
             && Dp.enumerate_raw res ~bound = reference_enumerate_raw res ~bound
             && Dp.find res ~ctx ~bound ~exhaustive:true ()
                = reference_find_exhaustive res ~ctx ~bound
         end))

(* --- Krsp end-to-end --------------------------------------------------------- *)

let expect_ok = function
  | Ok x -> x
  | Error Krsp.No_k_disjoint_paths -> Alcotest.fail "unexpected: no k disjoint paths"
  | Error (Krsp.Delay_bound_unreachable _) -> Alcotest.fail "unexpected: delay unreachable"

let test_krsp_diamond_tight () =
  (* k=2, bound 8: optimum is fast pair {0-2-3, 0-3}: cost 14, delay 7 *)
  let t = diamond_instance ~delay_bound:8 ~k:2 in
  let sol, stats = expect_ok (Krsp.solve t ()) in
  Alcotest.(check bool) "feasible" true (Instance.is_feasible t sol);
  (match Exact.solve t with
  | Some opt ->
    Alcotest.(check int) "exact opt" 14 opt.Exact.cost;
    Alcotest.(check bool) "within 2x" true (sol.Instance.cost <= 2 * opt.Exact.cost)
  | None -> Alcotest.fail "exact should find it");
  Alcotest.(check bool) "no fallback" true (not stats.Krsp.used_fallback)

let test_krsp_diamond_loose () =
  (* loose bound: min-sum is already optimal, zero iterations *)
  let t = diamond_instance ~delay_bound:25 ~k:2 in
  let sol, stats = expect_ok (Krsp.solve t ()) in
  Alcotest.(check int) "cost 6" 6 sol.Instance.cost;
  Alcotest.(check int) "0 iterations" 0 stats.Krsp.iterations

let test_krsp_infeasible_delay () =
  let t = diamond_instance ~delay_bound:2 ~k:2 in
  match Krsp.solve t () with
  | Error (Krsp.Delay_bound_unreachable d) -> Alcotest.(check int) "min delay 7" 7 d
  | _ -> Alcotest.fail "expected Delay_bound_unreachable"

let test_krsp_no_k_paths () =
  let t = diamond_instance ~delay_bound:100 ~k:4 in
  match Krsp.solve t () with
  | Error Krsp.No_k_disjoint_paths -> ()
  | _ -> Alcotest.fail "expected No_k_disjoint_paths"

let krsp_ratio_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"krsp: feasible and cost <= 2·OPT (exact reference)" ~count:60
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 4 in
         let k = 1 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k with
         | None -> true
         | Some t -> (
           match Exact.solve t with
           | None -> false (* feasible by construction *)
           | Some opt -> (
             match Krsp.solve t () with
             | Error _ -> false
             | Ok (sol, _stats) ->
               Instance.is_feasible t sol && sol.Instance.cost <= 2 * opt.Exact.cost))))

let krsp_lp_rounding_start_ratio_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"krsp with LP-rounding start: feasible and cost <= 2·OPT"
       ~count:30 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 3 in
         match random_feasible_instance rng ~n ~k:2 with
         | None -> true
         | Some t -> (
           match Exact.solve t with
           | None -> false
           | Some opt -> (
             match Krsp.solve t ~phase1:Phase1.Lp_rounding () with
             | Error _ -> false
             | Ok (sol, _) ->
               Instance.is_feasible t sol && sol.Instance.cost <= 2 * opt.Exact.cost))))

let krsp_lp_engine_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"krsp with LP engine: feasible and cost <= 2·OPT" ~count:15
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k:2 with
         | None -> true
         | Some t -> (
           match Exact.solve t with
           | None -> false
           | Some opt -> (
             match Krsp.solve t ~engine:Krsp.Lp () with
             | Error _ -> false
             | Ok (sol, _) ->
               Instance.is_feasible t sol && sol.Instance.cost <= 2 * opt.Exact.cost))))

let test_krsp_k1_matches_rsp_dp () =
  let rng = X.create ~seed:4242 in
  for _ = 1 to 20 do
    let n = 4 + X.int rng 4 in
    match random_feasible_instance rng ~n ~k:1 with
    | None -> ()
    | Some t -> (
      let dp =
        Krsp_rsp.Rsp_dp.solve t.Instance.graph ~src:t.Instance.src ~dst:t.Instance.dst
          ~delay_bound:t.Instance.delay_bound
      in
      match (Krsp.solve t (), dp) with
      | Ok (sol, _), Some (opt_cost, _) ->
        Alcotest.(check bool) "within 2x of RSP optimum" true (sol.Instance.cost <= 2 * opt_cost)
      | Error _, None -> ()
      | Ok _, None -> Alcotest.fail "krsp solved an infeasible instance"
      | Error _, Some _ -> Alcotest.fail "krsp failed a feasible instance")
  done

(* --- Phase 1 ------------------------------------------------------------------ *)

let test_phase1_min_sum_cost_bound () =
  let t = diamond_instance ~delay_bound:8 ~k:2 in
  match (Phase1.min_sum t, Exact.solve t) with
  | Phase1.Start s, Some opt ->
    Alcotest.(check bool) "start cost <= OPT" true (s.Phase1.cost <= opt.Exact.cost)
  | _ -> Alcotest.fail "both should succeed"

let test_phase1_lp_rounding_valid () =
  let t = diamond_instance ~delay_bound:8 ~k:2 in
  match Phase1.lp_rounding t with
  | Phase1.Start s ->
    Alcotest.(check bool) "k disjoint valid paths" true
      (Instance.is_structurally_valid t s.Phase1.paths)
  | _ -> Alcotest.fail "lp rounding should start"

let test_phase1_lp_detects_infeasible () =
  let t = diamond_instance ~delay_bound:2 ~k:2 in
  match Phase1.lp_rounding t with
  | Phase1.Lp_infeasible -> ()
  | _ -> Alcotest.fail "expected Lp_infeasible"

let phase1_lp_rounding_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"lp rounding start is structurally valid" ~count:40
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 4 + X.int rng 4 in
         let k = 1 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k with
         | None -> true
         | Some t -> (
           match Phase1.lp_rounding t with
           | Phase1.Start s -> Instance.is_structurally_valid t s.Phase1.paths
           | Phase1.No_k_paths -> false
           | Phase1.Lp_infeasible -> false (* instance is feasible *))))

(* --- Scaling (Theorem 4) ------------------------------------------------------ *)

let test_scaling_diamond () =
  let t = diamond_instance ~delay_bound:8 ~k:2 in
  match Scaling.solve t ~epsilon1:0.5 ~epsilon2:0.5 () with
  | Ok r ->
    let sol = r.Scaling.solution in
    Alcotest.(check bool) "delay <= (1+eps)·D" true
      (float_of_int sol.Instance.delay <= 1.5 *. float_of_int t.Instance.delay_bound);
    (match Exact.solve t with
    | Some opt ->
      Alcotest.(check bool) "cost <= (2+eps)·OPT" true
        (float_of_int sol.Instance.cost <= 2.5 *. float_of_int opt.Exact.cost)
    | None -> Alcotest.fail "exact")
  | Error _ -> Alcotest.fail "feasible"

let scaling_ratio_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"scaling: delay <= (1+e1)·D, cost <= (2+e2)·OPT" ~count:30
       QCheck2.Gen.(pair int (int_range 2 10))
       (fun (seed, e10) ->
         let rng = X.create ~seed in
         let eps = float_of_int e10 /. 10. in
         let n = 4 + X.int rng 3 in
         let k = 1 + X.int rng 2 in
         match random_feasible_instance rng ~n ~k with
         | None -> true
         | Some t -> (
           match (Scaling.solve t ~epsilon1:eps ~epsilon2:eps (), Exact.solve t) with
           | Ok r, Some opt ->
             let sol = r.Scaling.solution in
             Instance.is_structurally_valid t sol.Instance.paths
             && float_of_int sol.Instance.delay
                <= ((1. +. eps) *. float_of_int t.Instance.delay_bound) +. 1e-9
             && float_of_int sol.Instance.cost
                <= ((2. +. eps) *. float_of_int opt.Exact.cost) +. 1e-9
           | Error _, None -> true
           | _ -> false)))

(* --- the solve prologue ----------------------------------------------------------- *)

(* The verdicts decided eagerly, as a reference: a BFS k-connectivity
   check, then the min-delay k-flow's cost against D. *)
let eager_verdict (t : Instance.t) =
  if not (Krsp_graph.Bfs.edge_connectivity_at_least t.graph ~src:t.src ~dst:t.dst ~k:t.k) then
    Some Krsp.No_k_disjoint_paths
  else
    match Instance.min_possible_delay t with
    | None -> Some Krsp.No_k_disjoint_paths
    | Some dmin when dmin > t.delay_bound -> Some (Krsp.Delay_bound_unreachable dmin)
    | Some _ -> None

let phase1_kinds = [| Phase1.Min_sum; Phase1.Min_delay; Phase1.Lp_rounding; Phase1.Rsp_seq |]

(* A multigraph instance (parallel edges, tombstones) from s = 0 to
   t = n - 1, with D drawn from below dmin to above the min-sum delay,
   and a warm start that is absent, valid, damaged or garbage. *)
let prologue_case rng =
  let n = 3 + X.int rng 4 in
  let g = G.create ~n () in
  for _ = 1 to (2 * n) + X.int rng (4 * n) do
    let u = X.int rng n and v = X.int rng n in
    if u <> v then ignore (G.add_edge g ~src:u ~dst:v ~cost:(X.int rng 7) ~delay:(X.int rng 7))
  done;
  G.iter_edges g (fun e -> if X.int rng 6 = 0 then G.remove_edge g e);
  let k = 1 + X.int rng 3 in
  let probe = Instance.create g ~src:0 ~dst:(n - 1) ~k ~delay_bound:0 in
  let valid = ref [] in
  let delay_bound =
    match (Instance.min_possible_delay probe, Phase1.min_sum probe, Phase1.min_delay probe) with
    | Some dmin, Phase1.Start ms, Phase1.Start md -> (
      valid := [ ms.Phase1.paths; md.Phase1.paths ];
      match X.int rng 3 with
      | 0 -> max 0 (dmin - 1 - X.int rng 3)
      | 1 -> dmin + X.int rng (ms.Phase1.delay - dmin + 1)
      | _ -> ms.Phase1.delay + X.int rng 4)
    | _ -> X.int rng 30
  in
  let t = Instance.create g ~src:0 ~dst:(n - 1) ~k ~delay_bound in
  let garbage () =
    List.init (X.int rng 4) (fun _ -> List.init (X.int rng 4) (fun _ -> X.int rng (G.m g + 3) - 1))
  in
  let warm_start =
    match (X.int rng 4, !valid) with
    | 0, _ -> None
    | 1, (_ :: _ as v) -> Some (List.nth v (X.int rng (List.length v)))
    | 2, (_ :: _ as v) ->
      (* drop one path, or cut one short *)
      let paths = List.nth v (X.int rng (List.length v)) in
      let i = X.int rng (List.length paths) in
      Some
        (if X.bool rng then List.filteri (fun j _ -> j <> i) paths
         else List.mapi (fun j p -> if j = i then List.tl p else p) paths)
    | _ -> Some (garbage ())
  in
  (t, warm_start)

let zero_stats ~warm_started =
  {
    Krsp.iterations = 0;
    type0 = 0;
    type1 = 0;
    type2 = 0;
    guesses_tried = 0;
    final_guess = 0;
    used_fallback = false;
    warm_started;
  }

(* The solve takes its start first and decides its verdicts lazily; the
   verdicts must still be the eager reference's, constructor and dmin
   payload alike — at every phase-1 kind, with and without a warm start,
   and through Scaling.solve too. A start that meets D comes back as-is. *)
let prologue_verdict_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"lazy prologue = eager verdicts, feasible start as-is" ~count:400
       QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let t, warm_start = prologue_case rng in
         let phase1 = phase1_kinds.(X.int rng (Array.length phase1_kinds)) in
         let verdict = eager_verdict t in
         let repaired = Option.bind warm_start (fun paths -> Krsp.repair t ~paths) in
         let start =
           match repaired with
           | Some _ -> repaired
           | None -> (
             match Phase1.run phase1 t with Phase1.Start s -> Some s.Phase1.paths | _ -> None)
         in
         let solved =
           match
             (verdict, Krsp.solve t ~phase1 ?warm_start ~max_iterations:50 ~guess_steps:4 ())
           with
           | Some e, Error e' -> e = e'
           | None, Ok (sol, stats) -> (
             Instance.is_feasible t sol
             &&
             match start with
             | Some paths
               when (Instance.solution_of_paths t paths).Instance.delay <= t.delay_bound ->
               sol.Instance.paths = paths && stats = zero_stats ~warm_started:(repaired <> None)
             | _ -> stats.Krsp.warm_started = (repaired <> None))
           | _ -> false
         in
         let scaled =
           match (verdict, Scaling.solve t ~epsilon1:0.5 ~epsilon2:0.5 ~phase1 ?warm_start ()) with
           | Some e, Error e' -> e = e'
           | None, Ok r -> Instance.is_structurally_valid t r.Scaling.solution.Instance.paths
           | _ -> false
         in
         solved && scaled))

(* --- Exact ---------------------------------------------------------------------- *)

let test_exact_diamond () =
  let t = diamond_instance ~delay_bound:8 ~k:2 in
  match Exact.solve t with
  | Some r ->
    Alcotest.(check int) "cost" 14 r.Exact.cost;
    Alcotest.(check bool) "paths valid" true (Instance.is_structurally_valid t r.Exact.paths);
    Alcotest.(check bool) "delay ok" true (r.Exact.delay <= 8)
  | None -> Alcotest.fail "feasible"

let test_exact_infeasible () =
  let t = diamond_instance ~delay_bound:2 ~k:2 in
  Alcotest.(check bool) "infeasible" true (Exact.solve t = None)

let exact_k1_matches_dp_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"exact k=1 = rsp dp" ~count:60 QCheck2.Gen.int
       (fun seed ->
         let rng = X.create ~seed in
         let n = 3 + X.int rng 4 in
         let g = random_graph rng ~n ~p:0.5 ~cmax:6 ~dmax:6 in
         let delay_bound = X.int rng 15 in
         if not (Krsp_graph.Bfs.edge_connectivity_at_least g ~src:0 ~dst:(n - 1) ~k:1) then
           true
         else begin
           let t = Instance.create g ~src:0 ~dst:(n - 1) ~k:1 ~delay_bound in
           let dp = Krsp_rsp.Rsp_dp.solve g ~src:0 ~dst:(n - 1) ~delay_bound in
           match (Exact.solve t, dp) with
           | None, None -> true
           | Some r, Some (c, _) -> r.Exact.cost = c
           | _ -> false
         end))

(* --- Figure 1 / baselines -------------------------------------------------------- *)

let test_figure1_shape () =
  let t = Hard.figure1 ~cost_unit:3 ~delay_bound:5 in
  (match Exact.solve t with
  | Some opt ->
    Alcotest.(check int) "OPT = cost_unit" 3 opt.Exact.cost;
    Alcotest.(check int) "OPT delay = D" 5 opt.Exact.delay
  | None -> Alcotest.fail "feasible");
  (* min-sum start is infeasible: delay 2D *)
  match Phase1.min_sum t with
  | Phase1.Start s ->
    Alcotest.(check int) "start cost 0" 0 s.Phase1.cost;
    Alcotest.(check int) "start delay 2D" 10 s.Phase1.delay
  | _ -> Alcotest.fail "start"

let test_figure1_naive_blows_up () =
  let cost_unit = 3 and delay_bound = 5 in
  let t = Hard.figure1 ~cost_unit ~delay_bound in
  let naive = Baselines.naive_delay_cancel t in
  (match naive.Baselines.solution with
  | Some sol ->
    Alcotest.(check bool) "naive feasible" true naive.Baselines.feasible;
    Alcotest.(check int) "naive pays the decoy" ((cost_unit * (delay_bound + 1)) - 1)
      sol.Instance.cost
  | None -> Alcotest.fail "naive should find something");
  (* Algorithm 1 stays within 2·OPT (and here hits OPT exactly) *)
  let sol, _ = expect_ok (Krsp.solve t ()) in
  Alcotest.(check bool) "bicameral <= 2·OPT" true (sol.Instance.cost <= 2 * cost_unit);
  Alcotest.(check bool) "feasible" true (Instance.is_feasible t sol)

let test_zigzag_iterations () =
  let levels = 8 in
  let t = Hard.zigzag ~levels in
  (* with the k=1 oracle short-circuit disabled, the legacy repair loop runs:
     each iteration upgrades exactly one segment by (cost +1, delay −2) *)
  let sol, stats = expect_ok (Krsp.solve t ~k1_oracle:false ~guess_steps:0 ()) in
  Alcotest.(check bool) "feasible" true (Instance.is_feasible t sol);
  Alcotest.(check int) "iterations = ceil(levels/2)" ((levels + 1) / 2) stats.Krsp.iterations;
  Alcotest.(check int) "cost = upgrades" ((levels + 1) / 2) sol.Instance.cost;
  (* the k=1 fast path reaches the same optimum with zero repair iterations *)
  let sol', stats' = expect_ok (Krsp.solve t ~rsp_oracle:Krsp_rsp.Oracle.Dp ()) in
  Alcotest.(check int) "fast path optimal" ((levels + 1) / 2) sol'.Instance.cost;
  Alcotest.(check int) "fast path skips repair" 0 stats'.Krsp.iterations;
  Alcotest.(check int) "fast path: one guess" 1 stats'.Krsp.guesses_tried

let test_baselines_diamond () =
  let t = diamond_instance ~delay_bound:8 ~k:2 in
  let ms = Baselines.min_sum_only t in
  Alcotest.(check bool) "min-sum violates delay" false ms.Baselines.feasible;
  (match ms.Baselines.solution with
  | Some s -> Alcotest.(check int) "min-sum cost" 6 s.Instance.cost
  | None -> Alcotest.fail "min-sum exists");
  let md = Baselines.min_delay_only t in
  Alcotest.(check bool) "min-delay feasible" true md.Baselines.feasible;
  let zc = Baselines.zero_cost_residual t in
  (match zc.Baselines.solution with
  | Some s ->
    if zc.Baselines.feasible then
      Alcotest.(check bool) "zero-cost residual meets bound" true (s.Instance.delay <= 8)
  | None -> ());
  let lp = Baselines.larac_per_path t in
  match lp.Baselines.solution with
  | Some s when lp.Baselines.feasible ->
    Alcotest.(check bool) "larac-seq delay ok" true (s.Instance.delay <= 8)
  | _ -> ()

let suites =
  [ ( "instance",
      [ Alcotest.test_case "validation" `Quick test_instance_validation;
        Alcotest.test_case "solution" `Quick test_instance_solution;
        Alcotest.test_case "min delay" `Quick test_instance_min_delay
      ] );
    ( "residual",
      [ Alcotest.test_case "structure" `Quick test_residual_structure;
        Alcotest.test_case "rejects shared paths" `Quick test_residual_rejects_shared;
        arena_matches_build_prop;
        oplus_prop;
        lemma9_prop
      ] );
    ( "bicameral",
      [ Alcotest.test_case "type0" `Quick test_bicameral_type0;
        Alcotest.test_case "type1" `Quick test_bicameral_type1;
        Alcotest.test_case "type2" `Quick test_bicameral_type2;
        Alcotest.test_case "delta_c <= 0" `Quick test_bicameral_delta_c_nonpositive;
        Alcotest.test_case "preference" `Quick test_bicameral_preference
      ] );
    ( "layered",
      [ Alcotest.test_case "lemma 15 bijection" `Quick test_layered_lemma15;
        Alcotest.test_case "counts" `Quick test_layered_counts;
        layered_projection_prop
      ] );
    ("engines", [ engines_agree_prop; implicit_product_prop ]);
    ( "krsp",
      [ Alcotest.test_case "diamond tight" `Quick test_krsp_diamond_tight;
        Alcotest.test_case "diamond loose" `Quick test_krsp_diamond_loose;
        Alcotest.test_case "infeasible delay" `Quick test_krsp_infeasible_delay;
        Alcotest.test_case "no k paths" `Quick test_krsp_no_k_paths;
        Alcotest.test_case "k=1 vs rsp dp" `Quick test_krsp_k1_matches_rsp_dp;
        krsp_ratio_prop;
        krsp_lp_rounding_start_ratio_prop;
        krsp_lp_engine_prop
      ] );
    ( "phase1",
      [ Alcotest.test_case "min-sum cost bound" `Quick test_phase1_min_sum_cost_bound;
        Alcotest.test_case "lp rounding valid" `Quick test_phase1_lp_rounding_valid;
        Alcotest.test_case "lp detects infeasible" `Quick test_phase1_lp_detects_infeasible;
        phase1_lp_rounding_prop
      ] );
    ( "scaling",
      [ Alcotest.test_case "diamond" `Quick test_scaling_diamond; scaling_ratio_prop ] );
    ("prologue", [ prologue_verdict_prop ]);
    ( "exact",
      [ Alcotest.test_case "diamond" `Quick test_exact_diamond;
        Alcotest.test_case "infeasible" `Quick test_exact_infeasible;
        exact_k1_matches_dp_prop
      ] );
    ( "figure1",
      [ Alcotest.test_case "shape" `Quick test_figure1_shape;
        Alcotest.test_case "naive blows up, bicameral does not" `Quick
          test_figure1_naive_blows_up;
        Alcotest.test_case "zigzag iteration count" `Quick test_zigzag_iterations;
        Alcotest.test_case "baselines on diamond" `Quick test_baselines_diamond
      ] )
  ]
