module G = Krsp_graph.Digraph

type result = {
  solution : Instance.solution;
  stats : Krsp.stats;
  scaled_delay_bound : int;
  theta_delay : int;
  theta_cost : int;
}

(* A copy keeps every edge id, tombstones included, so paths and warm
   starts need no translation between g and the scaled graph. *)
let scaled_graph g ~theta_cost ~theta_delay =
  let sg = G.copy g in
  G.iter_edges g (fun e ->
      G.set_cost sg e (G.cost g e / theta_cost);
      G.set_delay sg e (G.delay g e / theta_delay));
  sg

let solve t ~epsilon1 ~epsilon2 ?trace ?engine ?phase1 ?numeric ?rsp_oracle
    ?max_iterations ?warm_start ?pool () =
  if epsilon1 <= 0. || epsilon2 <= 0. then
    invalid_arg "Scaling.solve: epsilons must be positive";
  (* One min-delay k-flow on the original graph gives every verdict —
     no flow is exactly fewer than k disjoint paths, and its delay is
     dmin — and, as the min-delay solution's cost, the C_OPT upper bound
     Ĉ that sets θ_c. *)
  match
    Krsp_obs.Trace.with_span trace "scaling.cost_bound" (fun () -> Phase1.min_delay t)
  with
  | Phase1.No_k_paths | Phase1.Lp_infeasible -> Stdlib.Error Krsp.No_k_disjoint_paths
  | Phase1.Start s when s.Phase1.delay > t.Instance.delay_bound ->
    Stdlib.Error (Krsp.Delay_bound_unreachable s.Phase1.delay)
  | Phase1.Start s ->
    let g = t.Instance.graph in
    (* solution paths are simple: at most (n-1)·k edges in total *)
    let edge_budget = max 1 ((G.n g - 1) * t.Instance.k) in
    let cost_ub = s.Phase1.cost in
    let theta_of eps magnitude =
      max 1 (int_of_float (eps *. float_of_int magnitude /. float_of_int edge_budget))
    in
    let theta_delay = theta_of epsilon1 t.Instance.delay_bound in
    let theta_cost = theta_of epsilon2 cost_ub in
    let sg = scaled_graph g ~theta_cost ~theta_delay in
    (* freeze the scaled graph once, up front: every consumer below —
       phase 1's flow runs, the inner solve's min-delay flow and its
       first arena build — then shares this CSR snapshot instead of each
       paying the first-touch freeze on its own *)
    ignore (G.freeze sg);
    (* any original-feasible path set keeps Σ floor(d/θ) ≤ floor(D/θ) *)
    let scaled_delay_bound = t.Instance.delay_bound / theta_delay in
    let st =
      Instance.create sg ~src:t.Instance.src ~dst:t.Instance.dst ~k:t.Instance.k
        ~delay_bound:scaled_delay_bound
    in
    (match
       Krsp.solve st ?trace ?engine ?phase1 ?numeric ?rsp_oracle ?max_iterations
         ?warm_start ?pool ()
     with
    | Stdlib.Error e -> Stdlib.Error e
    | Stdlib.Ok (ssol, stats) ->
      (* edge ids are shared between g and sg by construction; re-evaluate
         the paths at the original weights (delay may exceed D by ε₁·D) *)
      let solution = Instance.solution_of_paths t ssol.Instance.paths in
      Stdlib.Ok { solution; stats; scaled_delay_bound; theta_delay; theta_cost })
