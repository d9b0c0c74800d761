module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module Q = Krsp_bigint.Q

type start = { paths : Path.t list; cost : int; delay : int }

type result =
  | Start of start
  | No_k_paths
  | Lp_infeasible

let start_of t paths =
  let cost = List.fold_left (fun acc p -> acc + Path.cost t.Instance.graph p) 0 paths in
  let delay = List.fold_left (fun acc p -> acc + Path.delay t.Instance.graph p) 0 paths in
  { paths; cost; delay }

let of_paths t paths = Start (start_of t paths)

let disjoint_flow_paths t ~weight =
  match
    Krsp_flow.Mcmf.min_cost_flow t.Instance.graph
      ~capacity:(fun _ -> 1)
      ~cost:weight ~src:t.Instance.src ~dst:t.Instance.dst ~amount:t.Instance.k
  with
  | None -> None
  | Some { Krsp_flow.Mcmf.flow; cost } ->
    let edges =
      G.fold_edges t.Instance.graph ~init:[] ~f:(fun acc e ->
          if flow.(e) > 0 then e :: acc else acc)
    in
    let paths, _cycles =
      Krsp_graph.Walk.decompose_st t.Instance.graph ~src:t.Instance.src ~dst:t.Instance.dst
        ~k:t.Instance.k edges
    in
    Some (paths, cost)

let min_sum t =
  match disjoint_flow_paths t ~weight:(G.cost t.Instance.graph) with
  | None -> No_k_paths
  | Some (paths, _) -> of_paths t paths

(* The cycles the decomposition strips off a min-delay flow carry zero
   delay (weights are non-negative, and dropping a positive-delay cycle
   would leave a cheaper flow), so the paths' delay is the flow's cost:
   the minimum total delay over any k disjoint paths. *)
let min_delay t =
  match disjoint_flow_paths t ~weight:(G.delay t.Instance.graph) with
  | None -> No_k_paths
  | Some (paths, dmin) ->
    let s = start_of t paths in
    assert (s.delay = dmin);
    Start s

(* Faithful Lemma-5 style start: basic optimal solution of the delay-budgeted
   flow LP, rounded by an integral min-cost k-flow restricted to the LP
   support. The support always carries k integral units: the fractional flow
   itself has value k on unit capacities, and unit-capacity max-flow values
   are integral. *)
let lp_rounding ?numeric t =
  let g = t.Instance.graph in
  match
    Krsp_lp.Lp_flow.solve ?numeric g ~src:t.Instance.src ~dst:t.Instance.dst
      ~k:t.Instance.k ~delay_bound:t.Instance.delay_bound
  with
  | None -> Lp_infeasible
  | Some { Krsp_lp.Lp_flow.flow; _ } ->
    let in_support = Array.map (fun q -> Q.sign q > 0) flow in
    (match
       Krsp_flow.Mcmf.min_cost_flow g
         ~capacity:(fun e -> if in_support.(e) then 1 else 0)
         ~cost:(G.cost g) ~src:t.Instance.src ~dst:t.Instance.dst ~amount:t.Instance.k
     with
    | None ->
      (* cannot happen per the max-flow integrality argument above *)
      assert false
    | Some { Krsp_flow.Mcmf.flow = iflow; _ } ->
      let edges =
        G.fold_edges g ~init:[] ~f:(fun acc e -> if iflow.(e) > 0 then e :: acc else acc)
      in
      let paths, _ =
        Krsp_graph.Walk.decompose_st g ~src:t.Instance.src ~dst:t.Instance.dst
          ~k:t.Instance.k edges
      in
      of_paths t paths)

(* Sequential oracle routing: k disjoint paths one at a time, each the
   selected RSP oracle's min-cost answer under a per-path delay budget
   D/k on the graph with already-used edges removed. No cost ≤ C_OPT
   guarantee (like the LP start, it trades the proof invariant for
   starting near feasibility — the per-path budgets force total delay
   ≤ D whenever all k routes succeed); when any route fails, falls back
   to [min_sum] so the returned start is never worse than the default. *)
let rsp_seq ?numeric ?oracle t =
  let g = t.Instance.graph in
  let used = Array.make (G.m g) false in
  let budget = t.Instance.delay_bound / t.Instance.k in
  let rec route i acc =
    if i = t.Instance.k then Some (List.rev acc)
    else begin
      let sub, new_of_old =
        G.filter_map_edges g ~f:(fun e ->
            if used.(e) then None else Some (G.cost g e, G.delay g e))
      in
      let old_of_new = Array.make (G.m sub) (-1) in
      Array.iteri (fun old ne -> if ne >= 0 then old_of_new.(ne) <- old) new_of_old;
      match
        Krsp_rsp.Oracle.solve ?kind:oracle ?tier:numeric sub ~src:t.Instance.src
          ~dst:t.Instance.dst ~delay_bound:budget
      with
      | None -> None
      | Some r ->
        let path = List.map (fun se -> old_of_new.(se)) r.Krsp_rsp.Rsp_engine.path in
        List.iter (fun e -> used.(e) <- true) path;
        route (i + 1) (path :: acc)
    end
  in
  match route 0 [] with
  | Some paths -> of_paths t paths
  | None -> min_sum t

type kind = Min_sum | Min_delay | Lp_rounding | Rsp_seq

let run ?numeric ?rsp_oracle kind t =
  match kind with
  | Min_sum -> min_sum t
  | Min_delay -> min_delay t
  | Lp_rounding -> lp_rounding ?numeric t
  | Rsp_seq -> rsp_seq ?numeric ?oracle:rsp_oracle t
