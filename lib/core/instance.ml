module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path

type t = { graph : G.t; src : G.vertex; dst : G.vertex; k : int; delay_bound : int }

let create graph ~src ~dst ~k ~delay_bound =
  if src = dst then invalid_arg "Instance.create: src = dst";
  if k < 1 then invalid_arg "Instance.create: k < 1";
  if delay_bound < 0 then invalid_arg "Instance.create: negative delay bound";
  if src < 0 || src >= G.n graph || dst < 0 || dst >= G.n graph then
    invalid_arg "Instance.create: endpoint out of range";
  G.iter_edges graph (fun e ->
      if G.cost graph e < 0 || G.delay graph e < 0 then
        invalid_arg "Instance.create: negative edge weight");
  { graph; src; dst; k; delay_bound }

type solution = { paths : Path.t list; cost : int; delay : int }

let is_structurally_valid t paths =
  List.length paths = t.k
  && Path.edge_disjoint paths
  && List.for_all (fun p -> Path.is_valid t.graph ~src:t.src ~dst:t.dst p && p <> []) paths

let solution_of_paths t paths =
  if not (is_structurally_valid t paths) then
    invalid_arg "Instance.solution_of_paths: not k disjoint st-paths";
  let cost = List.fold_left (fun acc p -> acc + Path.cost t.graph p) 0 paths in
  let delay = List.fold_left (fun acc p -> acc + Path.delay t.graph p) 0 paths in
  { paths; cost; delay }

let is_feasible t s = is_structurally_valid t s.paths && s.delay <= t.delay_bound

let edge_set s = List.concat s.paths

let min_possible_delay t =
  Option.map
    (fun r -> r.Krsp_flow.Mcmf.cost)
    (Krsp_flow.Mcmf.min_cost_flow t.graph
       ~capacity:(fun _ -> 1)
       ~cost:(G.delay t.graph) ~src:t.src ~dst:t.dst ~amount:t.k)

let pp_solution t fmt s =
  Format.fprintf fmt "cost=%d delay=%d (bound %d)@." s.cost s.delay t.delay_bound;
  List.iteri
    (fun i p -> Format.fprintf fmt "  P%d: %a@." (i + 1) (Path.pp t.graph) p)
    s.paths
