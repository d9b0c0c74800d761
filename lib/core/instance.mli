(** kRSP problem instances and solutions (Definition 2 of the paper).

    An instance is a digraph with non-negative integral costs and delays, a
    source/sink pair, the number [k] of required edge-disjoint paths, and the
    bound [delay_bound] on the paths' *total* delay. A solution is [k]
    edge-disjoint [s→t] paths; {!is_feasible} checks the delay bound too. *)

module G := Krsp_graph.Digraph

type t = {
  graph : G.t;
  src : G.vertex;
  dst : G.vertex;
  k : int;
  delay_bound : int;
}

val create : G.t -> src:G.vertex -> dst:G.vertex -> k:int -> delay_bound:int -> t
(** Validates: [src ≠ dst], [k ≥ 1], [delay_bound ≥ 0], all costs and delays
    non-negative. Raises [Invalid_argument] otherwise. *)

type solution = {
  paths : Krsp_graph.Path.t list;
  cost : int;  (** Σ over the k paths *)
  delay : int;
}

val solution_of_paths : t -> Krsp_graph.Path.t list -> solution
(** Computes cost/delay sums. Raises [Invalid_argument] if the paths are not
    [k] valid edge-disjoint [src→dst] paths of the instance graph. *)

val is_structurally_valid : t -> Krsp_graph.Path.t list -> bool
(** [k] valid edge-disjoint [src→dst] paths (delay bound not checked). *)

val is_feasible : t -> solution -> bool
(** Structural validity and [delay ≤ delay_bound]. *)

val edge_set : solution -> Krsp_graph.Digraph.edge list
(** All edges of the solution, concatenated. *)

val min_possible_delay : t -> int option
(** The smallest achievable total delay over any [k] disjoint paths
    (min-delay [k]-flow); [None] when the graph does not carry [k]
    edge-disjoint [src→dst] paths. An instance is feasible iff this is
    [Some d] with [d ≤ delay_bound]. *)

val pp_solution : t -> Format.formatter -> solution -> unit
