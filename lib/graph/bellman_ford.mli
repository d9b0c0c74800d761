(** Bellman–Ford shortest paths with negative edges and negative-cycle
    extraction.

    Residual graphs (Definition 6 of the paper) negate costs and delays on
    reversed path edges, so every shortest-path computation on them needs a
    negative-weight-capable engine. *)

type result =
  | Dist of { dist : int array; parent : int array }
      (** [dist.(v) = max_int] means unreachable; [parent] holds edge ids. *)
  | Negative_cycle of Path.t
      (** A simple cycle with negative total weight, as its edge list. *)

val run :
  Digraph.t ->
  weight:(Digraph.edge -> int) ->
  ?disabled:(Digraph.edge -> bool) ->
  src:Digraph.vertex ->
  unit ->
  result
(** Single-source run; reports a negative cycle reachable from [src] if one
    exists, otherwise the distances. *)

val negative_cycle :
  Digraph.t ->
  weight:(Digraph.edge -> int) ->
  ?disabled:(Digraph.edge -> bool) ->
  unit ->
  Path.t option
(** Any negative-weight simple cycle anywhere in the graph ([None] if none).
    Implemented as a run from a virtual super-source (all distances start
    at 0). *)

val shortest_path :
  Digraph.t ->
  weight:(Digraph.edge -> int) ->
  ?disabled:(Digraph.edge -> bool) ->
  src:Digraph.vertex ->
  dst:Digraph.vertex ->
  unit ->
  (int * Path.t) option
(** Distance and path, or [None] when unreachable.
    Raises [Failure] if a negative cycle makes the distance unbounded. *)
