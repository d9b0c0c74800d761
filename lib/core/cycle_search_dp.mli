(** Bicameral-cycle search by dynamic programming over the layered state
    space — the polynomial engine behind Algorithm 3.

    The state space is the product (residual vertex, accumulated cost ∈
    [-B, B]) — exactly the union of the paper's [H_v^+(B)] and [H_v^-(B)]
    copies glued together — and a cycle of the residual graph through root
    [v] with exact cost [b] is a walk from state [(v, 0)] to [(v, b)]
    (Lemma 15). The product is {e implicit}: state [(u, c)] is the integer
    [u·(2B+1) + (c+B)], and its out-edges are read off the residual's
    active out-edges of [u], flattened once per search into [int] arrays
    in ascending residual edge id. The engine:

    + detects negative-delay cycles of the state space first; these project
      to zero-cost negative-delay residual cycles, i.e. type-0 bicameral
      cycles (and make min-delay walks ill-defined, so they must go first);
    + then, per root, computes minimum-delay walks to every exact cost by
      a FIFO Bellman–Ford (SPFA), decomposes each optimal closed walk into
      simple residual cycles, and classifies every piece with
      {!Bicameral.classify}.

    Both phases relax edges in exactly the order a {!Krsp_graph.Bellman_ford}
    run over the materialised product would, so distances, parents and
    every candidate list equal that reference's bit for bit.

    Only vertices incident to reversed path edges are tried as roots: a
    bicameral cycle needs a negative cost or delay somewhere, and only
    reversed edges are negative. *)

module G := Krsp_graph.Digraph

type candidate = {
  edges : G.edge list;  (** residual edge ids, a vertex-simple cycle *)
  cost : int;
  delay : int;
  kind : Bicameral.kind;
}

val find :
  Residual.t ->
  ctx:Bicameral.context ->
  bound:int ->
  ?exhaustive:bool ->
  unit ->
  candidate option
(** Best bicameral cycle under {!Bicameral.compare_candidates}, or [None]
    when no bicameral cycle with [|cost| ≤ bound] exists in the searched
    space. By default the root scan stops at the first root that yields any
    bicameral cycle (any one suffices for Algorithm 1's progress argument);
    [~exhaustive:true] scans every root and returns the global best.

    Each call flattens the residual's {e currently active} edges once
    (O(n + m)); the state space itself is never allocated. The root scan
    is serial: roots are tried in ascending vertex id (DESIGN.md §10 says
    why there is no parallel scan). *)

val enumerate :
  Residual.t ->
  ctx:Bicameral.context ->
  bound:int ->
  candidate list
(** All bicameral candidates found by the exhaustive scan (for tests and the
    engine cross-validation experiment). *)

val enumerate_raw :
  Residual.t -> bound:int -> (G.edge list * int * int) list
(** All cycles found by the exhaustive scan, *without* bicameral
    classification, as [(edges, cost, delay)]. Used by the naive-cancellation
    baseline of experiment E1 — the algorithm the paper's Figure 1 shows
    going wrong. *)

(** {2 The implicit state space}

    The two phases on their own, for differential testing against a
    materialised product. *)

type space
(** The round's active residual edges, flattened for one cost window. *)

val space : Residual.t -> bound:int -> space
(** O(n + m). Raises [Invalid_argument] when [bound < 1]. *)

val phase_a : space -> G.edge list option
(** A negative-delay cycle of the state space (every state starts at
    distance 0), projected to its residual edge ids in walk order; [None]
    when there is none. *)

val phase_b : space -> root:G.vertex -> (int array * int array) option
(** Min-delay distances from state [(root, 0)] and the parent of every
    state as a residual edge id ([-1] at the source and at unreached
    states), both indexed by [u·(2·bound+1) + (c+bound)]; [None] when a
    negative cycle is reachable from the source. *)
