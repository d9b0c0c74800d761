(** Directed multigraphs with integer edge costs and delays.

    This is the shared substrate of the whole repository. Vertices and edges
    are dense integer identifiers ([0 .. n-1] / [0 .. m-1]); parallel edges
    and self-loops are allowed (the paper's residual graphs are explicitly
    multigraphs, footnote 1 of Definition 6). Costs and delays may be
    negative — residual graphs negate both.

    {2 Adjacency substrates}

    Adjacency exists in two forms. The mutable ground truth is per-vertex
    edge-id lists ({!out_edges} / {!in_edges}); it is always current.
    {!freeze} additionally builds a {!type-view} — a CSR (compressed sparse
    row) snapshot holding both directions as flat [int array]s — which every
    hot traversal in the repository runs on. The snapshot is cached inside
    the graph and keyed by a generation counter: {!add_edge},
    {!add_vertex}, {!remove_edge} and {!unremove_edge} bump the
    generation, so the next {!freeze} rebuilds, while repeated freezes of
    an unchanged graph are O(1).
    {!set_cost} / {!set_delay} do {e not} invalidate — views read weights
    through the live arrays; only adjacency is frozen.

    {2 Dynamic topology}

    Edges can be tombstoned in place by {!remove_edge} (and revived by
    {!unremove_edge}): ids do not shift, every iteration primitive simply
    skips dead edges. Only {!renumber} moves ids: it drops dead ids and
    closes the gaps, so a long-lived graph under insert/delete churn
    keeps its id space — and every array sized by {!m} — proportional to
    what is alive. A {!freeze} after a small mutation batch does not
    pay O(n + m): it returns a {e delta overlay} — the last full CSR
    build plus override rows for just the vertices whose adjacency
    changed — which is indistinguishable, edge id for edge id, from a
    full re-freeze (the same ascending per-vertex edge order, the same
    live-weight read-through). Once the pending patch exceeds
    {!set_compaction_threshold}'s fraction of the live edge set (default
    1/8), the next freeze {e compacts}: a fresh full build absorbs the
    patch. {!rebuild} forces that full build; {!topo_stats} counts
    both freeze flavours, compactions and patch sizes for the serving
    layer's [topo.*] telemetry. *)

type t

type vertex = int
type edge = int

val create : ?expected_edges:int -> n:int -> unit -> t
(** [create ~n ()] is a graph with vertices [0..n-1] and no edges. *)

val copy : t -> t
(** Deep copy. The cached CSR snapshot is deliberately {e not} shared:
    the copy starts unfrozen, and later mutations of either graph can
    never leak through a shared snapshot. *)

val add_vertex : t -> vertex
(** Appends a fresh vertex and returns its id. Invalidates frozen views. *)

val add_edge : t -> src:vertex -> dst:vertex -> cost:int -> delay:int -> edge
(** Appends an edge and returns its id. Raises [Invalid_argument] if either
    endpoint is out of range. Invalidates frozen views. *)

val remove_edge : t -> edge -> unit
(** Tombstones an edge: its id stays allocated (weights and endpoints
    remain readable) but every traversal, view build and edge iteration
    skips it from now on. Raises [Invalid_argument] if the edge is
    already removed. Invalidates frozen views. *)

val unremove_edge : t -> edge -> unit
(** Revives a tombstoned edge in place — it reappears exactly where a
    fresh freeze would put it (ascending id order within its rows).
    Raises [Invalid_argument] if the edge is alive. Invalidates frozen
    views. *)

val alive : t -> edge -> bool
(** [false] iff the edge is currently tombstoned. *)

val renumber : t -> keep:(edge -> bool) -> int array
(** [renumber g ~keep] drops every tombstoned id that [keep] rejects
    ([keep] is asked about dead ids only; live edges always stay) and
    renumbers the surviving ids densely, in ascending old-id order — so
    every adjacency row and every newest-first list keeps its order, and
    a kept tombstone can still be revived under its new id. Returns the
    old → new table (length: the old {!m}; [-1] for a dropped id).
    Invalidates frozen views, and forces the next {!freeze} to a full
    build. Every edge id and view taken before the call is void after
    it: only ids mapped through the table name edges again. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of allocated edge ids, dead ones included — the validity bound
    for edge ids, {e not} the live count. *)

val m_alive : t -> int
(** Number of live (non-tombstoned) edges. *)

val generation : t -> int
(** Adjacency generation counter: increases on every {!add_edge} /
    {!add_vertex} / {!remove_edge} / {!unremove_edge}. A frozen view is
    current iff its generation matches. *)

val src : t -> edge -> vertex
val dst : t -> edge -> vertex
val cost : t -> edge -> int
val delay : t -> edge -> int

val set_cost : t -> edge -> int -> unit
val set_delay : t -> edge -> int -> unit

val out_edges : t -> vertex -> edge list
(** Live edges leaving [v], in unspecified order. *)

val in_edges : t -> vertex -> edge list

val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int

val iter_edges : t -> (edge -> unit) -> unit
val fold_edges : t -> init:'a -> f:('a -> edge -> 'a) -> 'a

val iter_out : t -> vertex -> (edge -> unit) -> unit
(** Iterate the out-edges of [v]. Walks the CSR snapshot when the graph is
    currently frozen (no list-cell chasing, no allocation), the adjacency
    list otherwise. *)

val iter_in : t -> vertex -> (edge -> unit) -> unit

(** {2 Frozen CSR views} *)

type view
(** A frozen adjacency snapshot. A view never mutates: it describes the
    graph as it was at {!freeze} time ([View.n] / [View.m] are the counts of
    that moment). Edge weights are read through to the live graph, so
    {!set_cost} after a freeze is visible — the idiom used by weight-overlay
    algorithms. Querying a vertex added after the freeze raises
    [Invalid_argument]. *)

val freeze : t -> view
(** Build (or fetch the cached) CSR snapshot: O(1) when the adjacency is
    unchanged since the last call, O(patch + n) when the pending mutation
    batch fits the overlay budget (a delta-overlay view over the last
    full build), O(n + m) otherwise (a full build, which also absorbs —
    {e compacts} — any pending patch). Whichever path runs, the result
    iterates identically. *)

val rebuild : t -> view
(** Like {!freeze} but never answers with an overlay: forces (or fetches)
    a full CSR build. The refreeze baseline the overlay path is measured
    against, and the compaction entry point. *)

val set_compaction_threshold : t -> float -> unit
(** Overlay budget as a fraction of the live edge count (default 0.125):
    a pending patch larger than [frac · m_alive] makes the next {!freeze}
    compact into a full build. [0.] (or negative) disables overlays
    entirely — every stale freeze is a full rebuild. *)

type topo_stats = {
  full_freezes : int;  (** full CSR builds (initial builds and compactions) *)
  overlay_freezes : int;  (** freezes answered with a delta overlay *)
  compactions : int;  (** full builds that absorbed a pending patch *)
  patched_edges : int;  (** cumulative patch sizes over all overlay freezes *)
  patch_pending : int;  (** mutations not yet absorbed by a full build *)
  removed_edges : int;  (** currently tombstoned edges *)
}

val topo_stats : t -> topo_stats

val is_frozen : t -> bool
(** [true] iff the cached snapshot matches the current generation, i.e.
    {!freeze} would be O(1) and {!iter_out}/{!iter_in} take the CSR path. *)

module View : sig
  val graph : view -> t
  val n : view -> int
  val m : view -> int

  val valid : view -> bool
  (** [true] while the underlying graph has not been mutated since the
      freeze. Stale views remain safe to use — they just describe the old
      adjacency — until a {!renumber}, after which they must not be read. *)

  val is_overlay : view -> bool
  (** [true] iff this view is a delta overlay over an older full build.
      Behaviourally irrelevant — every accessor answers identically — and
      exposed only so tests and benches can assert which freeze path
      ran. *)

  val src : view -> edge -> vertex
  val dst : view -> edge -> vertex
  val cost : view -> edge -> int
  val delay : view -> edge -> int

  val iter_out : view -> vertex -> (edge -> unit) -> unit
  (** List-free out-adjacency scan: walks a contiguous [int array] span. *)

  val iter_in : view -> vertex -> (edge -> unit) -> unit

  val fold_out : view -> vertex -> init:'a -> f:('a -> edge -> 'a) -> 'a
  val fold_in : view -> vertex -> init:'a -> f:('a -> edge -> 'a) -> 'a

  val out_degree : view -> vertex -> int
  val in_degree : view -> vertex -> int

  val out_span : view -> vertex -> int * int
  (** Half-open cursor range [(start, stop)] into the flat out-adjacency
      order; resolve positions with {!out_entry}. For iterative DFS frames
      and early-exit scans where a closure-based iterator is awkward. *)

  val out_entry : view -> int -> edge
  val in_span : view -> vertex -> int * int
  val in_entry : view -> int -> edge
end

val edges : t -> edge list
(** All live edge ids in increasing order. *)

val total_cost : t -> int
(** Sum of all edge costs ([Σ c(e)] in the paper's complexity bounds). *)

val total_delay : t -> int

val find_edge : t -> src:vertex -> dst:vertex -> edge option
(** Some edge from [src] to [dst] if one exists. *)

val reverse : t -> t
(** Graph with every edge reversed (costs/delays kept). *)

val filter_map_edges :
  t -> f:(edge -> (int * int) option) -> t * int array
(** [filter_map_edges g ~f] builds a graph over the same vertices keeping
    edge [e] with weights [(cost, delay)] when [f e = Some (cost, delay)]
    and dropping it when [f e = None]. Returns the new graph and a mapping
    [new_edge_of_old] ([-1] for dropped edges). The common idiom for
    "remove these edges" / "rescale all weights" / "swap cost and delay". *)

val pp : Format.formatter -> t -> unit
(** Debug rendering: one line per edge. *)
