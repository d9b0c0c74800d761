(** The socket-free serving core of krspd: one live topology under
    batched mutation, delta-overlay adjacency views, the LRU solution
    cache with churn-scoped invalidation, warm-start re-solves, and the
    metrics registry.

    The daemon's socket loop, the in-process tests and the replay
    benchmark all drive the same {!handle} function, so everything
    observable about serving lives here.

    {2 Dynamic topology}

    The engine owns a private, {e mutable} copy of the loaded graph.
    [FAIL u v] tombstones every live edge between [u] and [v] (both
    directions) and remembers them as restorable; [RESTORE u v] revives
    exactly those. [MUTATE] applies a batch of inserts / deletes /
    re-weights in one step ([del] is permanent — it does not join the
    restorable set). Every mutation that affects at least one edge bumps
    the topology {e generation}.

    Edge ids are stable between renumberings (removal tombstones), so
    cached solutions are keyed by [(s, t, k, D, ε)] alone and carry real
    edge ids of the live graph — no per-generation re-keying or id
    translation. Ids removed by [del] are dead for good; once they
    outnumber max(64, live edges) after a [MUTATE] batch, the engine
    renumbers them away ({!Krsp_graph.Digraph.renumber}), maps the FAIL
    set through the table, and treats the batch as expansive (cache
    flush plus donor reset), so the id count — and every per-solve array
    sized by it — stays within a constant factor of the live graph.
    Counted as [topo.renumberings]; [topo.edge_ids] reports the id
    count.

    Solves run against {!Krsp_graph.Digraph.freeze} of the live graph:
    with [overlay_views] on (the default) that is the delta-overlay path —
    O(changed vertices) patching of the last full CSR, compacted once the
    patch outgrows its budget; with it off every mutation forces a full
    O(n + m) refreeze ({!Krsp_graph.Digraph.rebuild}), which is the
    differential baseline the churn suite compares against. The two are
    bit-indistinguishable to every consumer of the view.

    {2 Cache invalidation rule}

    {e Restrictive} mutations — [FAIL], [del], re-weights that do not
    decrease either weight — can only worsen solutions that touch the
    mutated edges, so invalidation is {e scoped}: a reverse index
    edge → cached keys drops exactly the entries whose solution uses a
    mutated edge, and every other entry is carried forward verbatim.
    {e Expansive} mutations — [RESTORE], [ins], any weight decrease — can
    improve the optimum of any query, so the whole cache and the
    warm-start donors are flushed (stale entries would still be feasible,
    but serving them would silently forfeit solution quality). Setting
    [scoped_invalidation = false] degrades restrictive mutations to the
    same full flush — the churn benchmark's baseline.

    Independently of the policy, a cache hit is served only after a
    staleness guard re-verifies the entry against the current topology
    (all path edges alive, recorded cost/delay sums matching the live
    weights); a failed guard drops the entry, counts
    [topo.stale_hits_dropped] and falls through to a fresh solve. The
    churn suite asserts that counter stays zero.

    {2 Warm starts}

    Independently of the cache, the engine remembers the last solution per
    [(s, t, k, D, ε)]. A cache miss with such a donor re-solves via
    {!Krsp_core.Krsp.solve}[ ~warm_start]: surviving paths are kept,
    damaged ones re-routed (single-edge damage by the incremental Bhandari
    repair, worse damage by Suurballe), and bicameral cancellation
    resumes. Donors are dropped on expansive mutations for the same
    quality reason as cache entries; tombstoned donor edges are harmless —
    the repair path discards dead edges.

    {2 Single writer}

    {!handle} is synchronous: it runs the whole request, solve included,
    before it returns, so an engine needs no locks as long as one domain
    at a time calls it. The shard fleet guarantees that by draining each
    shard's FIFO on a single worker domain. A solve's speculative guess
    attempts may run on pool domains, but they only read the live graph,
    whose frozen view is taken before the solve starts. *)

type t

type config = {
  cache_capacity : int;  (** LRU capacity (default 1024) *)
  solver : Krsp_core.Krsp.engine;  (** bicameral search engine (default Dp) *)
  max_iterations : int;  (** per-guess inner-loop cap (default 2000) *)
  numeric : Krsp_numeric.Numeric.tier option;
      (** numeric tier for every solve this engine runs; [None] (default)
          defers to {!Krsp_numeric.Numeric.default}, i.e. the
          [KRSP_NUMERIC] / [--numeric] process-wide policy *)
  rsp_oracle : Krsp_rsp.Oracle.kind option;
      (** RSP oracle behind the k=1 fast path of every solve this engine
          runs; [None] (default) defers to {!Krsp_rsp.Oracle.default},
          i.e. the [KRSP_RSP_ORACLE] / [--rsp-oracle] process-wide
          policy *)
  overlay_views : bool;
      (** [true] (default): mutations patch the last full CSR through the
          delta overlay; [false]: every freeze is a full rebuild — the
          refreeze baseline of the churn benchmark *)
  scoped_invalidation : bool;
      (** [true] (default): restrictive mutations drop only the cache
          entries touching a mutated edge (via the edge → key reverse
          index); [false]: every mutation flushes the whole cache *)
}

val default_config : config

val create : ?config:config -> ?pool:Krsp_util.Pool.t -> Krsp_graph.Digraph.t -> t
(** Takes a private {!Krsp_graph.Digraph.copy} of the graph — the
    caller's graph is never mutated. [pool] (default
    {!Krsp_util.Pool.default}) runs the solver's speculative guess
    bisection. *)

val handle : t -> ?trace:Krsp_obs.Trace.ctx -> Protocol.request -> Protocol.response
(** Total: never raises; unexpected exceptions become [Err (Internal _)],
    and a solve that raises caches nothing. [trace] threads the request's
    span context through the request: an [engine.prologue] span covers
    validation, the cache lookup and the live-view freeze (and the whole
    of every request that does not solve), [solve.job] is its sibling
    around the solve itself (which threads the context on into
    {!Krsp_core.Krsp.solve}), mutations get [topo.fail] / [topo.restore] /
    [topo.mutate] (the latter with a nested [topo.invalidate], and a
    nested [topo.renumber] when the batch renumbers the ids), and a
    solve annotates the context's root span with [source]
    (cache/warm/cold/infeasible), [oracle], [donor], [rounds], [guesses]
    and any [numeric_fallbacks] delta — the facts the slow-request log
    reports. *)

val handle_line : t -> string -> string
(** [print_response (handle (parse_request line))], with parse errors
    rendered as [ERR bad-request]. *)

val generation : t -> int

val failed_edges : t -> int
(** Edges currently down by [FAIL] (i.e. restorable — permanent [MUTATE]
    deletions are not counted here). *)

val metrics : t -> Krsp_util.Metrics.t
val pool : t -> Krsp_util.Pool.t

val live_graph : t -> Krsp_graph.Digraph.t
(** The engine's live topology, mutations applied — the reference the
    churn tests certify cached solutions against. Callers must not mutate
    it. *)

val fold_cache :
  t ->
  init:'a ->
  f:
    ('a ->
    src:int ->
    dst:int ->
    k:int ->
    delay_bound:int ->
    epsilon:float option ->
    cost:int ->
    delay:int ->
    paths:int list list ->
    'a) ->
  'a
(** Folds over every cached solution (most-recently-used first) with its
    key and its edge-id paths — what the staleness property test replays
    against {!live_graph} after a mutation batch. *)

val cache_stats : t -> Cache.stats

val cache_occupancy : t -> int * int
(** [(length, capacity)] of the solution cache. *)

val local_kv : t -> (string * string) list
(** The engine-instance-owned slice of {!stats_kv}: this engine's metrics
    registry (including the [topo.*] mutation/invalidation counters), its
    pool counters, cache hit/miss/eviction/invalidation and occupancy,
    generation and failed-edge count, and the live graph's
    {!Krsp_graph.Digraph.topo_stats} (freeze/overlay/compaction counters,
    pending patch size) — and nothing from the process-global
    solver/checker registries. This is what {!Shard} aggregates per shard
    (globals would otherwise be counted once per shard). *)

val stats_kv : t -> (string * string) list
(** The [STATS] payload: {!local_kv} plus the process-global solver and
    checker registries and the topology dimensions (including
    [topology.m_alive]). *)

val trace_response : string option -> Protocol.response
(** The [TRACE] handler: export the process-global span rings as Chrome
    trace-event JSON — inline ([Trace_json]) with no path, or written to
    the file ([Traced], with the exported span count) otherwise. Clears
    the rings on success; a failed file write answers [ERR internal] and
    leaves the rings intact. Shared by the engine and the shard front. *)
