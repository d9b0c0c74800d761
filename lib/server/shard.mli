(** A sharded serving fleet: N private engine replicas behind one front.

    One {!Engine.t} per shard — each with its own copy of the topology, its
    own solution cache and warm-start donors, its own frozen-CSR views and
    its own {!Krsp_util.Pool} domain set — plus a bounded FIFO admission
    queue drained by one dedicated worker domain per shard. The front
    (socket loop, stdio loop, or load harness) stays on its own domain and
    talks to shards only through the queues, so every engine remains
    single-writer and lock-free exactly as in the unsharded daemon.

    {2 Routing}

    Query traffic ([SOLVE]/[QOS]) is routed by a deterministic hash of
    [(src, dst)]: the same pair always lands on the same shard, so repeat
    queries find their shard's cache warm and sharding multiplies — rather
    than dilutes — E14's µs cache hits. Mutations do not move a pair:
    cache keys are generation-free, so the entries scoped invalidation
    carries forward and the warm-start donors stay co-located with the
    queries that will want them. [PING]/[STATS]/[TRACE] are answered by
    the front; malformed lines never reach a shard.

    {2 Tracing}

    Each admitted query mints a {!Krsp_obs.Trace} context at protocol
    decode (subject to the [KRSP_TRACE] policy) and carries it through the
    queue to the shard: the worker records the retroactive [queue.wait]
    span, threads the context through {!Engine.handle} (and from there
    through the solver), then finishes the root span — named after the
    verb, annotated with the shard index, the request line, and how many
    times admission control shed this (src, dst) before it got through —
    and, under [slow:<ms>], emits the structured slow-request log line for
    kept requests. Mutations trace their fleet-wide [barrier.wait].

    {2 Mutations and the generation barrier}

    [FAIL]/[RESTORE] are broadcast to {e every} shard (engines are
    replicas, so all must stay in lockstep) using the blocking push —
    mutations are never shed. The front then waits on a barrier until all
    shards have applied the mutation before admitting any further request:
    queued pre-mutation queries drain first (each shard's queue is FIFO),
    and no shard can serve a generation [g+1] answer while another still
    serves [g]. All shards must produce the same reply; divergence is
    reported as [ERR internal] and logged.

    {2 Admission control and backpressure}

    Each queue is bounded. {!submit} uses a non-blocking push: when the
    routed shard's queue is at its bound the request is {e shed} — it is
    never enqueued, has no effect, and the caller must answer
    [ERR overload retry-after-ms=<hint>] ({!outcome} [Shed]). The hint is
    the shard's current queue depth times the fleet's observed mean service
    time. {!handle_line} (the synchronous stdio path) blocks instead of
    shedding: a lone client pipelining requests wants backpressure.

    {2 Shutdown}

    {!shutdown} marks every shard as draining (subsequent submissions are
    shed), lets each worker finish its queued requests — every admitted
    request still completes and its [complete] hook still fires — then
    joins the workers and the per-shard pools. Idempotent. *)

type t

type outcome =
  | Replied of string  (** the front answered inline (or applied a mutation) *)
  | Queued of int  (** admitted to shard [i]; the reply arrives via [complete] *)
  | Shed of { shard : int; retry_after_ms : int }
      (** shard [i]'s queue is at its bound; reply [ERR overload] *)

val create :
  ?config:Engine.config ->
  ?queue_bound:int ->
  ?domains_per_shard:int ->
  shards:int ->
  Krsp_graph.Digraph.t ->
  t
(** [create ~shards g] spins up [shards] worker domains, each owning an
    engine over a private copy of [g]. [queue_bound] (default
    {!default_queue_bound}) caps each admission queue; [domains_per_shard]
    (default 1) sizes each shard's solver pool — total parallelism is
    [shards * domains_per_shard] plus the front. Raises [Invalid_argument]
    when [shards < 1] or [queue_bound < 1]. *)

val default_queue_bound : int

val env_shards : unit -> int option
(** [KRSP_SHARDS] when set and numeric (clamped to ≥ 1). *)

val shards : t -> int
val generation : t -> int
(** The front's generation mirror; equals every shard's engine generation
    whenever no mutation barrier is in flight. *)

val generations : t -> int array
(** Every shard's engine generation. Read from the front this is exact
    after any {!submit}/{!handle_line} returns (the barrier orders the
    reads); all entries are equal then. *)

val route : t -> src:int -> dst:int -> int
(** The shard index for a query pair. Pure and deterministic: equal pairs
    give equal routes, in this fleet and in any fleet with the same shard
    count, across every mutation (see the module preamble). *)

val submit : t -> complete:(string -> unit) -> string -> outcome
(** Parse and dispatch one request line. [complete] is invoked {e on the
    routed shard's worker domain} with the response line, exactly once, iff
    the outcome is [Queued] — hand the result back to your own event loop
    (the socket front pushes it to a completion queue and wakes a
    self-pipe); if [complete] blocks, that shard blocks with it.
    Exceptions from [complete] are swallowed. *)

val overload_reply : int -> string
(** [ERR overload retry-after-ms=<n>] rendered — what a front answers for
    a [Shed] outcome. *)

val handle_line : t -> string -> string
(** Synchronous: dispatch and wait for the reply. Queries use the blocking
    push (backpressure instead of shedding); only a draining fleet answers
    [ERR overload] here. *)

val queue_depths : t -> int array
(** Instantaneous admission-queue depth per shard. *)

val draining : t -> bool
(** True once {!shutdown} has begun. *)

val shutdown : t -> unit
(** Drain every queue (admitted requests complete), join the workers and
    shut down the per-shard pools. Idempotent; afterwards submissions are
    shed and {!handle_line} answers [ERR overload]. *)

val metrics : t -> Krsp_util.Metrics.t
(** The fleet registry: [front.routed]/[front.shed]/[front.mutations]/
    [front.inline]/[front.bad_requests] counters, per-shard
    [shard<i>.served]/[shard<i>.busy_us]/[shard<i>.max_queue_depth], and
    the [fleet.queue_wait_ms]/[fleet.service_ms] histograms. *)

val stats_kv : t -> (string * string) list
(** The sharded [STATS] payload: fleet shape and front registry, per-shard
    instantaneous queue depths, the fleet-aggregated engine view (every
    shard's engine registry folded together via {!Krsp_util.Metrics.merge}
    plus summed cache counters), and the process-global solver/checker
    registries once. Per-shard cache integers are read without
    synchronization (they lag by at most the requests in flight). *)

val dump : t -> string
(** Multi-line diagnostic dump: the fleet-aggregated section followed by
    one section per shard ({!Engine.local_kv}). Composed into a single
    string by the calling domain precisely so that writing it is one
    [write] — per-shard lines can never interleave. *)

val merged_metrics : t -> Krsp_util.Metrics.t
(** A fresh registry holding every series the process owns: the fleet
    front's, each shard's engine registry merged in, and the
    process-global solver/oracle/checker/numeric registries once. *)

val prometheus : t -> string
(** The Prometheus text exposition of {!merged_metrics}, plus
    point-in-time gauges (fleet shape, generation, cache occupancy and
    hit/miss totals, per-shard queue depths) — the body served by krspd's
    [--telemetry-port] endpoint. Safe to call from any domain. *)
