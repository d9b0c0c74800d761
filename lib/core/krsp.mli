(** Algorithm 1 — cycle cancellation with bicameral cycles — and the outer
    [C_OPT] guess search (Lemma 3 / the "binary search for B*" remark after
    Theorem 17).

    The inner loop is the paper's verbatim: while the solution's total delay
    exceeds [D], find a bicameral cycle in the residual graph (Definition 6)
    and apply ⊕ (Proposition 7). Given a start of cost ≤ [C_OPT] (phase 1)
    and a guess [G ≥ C_OPT], Lemma 11's induction yields delay ≤ [D] and cost
    ≤ [start cost + G ≤ 2·C_OPT].

    [C_OPT] is unknown, so {!solve} brackets it: the min-sum cost is a lower
    bound, the min-delay solution's cost an upper bound, and a binary search
    finds the smallest guess at which the inner loop succeeds. Every accepted
    solution is verified feasible (delay ≤ D, k disjoint paths), so the
    search can only improve quality, never correctness. If every guess fails
    (possible only through the iteration cap or the Theorem 16 edge cases
    discussed in DESIGN.md), the min-delay solution is returned as a
    certified-feasible fallback and flagged in the stats. *)

type engine = Dp | Lp
(** Which bicameral search runs inside the loop: the polynomial DP engine or
    the faithful LP engine of Algorithm 3. *)

type stats = {
  iterations : int;  (** accepted cycle cancellations, summed over guesses *)
  type0 : int;
  type1 : int;
  type2 : int;
  guesses_tried : int;
  final_guess : int;  (** guess that produced the returned solution *)
  used_fallback : bool;
  warm_started : bool;
      (** the start solution came from a repaired [warm_start], not phase 1 *)
}

type error =
  | No_k_disjoint_paths
      (** the graph carries fewer than [k] edge-disjoint [src→dst] paths *)
  | Delay_bound_unreachable of int
      (** instance infeasible; payload is the minimum achievable total delay *)
(** When {!solve} decides each: it takes its start first (a repaired
    [warm_start], else phase 1). A phase 1 whose min-cost flow cannot ship
    [k] units answers [No_k_disjoint_paths] at once — on unit capacities
    that is exactly the lack of [k] disjoint paths. A start that meets [D]
    is returned as-is; only a start over [D] (or an infeasible
    [Lp_rounding] LP) makes the solve run the min-delay [k]-flow, whose
    delay is dmin: over [D] it answers [Delay_bound_unreachable dmin],
    otherwise it becomes the fallback. No other check runs. *)

type outcome = (Instance.solution * stats, error) Stdlib.result

val metrics : Krsp_util.Metrics.t
(** Process-wide solver phase timings: histograms
    [solver.residual_build_ms], [solver.cycle_search_ms] and
    [solver.augment_ms] attribute each cancellation round's time to
    residual (mask) construction, bicameral cycle search and
    ⊕-augmentation; counters [solver.spec_launched], [solver.spec_hits]
    and [solver.spec_wasted] account for the parallel guess search's
    speculative attempts, [solver.repair_single_hits] /
    [solver.repair_single_fallbacks] for {!repair}'s incremental
    single-event (Bhandari) path. Exported by krspd's [STATS].
    Domain-safe. *)

val improve :
  Instance.t ->
  start:Krsp_graph.Path.t list ->
  guess:int ->
  ?trace:Krsp_obs.Trace.ctx ->
  ?engine:engine ->
  ?exhaustive:bool ->
  ?numeric:Krsp_numeric.Numeric.tier ->
  ?max_iterations:int ->
  ?stall_limit:int ->
  ?arena:Residual.arena ->
  unit ->
  (Instance.solution * int * int * int * int) option
(** One run of Algorithm 1's inner loop under a fixed [guess]: returns the
    improved solution and [(iterations, type0, type1, type2)] counts, or
    [None] if no bicameral cycle was found while still over the delay bound
    (guess too low / instance infeasible), the iteration cap was hit, or the
    delay made no progress for [stall_limit] iterations (default 40).

    Each round's residual comes from an {!Residual.arena} over the instance
    graph — an O(m) mask refill instead of a graph build. [arena] lets callers running several [improve]s over one instance
    (e.g. {!solve}'s guess search) share the doubled graph too; it must
    have been created by [Residual.arena] on this instance's graph. *)

val repair :
  Instance.t -> paths:Krsp_graph.Path.t list -> Krsp_graph.Path.t list option
(** Warm-start repair. Keeps the paths of [paths] that are still valid
    disjoint [src→dst] paths of the instance graph (damaged paths — ones
    referencing edges that no longer exist, were tombstoned by
    [Digraph.remove_edge], or are encoded as negative ids — are dropped),
    then re-routes the missing [k - kept] paths: min-cost first, and when
    that completion busts the delay bound, min-delay (a delay-feasible
    start lets {!solve} return without any cancellation); if both
    completions are infeasible the lower-delay one is returned as the
    cancellation start.

    When exactly one path is damaged — the dominant case under
    single-link churn — the re-route is {e incremental}: one
    Bellman-Ford in the Bhandari residual (surviving paths' edges
    reversed with negated weights) followed by a symmetric difference,
    touching no graph copy at all. A negative residual cycle or an
    undecomposable difference drops to the general path: a Suurballe run
    on the graph minus the kept paths' edges. [None] when the remainder
    graph cannot carry the missing paths (the greedy keep-set may block
    routes that a joint re-route would find, so [None] does not prove
    infeasibility — callers fall back to a cold solve). *)

val post_solve_hook : (Instance.t -> Instance.solution -> unit) ref
(** Fired by {!solve} with every solution it returns (all [Ok] paths: early
    feasible start, guess-search best, min-delay fallback), before the
    outcome reaches the caller. Default: no-op. [Krsp_check.Hook] points it
    at the certificate checker when [KRSP_CERTIFY] is set; an exception
    raised by the hook propagates out of [solve]. *)

val solve :
  Instance.t ->
  ?trace:Krsp_obs.Trace.ctx ->
  ?engine:engine ->
  ?exhaustive:bool ->
  ?phase1:Phase1.kind ->
  ?numeric:Krsp_numeric.Numeric.tier ->
  ?rsp_oracle:Krsp_rsp.Oracle.kind ->
  ?k1_oracle:bool ->
  ?max_iterations:int ->
  ?guess_steps:int ->
  ?warm_start:Krsp_graph.Path.t list ->
  ?pool:Krsp_util.Pool.t ->
  unit ->
  outcome
(** Full pipeline: phase 1 (or the warm repair), the feasibility verdicts
    (see {!error}), guess search over Algorithm 1, fallback.
    [guess_steps] bounds the binary-search depth (default 12).
    [max_iterations] caps each inner loop (default 2_000). [exhaustive]
    makes every bicameral search scan all roots and pick the globally best
    cycle instead of stopping at the first productive root (the quality/time
    trade-off of experiment E12).

    [warm_start], when given, is {!repair}ed and — if the repair yields k
    disjoint paths — used as the start solution instead of running phase 1,
    resuming bicameral cancellation from there ([stats.warm_started] is set).
    Algorithm 1's inner loop improves {e any} start (Lemmas 11–13 never use
    where the start came from), so the result is still certified feasible
    (delay ≤ D, k disjoint paths). What is lost is the approximation
    guarantee: Lemma 11's cost bound needs start cost ≤ [C_OPT], which a
    repaired solution does not promise, so a warm-started solve is
    best-effort on cost. When the repair fails, the solve silently proceeds
    cold with full guarantees.

    [rsp_oracle] (default {!Krsp_rsp.Oracle.default}) selects the RSP
    engine behind the hot single-path solves: at [k = 1] — where kRSP {e is}
    RSP — one oracle call replaces the entire guess bisection
    ([k1_oracle:false] disables that short-circuit, forcing the legacy
    guess search even at [k = 1]; for regression tests and benchmarks of
    the repair loop), and with
    [phase1 = Rsp_seq] the oracle routes the start paths. Oracle answers
    are certificate-gated (an invalid or bound-violating path falls back
    to the exact DP, counted in [rsp.oracle_gate_fallbacks]), so every
    returned solution stays certified feasible; an approximate oracle
    bounds the k=1 cost by (1+ε)·OPT ≤ 1.25·OPT at the default ε, within
    the pipeline's 2·OPT contract.

    [numeric] (default {!Krsp_numeric.Numeric.default}) picks the numeric
    tier of every LP the solve runs — the LP engine's cycle-search LPs and
    the [Lp_rounding] phase 1. Results are exact at either tier (the float
    tier is certificate-gated inside the simplex), but on degenerate LPs
    the tiers may pick different — equally optimal — vertices, so LP-engine
    trajectories can differ; the default DP engine with min-sum phase 1
    touches no LP at all.

    [trace], when given, closes phase-attributed spans into the request's
    trace context as the solve proceeds: [solve.warm_repair] or
    [solve.phase1] first, [solve.min_delay_bound] only when the start is
    over D (the min-delay flow that decides the verdict and builds the
    fallback), [solve.guess] per bisection
    attempt (speculative ones flagged [spec=true]), [round.residual] /
    [round.search] / [round.augment] per cancellation round,
    [oracle.solve] / [oracle.gate_fallback] around the k=1 oracle path and
    [solve.certify] around the post-solve hook. Tracing only observes —
    solver results are bit-for-bit identical with and without it.

    [pool] (default {!Krsp_util.Pool.default}, i.e. [KRSP_DOMAINS]-sized)
    parallelises the guess bisection: each bisect step evaluates the
    midpoint and, speculatively, the success branch's next midpoint
    concurrently on separate residual arenas, committing the speculation
    only when the search actually reaches that guess. A speculation needs
    two tasks at once, so widths above 2 add only idle domains. The
    result is the serial one bit-for-bit (DESIGN.md §10), so pool width is
    purely a latency knob. *)
