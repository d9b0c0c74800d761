(** Theorem 4 — the (1+ε₁, 2+ε₂) polynomial-time wrapper.

    Scales every delay by [θ_d ≈ ε₁·D/(n·k)] and every cost by
    [θ_c ≈ ε₂·Ĉ/(n·k)] (where [Ĉ] is the min-delay solution's cost, a
    certified [C_OPT] upper bound), solves the scaled instance with
    Algorithm 1, and maps the paths back. Floor-scaling can only make paths
    cheaper/faster, so the scaled instance stays feasible; rounding error is
    at most one unit per edge over at most [n·k] solution edges, giving the
    [+ε] slack of the theorem. The scaled magnitudes — and with them the
    layered search space and the iteration bound of Lemma 13 — become
    polynomial in [n, k, 1/ε]. *)

type result = {
  solution : Instance.solution;  (** evaluated at the *original* weights *)
  stats : Krsp.stats;
  scaled_delay_bound : int;
  theta_delay : int;
  theta_cost : int;
}

val solve :
  Instance.t ->
  epsilon1:float ->
  epsilon2:float ->
  ?trace:Krsp_obs.Trace.ctx ->
  ?engine:Krsp.engine ->
  ?phase1:Phase1.kind ->
  ?numeric:Krsp_numeric.Numeric.tier ->
  ?rsp_oracle:Krsp_rsp.Oracle.kind ->
  ?max_iterations:int ->
  ?warm_start:Krsp_graph.Path.t list ->
  ?pool:Krsp_util.Pool.t ->
  unit ->
  (result, Krsp.error) Stdlib.result
(** [epsilon1] relaxes the delay bound (total delay ≤ (1+ε₁)·D), [epsilon2]
    the cost ratio. Raises [Invalid_argument] on non-positive epsilons.
    [rsp_oracle] is forwarded to {!Krsp.solve} on the scaled instance
    (the k=1 fast path and [Rsp_seq] starts then run the selected oracle
    on the scaled weights). [warm_start] is forwarded too —
    valid because the scaled graph is a reweighted copy that keeps every
    edge id, tombstones included; the same caveats apply (feasibility
    kept, cost guarantee waived). [pool] is
    forwarded too (see {!Krsp.solve}).

    The verdicts come first, from one min-delay k-flow on the original
    graph: no flow answers [Error No_k_disjoint_paths], a flow whose delay
    dmin exceeds [D] answers [Error (Delay_bound_unreachable dmin)], and
    otherwise the flow's cost is Ĉ. The scaled instance is then feasible
    by construction, and its solve takes the lazy start-first path of
    {!Krsp.solve}. [trace] closes a [scaling.cost_bound] span around that
    flow and is forwarded to the inner {!Krsp.solve} (see its span
    list). *)
