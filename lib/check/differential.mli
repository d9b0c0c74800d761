(** Differential verification: run the same instance through independent
    solver configurations and check that the results are
    certified-equivalent.

    Four axes, matching the repository's redundancy:

    - {b engines} (DP vs LP bicameral search): the solutions may differ —
      the engines explore different cycle spaces — but both must certify
      under {!Check.certify}, and infeasibility verdicts must agree and
      pass {!Check.audit_infeasible};
    - {b widths} (serial vs [KRSP_DOMAINS] > 1): DESIGN.md §10 promises a
      {e bit-identical} result at any pool width, so here equivalence is
      literal equality of cost, delay and the path multiset — plus a
      certificate on the solution;
    - {b warm vs cold}: a warm-started re-solve waives the cost guarantee
      but not feasibility — both runs must certify;
    - {b oracles} (every {!Krsp_rsp.Oracle.kind} vs the exact DP): same
      feasibility verdict, every solution certified, and at k = 1 a
      ratio-carrying oracle's cost within (1+ε) of the exact optimum.

    {!metamorphic} adds the {!Transform} relations: the transformed solve
    must certify, its mapped-back paths must certify on the original
    instance, and the cost accounting must match the transformation's
    factor exactly.

    {!churn} adds the dynamic-topology axis: an interleaved mutate/solve
    trace is replayed against two replicas of the same mutating graph —
    one absorbing mutations through the delta-overlay freeze path and
    renumbered at the trace's renumber steps, one forced to fully rebuild
    its CSR view before every solve and never renumbered. The overlay is
    specified to be indistinguishable from a refreeze and a renumbering
    keeps every row's order, so at every solve step the two replicas must
    agree on the verdict, the cost, the delay and the edge set (mapped
    back to the trace's ids), at both pool widths, and each witness must
    certify against the topology it was solved against. Until the first
    renumber step the path multisets must match bit for bit as well;
    after it they are not compared: [Residual.apply_cycle] hands the
    decomposition its edges in hash-table order over the ids, so
    renumbered ids can split the same edge set into other paths.

    Every function returns the list of mismatches found ([[]] = all
    equivalent); a mismatch message names the axis and the witness. *)

module Instance := Krsp_core.Instance

val engines : ?level:Check.level -> Instance.t -> string list
val widths : ?w1:int -> ?w2:int -> ?level:Check.level -> Instance.t -> string list
val oracles : ?level:Check.level -> ?epsilon:float -> Instance.t -> string list
val warm_cold : ?level:Check.level -> Instance.t -> string list
val metamorphic : ?transforms:Transform.t list -> Instance.t -> string list

(** One edit of a churn trace. Edge-id-based ops ([M_del], [M_restore],
    [M_rew]) referencing an out-of-range id, a dead edge (for [M_del]) or
    a live one (for [M_restore]) are skipped, as are invalid [M_ins]
    endpoints — so shrunk traces remain replayable and both replicas
    always apply exactly the same effective edits. *)
type mutation =
  | M_del of int  (** tombstone a live edge *)
  | M_restore of int  (** revive a tombstoned edge *)
  | M_ins of { u : int; v : int; cost : int; delay : int }
  | M_rew of { edge : int; cost : int; delay : int }

type churn_op =
  | C_solve of { src : int; dst : int; k : int; delay_bound : int }
  | C_batch of mutation list  (** applied as one batch, like one MUTATE line *)
  | C_renumber
      (** renumber the incremental replica's ids, dropping every dead one
          ({!Krsp_graph.Digraph.renumber}); trace ids keep naming edges in
          the unrenumbered numbering, and a dropped edge stays dead *)

val apply_mutation : Krsp_graph.Digraph.t -> mutation -> unit
(** The replay semantics of one {!mutation} (shared with the fuzz
    harness's single-replica modes). *)

val churn :
  ?level:Check.level -> ?w1:int -> ?w2:int -> Krsp_graph.Digraph.t -> churn_op list -> string list
(** [churn base trace] copies [base] twice and replays [trace]:
    [C_batch] mutates both replicas in lockstep, [C_renumber] renumbers
    the incremental replica (the harness maps every later trace id and
    answer through the composed tables), [C_solve] freezes the
    incremental replica (delta overlay), rebuilds the refreeze replica,
    solves on both at widths [w1] (default 1) and [w2] (default 4) and
    compares as described above. Solve steps with invalid parameters are
    skipped. *)

val all : ?level:Check.level -> Instance.t -> string list
(** Engines, widths (1 vs 4), oracles, warm/cold and the four standard
    transformations. *)
