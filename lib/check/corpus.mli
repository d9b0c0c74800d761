(** On-disk kRSP instances ([.krsp] files) — the fuzz corpus format.

    A [.krsp] file is the {!Krsp_graph.Io} edge-list format plus one query
    line binding the instance parameters:

    {v
      # optional comments
      n <vertex-count>
      e <src> <dst> <cost> <delay>
      ...
      q <src> <dst> <k> <delay-bound>
    v}

    Shrunk fuzz failures are saved in this format under [test/corpus/] and
    replayed by the test suite and the CI fuzz-smoke job. *)

module Instance := Krsp_core.Instance

val to_string : ?comment:string -> Instance.t -> string
val of_string : string -> Instance.t
(** Raises [Failure] with a line-precise message on malformed input
    (missing or duplicate [q] line, bad instance parameters). *)

val save : string -> ?comment:string -> Instance.t -> unit
val load : string -> Instance.t

val load_dir : string -> (string * Instance.t) list
(** All [*.krsp] files of a directory, sorted by file name; [[]] when the
    directory does not exist. Raises [Failure] on a malformed file, naming
    it. *)

(** {2 Churn traces}

    A [.churn] file is a base graph in the same edge-list format followed
    by an interleaved trace of solve and mutation-batch steps, replayed by
    {!Differential.churn}:

    {v
      # optional comments
      n <vertex-count>
      e <src> <dst> <cost> <delay>
      ...
      s <src> <dst> <k> <delay-bound>
      m <op> [<op> ...]     op := del:<e> | res:<e> | ins:<u>:<v>:<c>:<d> | rew:<e>:<c>:<d>
      r                     renumber: drop the dead edge ids
    v}

    Shrunk churn disagreements are saved in this format under
    [test/corpus/] and replayed by the test suite and the CI fuzz legs. *)

val churn_to_string :
  ?comment:string -> Krsp_graph.Digraph.t * Differential.churn_op list -> string

val churn_of_string : string -> Krsp_graph.Digraph.t * Differential.churn_op list
(** Raises [Failure] on malformed input (bad graph lines, malformed solve
    or mutation tokens, or no trace lines at all). *)

val save_churn :
  string -> ?comment:string -> Krsp_graph.Digraph.t * Differential.churn_op list -> unit

val load_churn : string -> Krsp_graph.Digraph.t * Differential.churn_op list

val load_churn_dir : string -> (string * (Krsp_graph.Digraph.t * Differential.churn_op list)) list
(** All [*.churn] files of a directory, sorted by file name; [[]] when the
    directory does not exist. Raises [Failure] on a malformed file, naming
    it. *)
