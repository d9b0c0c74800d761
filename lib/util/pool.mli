(** A fixed pool of worker domains with a shared FIFO work queue — the
    parallel substrate under [Krsp.solve]'s speculative guess bisection,
    the one parallel layer inside a solve.

    Design points:

    - {b Hand-rolled, zero dependencies}: [Domain] + [Mutex]/[Condition]
      from the OCaml 5 stdlib, nothing else.
    - {b Width includes the caller.} A pool of width [w] spawns [w - 1]
      worker domains; the domain that calls {!parallel_map} executes tasks
      too while it waits, so [w] tasks genuinely run at once and a width-1
      pool degenerates to plain serial execution with no queue, no locks
      and no spawned domains.
    - {b Help-first waiting makes nesting safe.} A domain blocked on a
      batch drains the shared queue instead of sleeping while work is
      available, so a task may itself call {!parallel_map} on the same pool
      without deadlocking even at width 2. No caller nests today.
    - {b Reuse.} Pools are meant to be long-lived — create one per process
      (or use {!default}) and share it across calls; workers park on a
      condition variable between batches.

    Determinism: {!parallel_map} returns results positionally, so callers
    that combine them in index order are bit-identical to a serial run
    regardless of execution interleaving. *)

type t

val create : ?size:int -> unit -> t
(** [create ()] sizes the pool from the [KRSP_DOMAINS] environment variable
    when set (clamped to ≥ 1), else [Domain.recommended_domain_count ()].
    [~size] overrides both. The pool spawns [size - 1] worker domains
    immediately. *)

val width : t -> int
(** Total parallelism including the calling domain; ≥ 1. *)

val env_width : unit -> int option
(** [KRSP_DOMAINS] when set and numeric (clamped to ≥ 1) — the same value
    {!create} defaults to. Exposed so callers that divide a machine among
    several pools (krspd's shard fleet) can honour it in their own
    arithmetic. *)

val default : unit -> t
(** The process-wide shared pool, created on first use (and registered for
    shutdown at exit). Solver entry points that are not handed an explicit
    pool use this one, so [KRSP_DOMAINS=1] serialises the whole stack. *)

val parallel_map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] is [Array.map f arr] with the applications
    distributed over the pool. Results are positional. [~chunk] sets how
    many consecutive elements one task covers (default: [length / 4·width],
    at least 1 — small enough to balance, large enough to amortise queue
    traffic).

    If any application raises, the exception of the lowest-indexed failing
    chunk is re-raised in the caller (with its backtrace) after all chunks
    of the batch have finished — workers are never left running a stale
    batch. On a width-1 pool this is exactly [Array.map]. *)

val shutdown : t -> unit
(** Drain the queue, stop and join all workers. Idempotent. Subsequent
    {!parallel_map} calls run inline (serial fallback). *)

val to_kv : t -> (string * string) list
(** The pool's counters — [pool.tasks] (tasks executed),
    [pool.max_queue_depth] (high-water mark of the shared queue) and
    [pool.domain<i>.busy_us] (per-domain cumulative task execution time in
    microseconds; domain 0 is the calling/helping domain, 1.. are spawned
    workers) — plus the instantaneous [pool.width] and [pool.queue_depth]:
    the shape krspd's [STATS] appends. *)
