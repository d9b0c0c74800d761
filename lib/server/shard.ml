(* A fleet of engine shards behind one front.

   Each shard owns a private replica of the serving engine — its own copy
   of the base graph (so frozen-view memoization never crosses domains),
   its own solution cache and warm-start donors, its own domain pool — and
   a bounded FIFO admission queue drained by one dedicated worker domain.
   The front (whoever calls [submit]/[handle_line]: the socket loop, the
   stdio loop, the load harness) routes query traffic by a hash of the
   (src, dst) endpoints, broadcasts topology mutations to every shard
   behind a generation barrier, and sheds work with OVERLOAD instead of
   queueing unboundedly.

   Single-writer discipline: a shard's engine is touched only by that
   shard's worker domain, so the engine needs no locks; the queue mutex is
   the only synchronization between front and shard, and the barrier mutex
   the only one between shards. *)

module G = Krsp_graph.Digraph
module Metrics = Krsp_util.Metrics
module Pool = Krsp_util.Pool
module Timer = Krsp_util.Timer
module Trace = Krsp_obs.Trace

let log = Logs.Src.create "krspd.shard" ~doc:"kRSP shard fleet"

module L = (val Logs.src_log log : Logs.LOG)

(* ---- generation barrier ---------------------------------------------------- *)

(* One FAIL/RESTORE broadcast. Every shard decrements [pending] after
   applying the mutation to its engine; the front waits for zero before
   admitting any post-mutation query, so no shard can serve a generation
   g+1 answer while another still serves g. *)
type barrier = {
  b_mu : Mutex.t;
  b_cv : Condition.t;
  mutable b_pending : int;
  mutable b_replies : (int * Protocol.response) list;  (* (shard index, reply) *)
}

type task =
  | Query of {
      request : Protocol.request;
      t_enq_ns : int64;  (* monotonic: queue-wait must survive NTP steps *)
      trace : Trace.ctx option;  (* minted at admission, finished on the shard *)
      prior_sheds : int;  (* times this (src, dst) was shed before admission *)
      complete : string -> unit;
    }
  | Mutation of { request : Protocol.request; barrier : barrier }

type shard = {
  index : int;
  engine : Engine.t;
  bound : int;
  mu : Mutex.t;
  nonempty : Condition.t;  (* signalled on enqueue and on shutdown *)
  not_full : Condition.t;  (* signalled on dequeue and on shutdown *)
  queue : task Queue.t;
  mutable stopping : bool;
  mutable domain : unit Domain.t option;
  c_served : Metrics.counter;
  c_busy_us : Metrics.counter;
  c_max_depth : Metrics.counter;  (* queue-depth high-water mark *)
}

type t = {
  shards : shard array;
  mutable generation : int;  (* front's mirror; written only under barriers *)
  metrics : Metrics.t;  (* front/fleet registry: routing, admission, waits *)
  (* shed history per (src, dst): read-and-reset at admission so an
     eventually admitted request's trace and slow-log line report how many
     times admission control turned it away first. Front-side state, but
     mutex'd anyway — the sync stdio path may race a test's submit calls. *)
  sheds_mu : Mutex.t;
  shed_history : (int * int, int) Hashtbl.t;
  c_routed : Metrics.counter;
  c_shed : Metrics.counter;
  c_mutations : Metrics.counter;
  c_front : Metrics.counter;  (* requests answered by the front itself *)
  c_bad : Metrics.counter;
  h_wait : Metrics.histogram;  (* admission-queue wait, ms *)
  h_service : Metrics.histogram;  (* on-shard handling time, ms *)
}

type outcome =
  | Replied of string
  | Queued of int
  | Shed of { shard : int; retry_after_ms : int }

let shards t = Array.length t.shards
let generation t = t.generation
let metrics t = t.metrics

let env_shards () =
  match Sys.getenv_opt "KRSP_SHARDS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> Some (max 1 v)
    | None -> None)

let default_queue_bound = 64

(* ---- worker ---------------------------------------------------------------- *)

let note_depth shard =
  (* caller holds shard.mu *)
  let depth = Queue.length shard.queue in
  let seen = Metrics.value shard.c_max_depth in
  if depth > seen then Metrics.incr ~by:(depth - seen) shard.c_max_depth

let verb = function
  | Protocol.Ping -> "PING"
  | Protocol.Solve _ -> "SOLVE"
  | Protocol.Qos _ -> "QOS"
  | Protocol.Fail _ -> "FAIL"
  | Protocol.Restore _ -> "RESTORE"
  | Protocol.Mutate _ -> "MUTATE"
  | Protocol.Stats -> "STATS"
  | Protocol.Trace _ -> "TRACE"

(* The threshold-triggered slow-request log: one line per kept-slow
   request with everything the on-call needs before opening the trace —
   what was asked, where it ran, how often it was shed first, and the
   root-arg attribution the engine recorded (source, oracle, rounds,
   donor, numeric fallbacks). Composed here, written by Trace.emit_slow
   with a single write so concurrent shards never interleave lines. *)
let slow_log ctx ~total_ms ~shard ~prior_sheds ~request =
  (* "request" is already printed (quoted) below; the root arg copy is for
     the exported trace *)
  let args = List.filter (fun (k, _) -> k <> "request") (Trace.root_args ctx) in
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf "slow-request trace=%d ms=%.3f shard=%d request=%S" (Trace.id ctx)
       total_ms shard (Protocol.print_request request));
  if prior_sheds > 0 then Buffer.add_string b (Printf.sprintf " prior_sheds=%d" prior_sheds);
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k v)) args;
  Buffer.add_string b (Printf.sprintf " spans=%d" (Trace.span_count ctx));
  Trace.emit_slow (Buffer.contents b)

let run_task t shard task =
  match task with
  | Query { request; t_enq_ns; trace; prior_sheds; complete } ->
    let t0_ns = Timer.now_ns () in
    Metrics.observe t.h_wait (Timer.ns_to_ms (Int64.sub t0_ns t_enq_ns));
    (* retroactive span: the wait started before we knew the request would
       be traced past admission *)
    (match trace with
    | Some ctx -> Trace.record ctx "queue.wait" ~t_start_ns:t_enq_ns ~t_end_ns:t0_ns
    | None -> ());
    (* Engine.handle is total: unexpected exceptions become ERR internal *)
    let reply = Protocol.print_response (Engine.handle shard.engine ?trace request) in
    let t1_ns = Timer.now_ns () in
    let ms = Timer.ns_to_ms (Int64.sub t1_ns t0_ns) in
    Metrics.incr shard.c_served;
    Metrics.incr ~by:(max 0 (int_of_float (ms *. 1e3))) shard.c_busy_us;
    Metrics.observe t.h_service ms;
    (match trace with
    | None -> ()
    | Some ctx ->
      let args =
        ("shard", string_of_int shard.index)
        :: (if prior_sheds > 0 then [ ("prior_sheds", string_of_int prior_sheds) ] else [])
      in
      let total_ms, kept = Trace.finish ~args ctx (verb request) in
      (* under slow:<ms>, "kept" IS "slower than the threshold" — the log
         line and the exported trace cover exactly the same requests *)
      if kept && Trace.slow_threshold () <> None then
        slow_log ctx ~total_ms ~shard:shard.index ~prior_sheds ~request);
    (* a completion hook that raises must not kill the shard *)
    (try complete reply with _ -> ())
  | Mutation { request; barrier } ->
    let t0_ns = Timer.now_ns () in
    let reply = Engine.handle shard.engine request in
    let us = Int64.to_int (Int64.div (Int64.sub (Timer.now_ns ()) t0_ns) 1000L) in
    Metrics.incr ~by:(max 0 us) shard.c_busy_us;
    Mutex.lock barrier.b_mu;
    barrier.b_replies <- (shard.index, reply) :: barrier.b_replies;
    barrier.b_pending <- barrier.b_pending - 1;
    if barrier.b_pending = 0 then Condition.broadcast barrier.b_cv;
    Mutex.unlock barrier.b_mu

let rec worker_loop t shard =
  Mutex.lock shard.mu;
  while Queue.is_empty shard.queue && not shard.stopping do
    Condition.wait shard.nonempty shard.mu
  done;
  if Queue.is_empty shard.queue then Mutex.unlock shard.mu (* stopping, and drained *)
  else begin
    let task = Queue.pop shard.queue in
    Condition.signal shard.not_full;
    Mutex.unlock shard.mu;
    run_task t shard task;
    worker_loop t shard
  end

(* ---- admission ------------------------------------------------------------- *)

(* non-blocking: false means the queue is at its bound (or the shard is
   draining) and the request was NOT enqueued — the caller sheds it *)
let try_push shard task =
  Mutex.lock shard.mu;
  let admitted = (not shard.stopping) && Queue.length shard.queue < shard.bound in
  if admitted then begin
    Queue.add task shard.queue;
    note_depth shard;
    Condition.signal shard.nonempty
  end;
  Mutex.unlock shard.mu;
  admitted

(* blocking (backpressure instead of shedding): used for mutations — which
   must reach every shard — and by the synchronous stdio path *)
let push_wait shard task =
  Mutex.lock shard.mu;
  while Queue.length shard.queue >= shard.bound && not shard.stopping do
    Condition.wait shard.not_full shard.mu
  done;
  let admitted = not shard.stopping in
  if admitted then begin
    Queue.add task shard.queue;
    note_depth shard;
    Condition.signal shard.nonempty
  end;
  Mutex.unlock shard.mu;
  admitted

let queue_depth shard =
  Mutex.lock shard.mu;
  let d = Queue.length shard.queue in
  Mutex.unlock shard.mu;
  d

let queue_depths t = Array.map queue_depth t.shards

(* mean on-shard service time (ms), for the retry-after hint; before any
   observation, assume a solve-shaped default *)
let mean_service_ms t =
  let n = Metrics.count t.h_service in
  if n = 0 then 10. else Metrics.sum t.h_service /. float_of_int n

let retry_after_ms t shard =
  let est = mean_service_ms t *. float_of_int (max 1 (queue_depth shard)) in
  max 1 (min 30_000 (int_of_float (ceil est)))

(* ---- routing --------------------------------------------------------------- *)

(* splitmix64 finalizer: cheap, well-mixed, stable across runs *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* The route is a pure function of (src, dst) and nothing else. Cache
   keys are generation-free (tombstones keep edge ids stable), so entries
   that scoped invalidation carries across a mutation, and the warm-start
   donors, stay on the shard that the same (s, t) will be routed to next. *)
let route t ~src ~dst =
  let open Int64 in
  let h = mix64 (add (mul (of_int src) 0x9e3779b97f4a7c15L) (of_int dst)) in
  to_int (rem (logand h max_int) (of_int (Array.length t.shards)))

(* ---- construction ---------------------------------------------------------- *)

let create ?(config = Engine.default_config) ?(queue_bound = default_queue_bound)
    ?(domains_per_shard = 1) ~shards base =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if queue_bound < 1 then invalid_arg "Shard.create: queue_bound must be >= 1";
  let metrics = Metrics.create () in
  let t =
    {
      shards =
        Array.init shards (fun index ->
            {
              index;
              engine =
                (* each shard gets its own graph copy: Digraph memoizes
                   frozen views inside the graph value, so sharing one base
                   across worker domains would race on that cache *)
                Engine.create ~config
                  ~pool:(Pool.create ~size:(max 1 domains_per_shard) ())
                  (G.copy base);
              bound = queue_bound;
              mu = Mutex.create ();
              nonempty = Condition.create ();
              not_full = Condition.create ();
              queue = Queue.create ();
              stopping = false;
              domain = None;
              c_served = Metrics.counter metrics (Printf.sprintf "shard%d.served" index);
              c_busy_us = Metrics.counter metrics (Printf.sprintf "shard%d.busy_us" index);
              c_max_depth =
                Metrics.counter metrics (Printf.sprintf "shard%d.max_queue_depth" index);
            });
      generation = 0;
      metrics;
      sheds_mu = Mutex.create ();
      shed_history = Hashtbl.create 64;
      c_routed = Metrics.counter metrics "front.routed";
      c_shed = Metrics.counter metrics "front.shed";
      c_mutations = Metrics.counter metrics "front.mutations";
      c_front = Metrics.counter metrics "front.inline";
      c_bad = Metrics.counter metrics "front.bad_requests";
      h_wait = Metrics.histogram metrics "fleet.queue_wait_ms";
      h_service = Metrics.histogram metrics "fleet.service_ms";
    }
  in
  Array.iter
    (fun shard ->
      shard.domain <-
        Some
          (Domain.spawn (fun () ->
               (* label this domain's flamegraph lane before serving *)
               Trace.name_lane (Printf.sprintf "shard%d" shard.index);
               worker_loop t shard)))
    t.shards;
  L.info (fun m ->
      m "fleet up: %d shard(s), queue bound %d, %d domain(s)/shard" shards queue_bound
        (max 1 domains_per_shard));
  t

let draining t = Array.exists (fun s -> s.stopping) t.shards

let shutdown t =
  Array.iter
    (fun s ->
      Mutex.lock s.mu;
      s.stopping <- true;
      Condition.broadcast s.nonempty;
      Condition.broadcast s.not_full;
      Mutex.unlock s.mu)
    t.shards;
  (* workers drain their queues before exiting, so every admitted request
     still completes (and its [complete] hook fires) during shutdown *)
  Array.iter
    (fun s ->
      match s.domain with
      | Some d ->
        Domain.join d;
        s.domain <- None
      | None -> ())
    t.shards;
  Array.iter (fun s -> Pool.shutdown (Engine.pool s.engine)) t.shards

(* ---- mutations: broadcast + generation barrier ----------------------------- *)

let broadcast_mutation t request =
  Metrics.incr t.c_mutations;
  let trace = Trace.start () in
  let barrier =
    {
      b_mu = Mutex.create ();
      b_cv = Condition.create ();
      b_pending = Array.length t.shards;
      b_replies = [];
    }
  in
  Array.iter
    (fun shard ->
      if not (push_wait shard (Mutation { request; barrier })) then begin
        (* shard is draining: count it as arrived so the barrier can't hang *)
        Mutex.lock barrier.b_mu;
        barrier.b_pending <- barrier.b_pending - 1;
        if barrier.b_pending = 0 then Condition.broadcast barrier.b_cv;
        Mutex.unlock barrier.b_mu
      end)
    t.shards;
  let t_wait_ns = Timer.now_ns () in
  Mutex.lock barrier.b_mu;
  while barrier.b_pending > 0 do
    Condition.wait barrier.b_cv barrier.b_mu
  done;
  let replies = barrier.b_replies in
  Mutex.unlock barrier.b_mu;
  (* the generation barrier is the serving pause every mutation imposes on
     the whole fleet — the one number a traced FAIL/RESTORE must show *)
  (match trace with
  | Some ctx ->
    Trace.record ctx "barrier.wait" ~t_start_ns:t_wait_ns ~t_end_ns:(Timer.now_ns ());
    ignore
      (Trace.finish
         ~args:[ ("shards", string_of_int (Array.length t.shards)) ]
         ctx (verb request))
  | None -> ());
  (* the barrier mutex ordered every shard's engine writes before this
     read: all shards are now at the same generation *)
  t.generation <- Engine.generation t.shards.(0).engine;
  match replies with
  | [] -> Protocol.Err (Protocol.Internal "no shard applied the mutation")
  | (_, r0) :: rest ->
    if List.for_all (fun (_, r) -> r = r0) rest then r0
    else begin
      L.err (fun m -> m "shards diverged on %s" (Protocol.print_request request));
      Protocol.Err (Protocol.Internal "shards diverged on mutation")
    end

let generations t = Array.map (fun s -> Engine.generation s.engine) t.shards

(* ---- stats ----------------------------------------------------------------- *)

let int_kv k v = (k, string_of_int v)

(* the live graph's id count; shards renumber in lockstep, so the max is
   every shard's value *)
let edge_ids t =
  Array.fold_left
    (fun acc s -> max acc (G.m (Engine.live_graph s.engine)))
    0 t.shards

let stats_kv t =
  (* fleet-aggregated engine view: merged metric registries plus summed
     cache counters. Counters read from other domains are exact (every
     series carries a lock); the cache integers are plain fields owned by
     the worker domains, so this snapshot can lag by in-flight requests —
     fine for diagnostics, and the reason the aggregate carries no lock. *)
  let agg = Metrics.create () in
  Array.iter (fun s -> Metrics.merge ~into:agg (Engine.metrics s.engine)) t.shards;
  let sum f = Array.fold_left (fun acc s -> acc + f s.engine) 0 t.shards in
  let cache_sum f = sum (fun e -> f (Engine.cache_stats e)) in
  [ int_kv "fleet.shards" (Array.length t.shards); int_kv "fleet.generation" t.generation ]
  @ Metrics.to_kv t.metrics
  @ Array.to_list
      (Array.map (fun s -> int_kv (Printf.sprintf "shard%d.queue_depth" s.index) (queue_depth s))
         t.shards)
  @ Metrics.to_kv agg
  @ [ int_kv "cache.hits" (cache_sum (fun c -> c.Cache.hits));
      int_kv "cache.misses" (cache_sum (fun c -> c.Cache.misses));
      int_kv "cache.evictions" (cache_sum (fun c -> c.Cache.evictions));
      int_kv "cache.invalidations" (cache_sum (fun c -> c.Cache.invalidations));
      int_kv "cache.length" (sum (fun e -> fst (Engine.cache_occupancy e)));
      int_kv "cache.capacity" (sum (fun e -> snd (Engine.cache_occupancy e)));
      int_kv "topo.edge_ids" (edge_ids t)
    ]
  @ Metrics.to_kv Krsp_core.Krsp.metrics
  @ Metrics.to_kv Krsp_rsp.Rsp_engine.metrics
  @ Metrics.to_kv Krsp_check.Check.metrics
  @ Metrics.to_kv Krsp_numeric.Numeric.metrics

(* One registry with the whole process's series: the fleet front's, every
   shard's engine registry folded in, and the process-global solver /
   oracle / checker / numeric registries once. Built fresh per call —
   scrapes are sparse and merge is cheap next to a solve. *)
let merged_metrics t =
  let agg = Metrics.create () in
  Metrics.merge ~into:agg t.metrics;
  Array.iter (fun s -> Metrics.merge ~into:agg (Engine.metrics s.engine)) t.shards;
  Metrics.merge ~into:agg Krsp_core.Krsp.metrics;
  Metrics.merge ~into:agg Krsp_rsp.Rsp_engine.metrics;
  Metrics.merge ~into:agg Krsp_check.Check.metrics;
  Metrics.merge ~into:agg Krsp_numeric.Numeric.metrics;
  agg

let prometheus t =
  let f = float_of_int in
  let sum g = Array.fold_left (fun acc s -> acc + g s.engine) 0 t.shards in
  let cache_sum g = sum (fun e -> g (Engine.cache_stats e)) in
  let gauges =
    [ ("fleet.shards", f (Array.length t.shards));
      ("fleet.generation", f t.generation);
      ("cache.length", f (sum (fun e -> fst (Engine.cache_occupancy e))));
      ("cache.capacity", f (sum (fun e -> snd (Engine.cache_occupancy e))));
      ("cache.hits", f (cache_sum (fun c -> c.Cache.hits)));
      ("cache.misses", f (cache_sum (fun c -> c.Cache.misses)));
      ("topo.edge_ids", f (edge_ids t))
    ]
    @ Array.to_list
        (Array.map
           (fun s -> (Printf.sprintf "shard%d.queue_depth" s.index, f (queue_depth s)))
           t.shards)
  in
  Krsp_obs.Prom.render ~gauges (merged_metrics t)

let dump t =
  (* one buffer, one writer: per-shard sections can never interleave *)
  let b = Buffer.create 1024 in
  let kvs section kvs =
    Buffer.add_string b (Printf.sprintf "--- %s ---\n" section);
    List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%s\n" k v)) kvs
  in
  kvs (Printf.sprintf "fleet (%d shard(s))" (Array.length t.shards)) (stats_kv t);
  Array.iter
    (fun s -> kvs (Printf.sprintf "shard %d" s.index) (Engine.local_kv s.engine))
    t.shards;
  Buffer.contents b

(* ---- the front ------------------------------------------------------------- *)

(* shed-history bookkeeping: bump on shed, read-and-reset on admission *)
let note_shed t ~src ~dst =
  Mutex.lock t.sheds_mu;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.shed_history (src, dst)) in
  Hashtbl.replace t.shed_history (src, dst) (n + 1);
  Mutex.unlock t.sheds_mu

let take_sheds t ~src ~dst =
  Mutex.lock t.sheds_mu;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.shed_history (src, dst)) in
  if n > 0 then Hashtbl.remove t.shed_history (src, dst);
  Mutex.unlock t.sheds_mu;
  n

(* a query task, with its trace context minted at protocol decode *)
let query_task t ~src ~dst ~complete request =
  let trace = Trace.start () in
  (match trace with
  | Some ctx ->
    Trace.add_root_arg ctx "request" (Protocol.print_request request)
  | None -> ());
  let prior_sheds = take_sheds t ~src ~dst in
  Query { request; t_enq_ns = Timer.now_ns (); trace; prior_sheds; complete }

let submit t ~complete line =
  match Protocol.parse_request line with
  | Error e ->
    Metrics.incr t.c_bad;
    Replied
      (Protocol.print_response
         (Protocol.Err (Protocol.Bad_request (Protocol.describe_parse_error e))))
  | Ok Protocol.Ping ->
    Metrics.incr t.c_front;
    Replied (Protocol.print_response Protocol.Pong)
  | Ok Protocol.Stats ->
    Metrics.incr t.c_front;
    Replied (Protocol.print_response (Protocol.Stats_dump (stats_kv t)))
  | Ok (Protocol.Trace { path }) ->
    (* rings are process-global, so the front can export without touching
       any shard; answered inline like STATS *)
    Metrics.incr t.c_front;
    Replied (Protocol.print_response (Engine.trace_response path))
  | Ok ((Protocol.Fail _ | Protocol.Restore _ | Protocol.Mutate _) as request) ->
    Replied (Protocol.print_response (broadcast_mutation t request))
  | Ok
      ((Protocol.Solve { src; dst; _ } | Protocol.Qos { src; dst; _ }) as request) ->
    let i = route t ~src ~dst in
    let shard = t.shards.(i) in
    if try_push shard (query_task t ~src ~dst ~complete request) then begin
      Metrics.incr t.c_routed;
      Queued i
    end
    else begin
      Metrics.incr t.c_shed;
      note_shed t ~src ~dst;
      Shed { shard = i; retry_after_ms = retry_after_ms t shard }
    end

let overload_reply retry_after_ms =
  Protocol.print_response (Protocol.Err (Protocol.Overload { retry_after_ms }))

let handle_line t line =
  (* synchronous: block for the routed shard's answer. Queries use the
     blocking push — a lone stdio client wants backpressure, not shedding *)
  let slot = ref None in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let complete reply =
    Mutex.lock mu;
    slot := Some reply;
    Condition.signal cv;
    Mutex.unlock mu
  in
  match Protocol.parse_request line with
  | Ok ((Protocol.Solve { src; dst; _ } | Protocol.Qos { src; dst; _ }) as request) ->
    let i = route t ~src ~dst in
    if push_wait t.shards.(i) (query_task t ~src ~dst ~complete request) then begin
      Metrics.incr t.c_routed;
      Mutex.lock mu;
      while !slot = None do
        Condition.wait cv mu
      done;
      Mutex.unlock mu;
      Option.get !slot
    end
    else (* draining: never enqueued, safe to retry elsewhere *)
      overload_reply (retry_after_ms t t.shards.(i))
  | Ok _ | Error _ -> (
    match submit t ~complete line with
    | Replied reply -> reply
    | Shed { retry_after_ms; _ } -> overload_reply retry_after_ms
    | Queued _ -> assert false (* queries handled above *))
