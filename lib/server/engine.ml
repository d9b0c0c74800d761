module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module Instance = Krsp_core.Instance
module Krsp = Krsp_core.Krsp
module Metrics = Krsp_util.Metrics
module Pool = Krsp_util.Pool
module Timer = Krsp_util.Timer
module Trace = Krsp_obs.Trace

let log = Logs.Src.create "krspd.engine" ~doc:"kRSP serving engine"

module L = (val Logs.src_log log : Logs.LOG)

type config = {
  cache_capacity : int;
  solver : Krsp.engine;
  max_iterations : int;
  numeric : Krsp_numeric.Numeric.tier option;
  rsp_oracle : Krsp_rsp.Oracle.kind option;
  overlay_views : bool;
  scoped_invalidation : bool;
}

let default_config =
  {
    cache_capacity = 1024;
    solver = Krsp.Dp;
    max_iterations = 2_000;
    numeric = None;
    rsp_oracle = None;
    overlay_views = true;
    scoped_invalidation = true;
  }

(* cache key: (s, t, k, D, ε) — edge ids are stable between renumberings
   (the live graph mutates in place, tombstoning), and a renumbering
   flushes the cache and the donors, so the key carries no topology
   generation; the invalidation policy below is what keeps every
   reachable entry current *)
type key = int * int * int * int * float option

type entry = { e_cost : int; e_delay : int; base_paths : int list list }

type t = {
  graph : G.t;  (** the live topology, mutated in place by FAIL/RESTORE/MUTATE *)
  cfg : config;
  pool : Pool.t;
  failed : (int, unit) Hashtbl.t;  (** edges downed by FAIL (restorable) *)
  mutable deleted_ids : int;  (** ids tombstoned by [del] since the last renumbering *)
  mutable generation : int;
  cache : (key, entry) Cache.t;
  (* reverse index edge → cached keys whose solution uses that edge: what
     makes invalidation O(touching entries) instead of O(cache). Stale
     pairs (evicted or re-solved entries) are cleaned lazily at
     invalidation time and swept wholesale when the index outgrows the
     cache. *)
  edge_index : (int, (key, unit) Hashtbl.t) Hashtbl.t;
  mutable indexed_pairs : int;
  donors : (key, entry) Hashtbl.t;
  metrics : Metrics.t;
  (* hot-path handles *)
  c_requests : Metrics.counter;
  c_cold : Metrics.counter;
  c_warm : Metrics.counter;
  c_hits : Metrics.counter;
  c_infeasible : Metrics.counter;
  c_mutations : Metrics.counter;
  c_bad : Metrics.counter;
  c_mutate_batches : Metrics.counter;
  c_mutated_edges : Metrics.counter;
  c_scoped_invalidations : Metrics.counter;
  c_full_invalidations : Metrics.counter;
  c_invalidated_entries : Metrics.counter;
  c_stale_hits : Metrics.counter;
  c_index_sweeps : Metrics.counter;
  c_renumberings : Metrics.counter;
  h_cold : Metrics.histogram;
  h_warm : Metrics.histogram;
  h_hit : Metrics.histogram;
  h_qos : Metrics.histogram;
}

let create ?(config = default_config) ?pool base =
  let metrics = Metrics.create () in
  (* private copy: the engine mutates its topology in place, the caller's
     graph must stay untouched (shards already hand in copies; this makes
     direct Engine.create safe too) *)
  let graph = G.copy base in
  if not config.overlay_views then G.set_compaction_threshold graph 0.;
  {
    graph;
    cfg = config;
    pool = (match pool with Some p -> p | None -> Pool.default ());
    failed = Hashtbl.create 16;
    deleted_ids = 0;
    generation = 0;
    cache = Cache.create ~capacity:config.cache_capacity;
    edge_index = Hashtbl.create 64;
    indexed_pairs = 0;
    donors = Hashtbl.create 64;
    metrics;
    c_requests = Metrics.counter metrics "requests_total";
    c_cold = Metrics.counter metrics "solve_cold";
    c_warm = Metrics.counter metrics "solve_warm";
    c_hits = Metrics.counter metrics "solve_cache_hit";
    c_infeasible = Metrics.counter metrics "solve_infeasible";
    c_mutations = Metrics.counter metrics "topology_mutations";
    c_bad = Metrics.counter metrics "bad_requests";
    c_mutate_batches = Metrics.counter metrics "topo.mutate_batches";
    c_mutated_edges = Metrics.counter metrics "topo.mutated_edges";
    c_scoped_invalidations = Metrics.counter metrics "topo.scoped_invalidations";
    c_full_invalidations = Metrics.counter metrics "topo.full_invalidations";
    c_invalidated_entries = Metrics.counter metrics "topo.invalidated_entries";
    c_stale_hits = Metrics.counter metrics "topo.stale_hits_dropped";
    c_index_sweeps = Metrics.counter metrics "topo.index_sweeps";
    c_renumberings = Metrics.counter metrics "topo.renumberings";
    h_cold = Metrics.histogram metrics "cold_ms";
    h_warm = Metrics.histogram metrics "warm_ms";
    h_hit = Metrics.histogram metrics "cache_hit_ms";
    h_qos = Metrics.histogram metrics "qos_ms";
  }

let generation t = t.generation
let pool t = t.pool
let failed_edges t = Hashtbl.length t.failed
let metrics t = t.metrics
let live_graph t = t.graph

(* The solve-facing adjacency snapshot of the current topology: the
   overlay path patches the last full CSR in O(changes), the refreeze
   baseline rebuilds O(n + m) — bit-identical iteration either way. *)
let live_view t = if t.cfg.overlay_views then G.freeze t.graph else G.rebuild t.graph

let vertex_paths g paths = List.map (fun p -> Path.vertices g p) paths

let entry_of_solution (sol : Instance.solution) =
  { e_cost = sol.Instance.cost; e_delay = sol.Instance.delay; base_paths = sol.Instance.paths }

let entry_uses entry e = List.exists (List.exists (fun e' -> e' = e)) entry.base_paths

(* entry is valid verbatim on the current topology: all path edges alive
   and the recorded sums matching the current weights *)
let entry_current t entry =
  List.for_all (List.for_all (fun e -> e >= 0 && e < G.m t.graph && G.alive t.graph e))
    entry.base_paths
  && List.fold_left (fun acc p -> acc + Path.cost t.graph p) 0 entry.base_paths = entry.e_cost
  && List.fold_left (fun acc p -> acc + Path.delay t.graph p) 0 entry.base_paths = entry.e_delay

(* ---- edge → cached-keys invalidation index --------------------------------- *)

let index_add t key entry =
  List.iter
    (List.iter (fun e ->
         let tbl =
           match Hashtbl.find_opt t.edge_index e with
           | Some tbl -> tbl
           | None ->
             let tbl = Hashtbl.create 4 in
             Hashtbl.add t.edge_index e tbl;
             tbl
         in
         if not (Hashtbl.mem tbl key) then begin
           Hashtbl.replace tbl key ();
           t.indexed_pairs <- t.indexed_pairs + 1
         end))
    entry.base_paths

let index_reset t =
  Hashtbl.reset t.edge_index;
  t.indexed_pairs <- 0

(* Evictions and re-solves leave dead pairs behind; once they dominate,
   rebuild the index from the cache in one pass. *)
let index_maybe_sweep t =
  if t.indexed_pairs > 1024 && t.indexed_pairs > 16 * max 1 (Cache.length t.cache) then begin
    Metrics.incr t.c_index_sweeps;
    index_reset t;
    Cache.fold t.cache ~init:() ~f:(fun () key entry -> index_add t key entry)
  end

(* drop exactly the entries whose cached solution touches a mutated edge *)
let scoped_invalidate t ~edges =
  Metrics.incr t.c_scoped_invalidations;
  let dropped = ref 0 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt t.edge_index e with
      | None -> ()
      | Some keys ->
        Hashtbl.remove t.edge_index e;
        t.indexed_pairs <- t.indexed_pairs - Hashtbl.length keys;
        Hashtbl.iter
          (fun key () ->
            match Cache.peek t.cache key with
            | Some entry when entry_uses entry e ->
              Cache.remove t.cache key;
              incr dropped
            | _ -> ())
          keys)
    edges;
  Metrics.incr ~by:!dropped t.c_invalidated_entries;
  index_maybe_sweep t;
  !dropped

let full_invalidate t ~reset_donors =
  Metrics.incr t.c_full_invalidations;
  let dropped = Cache.filter_inplace t.cache ~f:(fun _ _ -> false) in
  index_reset t;
  if reset_donors then Hashtbl.reset t.donors;
  Metrics.incr ~by:dropped t.c_invalidated_entries;
  dropped

(* Restrictive mutations (edges down, weights up) leave every untouched
   entry valid verbatim, so only touching entries are dropped — unless
   scoped invalidation is configured off, in which case everything goes.
   Expansive mutations (edges back/new, weights down) can improve any
   query, so the whole cache and the warm-start donors go regardless. *)
let invalidate_restrictive t ~edges =
  if t.cfg.scoped_invalidation then scoped_invalidate t ~edges
  else full_invalidate t ~reset_donors:false

let invalidate_expansive t = full_invalidate t ~reset_donors:true

(* ---- request handlers ------------------------------------------------------ *)

(* A SOLVE or QOS runs in two sibling spans: [engine.prologue] covers
   validation, the cache lookup with its staleness guard, and the live-view
   freeze; [solve.job] covers the solve itself. Cache and metric writes
   follow the solve, outside both. *)

(* monotonic: the reported ms must not jump when NTP steps the wall clock *)
let ms_since t0 = Timer.now_ms () -. t0

let bad_request msg = Protocol.Err (Protocol.Bad_request msg)

let check_endpoints t ~src ~dst ~k =
  let n = G.n t.graph in
  if src < 0 || src >= n then Some (Printf.sprintf "src %d out of range [0, %d)" src n)
  else if dst < 0 || dst >= n then Some (Printf.sprintf "dst %d out of range [0, %d)" dst n)
  else if src = dst then Some "src = dst"
  else if k < 1 then Some "k must be >= 1"
  else None

let do_solve t ?trace ~src ~dst ~k ~delay_bound ~epsilon t0 =
  let key = (src, dst, k, delay_bound, epsilon) in
  match
    Trace.with_span trace "engine.prologue" (fun () ->
        match check_endpoints t ~src ~dst ~k with
        | Some msg -> `Answer (bad_request msg)
        | None when delay_bound < 0 -> `Answer (bad_request "delay bound < 0")
        | None when (match epsilon with Some e -> e <= 0. | None -> false) ->
          `Answer (bad_request "eps must be > 0")
        | None -> (
          let hit =
            match Cache.find t.cache key with
            | Some entry when entry_current t entry -> Some entry
            | Some _ ->
              (* belt and braces: the invalidation policy should make this
                 unreachable, and the churn suite asserts the counter stays 0 —
                 but a stale entry must never be served either way *)
              Metrics.incr t.c_stale_hits;
              Cache.remove t.cache key;
              None
            | None -> None
          in
          match hit with
          | Some entry ->
            Metrics.incr t.c_hits;
            Option.iter (fun ctx -> Trace.add_root_arg ctx "source" "cache") trace;
            let ms = ms_since t0 in
            Metrics.observe t.h_hit ms;
            `Answer
              (Protocol.Solution
                 {
                   cost = entry.e_cost;
                   delay = entry.e_delay;
                   source = Protocol.Cache_hit;
                   ms;
                   paths = vertex_paths t.graph entry.base_paths;
                 })
          | None ->
            ignore (live_view t);
            let inst = Instance.create t.graph ~src ~dst ~k ~delay_bound in
            let warm_start =
              Option.map (fun donor -> donor.base_paths) (Hashtbl.find_opt t.donors key)
            in
            `Solve (inst, warm_start)))
  with
  | `Answer response -> response
  | `Solve (inst, warm_start) -> (
    let fallbacks0 = Krsp_numeric.Numeric.exact_fallbacks () in
    let outcome =
      Trace.with_span trace "solve.job" (fun () ->
          match epsilon with
          | None ->
            Krsp.solve inst ?trace ~engine:t.cfg.solver ?numeric:t.cfg.numeric
              ?rsp_oracle:t.cfg.rsp_oracle ~max_iterations:t.cfg.max_iterations ?warm_start
              ~pool:t.pool ()
          | Some eps ->
            Result.map
              (fun r -> (r.Krsp_core.Scaling.solution, r.Krsp_core.Scaling.stats))
              (Krsp_core.Scaling.solve inst ?trace ~epsilon1:eps ~epsilon2:eps
                 ~engine:t.cfg.solver ?numeric:t.cfg.numeric ?rsp_oracle:t.cfg.rsp_oracle
                 ~max_iterations:t.cfg.max_iterations ?warm_start ~pool:t.pool ()))
    in
    (* root-span attribution for the slow log and the exported trace:
       what the solve actually did, not what was asked of it *)
    (match trace with
    | None -> ()
    | Some ctx ->
      Trace.add_root_arg ctx "oracle"
        (Krsp_rsp.Oracle.to_string
           (match t.cfg.rsp_oracle with Some k -> k | None -> Krsp_rsp.Oracle.default ()));
      Trace.add_root_arg ctx "donor" (string_of_bool (warm_start <> None));
      let fallbacks = Krsp_numeric.Numeric.exact_fallbacks () - fallbacks0 in
      if fallbacks > 0 then Trace.add_root_arg ctx "numeric_fallbacks" (string_of_int fallbacks);
      (match outcome with
      | Error _ -> Trace.add_root_arg ctx "source" "infeasible"
      | Ok (_, stats) ->
        Trace.add_root_arg ctx "source" (if stats.Krsp.warm_started then "warm" else "cold");
        Trace.add_root_arg ctx "rounds" (string_of_int stats.Krsp.iterations);
        Trace.add_root_arg ctx "guesses" (string_of_int stats.Krsp.guesses_tried);
        if stats.Krsp.used_fallback then Trace.add_root_arg ctx "fallback" "true"));
    match outcome with
    | Error e ->
      Metrics.incr t.c_infeasible;
      Protocol.Err (Protocol.error_of_outcome e)
    | Ok (sol, stats) ->
      let entry = entry_of_solution sol in
      Cache.add t.cache key entry;
      index_add t key entry;
      Hashtbl.replace t.donors key entry;
      let warm_started = stats.Krsp.warm_started in
      let ms = ms_since t0 in
      (if warm_started then begin
         Metrics.incr t.c_warm;
         Metrics.observe t.h_warm ms
       end
       else begin
         Metrics.incr t.c_cold;
         Metrics.observe t.h_cold ms
       end);
      Protocol.Solution
        {
          cost = entry.e_cost;
          delay = entry.e_delay;
          source = (if warm_started then Protocol.Warm_start else Protocol.Cold);
          ms;
          paths = vertex_paths t.graph entry.base_paths;
        })

let do_qos t ?trace ~src ~dst ~k ~per_path_delay t0 =
  match
    Trace.with_span trace "engine.prologue" (fun () ->
        match check_endpoints t ~src ~dst ~k with
        | Some msg -> `Answer (bad_request msg)
        | None when per_path_delay < 0 -> `Answer (bad_request "per-path delay < 0")
        | None ->
          ignore (live_view t);
          `Solve)
  with
  | `Answer response -> response
  | `Solve -> (
    match
      Trace.with_span trace "solve.job" (fun () ->
          Krsp_core.Qos_paths.solve t.graph ~src ~dst ~k ~per_path_delay ())
    with
    | Krsp_core.Qos_paths.No_k_disjoint_paths ->
      Metrics.incr t.c_infeasible;
      Protocol.Err Protocol.Infeasible_disjoint
    | Krsp_core.Qos_paths.Relaxation_infeasible d ->
      Metrics.incr t.c_infeasible;
      Protocol.Err (Protocol.Infeasible_delay d)
    | Krsp_core.Qos_paths.Paths (sol, _quality) ->
      let ms = ms_since t0 in
      Metrics.observe t.h_qos ms;
      Protocol.Solution
        {
          cost = sol.Instance.cost;
          delay = sol.Instance.delay;
          source = Protocol.Cold;
          ms;
          paths = vertex_paths t.graph sol.Instance.paths;
        })

(* live edges between u and v, either direction *)
let link_edges t ~u ~v =
  List.filter (fun e -> G.dst t.graph e = v) (G.out_edges t.graph u)
  @ List.filter (fun e -> G.dst t.graph e = u) (G.out_edges t.graph v)

(* FAILed edges between u and v, either direction *)
let failed_link_edges t ~u ~v =
  Hashtbl.fold
    (fun e () acc ->
      let s = G.src t.graph e and d = G.dst t.graph e in
      if (s = u && d = v) || (s = v && d = u) then e :: acc else acc)
    t.failed []

let bump_generation t =
  t.generation <- t.generation + 1;
  Metrics.incr t.c_mutations

let do_fail t ?trace ~u ~v () =
  Trace.with_span trace "topo.fail" @@ fun () ->
  let n = G.n t.graph in
  if u < 0 || u >= n || v < 0 || v >= n then
    Protocol.Err (Protocol.Bad_request "vertex out of range")
  else begin
    match link_edges t ~u ~v with
    | [] -> Protocol.Err Protocol.No_such_link
    | dead ->
      List.iter
        (fun e ->
          G.remove_edge t.graph e;
          Hashtbl.replace t.failed e ())
        dead;
      bump_generation t;
      (* invalidate only the affected entries; carry the rest forward *)
      let dropped = invalidate_restrictive t ~edges:dead in
      L.info (fun m ->
          m "FAIL %d %d: %d edge(s) down, %d cache entr(ies) invalidated, generation %d" u v
            (List.length dead) dropped t.generation);
      Protocol.Mutated { generation = t.generation; edges = List.length dead }
  end

let do_restore t ?trace ~u ~v () =
  Trace.with_span trace "topo.restore" @@ fun () ->
  let n = G.n t.graph in
  if u < 0 || u >= n || v < 0 || v >= n then
    Protocol.Err (Protocol.Bad_request "vertex out of range")
  else begin
    match failed_link_edges t ~u ~v with
    | [] -> Protocol.Err Protocol.No_such_link
    | back ->
      List.iter
        (fun e ->
          G.unremove_edge t.graph e;
          Hashtbl.remove t.failed e)
        back;
      bump_generation t;
      (* a restored edge can improve any solution: every entry is affected *)
      let dropped = invalidate_expansive t in
      L.info (fun m ->
          m "RESTORE %d %d: %d edge(s) back, %d cache entr(ies) invalidated, generation %d" u v
            (List.length back) dropped t.generation);
      Protocol.Mutated { generation = t.generation; edges = List.length back }
  end

(* Ids removed by [del] are dead for good (RESTORE revives FAILed edges
   only), yet every per-solve array is sized by the id count. Once they
   outnumber max(64, live edges), drop them and renumber the rest: the
   FAIL set follows the table, and cached paths and donors, which name old
   ids, are flushed rather than remapped. Each renumbering needs more than
   64 fresh [del]s, and every id past the initial m0 came from an [ins],
   which flushes anyway: at most one extra flush per 64 inserts, plus
   m0/64 once. Shards apply the same batches, so they renumber in
   lockstep. *)
let renumber_slack = 64

let maybe_renumber t ?trace () =
  if t.deleted_ids <= max renumber_slack (G.m_alive t.graph) then false
  else begin
    Trace.with_span trace "topo.renumber" (fun () ->
        let table = G.renumber t.graph ~keep:(Hashtbl.mem t.failed) in
        let failed = Hashtbl.fold (fun e () acc -> table.(e) :: acc) t.failed [] in
        Hashtbl.reset t.failed;
        List.iter (fun e -> Hashtbl.replace t.failed e ()) failed);
    t.deleted_ids <- 0;
    Metrics.incr t.c_renumberings;
    true
  end

(* MUTATE: one batched topology edit under a single generation bump.
   Validation first (the whole line is applied or rejected), then the
   sequential application classifies the batch: restrictive ops (del,
   weight increases) only ever worsen queries that touch them — scoped
   invalidation; any expansive op (ins, a weight decrease) can improve
   anything — full flush plus donor reset, exactly RESTORE's rule. A
   batch after which the ids get renumbered counts as expansive. *)
let do_mutate t ?trace ~ops () =
  Trace.with_span trace "topo.mutate" @@ fun () ->
  let n = G.n t.graph in
  let bad = ref None in
  List.iter
    (fun op ->
      if !bad = None then
        let check_uv u v =
          if u < 0 || u >= n || v < 0 || v >= n then
            bad := Some "vertex out of range"
        in
        match op with
        | Protocol.Ins { u; v; cost; delay } ->
          check_uv u v;
          if !bad = None && (cost < 0 || delay < 0) then
            bad := Some "edge weights must be >= 0"
        | Protocol.Del { u; v } -> check_uv u v
        | Protocol.Rew { u; v; cost; delay } ->
          check_uv u v;
          if !bad = None && (cost < 0 || delay < 0) then
            bad := Some "edge weights must be >= 0")
    ops;
  match !bad with
  | Some msg -> Protocol.Err (Protocol.Bad_request msg)
  | None ->
    let affected = ref 0 in
    let restrictive_edges = ref [] in
    let expansive = ref false in
    let directed_live u v = List.filter (fun e -> G.dst t.graph e = v) (G.out_edges t.graph u) in
    List.iter
      (fun op ->
        match op with
        | Protocol.Ins { u; v; cost; delay } ->
          ignore (G.add_edge t.graph ~src:u ~dst:v ~cost ~delay);
          expansive := true;
          incr affected
        | Protocol.Del { u; v } ->
          List.iter
            (fun e ->
              G.remove_edge t.graph e;
              restrictive_edges := e :: !restrictive_edges;
              t.deleted_ids <- t.deleted_ids + 1;
              incr affected)
            (directed_live u v)
        | Protocol.Rew { u; v; cost; delay } ->
          List.iter
            (fun e ->
              let c0 = G.cost t.graph e and d0 = G.delay t.graph e in
              if cost <> c0 || delay <> d0 then begin
                G.set_cost t.graph e cost;
                G.set_delay t.graph e delay;
                incr affected;
                if cost >= c0 && delay >= d0 then
                  restrictive_edges := e :: !restrictive_edges
                else expansive := true
              end)
            (directed_live u v))
      ops;
    Metrics.incr t.c_mutate_batches;
    Metrics.incr ~by:!affected t.c_mutated_edges;
    let dropped =
      if !affected = 0 then 0
      else begin
        bump_generation t;
        let renumbered = maybe_renumber t ?trace () in
        Trace.with_span trace "topo.invalidate" @@ fun () ->
        if !expansive || renumbered then invalidate_expansive t
        else invalidate_restrictive t ~edges:!restrictive_edges
      end
    in
    L.info (fun m ->
        m "MUTATE: %d op(s), %d edge(s) affected, %d cache entr(ies) invalidated, generation %d"
          (List.length ops) !affected dropped t.generation);
    Protocol.Mutated { generation = t.generation; edges = !affected }

let cache_stats t = Cache.stats t.cache
let cache_occupancy t = (Cache.length t.cache, Cache.capacity t.cache)

let fold_cache t ~init ~f =
  Cache.fold t.cache ~init ~f:(fun acc (src, dst, k, delay_bound, epsilon) entry ->
      f acc ~src ~dst ~k ~delay_bound ~epsilon ~cost:entry.e_cost ~delay:entry.e_delay
        ~paths:entry.base_paths)

(* series owned by this engine instance only — what a fleet aggregates
   per shard (the process-global solver/checker registries would be
   counted once per shard if they were included here) *)
let local_kv t =
  let c = Cache.stats t.cache in
  let ts = G.topo_stats t.graph in
  Metrics.to_kv t.metrics
  @ Pool.to_kv t.pool
  @ [ ("cache.hits", string_of_int c.Cache.hits); ("cache.misses", string_of_int c.Cache.misses);
      ("cache.evictions", string_of_int c.Cache.evictions);
      ("cache.invalidations", string_of_int c.Cache.invalidations);
      ("cache.length", string_of_int (Cache.length t.cache));
      ("cache.capacity", string_of_int (Cache.capacity t.cache));
      ("generation", string_of_int t.generation);
      ("failed_edges", string_of_int (failed_edges t));
      ("topo.full_freezes", string_of_int ts.G.full_freezes);
      ("topo.overlay_freezes", string_of_int ts.G.overlay_freezes);
      ("topo.compactions", string_of_int ts.G.compactions);
      ("topo.patched_edges", string_of_int ts.G.patched_edges);
      ("topo.patch_pending", string_of_int ts.G.patch_pending);
      ("topo.removed_edges", string_of_int ts.G.removed_edges);
      ("topo.edge_ids", string_of_int (G.m t.graph));
      ("topo.index_pairs", string_of_int t.indexed_pairs)
    ]

let stats_kv t =
  local_kv t
  @ Metrics.to_kv Krsp.metrics
  @ Metrics.to_kv Krsp_rsp.Rsp_engine.metrics
  @ Metrics.to_kv Krsp_check.Check.metrics
  @ Metrics.to_kv Krsp_numeric.Numeric.metrics
  @ [ ("topology.n", string_of_int (G.n t.graph)); ("topology.m", string_of_int (G.m t.graph));
      ("topology.m_alive", string_of_int (G.m_alive t.graph)) ]

let internal_error exn =
  L.err (fun m -> m "request failed: %s" (Printexc.to_string exn));
  Protocol.Err (Protocol.Internal (Printexc.to_string exn))

(* TRACE: export every domain's span ring as Chrome trace-event JSON —
   inline on the reply line, or to a file when a path was given. The rings
   are process-global, so any engine's answer is the whole fleet's trace.
   A successful export clears the rings: each TRACE returns the spans
   accumulated since the previous one. *)
let trace_response path =
  let events = List.length (Trace.events ()) in
  let json = Trace.export_chrome () in
  match path with
  | None ->
    Trace.clear ();
    Protocol.Trace_json json
  | Some file -> (
    match
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc json)
    with
    | () ->
      Trace.clear ();
      Protocol.Traced { file; events }
    | exception Sys_error msg -> Protocol.Err (Protocol.Internal msg))

let handle t ?trace request =
  Metrics.incr t.c_requests;
  let t0 = Timer.now_ms () in
  let prologue f = Trace.with_span trace "engine.prologue" f in
  match
    match request with
    | Protocol.Solve { src; dst; k; delay_bound; epsilon } ->
      do_solve t ?trace ~src ~dst ~k ~delay_bound ~epsilon t0
    | Protocol.Qos { src; dst; k; per_path_delay } ->
      do_qos t ?trace ~src ~dst ~k ~per_path_delay t0
    | Protocol.Ping -> prologue (fun () -> Protocol.Pong)
    | Protocol.Stats -> prologue (fun () -> Protocol.Stats_dump (stats_kv t))
    | Protocol.Trace { path } -> prologue (fun () -> trace_response path)
    | Protocol.Fail { u; v } -> prologue (do_fail t ?trace ~u ~v)
    | Protocol.Restore { u; v } -> prologue (do_restore t ?trace ~u ~v)
    | Protocol.Mutate { ops } -> prologue (do_mutate t ?trace ~ops)
  with
  | response -> response
  | exception exn -> internal_error exn

let handle_line t line =
  match Protocol.parse_request line with
  | Error e ->
    Metrics.incr t.c_bad;
    Protocol.print_response (bad_request (Protocol.describe_parse_error e))
  | Ok request -> Protocol.print_response (handle t request)
