(* krspd — the kRSP query-serving daemon.

   Loads a topology once, then serves SOLVE/QOS/FAIL/RESTORE/STATS/PING/
   TRACE requests over a Unix-domain socket, TCP, or stdio (see
   Krsp_server.Protocol for the grammar) from a fleet of engine shards
   (see Krsp_server.Shard). SIGUSR1 dumps the per-shard and aggregated
   metrics to stderr and SIGUSR2 exports the span rings as a Chrome trace
   file, both without disturbing clients; SIGTERM drains the fleet
   gracefully and exits 0. *)

open Cmdliner
module Io = Krsp_graph.Io
module Engine = Krsp_server.Engine
module Shard = Krsp_server.Shard
module Server = Krsp_server.Server
module Metrics = Krsp_util.Metrics
module Trace = Krsp_obs.Trace
module Telemetry = Krsp_obs.Telemetry

let graph_file =
  Arg.(
    required
    & opt (some string) None
    & info [ "graph"; "g" ] ~docv:"FILE" ~doc:"Topology in edge-list format (see Io).")

let unix_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix"; "u" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at $(docv).")

let tcp_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Listen on TCP $(docv) (see $(b,--host)).")

let tcp_host =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind address for $(b,--port).")

let cache_size =
  Arg.(
    value
    & opt int Engine.default_config.Engine.cache_capacity
    & info [ "cache" ] ~docv:"N" ~doc:"Solution-cache capacity (LRU entries) per shard.")

let engine_arg =
  Arg.(
    value & opt string "dp"
    & info [ "engine" ] ~docv:"ENGINE" ~doc:"Bicameral search engine: dp or lp.")

let numeric_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "numeric" ] ~docv:"TIER"
        ~doc:
          "Numeric tier for every LP/DP the solver runs: $(b,float) (default; \
           double-precision first, certificate-gated exact fallback) or $(b,exact) \
           (rational arithmetic only). Default: $(b,KRSP_NUMERIC) when set, else float. \
           Answers are exact at either tier; the fallback counters appear in STATS as \
           numeric.*.")

let rsp_oracle_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rsp-oracle" ] ~docv:"ORACLE"
        ~doc:
          "RSP engine behind every k=1 solve: $(b,dp) (exact pseudo-polynomial), \
           $(b,larac) (Lagrangian heuristic, always certificate-gated), $(b,lorenz-raz) \
           (reference FPTAS) or $(b,holzmuller) (default; fast FPTAS). Default: \
           $(b,KRSP_RSP_ORACLE) when set, else holzmuller. Answers that could flip a \
           feasibility verdict fall back to the exact DP; the oracle counters appear in \
           STATS as rsp.oracle_*.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards"; "s" ] ~docv:"N"
        ~doc:
          "Number of engine shards. Each shard owns a private engine (cache, frozen \
           topology views, solver pool) and a bounded admission queue drained by its own \
           domain; queries are routed by a hash of (src, dst) so repeat queries hit their \
           shard's cache, and FAIL/RESTORE are broadcast to all shards behind a generation \
           barrier. Default: $(b,KRSP_SHARDS) when set, else 1.")

let queue_bound_arg =
  Arg.(
    value
    & opt int Shard.default_queue_bound
    & info [ "queue-bound" ] ~docv:"N"
        ~doc:
          "Admission-queue bound per shard. When a shard's queue is full, new requests \
           routed to it are shed with $(b,ERR overload retry-after-ms=...) instead of \
           queueing unboundedly — offered load beyond capacity degrades by shedding while \
           the latency of admitted requests stays bounded.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Solver-pool width per shard (speculative guess bisection within one solve). \
           Default: $(b,KRSP_DOMAINS) when set, else the machine's recommended domain \
           count divided by the shard count. $(docv)=1 disables within-solve \
           parallelism; a speculation runs two attempts at once, so widths above 2 only \
           add idle domains. Total domains are roughly shards × $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"POLICY"
        ~doc:
          "Request-tracing policy: $(b,off), $(b,slow:<ms>) (keep and log only requests \
           slower than the threshold), $(b,sample:<N>) (keep one request in N) or \
           $(b,all). Kept requests' phase spans accumulate in ring buffers, exported as \
           Chrome trace-event JSON by the TRACE request or SIGUSR2. Default: \
           $(b,KRSP_TRACE) when set, else off.")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-file" ] ~docv:"FILE"
        ~doc:
          "Where SIGUSR2 writes the Chrome trace export. Default: \
           krspd-trace.<pid>.json in the working directory.")

let topology_arg =
  Arg.(
    value
    & opt string "overlay"
    & info [ "topology" ] ~docv:"MODE"
        ~doc:
          "How mutations (FAIL/RESTORE/MUTATE) reach the solver's adjacency view: \
           $(b,overlay) (default; patch the last full CSR through a delta overlay, \
           compacting when the patch outgrows its budget) or $(b,refreeze) (rebuild the \
           full view on every mutation — the baseline the churn suite compares against). \
           Both produce bit-identical views; only the cost of absorbing churn differs. \
           Counters appear in STATS as topo.*.")

let invalidation_arg =
  Arg.(
    value
    & opt string "scoped"
    & info [ "invalidation" ] ~docv:"POLICY"
        ~doc:
          "Cache invalidation on restrictive mutations (FAIL, del, non-decreasing \
           re-weights): $(b,scoped) (default; drop only entries whose cached solution \
           touches a mutated edge, via the edge-to-key reverse index) or $(b,full) (flush \
           the whole cache on every mutation). Expansive mutations (RESTORE, ins, weight \
           decreases) always flush fully — they can improve any query.")

let telemetry_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "telemetry-port" ] ~docv:"PORT"
        ~doc:
          "Serve the Prometheus text exposition of the merged metrics registries on \
           http://127.0.0.1:$(docv)/ (any path; one scrape per connection). 0 picks an \
           ephemeral port (printed on stderr).")

let run graph_file unix_path tcp_port tcp_host cache_size engine_name numeric rsp_oracle
    shards queue_bound domains trace_policy trace_file topology invalidation telemetry_port =
  let g =
    try Io.of_edge_list (Io.read_file graph_file)
    with Failure msg | Sys_error msg ->
      Printf.eprintf "krspd: cannot load %s: %s\n" graph_file msg;
      exit 3
  in
  let solver = match engine_name with "lp" -> Krsp_core.Krsp.Lp | _ -> Krsp_core.Krsp.Dp in
  let numeric =
    match numeric with
    | None -> None
    | Some s -> (
      match Krsp_numeric.Numeric.tier_of_string s with
      | Ok tier ->
        (* also pin the process default so LPs outside the engine config's
           reach (e.g. KRSP_CERTIFY's Full-level audit) follow the flag *)
        Krsp_numeric.Numeric.set_default tier;
        Some tier
      | Error msg ->
        Printf.eprintf "krspd: --numeric: %s\n" msg;
        exit 3)
  in
  let rsp_oracle =
    match rsp_oracle with
    | None -> None
    | Some s -> (
      match Krsp_rsp.Oracle.of_string s with
      | Ok kind ->
        (* pin the process default too, for oracle calls outside the
           engine config's reach *)
        Krsp_rsp.Oracle.set_default kind;
        Some kind
      | Error msg ->
        Printf.eprintf "krspd: --rsp-oracle: %s\n" msg;
        exit 3)
  in
  let overlay_views =
    match topology with
    | "overlay" -> true
    | "refreeze" -> false
    | s ->
      Printf.eprintf "krspd: --topology: unknown mode %S (want overlay or refreeze)\n" s;
      exit 3
  in
  let scoped_invalidation =
    match invalidation with
    | "scoped" -> true
    | "full" -> false
    | s ->
      Printf.eprintf "krspd: --invalidation: unknown policy %S (want scoped or full)\n" s;
      exit 3
  in
  let config =
    {
      Engine.default_config with
      Engine.cache_capacity = cache_size;
      solver;
      numeric;
      rsp_oracle;
      overlay_views;
      scoped_invalidation;
    }
  in
  let shards =
    match shards with
    | Some n -> max 1 n
    | None -> ( match Shard.env_shards () with Some n -> n | None -> 1)
  in
  let domains_per_shard =
    match domains with
    | Some n -> max 1 n
    | None -> (
      match Krsp_util.Pool.env_width () with
      | Some w -> w
      | None -> max 1 (Domain.recommended_domain_count () / shards))
  in
  (match trace_policy with
  | None -> ()
  | Some s -> (
    match Trace.policy_of_string s with
    | Ok p -> Trace.set_policy p
    | Error msg ->
      Printf.eprintf "krspd: --trace: %s\n" msg;
      exit 3));
  let fleet = Shard.create ~config ~queue_bound ~domains_per_shard ~shards g in
  (match Krsp_check.Hook.install_from_env () with
  | Some level ->
    Printf.eprintf "krspd: KRSP_CERTIFY on — every solve is post-checked (%s)\n%!"
      (match level with Krsp_check.Check.Full -> "full" | Krsp_check.Check.Structural -> "structural")
  | None -> ());
  let telemetry =
    match telemetry_port with
    | None -> None
    | Some port ->
      let srv = Telemetry.start ~port (fun () -> Shard.prometheus fleet) in
      Printf.eprintf "krspd: telemetry on http://127.0.0.1:%d/ (pid %d)\n%!"
        (Telemetry.port srv) (Unix.getpid ());
      Some srv
  in
  (* Signal handlers only flip flags: composing a dump or an export takes
     locks and allocates, none of which is safe inside a handler. The
     serving loop's on_tick drains the flags on the front's domain —
     select wakes on EINTR, so the work runs promptly. *)
  let want_dump = Atomic.make false in
  let want_trace_export = Atomic.make false in
  let trace_file =
    match trace_file with
    | Some f -> f
    | None -> Printf.sprintf "krspd-trace.%d.json" (Unix.getpid ())
  in
  let drain_signals () =
    if Atomic.exchange want_dump false then begin
      (* one string, one write: per-shard sections never interleave *)
      let s = "--- krspd metrics ---\n" ^ Shard.dump fleet in
      try ignore (Unix.write_substring Unix.stderr s 0 (String.length s))
      with Unix.Unix_error _ -> ()
    end;
    if Atomic.exchange want_trace_export false then begin
      match Engine.trace_response (Some trace_file) with
      | Krsp_server.Protocol.Traced { file; events } ->
        Printf.eprintf "krspd: trace exported: %d span(s) -> %s\n%!" events file
      | resp ->
        Printf.eprintf "krspd: trace export failed: %s\n%!"
          (Krsp_server.Protocol.print_response resp)
    end
  in
  (try
     Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set want_dump true));
     Sys.set_signal Sys.sigusr2 (Sys.Signal_handle (fun _ -> Atomic.set want_trace_export true))
   with Invalid_argument _ -> ());
  (* a client hanging up mid-write must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let finish code =
    (match telemetry with Some srv -> Telemetry.stop srv | None -> ());
    code
  in
  match (unix_path, tcp_port) with
  | None, None ->
    (* stdio mode: one session on stdin/stdout, handy for piping and tests *)
    Server.serve_channels ~on_tick:drain_signals fleet stdin stdout;
    Shard.shutdown fleet;
    drain_signals ();
    finish 0
  | _ ->
    (* SIGTERM → graceful drain: stop accepting, finish every admitted
       request, write the replies, exit 0 *)
    let stop = ref false in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
     with Invalid_argument _ -> ());
    let endpoint, describe =
      match (unix_path, tcp_port) with
      | Some path, _ ->
        (Server.Unix_socket path, Printf.sprintf "unix:%s" path)
      | None, Some port -> (Server.Tcp (tcp_host, port), Printf.sprintf "%s:%d" tcp_host port)
      | None, None -> assert false
    in
    Server.listen_and_serve fleet endpoint ~stop ~on_tick:drain_signals
      ~on_listen:(fun () ->
        Printf.eprintf "krspd: serving on %s (pid %d, %d shard(s))\n%!" describe
          (Unix.getpid ()) (Shard.shards fleet));
    Printf.eprintf "krspd: drained, bye\n%!";
    finish 0

let cmd =
  let doc = "serve kRSP queries against a long-lived topology" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Loads the topology once and answers line-oriented requests: SOLVE src dst k D [eps], \
         QOS src dst k D, FAIL u v, RESTORE u v, MUTATE op.., STATS, PING. Responses are \
         single lines (SOLUTION/MUTATED/STATS/PONG/ERR). Without $(b,--unix) or $(b,--port) \
         the daemon serves a single session on stdin/stdout.";
      `P
        "With $(b,--shards) N (or KRSP_SHARDS) the daemon runs N engine shards, each with a \
         private solution cache, topology view and solver pool, fed by bounded admission \
         queues. Queries are routed by a hash of (src, dst) — stable across topology \
         generations so caches and warm-start donors stay co-located — while FAIL/RESTORE \
         are applied to every shard behind a generation barrier (no shard answers from a \
         newer topology generation than another). When a shard's queue is full the request \
         is shed with $(b,ERR overload retry-after-ms=...): back off at least that long and \
         retry. STATS and SIGUSR1 report both the fleet-aggregated view and per-shard \
         queue depths, busy time and caches.";
      `P
        "The topology is fully dynamic: FAIL/RESTORE down and revive links, and \
         $(b,MUTATE ins:u:v:c:d del:u:v rew:u:v:c:d ..) applies a batched edit under a \
         single generation bump. Mutations reach the solver through delta-overlay CSR \
         patching ($(b,--topology)), solutions are cached (LRU) with churn-scoped \
         invalidation ($(b,--invalidation)), and repeated queries after a mutation are \
         re-solved from the previous solution (warm start, with single-link damage \
         repaired incrementally) instead of from scratch. Send SIGUSR1 for a metrics dump \
         on stderr. SIGTERM drains gracefully: the daemon stops accepting, completes every \
         admitted request, then exits 0.";
      `P
        "With $(b,--trace) (or KRSP_TRACE) each kept request records phase-attributed spans \
         (queue wait, prologue, solve rounds, oracle calls, certificate checks). \
         $(b,TRACE [file]) exports them as Chrome trace-event JSON — inline as a \
         $(b,TRACE-JSON) response or to a file — and SIGUSR2 does the same to \
         $(b,--trace-file). Under $(b,slow:<ms>) every kept request additionally emits one \
         structured slow-request line on stderr. $(b,--telemetry-port) serves the merged \
         metrics registries as a Prometheus text exposition.";
      `P
        "With $(b,--domains) > 1 each shard's solver additionally speculates on its guess \
         bisection on a private domain pool (results are identical at any width; widths \
         above 2 only add idle domains). Pool counters appear in STATS.";
      `S Manpage.s_exit_status;
      `P
        "0 on clean shutdown (EOF in stdio mode, or SIGTERM after a graceful drain); 3 when \
         the topology cannot be loaded. Note that $(b,ERR overload) is a per-request \
         response, not a daemon failure: the daemon keeps serving and the shed request can \
         be retried."
    ]
  in
  Cmd.v
    (Cmd.info "krspd" ~version:Bin_version.version ~doc ~man)
    Term.(
      const run $ graph_file $ unix_path $ tcp_port $ tcp_host $ cache_size $ engine_arg
      $ numeric_arg $ rsp_oracle_arg $ shards_arg $ queue_bound_arg $ domains_arg
      $ trace_arg $ trace_file_arg $ topology_arg $ invalidation_arg $ telemetry_port_arg)

let () = exit (Cmd.eval' cmd)
