(* Tests for the serving subsystem: the wire protocol codec (qcheck
   roundtrips + error taxonomy incl. OVERLOAD), the LRU solution cache,
   warm-start repair, the engine's solve → FAIL → re-solve lifecycle, the
   shard fleet (router determinism, generation barrier, admission control
   and shedding, graceful drain), and the daemon loop driven in-process
   over a socketpair (fleet sized from KRSP_SHARDS). *)

module G = Krsp_graph.Digraph
module Instance = Krsp_core.Instance
module Krsp = Krsp_core.Krsp
module Protocol = Krsp_server.Protocol
module Cache = Krsp_server.Cache
module Engine = Krsp_server.Engine
module Shard = Krsp_server.Shard
module Server = Krsp_server.Server
module Metrics = Krsp_util.Metrics

(* --- fixtures -------------------------------------------------------------- *)

(* the diamond of test_core: two 2-hop routes plus a direct edge *)
let diamond () =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5);
  g

(* --- protocol: generators -------------------------------------------------- *)

let gen_small = QCheck2.Gen.int_range 0 999
let gen_milli = QCheck2.Gen.map (fun n -> float_of_int n /. 1000.) (QCheck2.Gen.int_range 0 5_000)

(* strictly positive, and a correctly-rounded 3-decimal value so both the
   %.3f and %g renderings roundtrip through float_of_string exactly *)
let gen_eps = QCheck2.Gen.map (fun n -> float_of_int n /. 1000.) (QCheck2.Gen.int_range 1 5_000)

let gen_request =
  let open QCheck2.Gen in
  oneof
    [ return Protocol.Ping; return Protocol.Stats;
      (let* src = gen_small and* dst = gen_small and* k = int_range 1 9
       and* delay_bound = gen_small and* epsilon = option gen_eps in
       return (Protocol.Solve { src; dst; k; delay_bound; epsilon }));
      (let* src = gen_small and* dst = gen_small and* k = int_range 1 9
       and* per_path_delay = gen_small in
       return (Protocol.Qos { src; dst; k; per_path_delay }));
      (let* u = gen_small and* v = gen_small in
       return (Protocol.Fail { u; v }));
      (let* u = gen_small and* v = gen_small in
       return (Protocol.Restore { u; v }));
      (let* ops =
         list_size (int_range 1 4)
           (oneof
              [ (let* u = gen_small and* v = gen_small and* cost = gen_small
                 and* delay = gen_small in
                 return (Protocol.Ins { u; v; cost; delay }));
                (let* u = gen_small and* v = gen_small in
                 return (Protocol.Del { u; v }));
                (let* u = gen_small and* v = gen_small and* cost = gen_small
                 and* delay = gen_small in
                 return (Protocol.Rew { u; v; cost; delay }))
              ])
       in
       return (Protocol.Mutate { ops }))
    ]

let gen_word =
  QCheck2.Gen.(map (String.concat "") (list_size (int_range 1 6) (map (String.make 1) (char_range 'a' 'z'))))

let gen_detail = QCheck2.Gen.(map (String.concat " ") (list_size (int_range 0 3) gen_word))

let gen_paths =
  QCheck2.Gen.(list_size (int_range 0 3) (list_size (int_range 2 5) gen_small))

let gen_response =
  let open QCheck2.Gen in
  oneof
    [ return Protocol.Pong;
      (let* cost = gen_small and* delay = gen_small and* ms = gen_milli and* paths = gen_paths
       and* source = oneofl [ Protocol.Cold; Protocol.Cache_hit; Protocol.Warm_start ] in
       return (Protocol.Solution { cost; delay; source; ms; paths }));
      (let* generation = gen_small and* edges = int_range 1 99 in
       return (Protocol.Mutated { generation; edges }));
      (let* kvs = list_size (int_range 0 4) (pair gen_word gen_word) in
       return (Protocol.Stats_dump kvs));
      (let* detail = gen_detail in
       return (Protocol.Err (Protocol.Bad_request detail)));
      return (Protocol.Err Protocol.Infeasible_disjoint);
      (let* d = gen_small in
       return (Protocol.Err (Protocol.Infeasible_delay d)));
      return (Protocol.Err Protocol.No_such_link);
      (let* retry_after_ms = int_range 1 60_000 in
       return (Protocol.Err (Protocol.Overload { retry_after_ms })));
      (let* detail = gen_detail in
       return (Protocol.Err (Protocol.Internal detail)))
    ]

let request_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"request codec roundtrips" ~count:500 gen_request (fun r ->
         Protocol.parse_request (Protocol.print_request r) = Ok r))

let response_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"response codec roundtrips" ~count:500 gen_response (fun r ->
         Protocol.parse_response (Protocol.print_response r) = Ok r))

(* --- protocol: error taxonomy ---------------------------------------------- *)

let test_parse_errors () =
  let check name line expected =
    Alcotest.(check bool) name true (Protocol.parse_request line = Error expected)
  in
  check "empty" "" Protocol.Empty_line;
  check "blank" "   " Protocol.Empty_line;
  check "unknown" "FROBNICATE 1 2" (Protocol.Unknown_command "FROBNICATE");
  check "arity" "FAIL 1"
    (Protocol.Wrong_arity { command = "FAIL"; expected = "2"; got = 1 });
  check "arity solve" "SOLVE 1 2 3"
    (Protocol.Wrong_arity { command = "SOLVE"; expected = "4-5"; got = 3 });
  check "bad int" "SOLVE a 2 3 4"
    (Protocol.Bad_int { command = "SOLVE"; field = "src"; value = "a" });
  check "bad float" "SOLVE 1 2 3 4 x"
    (Protocol.Bad_float { command = "SOLVE"; field = "eps"; value = "x" });
  (* command word is case-insensitive *)
  Alcotest.(check bool) "lowercase ping" true (Protocol.parse_request "ping" = Ok Protocol.Ping)

(* OVERLOAD is a first-class wire concept: exact rendering and parse *)
let test_overload_codec () =
  let e = Protocol.Err (Protocol.Overload { retry_after_ms = 37 }) in
  Alcotest.(check string) "print" "ERR overload retry-after-ms=37" (Protocol.print_response e);
  Alcotest.(check bool) "parse" true
    (Protocol.parse_response "ERR overload retry-after-ms=37" = Ok e);
  Alcotest.(check bool) "parse rejects missing hint" true
    (Result.is_error (Protocol.parse_response "ERR overload"));
  Alcotest.(check bool) "parse rejects bad hint" true
    (Result.is_error (Protocol.parse_response "ERR overload retry-after-ms=soon"))

let test_mutate_codec () =
  let r =
    Protocol.Mutate
      { ops =
          [ Protocol.Ins { u = 0; v = 3; cost = 4; delay = 2 }; Protocol.Del { u = 1; v = 2 };
            Protocol.Rew { u = 0; v = 1; cost = 7; delay = 1 }
          ]
      }
  in
  Alcotest.(check string) "print" "MUTATE ins:0:3:4:2 del:1:2 rew:0:1:7:1"
    (Protocol.print_request r);
  Alcotest.(check bool) "roundtrip" true (Protocol.parse_request (Protocol.print_request r) = Ok r);
  (* one bad token rejects the whole line — batches are atomic *)
  Alcotest.(check bool) "bad op tag" true
    (Protocol.parse_request "MUTATE zap:1:2"
    = Error (Protocol.Bad_op { command = "MUTATE"; value = "zap:1:2" }));
  Alcotest.(check bool) "truncated ins" true
    (Protocol.parse_request "MUTATE ins:1:2:3"
    = Error (Protocol.Bad_op { command = "MUTATE"; value = "ins:1:2:3" }));
  Alcotest.(check bool) "bad int inside op" true
    (match Protocol.parse_request "MUTATE del:one:2" with
    | Error (Protocol.Bad_int _) -> true
    | _ -> false)

(* --- cache ------------------------------------------------------------------ *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  (* "b" is now LRU; adding "c" must evict it *)
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 3 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Cache.remove c "a";
  Alcotest.(check int) "invalidations" 1 (Cache.stats c).Cache.invalidations;
  Alcotest.(check int) "length" 1 (Cache.length c)

let test_cache_filter_rekey () =
  let c = Cache.create ~capacity:8 in
  List.iter (fun i -> Cache.add c (i, 0) i) [ 1; 2; 3; 4 ];
  let dropped = Cache.filter_inplace c ~f:(fun _ v -> v mod 2 = 0) in
  Alcotest.(check int) "dropped odds" 2 dropped;
  Cache.rekey c ~f:(fun (i, g) -> (i, g + 1));
  Alcotest.(check (option int)) "rekeyed 2" (Some 2) (Cache.find c (2, 1));
  Alcotest.(check (option int)) "rekeyed 4" (Some 4) (Cache.find c (4, 1));
  Alcotest.(check (option int)) "old key gone" None (Cache.find c (2, 0));
  (* MRU-first fold sees both survivors *)
  Alcotest.(check int) "fold size" 2 (Cache.fold c ~init:0 ~f:(fun n _ _ -> n + 1))

(* --- warm-start repair ------------------------------------------------------ *)

let test_repair () =
  let g = diamond () in
  let t = Instance.create g ~src:0 ~dst:3 ~k:2 ~delay_bound:30 in
  (* both paths intact: kept verbatim *)
  (match Krsp.repair t ~paths:[ [ 0; 1 ]; [ 2; 3 ] ] with
  | Some ps -> Alcotest.(check bool) "intact kept" true (ps = [ [ 0; 1 ]; [ 2; 3 ] ])
  | None -> Alcotest.fail "repair failed on intact solution");
  (* one path damaged (edge id -1 marks a dead edge): re-routed disjointly *)
  (match Krsp.repair t ~paths:[ [ 0; -1 ]; [ 2; 3 ] ] with
  | Some ps ->
    Alcotest.(check bool) "repaired valid" true (Instance.is_structurally_valid t ps);
    Alcotest.(check bool) "survivor kept" true (List.mem [ 2; 3 ] ps)
  | None -> Alcotest.fail "repair failed with one damaged path");
  (* all damaged: full re-route *)
  (match Krsp.repair t ~paths:[ [ -1 ]; [ -1 ] ] with
  | Some ps -> Alcotest.(check bool) "full reroute valid" true (Instance.is_structurally_valid t ps)
  | None -> Alcotest.fail "repair failed with all paths damaged")

let test_solve_warm_start () =
  let g = diamond () in
  let t = Instance.create g ~src:0 ~dst:3 ~k:2 ~delay_bound:30 in
  match Krsp.solve t ~warm_start:[ [ 0; 1 ]; [ 2; 3 ] ] () with
  | Ok (sol, stats) ->
    Alcotest.(check bool) "warm flag" true stats.Krsp.warm_started;
    Alcotest.(check bool) "feasible" true (Instance.is_feasible t sol)
  | Error _ -> Alcotest.fail "warm-started solve failed"

(* --- engine lifecycle ------------------------------------------------------- *)

let solve_req ~src ~dst ~k ~d =
  Protocol.Solve { src; dst; k; delay_bound = d; epsilon = None }

(* (cost, delay, source, paths); inline records cannot escape the match *)
let expect_solution name = function
  | Protocol.Solution { cost; delay; source; ms = _; paths } -> (cost, delay, source, paths)
  | other -> Alcotest.failf "%s: expected SOLUTION, got %s" name (Protocol.print_response other)

let stats_field kvs key =
  match List.assoc_opt key kvs with
  | Some v -> v
  | None -> Alcotest.failf "STATS missing %s" key

let test_engine_lifecycle () =
  let engine = Engine.create (diamond ()) in
  (* cold solve: the two cheap 2-hop routes *)
  let cost1, delay1, source1, _ =
    expect_solution "cold" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30))
  in
  Alcotest.(check int) "cold cost" 6 cost1;
  Alcotest.(check int) "cold delay" 22 delay1;
  Alcotest.(check bool) "cold source" true (source1 = Protocol.Cold);
  (* identical query: served from cache *)
  let cost2, _, source2, _ =
    expect_solution "hit" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30))
  in
  Alcotest.(check bool) "cache source" true (source2 = Protocol.Cache_hit);
  Alcotest.(check int) "cache cost" 6 cost2;
  (* fail the used edge 1→3: cache entry invalidated, donor warm-starts *)
  (match Engine.handle engine (Protocol.Fail { u = 1; v = 3 }) with
  | Protocol.Mutated { generation = 1; edges = 1 } -> ()
  | other -> Alcotest.failf "FAIL: got %s" (Protocol.print_response other));
  let cost3, delay3, source3, paths3 =
    expect_solution "warm" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30))
  in
  Alcotest.(check bool) "warm source" true (source3 = Protocol.Warm_start);
  Alcotest.(check int) "warm cost" 14 cost3 (* 0→2→3 survivor + direct 0→3 *);
  Alcotest.(check bool) "warm delay within bound" true (delay3 <= 30);
  Alcotest.(check int) "warm path count" 2 (List.length paths3);
  (* second failure cuts the graph below k = 2 *)
  (match Engine.handle engine (Protocol.Fail { u = 0; v = 2 }) with
  | Protocol.Mutated { generation = 2; edges = 1 } -> ()
  | other -> Alcotest.failf "FAIL2: got %s" (Protocol.print_response other));
  (match Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30) with
  | Protocol.Err Protocol.Infeasible_disjoint -> ()
  | other -> Alcotest.failf "expected infeasible, got %s" (Protocol.print_response other));
  (* restore brings the optimum back *)
  (match Engine.handle engine (Protocol.Restore { u = 1; v = 3 }) with
  | Protocol.Mutated { generation = 3; edges = 1 } -> ()
  | other -> Alcotest.failf "RESTORE: got %s" (Protocol.print_response other));
  (match Engine.handle engine (Protocol.Restore { u = 1; v = 3 }) with
  | Protocol.Err Protocol.No_such_link -> ()
  | other -> Alcotest.failf "double RESTORE: got %s" (Protocol.print_response other));
  let _, delay4, _, _ =
    expect_solution "recover" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30))
  in
  Alcotest.(check bool) "recovered delay" true (delay4 <= 30);
  (* counters tell the same story *)
  match Engine.handle engine Protocol.Stats with
  | Protocol.Stats_dump kvs ->
    Alcotest.(check string) "cold solves" "2" (stats_field kvs "solve_cold");
    Alcotest.(check string) "warm solves" "1" (stats_field kvs "solve_warm");
    Alcotest.(check string) "cache hits" "1" (stats_field kvs "solve_cache_hit");
    Alcotest.(check string) "infeasible" "1" (stats_field kvs "solve_infeasible");
    Alcotest.(check string) "generation" "3" (stats_field kvs "generation");
    Alcotest.(check string) "failed edges" "1" (stats_field kvs "failed_edges")
  | other -> Alcotest.failf "STATS: got %s" (Protocol.print_response other)

let test_engine_validation () =
  let engine = Engine.create (diamond ()) in
  let bad r =
    match Engine.handle engine r with
    | Protocol.Err (Protocol.Bad_request _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "src out of range" true (bad (solve_req ~src:9 ~dst:3 ~k:2 ~d:30));
  Alcotest.(check bool) "src = dst" true (bad (solve_req ~src:1 ~dst:1 ~k:2 ~d:30));
  Alcotest.(check bool) "k = 0" true (bad (solve_req ~src:0 ~dst:3 ~k:0 ~d:30));
  Alcotest.(check bool) "negative D" true (bad (solve_req ~src:0 ~dst:3 ~k:2 ~d:(-1)));
  match Engine.handle engine (Protocol.Fail { u = 2; v = 0 }) with
  (* links are undirected for FAIL: 2 0 matches the 0→2 edge *)
  | Protocol.Mutated { edges = 1; _ } -> ()
  | other -> Alcotest.failf "FAIL 2 0: got %s" (Protocol.print_response other)

let test_engine_epsilon_and_qos () =
  let engine = Engine.create (diamond ()) in
  let _, eps_delay, _, _ =
    expect_solution "eps"
      (Engine.handle engine
         (Protocol.Solve { src = 0; dst = 3; k = 2; delay_bound = 30; epsilon = Some 0.1 }))
  in
  (* Theorem 4: delay at most (2 + eps) * D *)
  Alcotest.(check bool) "eps delay within slack" true (float_of_int eps_delay <= 2.1 *. 30.);
  let _, qos_delay, _, _ =
    expect_solution "qos"
      (Engine.handle engine (Protocol.Qos { src = 0; dst = 3; k = 2; per_path_delay = 15 }))
  in
  Alcotest.(check bool) "qos total within k*D" true (qos_delay <= 2 * 15)

(* --- totality: an internal error is an answer, not a crash ------------------- *)

exception Injected

(* test_main installs the suite-wide certificate hook; put it back after *)
let with_raising_hook f =
  let saved = !Krsp.post_solve_hook in
  Krsp.post_solve_hook := (fun _ _ -> raise Injected);
  Fun.protect ~finally:(fun () -> Krsp.post_solve_hook := saved) f

let expect_internal name reply =
  match Protocol.parse_response reply with
  | Ok (Protocol.Err (Protocol.Internal _)) -> ()
  | _ -> Alcotest.failf "%s: expected ERR internal, got %s" name reply

let expect_cold name reply =
  match Protocol.parse_response reply with
  | Ok (Protocol.Solution { source = Protocol.Cold; _ }) -> ()
  | _ -> Alcotest.failf "%s: expected a cold solution, got %s" name reply

let test_engine_totality () =
  let line = "SOLVE 0 3 2 30" in
  let engine = Engine.create (diamond ()) in
  with_raising_hook (fun () -> expect_internal "engine" (Engine.handle_line engine line));
  Alcotest.(check int) "nothing cached" 0 (fst (Engine.cache_occupancy engine));
  (* no cache entry and no warm-start donor: the retry solves cold *)
  expect_cold "engine retry" (Engine.handle_line engine line);
  let fleet = Shard.create ~shards:1 (diamond ()) in
  Fun.protect ~finally:(fun () -> Shard.shutdown fleet) (fun () ->
      with_raising_hook (fun () -> expect_internal "fleet" (Shard.handle_line fleet line));
      (* the shard's worker domain survived the failure and keeps serving *)
      expect_cold "fleet retry" (Shard.handle_line fleet line))

(* --- engine MUTATE and churn-scoped invalidation ------------------------------ *)

let test_engine_mutate () =
  let engine = Engine.create (diamond ()) in
  ignore (expect_solution "cold" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30)));
  (* deleting the direct edge is restrictive; the cached optimum does not
     touch it, so scoped invalidation keeps the entry — still a cache hit
     even though the generation moved (cache keys are generation-free) *)
  (match Engine.handle engine (Protocol.Mutate { ops = [ Protocol.Del { u = 0; v = 3 } ] }) with
  | Protocol.Mutated { generation = 1; edges = 1 } -> ()
  | other -> Alcotest.failf "MUTATE del: got %s" (Protocol.print_response other));
  let _, _, source1, _ =
    expect_solution "survives" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30))
  in
  Alcotest.(check bool) "untouched entry survives scoped invalidation" true
    (source1 = Protocol.Cache_hit);
  (* a non-decreasing reweight of a used edge drops exactly that entry *)
  (match
     Engine.handle engine
       (Protocol.Mutate { ops = [ Protocol.Rew { u = 0; v = 1; cost = 5; delay = 10 } ] })
   with
  | Protocol.Mutated { generation = 2; edges = 1 } -> ()
  | other -> Alcotest.failf "MUTATE rew: got %s" (Protocol.print_response other));
  let cost2, _, source2, _ =
    expect_solution "re-solve" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30))
  in
  Alcotest.(check bool) "touched entry dropped" true (source2 <> Protocol.Cache_hit);
  Alcotest.(check int) "re-solve sees the new weight" 10 cost2;
  (* a zero-match op affects nothing and does not move the generation *)
  (match Engine.handle engine (Protocol.Mutate { ops = [ Protocol.Del { u = 1; v = 2 } ] }) with
  | Protocol.Mutated { generation = 2; edges = 0 } -> ()
  | other -> Alcotest.failf "MUTATE no-op: got %s" (Protocol.print_response other));
  (* an insert is expansive: a cheaper route may exist anywhere, so the
     whole cache flushes and the next solve finds the new edge *)
  (match
     Engine.handle engine
       (Protocol.Mutate { ops = [ Protocol.Ins { u = 0; v = 3; cost = 1; delay = 1 } ] })
   with
  | Protocol.Mutated { generation = 3; edges = 1 } -> ()
  | other -> Alcotest.failf "MUTATE ins: got %s" (Protocol.print_response other));
  let cost3, _, source3, _ =
    expect_solution "post-ins" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30))
  in
  Alcotest.(check bool) "expansive mutation flushes the cache" true
    (source3 = Protocol.Cold);
  Alcotest.(check int) "new edge used" 5 cost3;
  (* an invalid op rejects the whole batch atomically — nothing applied *)
  (match
     Engine.handle engine
       (Protocol.Mutate
          { ops =
              [ Protocol.Del { u = 0; v = 1 }; Protocol.Ins { u = 0; v = 99; cost = 1; delay = 1 } ]
          })
   with
  | Protocol.Err (Protocol.Bad_request _) -> ()
  | other -> Alcotest.failf "invalid batch: got %s" (Protocol.print_response other));
  Alcotest.(check int) "generation unchanged after rejected batch" 3
    (Engine.generation engine);
  let cost4, _, _, _ =
    expect_solution "after reject" (Engine.handle engine (solve_req ~src:0 ~dst:3 ~k:2 ~d:30))
  in
  Alcotest.(check int) "topology unchanged after rejected batch" 5 cost4

(* The staleness property (the churn suite's serving-side contract): drive a
   single engine through a seeded interleaving of solves and mutation
   batches; after EVERY batch, every entry still cached must certify against
   the current topology — all edges alive, cost/delay sums matching the live
   weights — and by the end the stale-hit guard must never have fired
   (invalidation was precise, the guard is defence in depth). *)

let assert_cache_current name engine =
  let g = Engine.live_graph engine in
  Engine.fold_cache engine ~init:0
    ~f:(fun
        acc ~src:_ ~dst:_ ~k:_ ~delay_bound:_ ~epsilon:_ ~cost ~delay ~paths ->
      let c = ref 0 and d = ref 0 in
      List.iter
        (List.iter (fun e ->
             if e < 0 || e >= G.m g then
               Alcotest.failf "%s: cached path uses out-of-range edge %d" name e;
             if not (G.alive g e) then
               Alcotest.failf "%s: cached path uses tombstoned edge %d" name e;
             c := !c + G.cost g e;
             d := !d + G.delay g e))
        paths;
      if !c <> cost || !d <> delay then
        Alcotest.failf "%s: cached sums (%d, %d) diverge from live topology (%d, %d)" name
          cost delay !c !d;
      acc + 1)

let test_no_stale_cache_hits () =
  let module X = Krsp_util.Xoshiro in
  let rng = X.create ~seed:2026 in
  let n = 8 in
  let g = G.create ~n () in
  for v = 0 to n - 2 do
    ignore (G.add_edge g ~src:v ~dst:(v + 1) ~cost:(1 + X.int rng 6) ~delay:(1 + X.int rng 4))
  done;
  for _ = 1 to 3 * n do
    let u = X.int rng n and v = X.int rng n in
    if u <> v then
      ignore
        (G.add_edge g ~src:(min u v) ~dst:(max u v) ~cost:(1 + X.int rng 6)
           ~delay:(1 + X.int rng 4))
  done;
  let engine = Engine.create g in
  (* few distinct bounds so cache keys repeat and hits actually happen *)
  let total = G.total_delay g in
  let bounds = [| total + 1; max 1 (total / 2); max 1 (total / 4) |] in
  let entries_seen = ref 0 and hits_possible = ref 0 in
  for step = 1 to 200 do
    if X.int rng 5 < 3 then begin
      let src, dst =
        if X.int rng 4 = 0 then
          let u = X.int rng n and v = X.int rng n in
          if u = v then (0, n - 1) else (min u v, max u v)
        else (0, n - 1)
      in
      let k = 1 + X.int rng 2 in
      let d = bounds.(X.int rng (Array.length bounds)) in
      incr hits_possible;
      ignore (Engine.handle engine (Protocol.Solve { src; dst; k; delay_bound = d; epsilon = None }))
    end
    else begin
      let op _ =
        let u = X.int rng n and v = X.int rng n in
        let u, v = if u = v then (u, (u + 1) mod n) else (min u v, max u v) in
        match X.int rng 3 with
        | 0 -> Protocol.Del { u; v }
        | 1 -> Protocol.Ins { u; v; cost = 1 + X.int rng 6; delay = 1 + X.int rng 4 }
        | _ -> Protocol.Rew { u; v; cost = 1 + X.int rng 6; delay = 1 + X.int rng 4 }
      in
      let ops = List.init (1 + X.int rng 3) op in
      (match Engine.handle engine (Protocol.Mutate { ops }) with
      | Protocol.Mutated _ -> ()
      | other -> Alcotest.failf "MUTATE: got %s" (Protocol.print_response other));
      entries_seen :=
        !entries_seen + assert_cache_current (Printf.sprintf "step %d" step) engine
    end
  done;
  Alcotest.(check bool) "the churn exercised the cache" true
    (!hits_possible > 0 && !entries_seen > 0);
  Alcotest.(check int) "stale-hit guard never fired" 0
    (Metrics.value (Metrics.counter (Engine.metrics engine) "topo.stale_hits_dropped"))

(* Edge-id renumbering under a long ins/del stream: every MUTATE del leaves
   a dead id behind, and the engine renumbers once they outnumber
   max(64, live edges). The loaded graph carries three tombstones below
   every live id, so the first renumbering moves every id. Over 240
   ins/del pairs, with solves between each insert and delete (so the
   cache is full when a delete renumbers) and two FAILed links held down
   across renumberings (a base link, then an inserted one whose id moves
   at every renumbering): the id count stays bounded, RESTORE brings back
   the same link, every reply certifies against a replica the test keeps
   itself (never renumbered), the cached entries stay current after every
   mutation, and a 2-shard fleet answers line for line alike. *)
let test_engine_renumber () =
  let module X = Krsp_util.Xoshiro in
  let module Check = Krsp_check.Check in
  let rng = X.create ~seed:2031 in
  let n = 8 in
  let base = G.create ~n () in
  List.iter (G.remove_edge base)
    (List.init 3 (fun v -> G.add_edge base ~src:v ~dst:(v + 1) ~cost:1 ~delay:1));
  for v = 0 to n - 2 do
    ignore (G.add_edge base ~src:v ~dst:(v + 1) ~cost:(1 + X.int rng 5) ~delay:(1 + X.int rng 5));
    ignore (G.add_edge base ~src:(v + 1) ~dst:v ~cost:(1 + X.int rng 5) ~delay:(1 + X.int rng 5))
  done;
  List.iter
    (fun (u, v) ->
      ignore (G.add_edge base ~src:u ~dst:v ~cost:(2 + X.int rng 5) ~delay:(1 + X.int rng 3)))
    [ (0, 3); (2, 5); (4, 7); (1, 6) ];
  let engine = Engine.create base in
  let fleet = Shard.create ~shards:2 base in
  Fun.protect ~finally:(fun () -> Shard.shutdown fleet) @@ fun () ->
  (* the replica: krspd's semantics applied to a graph that is never
     renumbered; ins only ever adds a link that has no live edge *)
  let replica = G.copy base in
  let directed u v = List.filter (fun e -> G.dst replica e = v) (G.out_edges replica u) in
  (* ((min u v, max u v), the replica edges FAIL took down), oldest last *)
  let failed = ref [] in
  let strip line =
    match Protocol.parse_response line with
    | Ok (Protocol.Solution r) -> Protocol.print_response (Protocol.Solution { r with ms = 0. })
    | _ -> line
  in
  let send line =
    let reply = Engine.handle_line engine line in
    Alcotest.(check string) ("fleet: " ^ line) (strip reply) (strip (Shard.handle_line fleet line));
    reply
  in
  let certify_reply ~src ~dst ~k ~d reply =
    let inst = Instance.create replica ~src ~dst ~k ~delay_bound:d in
    match Protocol.parse_response reply with
    | Ok (Protocol.Solution { cost; delay; paths; _ }) ->
      let hop u v =
        match directed u v with
        | [ e ] -> e
        | _ -> Alcotest.failf "%s: no single live %d->%d edge" reply u v
      in
      let rec edges = function u :: (v :: _ as rest) -> hop u v :: edges rest | _ -> [] in
      let sol = { Instance.paths = List.map edges paths; cost; delay } in
      let cert = Check.certify ~level:Check.Structural inst sol in
      if not (Check.ok cert) then Alcotest.failf "%s: %s" reply (Check.to_string cert)
    | Ok (Protocol.Err Protocol.Infeasible_disjoint) -> (
      match Check.audit_infeasible inst Check.Too_few_disjoint_paths with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" reply msg)
    | Ok (Protocol.Err (Protocol.Infeasible_delay dmin)) -> (
      match Check.audit_infeasible inst (Check.Delay_unreachable dmin) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" reply msg)
    | _ -> Alcotest.failf "SOLVE %d %d %d %d: %s" src dst k d reply
  in
  let solve () =
    let src = X.int rng (n - 1) in
    let dst = src + 1 + X.int rng (n - 1 - src) in
    let k = 1 + X.int rng 2 and d = [| 8; 20; 60 |].(X.int rng 3) in
    certify_reply ~src ~dst ~k ~d (send (Printf.sprintf "SOLVE %d %d %d %d" src dst k d))
  in
  let edge_ids () = G.m (Engine.live_graph engine) in
  let check_bound batch =
    let g = Engine.live_graph engine in
    let bound = (2 * max 64 (G.m_alive g + Engine.failed_edges engine)) + batch in
    if edge_ids () > bound then Alcotest.failf "edge ids %d exceed %d" (edge_ids ()) bound
  in
  let mutate op =
    (match Protocol.parse_response (send ("MUTATE " ^ op)) with
    | Ok (Protocol.Mutated _) -> ()
    | _ -> Alcotest.failf "MUTATE %s refused" op);
    check_bound 1;
    ignore (assert_cache_current "renumber" engine)
  in
  let fail (u, v) =
    ignore (send (Printf.sprintf "FAIL %d %d" u v));
    let down = directed u v @ directed v u in
    List.iter (G.remove_edge replica) down;
    failed := ((min u v, max u v), down) :: !failed
  in
  let restore_oldest () =
    let (u, v), down = List.hd (List.rev !failed) in
    failed := List.remove_assoc (u, v) !failed;
    ignore (send (Printf.sprintf "RESTORE %d %d" u v));
    List.iter (G.unremove_edge replica) down;
    let g = Engine.live_graph engine in
    List.iter
      (fun (a, b) ->
        let weights = List.map (fun e -> (G.cost replica e, G.delay replica e)) in
        let live = List.filter (fun e -> G.dst g e = b) (G.out_edges g a) in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "link %d->%d back after RESTORE" a b)
          (weights (directed a b))
          (List.map (fun e -> (G.cost g e, G.delay g e)) live))
      [ (u, v); (v, u) ];
    ignore (assert_cache_current "restore" engine)
  in
  let pending = Queue.create () and newest = ref None in
  for pair = 1 to 240 do
    (* open an insert on a link with no live edge in that direction *)
    let rec fresh_link tries =
      let u = X.int rng n and v = X.int rng n in
      if u <> v && directed u v = [] && not (List.mem_assoc (min u v, max u v) !failed) then
        Some (u, v)
      else if tries > 0 then fresh_link (tries - 1)
      else None
    in
    (match fresh_link 20 with
    | Some (u, v) ->
      let c = 1 + X.int rng 6 and dl = 1 + X.int rng 6 in
      mutate (Printf.sprintf "ins:%d:%d:%d:%d" u v c dl);
      ignore (G.add_edge replica ~src:u ~dst:v ~cost:c ~delay:dl);
      Queue.push (u, v) pending;
      newest := Some (u, v)
    | None -> ());
    solve ();
    (* ...and close the oldest once a few are open *)
    if Queue.length pending > 3 then begin
      let u, v = Queue.pop pending in
      mutate (Printf.sprintf "del:%d:%d" u v);
      List.iter (G.remove_edge replica) (directed u v)
    end;
    solve ();
    if pair = 20 then fail (3, 4);
    if pair = 140 then Option.iter fail !newest;
    if pair = 200 || pair = 230 then restore_oldest ()
  done;
  let counter name = Metrics.value (Metrics.counter (Engine.metrics engine) name) in
  Alcotest.(check bool) "ids were renumbered" true (counter "topo.renumberings" >= 3);
  Alcotest.(check int) "stale-hit guard never fired" 0 (counter "topo.stale_hits_dropped");
  Alcotest.(check (option string)) "STATS reports the id count"
    (Some (string_of_int (edge_ids ())))
    (List.assoc_opt "topo.edge_ids" (Engine.stats_kv engine));
  (* the fleet's shards renumber in lockstep: its gauge is every shard's
     count, and its counter sums both shards' renumberings *)
  let prom = Shard.prometheus fleet in
  let has line = List.mem line (String.split_on_char '\n' prom) in
  Alcotest.(check bool) "Prometheus id-count gauge" true
    (has (Printf.sprintf "krsp_topo_edge_ids %d" (edge_ids ())));
  Alcotest.(check bool) "Prometheus renumbering counter" true
    (has (Printf.sprintf "krsp_topo_renumberings_total %d" (2 * counter "topo.renumberings")))

(* --- shard fleet ------------------------------------------------------------- *)

let with_fleet ?queue_bound ~shards f =
  let fleet = Shard.create ?queue_bound ~shards (diamond ()) in
  Fun.protect ~finally:(fun () -> Shard.shutdown fleet) (fun () -> f fleet)

(* the route is a pure function of (src, dst): equal keys give equal shards,
   in this fleet and in a second fleet of the same width *)
let test_router_determinism () =
  with_fleet ~shards:4 (fun f1 ->
      with_fleet ~shards:4 (fun f2 ->
          QCheck2.Test.check_exn
            (QCheck2.Test.make ~name:"route deterministic" ~count:500
               QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 100_000))
               (fun (src, dst) ->
                 let r = Shard.route f1 ~src ~dst in
                 r >= 0 && r < 4
                 && r = Shard.route f1 ~src ~dst
                 && r = Shard.route f2 ~src ~dst));
          (* and it actually spreads: 256 distinct keys must hit all 4 shards *)
          let hit = Array.make 4 false in
          for src = 0 to 15 do
            for dst = 0 to 15 do
              hit.(Shard.route f1 ~src ~dst) <- true
            done
          done;
          Alcotest.(check bool) "all shards hit" true (Array.for_all Fun.id hit)))

(* FAIL/RESTORE are broadcast behind a generation barrier: when the mutation
   reply comes back, (a) every query admitted before it has completed (the
   per-shard queues are FIFO and the barrier waits for all shards), and
   (b) every shard's engine sits at the same generation — no shard can
   answer from generation g+1 while another still serves g *)
let test_generation_barrier () =
  with_fleet ~shards:4 (fun fleet ->
      let completed = Atomic.make 0 in
      let queries =
        [ (0, 1); (0, 2); (0, 3); (1, 3); (2, 3); (1, 2); (3, 0); (2, 1) ]
      in
      let assert_all_generation name g =
        Alcotest.(check (array int)) name
          (Array.make 4 g)
          (Shard.generations fleet)
      in
      assert_all_generation "initial generations" 0;
      List.iter
        (fun (src, dst) ->
          match
            Shard.submit fleet
              ~complete:(fun _ -> Atomic.incr completed)
              (Printf.sprintf "SOLVE %d %d 1 30" src dst)
          with
          | Shard.Queued _ -> ()
          | Shard.Replied r -> Alcotest.failf "query answered inline: %s" r
          | Shard.Shed _ -> Alcotest.fail "query shed below the queue bound")
        queries;
      (match Shard.submit fleet ~complete:ignore "FAIL 1 3" with
      | Shard.Replied r -> (
        match Protocol.parse_response r with
        | Ok (Protocol.Mutated { generation = 1; edges = 1 }) -> ()
        | _ -> Alcotest.failf "FAIL: unexpected %s" r)
      | _ -> Alcotest.fail "mutation must be answered inline (after the barrier)");
      (* the barrier ordered the drain: every pre-mutation query completed *)
      Alcotest.(check int) "pre-mutation queries drained" (List.length queries)
        (Atomic.get completed);
      assert_all_generation "generations in lockstep after FAIL" 1;
      (* a post-mutation query is consistent with the mutated topology *)
      (match Protocol.parse_response (Shard.handle_line fleet "SOLVE 0 3 2 30") with
      | Ok (Protocol.Solution { cost = 14; delay; _ }) ->
        Alcotest.(check bool) "post-FAIL delay" true (delay <= 30)
      | Ok other -> Alcotest.failf "post-FAIL solve: %s" (Protocol.print_response other)
      | Error _ -> Alcotest.fail "post-FAIL solve: unparseable");
      (match Shard.submit fleet ~complete:ignore "RESTORE 1 3" with
      | Shard.Replied r -> (
        match Protocol.parse_response r with
        | Ok (Protocol.Mutated { generation = 2; edges = 1 }) -> ()
        | _ -> Alcotest.failf "RESTORE: unexpected %s" r)
      | _ -> Alcotest.fail "mutation must be answered inline");
      assert_all_generation "generations in lockstep after RESTORE" 2;
      Alcotest.(check int) "fleet generation mirror" 2 (Shard.generation fleet);
      (* fleet STATS carries the fleet shape and the aggregated engine view *)
      let kvs = Shard.stats_kv fleet in
      Alcotest.(check string) "fleet.shards" "4" (stats_field kvs "fleet.shards");
      Alcotest.(check string) "fleet.generation" "2" (stats_field kvs "fleet.generation");
      Alcotest.(check string) "mutations broadcast" "2" (stats_field kvs "front.mutations");
      ignore (int_of_string (stats_field kvs "front.routed"));
      (* the dump is one string with a fleet section then one per shard *)
      let dump = Shard.dump fleet in
      let has needle =
        let nl = String.length needle and dl = String.length dump in
        let rec go i = i + nl <= dl && (String.sub dump i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "dump fleet section" true (has "--- fleet (4 shard(s)) ---");
      Alcotest.(check bool) "dump shard 0" true (has "--- shard 0 ---");
      Alcotest.(check bool) "dump shard 3" true (has "--- shard 3 ---"))

(* admission control: a full queue sheds with OVERLOAD instead of queueing
   unboundedly. The worker is parked inside a completion hook that blocks on
   a mutex we hold, which makes the fill deterministic: q1 is popped and
   stuck in [complete], q2/q3 fill the bound-2 queue, q4 must shed. *)
let test_overload_shedding () =
  let gate = Mutex.create () in
  let completed = Atomic.make 0 in
  let fleet = Shard.create ~queue_bound:2 ~shards:1 (diamond ()) in
  Mutex.lock gate;
  let submit () =
    Shard.submit fleet
      ~complete:(fun _ ->
        Mutex.lock gate;
        Mutex.unlock gate;
        Atomic.incr completed)
      "SOLVE 0 3 2 30"
  in
  (match submit () with
  | Shard.Queued 0 -> ()
  | _ -> Alcotest.fail "q1 not admitted");
  (* wait for the worker to pop q1 (it then blocks in [complete] on the
     gate, so nothing else can be popped until we release it) *)
  while (Shard.queue_depths fleet).(0) > 0 do
    Domain.cpu_relax ()
  done;
  (match (submit (), submit ()) with
  | Shard.Queued 0, Shard.Queued 0 -> ()
  | _ -> Alcotest.fail "q2/q3 not admitted");
  (match submit () with
  | Shard.Shed { shard; retry_after_ms } ->
    Alcotest.(check int) "shed by the routed shard" 0 shard;
    Alcotest.(check bool) "retry hint positive" true (retry_after_ms >= 1);
    Alcotest.(check string) "overload reply rendering"
      (Printf.sprintf "ERR overload retry-after-ms=%d" retry_after_ms)
      (Shard.overload_reply retry_after_ms)
  | Shard.Queued _ -> Alcotest.fail "q4 admitted beyond the bound"
  | Shard.Replied r -> Alcotest.failf "q4 answered inline: %s" r);
  Alcotest.(check int) "nothing completed while gated" 0 (Atomic.get completed);
  Mutex.unlock gate;
  Shard.shutdown fleet;
  (* shedding means q4 was never enqueued: exactly q1..q3 completed *)
  Alcotest.(check int) "admitted requests all completed" 3 (Atomic.get completed);
  (* a drained fleet sheds everything *)
  match submit () with
  | Shard.Shed _ -> ()
  | _ -> Alcotest.fail "post-shutdown submission not shed"

(* graceful drain: shutdown lets every admitted request complete and fire
   its completion hook before the workers exit *)
let test_drain_completes_queued () =
  let gate = Mutex.create () in
  let replies_mu = Mutex.create () in
  let replies = ref [] in
  let record r =
    Mutex.lock replies_mu;
    replies := r :: !replies;
    Mutex.unlock replies_mu
  in
  let fleet = Shard.create ~queue_bound:4 ~shards:1 (diamond ()) in
  Mutex.lock gate;
  (* q1 will be popped and parked on the gate inside [complete] *)
  (match
     Shard.submit fleet
       ~complete:(fun r ->
         Mutex.lock gate;
         Mutex.unlock gate;
         record r)
       "SOLVE 0 3 2 30"
   with
  | Shard.Queued 0 -> ()
  | _ -> Alcotest.fail "q1 not admitted");
  while (Shard.queue_depths fleet).(0) > 0 do
    Domain.cpu_relax ()
  done;
  (* q2 sits queued behind the parked worker *)
  (match Shard.submit fleet ~complete:record "SOLVE 0 3 2 30" with
  | Shard.Queued 0 -> ()
  | _ -> Alcotest.fail "q2 not admitted");
  Alcotest.(check int) "q2 queued" 1 (Shard.queue_depths fleet).(0);
  (* shutdown from another domain: it must block draining, not discard q2 *)
  let shut = Domain.spawn (fun () -> Shard.shutdown fleet) in
  while not (Shard.draining fleet) do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "q2 survives the drain mark" 1 (Shard.queue_depths fleet).(0);
  Mutex.unlock gate;
  Domain.join shut;
  let got = List.rev !replies in
  Alcotest.(check int) "both admitted requests replied" 2 (List.length got);
  List.iter
    (fun r ->
      match Protocol.parse_response r with
      | Ok (Protocol.Solution { cost = 6; _ }) -> ()
      | _ -> Alcotest.failf "drained reply: unexpected %s" r)
    got;
  (* after the drain the synchronous path answers OVERLOAD, never hangs *)
  match Protocol.parse_response (Shard.handle_line fleet "SOLVE 0 3 2 30") with
  | Ok (Protocol.Err (Protocol.Overload _)) -> ()
  | _ -> Alcotest.fail "post-drain handle_line must answer ERR overload"

(* MUTATE rides the same generation barrier as FAIL/RESTORE: broadcast to
   every shard, all replicas in lockstep. A fleet serving through delta
   overlays and a fleet that fully refreezes on every solve must converge to
   identical reply streams — the overlay is invisible on the wire. *)
let test_fleet_mutate_convergence () =
  let refreeze_cfg = { Engine.default_config with Engine.overlay_views = false } in
  let overlay = Shard.create ~shards:4 (diamond ()) in
  let refreeze = Shard.create ~config:refreeze_cfg ~shards:4 (diamond ()) in
  Fun.protect
    ~finally:(fun () ->
      Shard.shutdown overlay;
      Shard.shutdown refreeze)
    (fun () ->
      (* solve timings differ run to run; everything else must be identical *)
      let normalize line =
        match Protocol.parse_response line with
        | Ok (Protocol.Solution { cost; delay; source; ms = _; paths }) ->
          Protocol.print_response (Protocol.Solution { cost; delay; source; ms = 0.; paths })
        | _ -> line
      in
      List.iter
        (fun line ->
          let a = normalize (Shard.handle_line overlay line)
          and b = normalize (Shard.handle_line refreeze line) in
          Alcotest.(check string) line a b)
        [ "SOLVE 0 3 2 30";
          "SOLVE 0 3 2 30";
          "MUTATE del:0:3";
          "SOLVE 0 3 2 30";
          "MUTATE ins:0:3:10:5 rew:0:1:1:2";
          "SOLVE 0 3 2 30";
          "SOLVE 0 3 3 30";
          "MUTATE del:0:1 del:1:3";
          "SOLVE 0 3 2 30";
          "MUTATE ins:0:1:1:10 ins:1:3:1:10";
          "SOLVE 0 3 3 30";
          "SOLVE 1 3 1 30"
        ];
      Alcotest.(check int) "generations agree" (Shard.generation overlay)
        (Shard.generation refreeze);
      Alcotest.(check bool) "generation moved" true (Shard.generation overlay > 0))

(* --- daemon loop over a socketpair ------------------------------------------ *)

let test_serve_fd_socketpair () =
  let client_fd, server_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let requests =
    [ "PING"; "SOLVE 0 3 2 30"; "SOLVE 0 3 2 30"; "FAIL 1 3"; "SOLVE 0 3 2 30"; "NONSENSE";
      "STATS"
    ]
  in
  let payload = String.concat "\n" requests ^ "\n" in
  (* socketpair buffers comfortably hold the session in both directions, so
     the whole exchange can run single-threaded: write, half-close, serve,
     then read all responses *)
  let written = Unix.write_substring client_fd payload 0 (String.length payload) in
  Alcotest.(check int) "request bytes written" (String.length payload) written;
  Unix.shutdown client_fd Unix.SHUTDOWN_SEND;
  (* the daemon serves a fleet; KRSP_SHARDS lets CI run this same session
     sharded — routing is generation-stable, so the cache-hit and
     warm-start assertions hold at any width *)
  let shards = match Shard.env_shards () with Some n -> n | None -> 1 in
  let fleet = Shard.create ~shards (diamond ()) in
  Server.serve_fd fleet server_fd;
  Shard.shutdown fleet;
  Unix.close server_fd;
  let ic = Unix.in_channel_of_descr client_fd in
  let responses = List.map (fun _ -> input_line ic) requests in
  close_in ic;
  (match responses with
  | [ pong; cold; hit; mutated; warm; err; stats ] ->
    Alcotest.(check string) "pong" "PONG" pong;
    let check_solution name line expected_source =
      match Protocol.parse_response line with
      | Ok (Protocol.Solution { source; delay; _ }) ->
        Alcotest.(check bool) (name ^ " source") true (source = expected_source);
        Alcotest.(check bool) (name ^ " delay") true (delay <= 30)
      | _ -> Alcotest.failf "%s: unexpected %s" name line
    in
    check_solution "cold" cold Protocol.Cold;
    check_solution "hit" hit Protocol.Cache_hit;
    check_solution "warm" warm Protocol.Warm_start;
    (match Protocol.parse_response mutated with
    | Ok (Protocol.Mutated { edges = 1; _ }) -> ()
    | _ -> Alcotest.failf "mutated: unexpected %s" mutated);
    (match Protocol.parse_response err with
    | Ok (Protocol.Err (Protocol.Bad_request _)) -> ()
    | _ -> Alcotest.failf "err: unexpected %s" err);
    (match Protocol.parse_response stats with
    | Ok (Protocol.Stats_dump kvs) ->
      Alcotest.(check string) "stats warm" "1" (stats_field kvs "solve_warm")
    | _ -> Alcotest.failf "stats: unexpected %s" stats)
  | _ -> Alcotest.fail "wrong response count")
(* close_in above closed client_fd's descriptor; nothing left to release *)

(* a traced session: under KRSP_TRACE=all-equivalent policy, a SOLVE leaves
   spans in the rings and the TRACE verb exports them — inline as a
   TRACE-JSON line that validates, and the export clears the rings so a
   second TRACE is empty *)
let test_serve_fd_trace () =
  let module Trace = Krsp_obs.Trace in
  let saved = Trace.policy () in
  Trace.set_policy Trace.All;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_policy saved;
      Trace.clear ())
    (fun () ->
      Trace.clear ();
      let client_fd, server_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let requests = [ "SOLVE 0 3 2 30"; "TRACE"; "TRACE" ] in
      let payload = String.concat "\n" requests ^ "\n" in
      ignore (Unix.write_substring client_fd payload 0 (String.length payload));
      Unix.shutdown client_fd Unix.SHUTDOWN_SEND;
      let shards = match Shard.env_shards () with Some n -> n | None -> 1 in
      let fleet = Shard.create ~shards (diamond ()) in
      Server.serve_fd fleet server_fd;
      Shard.shutdown fleet;
      Unix.close server_fd;
      let ic = Unix.in_channel_of_descr client_fd in
      let responses = List.map (fun _ -> input_line ic) requests in
      close_in ic;
      match responses with
      | [ solution; traced; empty ] ->
        (match Protocol.parse_response solution with
        | Ok (Protocol.Solution _) -> ()
        | _ -> Alcotest.failf "solution: unexpected %s" solution);
        (match Protocol.parse_response traced with
        | Ok (Protocol.Trace_json json) -> (
          match Trace.Json.validate_chrome json with
          | Ok n -> Alcotest.(check bool) "exported spans" true (n > 0)
          | Error msg -> Alcotest.failf "export does not validate: %s" msg)
        | _ -> Alcotest.failf "traced: unexpected %s" traced);
        (match Protocol.parse_response empty with
        | Ok (Protocol.Trace_json json) -> (
          match Trace.Json.validate_chrome json with
          | Ok n -> Alcotest.(check int) "rings cleared by the export" 0 n
          | Error msg -> Alcotest.failf "empty export does not validate: %s" msg)
        | _ -> Alcotest.failf "empty: unexpected %s" empty)
      | _ -> Alcotest.fail "wrong response count")

(* --- metrics ----------------------------------------------------------------- *)

let test_metrics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "reqs" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.check_raises "monotonic" (Invalid_argument "Metrics.incr: counters are monotonic")
    (fun () -> Metrics.incr ~by:(-1) c);
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0; 100.0 ];
  Alcotest.(check int) "hist count" 5 (Metrics.count h);
  Alcotest.(check (float 0.001)) "hist sum" 115.0 (Metrics.sum h);
  let p50 = Metrics.percentile h 50. in
  Alcotest.(check bool) "p50 in range" true (p50 >= 1.0 && p50 <= 8.0);
  Alcotest.(check (float 0.001)) "p100 = max" 100.0 (Metrics.percentile h 100.);
  (* same-name lookups share state; cross-kind lookups are rejected *)
  Alcotest.(check int) "shared counter" 5 (Metrics.value (Metrics.counter m "reqs"));
  Alcotest.check_raises "kind clash" (Invalid_argument "Metrics.counter: \"lat\" is a histogram")
    (fun () -> ignore (Metrics.counter m "lat"));
  let kv = Metrics.to_kv m in
  Alcotest.(check (option string)) "kv counter" (Some "5") (List.assoc_opt "reqs" kv);
  Alcotest.(check (option string)) "kv count" (Some "5") (List.assoc_opt "lat.count" kv)

(* merge folds one registry into another without touching the source —
   what the fleet STATS uses to aggregate per-shard engine registries *)
let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter a "c");
  Metrics.incr ~by:4 (Metrics.counter b "c");
  Metrics.incr ~by:5 (Metrics.counter b "only_b");
  let ha = Metrics.histogram a "h" in
  List.iter (Metrics.observe ha) [ 1.0; 2.0 ];
  Metrics.observe (Metrics.histogram b "h") 4.0;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "shared counter summed" 7 (Metrics.value (Metrics.counter a "c"));
  Alcotest.(check int) "new counter materialized" 5 (Metrics.value (Metrics.counter a "only_b"));
  let h = Metrics.histogram a "h" in
  Alcotest.(check int) "hist count summed" 3 (Metrics.count h);
  Alcotest.(check (float 0.001)) "hist sum summed" 7.0 (Metrics.sum h);
  Alcotest.(check (option string)) "hist max carried" (Some "4.000")
    (List.assoc_opt "h.max" (Metrics.to_kv a));
  (* the source registry is read, never written *)
  Alcotest.(check int) "src counter intact" 4 (Metrics.value (Metrics.counter b "c"));
  Alcotest.(check int) "src hist intact" 1 (Metrics.count (Metrics.histogram b "h"));
  (* merging is idempotent in shape: a second merge doubles values, not series *)
  Metrics.merge ~into:a b;
  Alcotest.(check int) "second merge sums again" 11 (Metrics.value (Metrics.counter a "c"));
  (* kind clashes are rejected, same as direct registration *)
  let c = Metrics.create () in
  ignore (Metrics.histogram c "c");
  Alcotest.check_raises "kind clash" (Invalid_argument "Metrics.counter: \"c\" is a histogram")
    (fun () -> Metrics.merge ~into:c a)

let suites =
  [ ( "server.protocol",
      [ request_roundtrip; response_roundtrip;
        Alcotest.test_case "parse error taxonomy" `Quick test_parse_errors;
        Alcotest.test_case "overload codec" `Quick test_overload_codec;
        Alcotest.test_case "mutate codec" `Quick test_mutate_codec
      ] );
    ( "server.cache",
      [ Alcotest.test_case "lru eviction and counters" `Quick test_cache_lru;
        Alcotest.test_case "filter and rekey" `Quick test_cache_filter_rekey
      ] );
    ( "server.warm_start",
      [ Alcotest.test_case "repair" `Quick test_repair;
        Alcotest.test_case "solve ~warm_start" `Quick test_solve_warm_start
      ] );
    ( "server.engine",
      [ Alcotest.test_case "solve/fail/re-solve lifecycle" `Quick test_engine_lifecycle;
        Alcotest.test_case "request validation" `Quick test_engine_validation;
        Alcotest.test_case "epsilon and qos requests" `Quick test_engine_epsilon_and_qos;
        Alcotest.test_case "mutate batches and scoped invalidation" `Quick
          test_engine_mutate;
        Alcotest.test_case "renumbering under a long ins/del stream" `Quick test_engine_renumber;
        Alcotest.test_case "no stale cache hits under churn" `Quick
          test_no_stale_cache_hits;
        Alcotest.test_case "internal errors answer and cache nothing" `Quick
          test_engine_totality
      ] );
    ( "server.fleet",
      [ Alcotest.test_case "router determinism" `Quick test_router_determinism;
        Alcotest.test_case "generation barrier" `Quick test_generation_barrier;
        Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
        Alcotest.test_case "graceful drain" `Quick test_drain_completes_queued;
        Alcotest.test_case "overlay and refreeze fleets converge" `Quick
          test_fleet_mutate_convergence
      ] );
    ( "server.daemon",
      [ Alcotest.test_case "socketpair session" `Quick test_serve_fd_socketpair;
        Alcotest.test_case "traced session exports spans" `Quick test_serve_fd_trace
      ] );
    ( "server.metrics",
      [ Alcotest.test_case "counters and histograms" `Quick test_metrics;
        Alcotest.test_case "merge" `Quick test_metrics_merge
      ] )
  ]
