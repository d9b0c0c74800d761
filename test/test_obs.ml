(* Tests for the observability layer: the sampling-policy parser, the
   overwrite-oldest span ring (qcheck), span nesting and the Chrome
   trace-event export (roundtripped through the bundled JSON reader), the
   end-of-request keep/drop decision under every policy, merged-registry
   percentile fidelity, the Prometheus exposition, the TRACE protocol
   codec, and a determinism guard: tracing at [all] must not change any
   solver answer. *)

module Trace = Krsp_obs.Trace
module Prom = Krsp_obs.Prom
module Telemetry = Krsp_obs.Telemetry
module Metrics = Krsp_util.Metrics
module Timer = Krsp_util.Timer
module Protocol = Krsp_server.Protocol
module G = Krsp_graph.Digraph
module Instance = Krsp_core.Instance
module Krsp = Krsp_core.Krsp

(* every test that mints contexts pins the policy and restores it — the
   policy is process-global and the suite order must not matter *)
let with_policy p f =
  let saved = Trace.policy () in
  Trace.set_policy p;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_policy saved;
      Trace.clear ())
    f

(* --- policy parsing ---------------------------------------------------------- *)

let test_policy_parse () =
  let ok s p =
    match Trace.policy_of_string s with
    | Ok got -> Alcotest.(check string) s (Trace.policy_to_string p) (Trace.policy_to_string got)
    | Error msg -> Alcotest.failf "%S: unexpected parse error %s" s msg
  in
  ok "off" Trace.Off;
  ok "" Trace.Off;
  ok "none" Trace.Off;
  ok "0" Trace.Off;
  ok "all" Trace.All;
  ok "on" Trace.All;
  ok "1" Trace.All;
  ok "slow:5" (Trace.Slow 5.);
  ok "slow:2.5" (Trace.Slow 2.5);
  ok "sample:8" (Trace.Sample 8);
  List.iter
    (fun s ->
      match Trace.policy_of_string s with
      | Ok p -> Alcotest.failf "%S: expected an error, got %s" s (Trace.policy_to_string p)
      | Error _ -> ())
    [ "garbage"; "slow:"; "slow:x"; "slow:-1"; "sample:0"; "sample:-3"; "sample:x"; "all:5" ]

(* --- ring wraparound (qcheck) ------------------------------------------------- *)

let mk_span i =
  {
    Trace.trace_id = i;
    name = Printf.sprintf "s%d" i;
    lane = 0;
    t_start_ns = Int64.of_int i;
    t_end_ns = Int64.of_int (i + 1);
    args = [];
  }

let ring_wraparound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"ring keeps the newest spans in order" ~count:200
       QCheck2.Gen.(pair (int_range 1 64) (int_range 0 300))
       (fun (cap, pushes) ->
         let r = Trace.Ring.create cap in
         for i = 0 to pushes - 1 do
           Trace.Ring.push r (mk_span i)
         done;
         let got = List.map (fun s -> s.Trace.trace_id) (Trace.Ring.snapshot r) in
         let expect = List.init (min cap pushes) (fun j -> pushes - min cap pushes + j) in
         Trace.Ring.length r = min cap pushes && got = expect))

(* --- span nesting and the Chrome export --------------------------------------- *)

let test_spans_and_chrome_export () =
  with_policy Trace.All (fun () ->
      Trace.clear ();
      let ctx = Trace.start () in
      (match ctx with None -> Alcotest.fail "policy all minted no context" | Some _ -> ());
      let v =
        Trace.with_span ctx "outer" (fun () ->
            Trace.with_span ~args:[ ("depth", "2") ] ctx "inner" (fun () -> 41) + 1)
      in
      Alcotest.(check int) "with_span passes the result through" 42 v;
      (* a span closes even when the body raises *)
      (try Trace.with_span ctx "raising" (fun () -> failwith "boom")
       with Failure _ -> ());
      let ctx = Option.get ctx in
      Trace.add_root_arg ctx "source" "cold";
      Alcotest.(check int) "three spans accumulated" 3 (Trace.span_count ctx);
      let total_ms, kept = Trace.finish ctx "REQ" in
      Alcotest.(check bool) "kept under all" true kept;
      Alcotest.(check bool) "total covers the spans" true (total_ms >= 0.);
      let spans = Trace.events () in
      Alcotest.(check int) "root + 3 spans in the rings" 4 (List.length spans);
      let names = List.map (fun s -> s.Trace.name) spans in
      List.iter
        (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "outer"; "inner"; "raising"; "REQ" ];
      (* nesting: inner starts no earlier and ends no later than outer *)
      let find n = List.find (fun s -> s.Trace.name = n) spans in
      let outer = find "outer" and inner = find "inner" in
      Alcotest.(check bool) "inner nested in outer" true
        (inner.Trace.t_start_ns >= outer.Trace.t_start_ns
        && inner.Trace.t_end_ns <= outer.Trace.t_end_ns);
      let root = find "REQ" in
      Alcotest.(check bool) "root carries the root args" true
        (List.mem_assoc "source" root.Trace.args);
      (* the export roundtrips through the bundled JSON reader *)
      let json = Trace.export_chrome () in
      (match Trace.Json.parse json with
      | Error msg -> Alcotest.failf "export does not parse: %s" msg
      | Ok doc -> (
        match Trace.Json.member "traceEvents" doc with
        | Some (Trace.Json.Arr _) -> ()
        | _ -> Alcotest.fail "export has no traceEvents array"));
      match Trace.Json.validate_chrome json with
      | Ok n -> Alcotest.(check int) "export validates with 4 X events" 4 n
      | Error msg -> Alcotest.failf "export does not validate: %s" msg)

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Trace.Json.validate_chrome s with
      | Ok _ -> Alcotest.failf "%S: expected a validation error" s
      | Error _ -> ())
    [ ""; "{"; "[{\"ph\":\"X\"}]"; "{\"traceEvents\": 3}";
      "[{\"ph\":\"X\",\"name\":\"a\",\"ts\":\"no\",\"dur\":1}]"
    ]

(* --- keep/drop decisions ------------------------------------------------------- *)

let test_sampling_policies () =
  (* off: no contexts at all *)
  with_policy Trace.Off (fun () ->
      Alcotest.(check bool) "off mints nothing" true (Trace.start () = None));
  (* sample:N keeps one in N, by trace id *)
  with_policy (Trace.Sample 8) (fun () ->
      let minted = ref 0 in
      for _ = 1 to 64 do
        match Trace.start () with
        | Some ctx ->
          incr minted;
          ignore (Trace.finish ctx "S")
        | None -> ()
      done;
      Alcotest.(check int) "sample:8 keeps 8 of 64" 8 !minted);
  (* slow:<ms>: minted always, kept only past the threshold *)
  with_policy (Trace.Slow 1e9) (fun () ->
      Trace.clear ();
      match Trace.start () with
      | None -> Alcotest.fail "slow policy must mint"
      | Some ctx ->
        let _, kept = Trace.finish ctx "FAST" in
        Alcotest.(check bool) "fast request dropped" false kept;
        Alcotest.(check int) "nothing flushed" 0 (List.length (Trace.events ())));
  with_policy (Trace.Slow 0.) (fun () ->
      Trace.clear ();
      match Trace.start () with
      | None -> Alcotest.fail "slow policy must mint"
      | Some ctx ->
        let _, kept = Trace.finish ctx "SLOW" in
        Alcotest.(check bool) "every request beats a 0ms threshold" true kept;
        Alcotest.(check int) "root span flushed" 1 (List.length (Trace.events ())));
  Alcotest.(check (option (float 1e-9))) "slow_threshold reads the policy" None
    (with_policy Trace.All Trace.slow_threshold)

(* --- merged percentiles -------------------------------------------------------- *)

let test_merge_percentiles () =
  (* two shard-local registries with disjoint latency populations; after the
     fleet merge the tail quantiles must reflect the union *)
  let a = Metrics.create () and b = Metrics.create () in
  let ha = Metrics.histogram a "lat" and hb = Metrics.histogram b "lat" in
  for _ = 1 to 989 do
    Metrics.observe ha 1.0
  done;
  for _ = 1 to 9 do
    Metrics.observe hb 10.0
  done;
  Metrics.observe hb 500.0;
  Metrics.observe hb 500.0;
  let merged = Metrics.create () in
  Metrics.merge ~into:merged a;
  Metrics.merge ~into:merged b;
  let h = Metrics.histogram merged "lat" in
  Alcotest.(check int) "merged count" 1000 (Metrics.count h);
  let p999 = Metrics.percentile h 99.9 in
  (* the 999th of 1000 observations sits in the 500ms bucket; the estimate
     must leave the 1/10ms populations far behind *)
  Alcotest.(check bool) "p999 reflects the tail" true (p999 > 100.);
  Alcotest.(check bool) "p999 bounded by max" true (p999 <= 500.);
  let kv = Metrics.to_kv merged in
  Alcotest.(check (option string)) "kv min" (Some "1.000") (List.assoc_opt "lat.min" kv);
  Alcotest.(check (option string)) "kv max" (Some "500.000") (List.assoc_opt "lat.max" kv);
  match List.assoc_opt "lat.p999" kv with
  | None -> Alcotest.fail "to_kv lacks p999"
  | Some s -> Alcotest.(check (float 0.001)) "kv p999 = percentile" p999 (float_of_string s)

(* --- prometheus exposition ----------------------------------------------------- *)

let test_prom_render () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter m "front.routed");
  let h = Metrics.histogram m "fleet.service_ms" in
  List.iter (Metrics.observe h) [ 0.5; 2.0; 1000.0 ];
  let text = Prom.render ~gauges:[ ("fleet.shards", 4.) ] m in
  let has needle =
    let n = String.length needle and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (has "krsp_front_routed_total 7");
  Alcotest.(check bool) "counter type" true (has "# TYPE krsp_front_routed_total counter");
  (* the _ms registry suffix is not doubled *)
  Alcotest.(check bool) "histogram type" true (has "# TYPE krsp_fleet_service_ms histogram");
  Alcotest.(check bool) "no doubled unit" false (has "_ms_ms");
  Alcotest.(check bool) "+Inf closes the buckets" true
    (has "krsp_fleet_service_ms_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "count" true (has "krsp_fleet_service_ms_count 3");
  Alcotest.(check bool) "gauge" true (has "krsp_fleet_shards 4");
  (* cumulative: every bucket line's count is <= the +Inf count and
     non-decreasing down the series *)
  let bucket_counts =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if String.length line > 0 && line.[0] <> '#' then
             match String.index_opt line '}' with
             | Some i when String.length line > i + 1 ->
               int_of_string_opt (String.sub line (i + 2) (String.length line - i - 2))
             | _ -> None
           else None)
  in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "buckets cumulative" true (nondecreasing bucket_counts)

let test_telemetry_scrape () =
  let m = Metrics.create () in
  Metrics.incr ~by:42 (Metrics.counter m "scrapes.test");
  let srv = Telemetry.start ~port:0 (fun () -> Prom.render m) in
  Fun.protect
    ~finally:(fun () -> Telemetry.stop srv)
    (fun () ->
      let port = Telemetry.port srv in
      Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Unix.close sock;
      let reply = Buffer.contents buf in
      let has needle =
        let n = String.length needle and l = String.length reply in
        let rec go i = i + n <= l && (String.sub reply i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "HTTP 200" true (has "HTTP/1.0 200 OK");
      Alcotest.(check bool) "prometheus content type" true (has "text/plain; version=0.0.4");
      Alcotest.(check bool) "body carries the registry" true (has "krsp_scrapes_test_total 42"))

(* --- TRACE protocol codec ------------------------------------------------------ *)

let test_trace_codec () =
  (* requests *)
  (match Protocol.parse_request "TRACE" with
  | Ok (Protocol.Trace { path = None }) -> ()
  | _ -> Alcotest.fail "TRACE (no path) does not parse");
  (match Protocol.parse_request "TRACE /tmp/out.json" with
  | Ok (Protocol.Trace { path = Some "/tmp/out.json" }) -> ()
  | _ -> Alcotest.fail "TRACE <path> does not parse");
  let roundtrip_req r =
    match Protocol.parse_request (Protocol.print_request r) with
    | Ok r' -> Alcotest.(check bool) "request roundtrips" true (r = r')
    | Error _ -> Alcotest.fail "printed request does not reparse"
  in
  roundtrip_req (Protocol.Trace { path = None });
  roundtrip_req (Protocol.Trace { path = Some "/tmp/t.json" });
  (* responses: TRACE-JSON carries the payload verbatim (it contains spaces
     and quotes, so the codec must not tokenize it) *)
  let json = {|{"displayTimeUnit":"ms","traceEvents":[{"ph":"M","name":"thread name"}]}|} in
  (match Protocol.parse_response (Protocol.print_response (Protocol.Trace_json json)) with
  | Ok (Protocol.Trace_json got) -> Alcotest.(check string) "payload verbatim" json got
  | _ -> Alcotest.fail "TRACE-JSON does not roundtrip");
  match
    Protocol.parse_response
      (Protocol.print_response (Protocol.Traced { file = "/tmp/t.json"; events = 12 }))
  with
  | Ok (Protocol.Traced { file = "/tmp/t.json"; events = 12 }) -> ()
  | _ -> Alcotest.fail "TRACED does not roundtrip"

(* --- determinism guard --------------------------------------------------------- *)

(* the diamond of test_core: two 2-hop routes plus a direct edge *)
let diamond () =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5);
  g

let solve_key trace =
  let t = Instance.create (diamond ()) ~src:0 ~dst:3 ~k:2 ~delay_bound:30 in
  match Krsp.solve ?trace t () with
  | Ok (sol, _) ->
    Printf.sprintf "%d/%d/%s" sol.Instance.cost sol.Instance.delay
      (String.concat ";"
         (List.map
            (fun p -> String.concat "," (List.map string_of_int p))
            sol.Instance.paths))
  | Error _ -> "error"

let test_tracing_is_pure () =
  let untraced = with_policy Trace.Off (fun () -> solve_key None) in
  let traced =
    with_policy Trace.All (fun () ->
        let ctx = Trace.start () in
        let key = solve_key ctx in
        (match ctx with
        | Some ctx ->
          ignore (Trace.finish ctx "SOLVE");
          Alcotest.(check bool) "the traced solve recorded spans" true
            (List.length (Trace.events ()) > 1)
        | None -> Alcotest.fail "policy all minted no context");
        key)
  in
  Alcotest.(check string) "identical solution with tracing on" untraced traced

(* The solve prologue's spans: the start's span comes first, and
   [solve.min_delay_bound] appears only when the start is over D. A MUTATE
   batch that renumbers the edge ids closes [topo.renumber] inside
   [topo.mutate]. *)
let traced f =
  with_policy Trace.All (fun () ->
      Trace.clear ();
      let ctx = Trace.start () in
      f ctx;
      ignore (Trace.finish (Option.get ctx) "REQ");
      let spans = Trace.events () in
      Trace.clear ();
      spans)

let names spans =
  List.map
    (fun s -> s.Trace.name)
    (List.sort (fun a b -> Int64.compare a.Trace.t_start_ns b.Trace.t_start_ns) spans)

let test_prologue_and_renumber_spans () =
  let solve_names d =
    names
      (traced (fun trace ->
           ignore
             (Krsp.solve ?trace
                (Instance.create (diamond ()) ~src:0 ~dst:3 ~k:2 ~delay_bound:d)
                ())))
  in
  let has n l = List.mem n l in
  let index n l =
    let rec go i = function [] -> max_int | x :: r -> if x = n then i else go (i + 1) r in
    go 0 l
  in
  let before a b l = index a l < index b l in
  let feasible = solve_names 30 in
  Alcotest.(check bool) "a start that meets D runs phase 1 only" true
    (has "solve.phase1" feasible && not (has "solve.min_delay_bound" feasible));
  let binding = solve_names 10 in
  Alcotest.(check bool) "a start over D builds the fallback after phase 1" true
    (before "solve.phase1" "solve.min_delay_bound" binding && has "solve.guess" binding);
  let unreachable = solve_names 3 in
  Alcotest.(check bool) "an unreachable D is decided by the min-delay flow" true
    (before "solve.phase1" "solve.min_delay_bound" unreachable
    && not (has "solve.guess" unreachable));
  let engine = Krsp_server.Engine.create (diamond ()) in
  let mutate line trace =
    match Protocol.parse_request line with
    | Ok r -> ignore (Krsp_server.Engine.handle engine ?trace r)
    | Error _ -> Alcotest.failf "unparsable %s" line
  in
  (* 65 ins/del pairs leave 65 dead ids: more than max(64, 5 live edges) *)
  for _ = 1 to 64 do
    mutate "MUTATE ins:1:2:1:1" None;
    mutate "MUTATE del:1:2" None
  done;
  mutate "MUTATE ins:1:2:1:1" None;
  let spans = traced (mutate "MUTATE del:1:2") in
  let find n = List.find_opt (fun s -> s.Trace.name = n) spans in
  match (find "topo.mutate", find "topo.renumber") with
  | Some m, Some r ->
    Alcotest.(check bool) "topo.renumber nested in topo.mutate" true
      (r.Trace.t_start_ns >= m.Trace.t_start_ns && r.Trace.t_end_ns <= m.Trace.t_end_ns)
  | _ -> Alcotest.failf "spans: %s" (String.concat " " (names spans))

let suites =
  [ ( "obs.policy",
      [ Alcotest.test_case "parse KRSP_TRACE syntax" `Quick test_policy_parse;
        Alcotest.test_case "keep/drop per policy" `Quick test_sampling_policies
      ] );
    ("obs.ring", [ ring_wraparound ]);
    ( "obs.trace",
      [ Alcotest.test_case "span nesting and chrome export" `Quick test_spans_and_chrome_export;
        Alcotest.test_case "json validation rejects malformed" `Quick test_json_rejects_malformed;
        Alcotest.test_case "tracing does not perturb solves" `Quick test_tracing_is_pure;
        Alcotest.test_case "prologue and renumber spans" `Quick test_prologue_and_renumber_spans
      ] );
    ( "obs.metrics",
      [ Alcotest.test_case "merged tail percentiles" `Quick test_merge_percentiles ] );
    ( "obs.prometheus",
      [ Alcotest.test_case "text exposition" `Quick test_prom_render;
        Alcotest.test_case "telemetry scrape" `Quick test_telemetry_scrape
      ] );
    ("obs.protocol", [ Alcotest.test_case "TRACE codec" `Quick test_trace_codec ])
  ]
