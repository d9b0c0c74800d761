(* E22 — dynamic topology under churn: delta-overlay CSR patching and
   churn-scoped cache invalidation versus the rebuild-the-world baseline.

   Replays one seeded interleaved workload — SOLVE queries mixed with
   MUTATE batches (insert / tombstone / reweight) at a swept churn rate —
   through four engine configurations over identical topology evolutions:

     overlay  + scoped   (the default: patch the CSR, drop only the cache
                          entries whose paths touch a mutated edge)
     overlay  + full     (patch the CSR, flush the whole cache per batch)
     refreeze + scoped   (rebuild the CSR on every post-mutation solve)
     refreeze + full     (both baselines at once)

   Self-checking: the four configurations see byte-identical request
   streams over byte-identical topology histories, so every SOLVE must
   return the same (cost, delay) in all four — a divergence is a
   correctness bug, not a performance artefact — and the engine's
   stale-hit guard (every cache hit is re-certified against the live
   topology before being served) must never fire in any leg: scoped
   invalidation has to be precise, not approximately right. Either
   failure flags the run and exits non-zero via bench/main.ml.

   The headline claim is the last table: at every churn rate the
   overlay+scoped engine must beat refreeze+full on served throughput —
   the incremental machinery has to pay for itself. Ratio asserts are
   binding in full mode only; smoke (CI) runs the fidelity checks at tiny
   sizes where wall-clock ratios are noise.

   A second part, the long stream, drives one overlay+scoped engine
   through an insert/delete-heavy stream (1M lines; 20k in smoke mode)
   and prints served lines/s and the edge-id count per window. Every
   [del] leaves a dead id behind; the engine renumbers them away, so the
   id count must stay within 2·max(64, live + failed edges) plus one
   batch after every mutation — binding in both modes — and the per-window
   throughput should show no downward trend.

   The collected numbers are exposed through {!json} so bench/main.ml can
   emit BENCH_e22.json for perf tracking across PRs. *)

open Common
module Engine = Krsp_server.Engine
module Protocol = Krsp_server.Protocol
module Metrics = Krsp_util.Metrics

let smoke = Sys.getenv_opt "KRSP_BENCH_SMOKE" <> None
let wrong = ref 0

let flag_wrong what =
  incr wrong;
  Printf.printf "!! WRONG: %s\n" what

(* --- JSON accumulation (emitted by bench/main.ml as BENCH_e22.json) ----------- *)

type row = {
  churn_pct : int;
  topology : string;
  invalidation : string;
  ms : float;
  req_per_s : float;
  cache_hits : int;
  compactions : int;
  full_freezes : int;
}

let rows : row list ref = ref []

(* one window of the long stream *)
type window = {
  lines_done : int;
  w_req_per_s : float;
  edge_ids : int;
  live_edges : int;
  failed_edges : int;
}

type long_stream = {
  lines : int;
  windows : window list;
  max_edge_ids : int;
  bound_violations : int;
  renumberings : int;
}

let long : long_stream option ref = ref None

let long_json () =
  match !long with
  | None -> []
  | Some l ->
    let w =
      List.map
        (fun w ->
          Printf.sprintf
            "      {\"lines\": %d, \"req_per_s\": %.0f, \"edge_ids\": %d, \"live_edges\": \
             %d, \"failed_edges\": %d}"
            w.lines_done w.w_req_per_s w.edge_ids w.live_edges w.failed_edges)
        l.windows
    in
    [ "  \"long_stream\": {";
      Printf.sprintf "    \"lines\": %d," l.lines;
      Printf.sprintf "    \"max_edge_ids\": %d," l.max_edge_ids;
      Printf.sprintf "    \"bound_violations\": %d," l.bound_violations;
      Printf.sprintf "    \"renumberings\": %d," l.renumberings;
      "    \"windows\": [";
      String.concat ",\n" w;
      "    ]";
      "  },"
    ]

let json () =
  let fields =
    List.map
      (fun r ->
        Printf.sprintf
          "    {\"churn_pct\": %d, \"topology\": %S, \"invalidation\": %S, \"ms\": %.3f, \
           \"req_per_s\": %.0f, \"cache_hits\": %d, \"compactions\": %d, \"full_freezes\": \
           %d}"
          r.churn_pct r.topology r.invalidation r.ms r.req_per_s r.cache_hits r.compactions
          r.full_freezes)
      (List.rev !rows)
  in
  String.concat "\n"
    ([ "{";
       "  \"experiment\": \"e22\",";
       Printf.sprintf "  \"smoke\": %b," smoke;
       Printf.sprintf "  \"wrong_answers\": %d," !wrong
     ]
    @ long_json ()
    @ [ "  \"legs\": ["; String.concat ",\n" fields; "  ]"; "}"; "" ])

(* --- workload ------------------------------------------------------------------ *)

(* One request stream at a given churn rate: repeat SOLVEs over a handful
   of hot (src, dst, k, D) keys (so caches can actually hit), with a
   [churn_pct]% chance per slot of a MUTATE batch instead.

   The mutation mix mirrors real link churn: mostly tombstones and
   non-decreasing reweights (degraded links) — both {e restrictive}, so a
   scoped engine keeps every cache entry whose paths dodge the mutated
   edge — with occasional inserts (provisioned links), which are
   {e expansive} and flush every configuration's cache alike. Ops are
   generated against a shadow replica that applies them with the engine's
   own semantics, so deletes and reweights always name live edges and
   reweights are genuinely non-decreasing per edge. *)
let make_workload rng g ~count ~churn_pct =
  let sim = G.copy g in
  let n = G.n sim in
  let total = G.total_delay g in
  let bounds = [| total + 1; max 1 (total / 2); max 1 (total / 4) |] in
  let live_edge () =
    let rec go tries =
      if tries = 0 then None
      else
        let e = X.int rng (G.m sim) in
        if G.alive sim e then Some e else go (tries - 1)
    in
    go 8
  in
  let directed_live u v =
    List.filter (fun e -> G.dst sim e = v) (G.out_edges sim u)
  in
  let gen_op () =
    let r = X.int rng 100 in
    if r < 25 then
      match live_edge () with
      | None -> None
      | Some e ->
        let u = G.src sim e and v = G.dst sim e in
        List.iter (fun e' -> G.remove_edge sim e') (directed_live u v);
        Some (Protocol.Del { u; v })
    else if r < 95 then
      match live_edge () with
      | None -> None
      | Some e ->
        let u = G.src sim e and v = G.dst sim e in
        let es = directed_live u v in
        let cost =
          X.int rng 3 + List.fold_left (fun a e' -> max a (G.cost sim e')) 0 es
        and delay =
          X.int rng 2 + List.fold_left (fun a e' -> max a (G.delay sim e')) 0 es
        in
        List.iter
          (fun e' ->
            G.set_cost sim e' cost;
            G.set_delay sim e' delay)
          es;
        Some (Protocol.Rew { u; v; cost; delay })
    else begin
      let u = X.int rng n and v = X.int rng n in
      let u, v = if u = v then (u, (u + 1) mod n) else (min u v, max u v) in
      let cost = 1 + X.int rng 8 and delay = 1 + X.int rng 5 in
      ignore (G.add_edge sim ~src:u ~dst:v ~cost ~delay);
      Some (Protocol.Ins { u; v; cost; delay })
    end
  in
  Array.init count (fun _ ->
      if X.int rng 100 < churn_pct then begin
        match List.filter_map gen_op (List.init (1 + X.int rng 3) (fun _ -> ())) with
        | [] -> Protocol.Ping (* all live-edge draws failed; identical everywhere *)
        | ops -> Protocol.Mutate { ops }
      end
      else begin
        let src, dst =
          if X.int rng 3 = 0 then
            let u = X.int rng n and v = X.int rng n in
            if u = v then (u, (u + 1) mod n) else (min u v, max u v)
          else (0, n - 1)
        in
        let k = 1 + X.int rng 2 in
        Protocol.Solve
          { src; dst; k;
            delay_bound = bounds.(X.int rng (Array.length bounds));
            epsilon = None
          }
      end)

let configs =
  [ ("overlay", "scoped", fun c -> c);
    ("overlay", "full", fun c -> { c with Engine.scoped_invalidation = false });
    ("refreeze", "scoped", fun c -> { c with Engine.overlay_views = false });
    ( "refreeze", "full",
      fun c -> { c with Engine.overlay_views = false; scoped_invalidation = false } )
  ]

(* the policy-independent answer: (cost, delay) per slot; sources and
   timings legitimately differ across configurations *)
let answer_key = function
  | Protocol.Solution { cost; delay; ms = _; source = _; paths = _ } ->
    Printf.sprintf "%d/%d" cost delay
  | other -> Protocol.print_response other

let counter_value engine name = Metrics.value (Metrics.counter (Engine.metrics engine) name)

(* one replay on a fresh engine; returns (wall ms, answer keys) and records
   the leg's row *)
let replay g workload ~churn_pct ~topology ~invalidation tweak =
  let config = tweak { Engine.default_config with Engine.max_iterations = 300 } in
  let engine = Engine.create ~config (G.copy g) in
  let t0 = Timer.now_ms () in
  let answers = Array.map (fun r -> answer_key (Engine.handle engine r)) workload in
  let ms = Timer.now_ms () -. t0 in
  let stale = counter_value engine "topo.stale_hits_dropped" in
  if stale > 0 then
    flag_wrong
      (Printf.sprintf "%s+%s at %d%% churn: stale-hit guard fired %d time(s)" topology
         invalidation churn_pct stale);
  let stats = G.topo_stats (Engine.live_graph engine) in
  let row =
    { churn_pct; topology; invalidation; ms;
      req_per_s =
        (if ms > 0. then float_of_int (Array.length workload) /. (ms /. 1000.) else 0.);
      cache_hits = counter_value engine "solve_cache_hit";
      compactions = stats.G.compactions;
      full_freezes = stats.G.full_freezes
    }
  in
  rows := row :: !rows;
  (ms, answers, row)

(* --- long stream: the edge-id count under insert/delete churn -------------------- *)

(* Requests for [count] slots: SOLVEs over a few hot keys, with one slot in
   eight a topology event — an [ins] of a link with no live edge, or a
   [del] closing the oldest open one (always once 16 are open) — and now
   and then a FAIL of a base link, RESTOREd a few thousand slots later.
   [live] tracks the directed pairs with a live edge, so no insert
   duplicates one. *)
let long_requests rng ~n ~base_links ~live ~open_links ~failed ~bounds count =
  Array.init count (fun _ ->
      let r = X.int rng 100 in
      if r < 12 then begin
        let full = Queue.length open_links >= 16 in
        if full || (Queue.length open_links > 0 && X.int rng 4 = 0) then begin
          let u, v = Queue.pop open_links in
          Hashtbl.remove live (u, v);
          Protocol.Mutate { ops = [ Protocol.Del { u; v } ] }
        end
        else begin
          let u = X.int rng n and v = X.int rng n in
          if u = v || Hashtbl.mem live (u, v) then Protocol.Ping
          else begin
            Hashtbl.replace live (u, v) ();
            Queue.push (u, v) open_links;
            Protocol.Mutate
              { ops = [ Protocol.Ins { u; v; cost = 1 + X.int rng 8; delay = 1 + X.int rng 5 } ] }
          end
        end
      end
      else if r = 12 && X.int rng 20 = 0 then begin
        match !failed with
        | Some (u, v) ->
          failed := None;
          Protocol.Restore { u; v }
        | None ->
          let u, v = X.pick rng base_links in
          failed := Some (u, v);
          Protocol.Fail { u; v }
      end
      else
        let k = 1 + X.int rng 2 in
        let delay_bound = bounds.(X.int rng (Array.length bounds)) in
        Protocol.Solve { src = 0; dst = n - 1; k; delay_bound; epsilon = None })

let run_long_stream g =
  let lines, window = if smoke then (20_000, 2_000) else (1_000_000, 100_000) in
  note "\nlong stream: one overlay+scoped engine, %d lines, windows of %d\n" lines window;
  let rng = X.create ~seed:2216 in
  let n = G.n g in
  let total = G.total_delay g in
  let bounds = [| total + 1; max 1 (total / 2); max 1 (total / 4) |] in
  let live = Hashtbl.create 256 in
  G.iter_edges g (fun e -> Hashtbl.replace live (G.src g e, G.dst g e) ());
  let base_links =
    Array.of_list
      (List.filter_map
         (fun e -> if G.src g e < G.dst g e then Some (G.src g e, G.dst g e) else None)
         (G.edges g))
  in
  let open_links = Queue.create () and failed = ref None in
  let engine =
    Engine.create ~config:{ Engine.default_config with Engine.max_iterations = 300 } (G.copy g)
  in
  let graph = Engine.live_graph engine in
  let violations = ref 0 and max_ids = ref 0 and windows = ref [] in
  let table =
    Table.create
      ~columns:
        [ ("lines", Table.Right); ("lines/s", Table.Right); ("edge ids", Table.Right);
          ("live", Table.Right); ("failed", Table.Right)
        ]
  in
  let served = ref 0 in
  while !served < lines do
    let batch =
      long_requests rng ~n ~base_links ~live ~open_links ~failed ~bounds
        (min window (lines - !served))
    in
    let ms = ref 0. in
    Array.iter
      (fun request ->
        let t0 = Timer.now_ms () in
        ignore (Engine.handle engine request);
        ms := !ms +. (Timer.now_ms () -. t0);
        (* each MUTATE is one op here, so one batch is one edge id *)
        let ids = G.m graph in
        max_ids := max !max_ids ids;
        if ids > (2 * max 64 (G.m_alive graph + Engine.failed_edges engine)) + 1 then begin
          incr violations;
          if !violations = 1 then
            flag_wrong
              (Printf.sprintf "long stream: %d edge ids with %d live and %d failed" ids
                 (G.m_alive graph) (Engine.failed_edges engine))
        end)
      batch;
    served := !served + Array.length batch;
    let w =
      {
        lines_done = !served;
        w_req_per_s =
          (if !ms > 0. then float_of_int (Array.length batch) /. (!ms /. 1000.) else 0.);
        edge_ids = G.m graph;
        live_edges = G.m_alive graph;
        failed_edges = Engine.failed_edges engine;
      }
    in
    windows := w :: !windows;
    Table.add_row table
      [ string_of_int w.lines_done; Printf.sprintf "%.0f" w.w_req_per_s; string_of_int w.edge_ids;
        string_of_int w.live_edges; string_of_int w.failed_edges
      ]
  done;
  Table.print table;
  let renumberings = counter_value engine "topo.renumberings" in
  let stale = counter_value engine "topo.stale_hits_dropped" in
  if stale > 0 then
    flag_wrong (Printf.sprintf "long stream: stale-hit guard fired %d time(s)" stale);
  note "long stream: max %d edge ids, %d renumbering(s), %d bound violation(s)\n" !max_ids
    renumberings !violations;
  long :=
    Some
      {
        lines;
        windows = List.rev !windows;
        max_edge_ids = !max_ids;
        bound_violations = !violations;
        renumberings;
      }

(* --- experiment ----------------------------------------------------------------- *)

let run () =
  header "E22" "dynamic topology — overlay patching and scoped invalidation under churn";
  note "mode: %s\n" (if smoke then "smoke (tiny sizes; fidelity only)" else "full");
  let n, count = if smoke then (24, 250) else (64, 2_500) in
  let rng = X.create ~seed:2214 in
  let g =
    Krsp_gen.Topology.erdos_renyi rng ~n ~p:0.3 Krsp_gen.Topology.default_weights
  in
  note "graph: n=%d m=%d, %d requests per leg\n" (G.n g) (G.m g) count;
  let table =
    Table.create
      ~columns:
        [ ("churn%", Table.Right); ("config", Table.Left); ("ms", Table.Right);
          ("req/s", Table.Right); ("hits", Table.Right); ("compactions", Table.Right);
          ("full freezes", Table.Right)
        ]
  in
  let speedups = ref [] in
  List.iter
    (fun churn_pct ->
      let workload = make_workload (X.split rng) g ~count ~churn_pct in
      let legs =
        List.map
          (fun (topology, invalidation, tweak) ->
            let ms, answers, row = replay g workload ~churn_pct ~topology ~invalidation tweak in
            ((topology, invalidation), (ms, answers, row)))
          configs
      in
      (* all four configurations must agree slot by slot *)
      let (_, (_, reference, _)) = List.hd legs in
      List.iter
        (fun ((topology, invalidation), (_, answers, _)) ->
          Array.iteri
            (fun i a ->
              if a <> reference.(i) then
                flag_wrong
                  (Printf.sprintf "%s+%s at %d%% churn: slot %d answered %s, expected %s"
                     topology invalidation churn_pct i a reference.(i)))
            answers)
        (List.tl legs);
      List.iter
        (fun ((topology, invalidation), (ms, _, r)) ->
          Table.add_row table
            [ string_of_int churn_pct;
              topology ^ "+" ^ invalidation;
              Table.fmt_float ~decimals:1 ms;
              Printf.sprintf "%.0f" r.req_per_s;
              string_of_int r.cache_hits; string_of_int r.compactions;
              string_of_int r.full_freezes
            ])
        legs;
      Table.add_separator table;
      let ms_of key =
        let ms, _, _ = List.assoc key legs in
        ms
      in
      let fast = ms_of ("overlay", "scoped") and slow = ms_of ("refreeze", "full") in
      speedups := (churn_pct, ratio slow fast) :: !speedups)
    [ 1; 5; 20 ];
  Table.print table;
  note "\nspeedup of overlay+scoped over refreeze+full:\n";
  List.iter
    (fun (churn_pct, s) ->
      note "  %2d%% churn: %.2fx\n" churn_pct s;
      (* binding where churn is a real fraction of the load; at 1% the two
         configurations converge and the ratio is machine noise *)
      if (not smoke) && churn_pct >= 5 && s <= 1.0 then
        flag_wrong
          (Printf.sprintf "no speedup at %d%% churn (%.2fx) — the overlay does not pay"
             churn_pct s))
    (List.rev !speedups);
  run_long_stream g;
  if !wrong > 0 then begin
    note "\nE22: %d WRONG line(s)\n" !wrong;
    exit 1
  end;
  note "\nE22: all configurations agree; stale-hit guard never fired\n"
