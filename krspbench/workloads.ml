(* The benchmark's workloads, their end-to-end measurement and the traced
   per-layer run.

   Each workload is a closed loop with one client: the next request goes
   out when the previous answer is back. Requests enter through the
   program's public entry points — Krsp.solve on parsed instances, and
   Engine.handle_line on protocol lines — on an explicit width-1 pool with
   krspd's serving cap of 300 cancellation rounds per guess; every other
   setting is the program's default. Timed windows cover only those calls.
   Every answer is checked afterwards, outside the windows: solutions
   through Check.certify, infeasibility verdicts through
   Check.audit_infeasible.

   The traced run (trace = true) feeds the same inputs to an untraced and
   a traced copy of the program, alternating which goes first, and reads
   per-layer time from the spans the program records under the
   benchmark's own root span, plus counts from the metric registries the
   layers export. *)

module G = Krsp_graph.Digraph
module Io = Krsp_graph.Io
module Instance = Krsp_core.Instance
module Krsp = Krsp_core.Krsp
module Check = Krsp_check.Check
module Engine = Krsp_server.Engine
module Protocol = Krsp_server.Protocol
module Shard = Krsp_server.Shard
module Trace = Krsp_obs.Trace
module Metrics = Krsp_util.Metrics
module Pool = Krsp_util.Pool
module Timer = Krsp_util.Timer

type workload = Solve_k2 | Rsp_k1 | Serve_churn

let names = [ (Solve_k2, "solve-k2"); (Rsp_k1, "rsp-k1"); (Serve_churn, "serve-churn") ]
let name w = List.assoc w names
let of_name s = List.find_map (fun (w, n) -> if n = s then Some w else None) names

(* krspd's per-guess cancellation cap *)
let max_iterations = 300

(* Solvers run on one domain: on a small host, width > 1 turns the
   speculative bisection and the wave root scan into contention noise. *)
let pool_width = 1

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;
  better : string;  (** "higher" or "lower"; "" on per-layer figures *)
}

type report = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let metric ?(samples = 0) ?(better = "") name unit_ value = { name; unit_; value; samples; better }
let per a b = if b = 0 then 0. else a /. float_of_int b
let share a b = if b > 0. then a /. b else 0.
let ms_between t0 t1 = Timer.ns_to_ms (Int64.sub t1 t0)

let timed f =
  let t0 = Timer.now_ns () in
  let x = f () in
  (x, ms_between t0 (Timer.now_ns ()))

(* VmHWM of this process in MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())

(* The program's set-up, timed in samples through the run: three before
   the first timed request — the run uses the first set-up's result — and,
   through [again], one more after any batch that ends [setup_interval_ms]
   or more after the last sample. A sample repeats the set-up back to back
   for at least [setup_sample_ms] and keeps the mean time of one; a single
   set-up of a few milliseconds is too short to time steadily. [median_s]
   gives the median sample, in seconds. A full major collection before
   each sample keeps earlier garbage out of it. *)
type setup_timer = { again : unit -> unit; median_s : unit -> float; samples : unit -> int }

let setup_sample_ms = 100.
let setup_interval_ms = 4000.

let setup f =
  let times = Pct.create () and last = ref 0L in
  let sample () =
    Gc.full_major ();
    let t0 = Timer.now_ns () in
    let x = f () and reps = ref 1 in
    while ms_between t0 (Timer.now_ns ()) < setup_sample_ms do
      ignore (f ());
      incr reps
    done;
    last := Timer.now_ns ();
    Pct.add times (ms_between t0 !last /. float_of_int !reps);
    x
  in
  let first = sample () in
  ignore (sample ());
  ignore (sample ());
  ( first,
    {
      again =
        (fun () ->
          if ms_between !last (Timer.now_ns ()) >= setup_interval_ms then ignore (sample ()));
      median_s = (fun () -> Pct.median times /. 1000.);
      samples = (fun () -> Pct.count times);
    } )

(* --- answer checking ------------------------------------------------------------- *)

type verdict =
  | Answer of { cost : int; lower : int }
  | Confirmed_infeasible
  | Applied  (** a topology event the engine acknowledged *)
  | Wrong of string

let lower_bound (inst : Instance.t) =
  Option.value ~default:0
    (Krsp_flow.Suurballe.min_cost inst.graph ~src:inst.src ~dst:inst.dst ~k:inst.k)

let certify inst (sol : Instance.solution) ~lower =
  let cert = Check.certify ~level:Check.Structural inst sol in
  if Check.ok cert then Answer { cost = sol.cost; lower = lower () }
  else Wrong (Check.to_string cert)

let audit inst claim =
  match Check.audit_infeasible inst claim with
  | Ok () -> Confirmed_infeasible
  | Error msg -> Wrong msg

let check_outcome inst = function
  | Ok (sol, _) -> certify inst sol ~lower:(fun () -> lower_bound inst)
  | Error Krsp.No_k_disjoint_paths -> audit inst Check.Too_few_disjoint_paths
  | Error (Krsp.Delay_bound_unreachable d) -> audit inst (Check.Delay_unreachable d)

(* tallies verdicts into success and the cost ratio's two sums *)
type tally = {
  mutable wrong : int;
  mutable cost_sum : int;
  mutable lower_sum : int;
  mutable first_wrong : string option;
}

let tally () = { wrong = 0; cost_sum = 0; lower_sum = 0; first_wrong = None }

let record tally = function
  | Answer { cost; lower } ->
    tally.cost_sum <- tally.cost_sum + cost;
    tally.lower_sum <- tally.lower_sum + lower
  | Confirmed_infeasible | Applied -> ()
  | Wrong msg ->
    tally.wrong <- tally.wrong + 1;
    if tally.first_wrong = None then tally.first_wrong <- Some msg

(* --- end-to-end metrics ------------------------------------------------------------ *)

let end_to_end ~latencies ~tally ~(setup : setup_timer) =
  let attempted = Pct.count latencies in
  let pct p = Option.fold ~none:0. ~some:(fun r -> r.Pct.value) (Pct.percentile p latencies) in
  ( Pct.supports ~samples:attempted 99.,
    [ metric ~samples:attempted ~better:"higher" "throughput_per_s" "1/s"
        (share (1000. *. float_of_int attempted) (Pct.sum latencies));
      metric ~samples:attempted ~better:"lower" "latency_p50_ms" "ms" (pct 50.);
      metric ~samples:attempted ~better:"lower" "latency_p99_ms" "ms" (pct 99.);
      metric ~samples:(attempted - tally.wrong) ~better:"lower" "cost_ratio" "ratio"
        (per (float_of_int tally.cost_sum) tally.lower_sum);
      metric ~samples:attempted ~better:"higher" "success_frac" "share"
        (per (float_of_int (attempted - tally.wrong)) attempted);
      metric ~samples:(setup.samples ()) ~better:"lower" "setup_s" "s" (setup.median_s ())
    ] )

(* --- traced per-layer accounting ------------------------------------------------------ *)

let span_ms (s : Trace.span) = ms_between s.t_start_ns s.t_end_ns

(* time covered by the spans, each clipped to [lo, hi) *)
let union_ms spans ~lo ~hi =
  let intervals =
    List.filter_map
      (fun (s : Trace.span) ->
        let a = max lo s.t_start_ns and b = min hi s.t_end_ns in
        if Int64.compare a b < 0 then Some (a, b) else None)
      spans
    |> List.sort compare
  in
  let close acc = function Some (a, b) -> acc +. ms_between a b | None -> acc in
  let acc, open_ =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when Int64.compare a cb <= 0 -> (acc, Some (ca, max cb b))
        | _ -> (close acc cur, Some (a, b)))
      (0., None) intervals
  in
  close acc open_

(* what one request's solve did, from Krsp's stats or from the engine's
   attribution on the root span *)
type solve_report = Not_solved | Refused | Answered of { rounds : int; guesses : int; fallback : bool }

let report_of_outcome = function
  | Ok (_, (st : Krsp.stats)) ->
    Answered { rounds = st.iterations; guesses = st.guesses_tried; fallback = st.used_fallback }
  | Error _ -> Refused

let report_of_root_args args =
  let int k = int_of_string (List.assoc k args) in
  match List.assoc_opt "source" args with
  | Some ("cold" | "warm") ->
    Answered { rounds = int "rounds"; guesses = int "guesses"; fallback = List.mem_assoc "fallback" args }
  | Some "infeasible" -> Refused
  | _ -> Not_solved

let bands = Array.length Inputs.delay_scales

type layers = {
  mutable requests : int;
  mutable solves : int;  (** requests that ran Krsp.solve *)
  mutable answered : int;  (** solves that returned a solution *)
  mutable root_ms : float;
  mutable covered_ms : float;
  mutable search_calls : int;
  mutable search_ms : float;
  mutable cancellations : int;
  mutable guesses : int;
  mutable fallbacks : int;
  mutable start_feasible : int;
  mutable phase1_ms : float;
  oracle_calls : int array;  (** per delay band *)
  oracle_ms : float array;
  oracle_counts : int array;  (** final DPs, narrowing tests, gate fallbacks *)
  mutable kept : Trace.span list;  (** spans for the Chrome file, newest first *)
  mutable kept_count : int;
  mutable lossy : int;  (** requests whose spans did not all reach the rings *)
}

let layers () =
  {
    requests = 0; solves = 0; answered = 0; root_ms = 0.; covered_ms = 0.; search_calls = 0;
    search_ms = 0.; cancellations = 0; guesses = 0; fallbacks = 0; start_feasible = 0;
    phase1_ms = 0.; oracle_calls = Array.make bands 0; oracle_ms = Array.make bands 0.;
    oracle_counts = Array.make 3 0; kept = []; kept_count = 0; lossy = 0;
  }

let root_name = "bench.request"

(* the Chrome file keeps the first requests' spans, up to this many *)
let chrome_span_cap = 100_000

let counter registry name = Metrics.value (Metrics.counter registry name)

let oracle_counters () =
  let c = counter Krsp_rsp.Rsp_engine.metrics in
  [| c "rsp.oracle_final_dps"; c "rsp.oracle_narrow_tests"; c "rsp.oracle_gate_fallbacks" |]

(* Runs one traced request under a fresh root span, then drains the rings
   — so the 16 384-span overwrite-oldest rings can never wrap — and books
   the request's spans. [f] gets the context and returns the request's
   result with the report of the solve it ran. A request that lost a span
   is counted in [lossy], which fails the run, and not booked. *)
let rec traced layers ~band f =
  Trace.clear ();
  let ctx = Option.get (Trace.start ()) in
  let before = oracle_counters () in
  let result, solve = f ctx in
  ignore (Trace.finish ctx root_name);
  Array.iteri
    (fun i c -> layers.oracle_counts.(i) <- layers.oracle_counts.(i) + c - before.(i))
    (oracle_counters ());
  let spans = Trace.events () in
  Trace.clear ();
  match List.filter (fun (s : Trace.span) -> s.name = root_name) spans with
  | [ root ]
    when List.length spans = Trace.span_count ctx + 1
         && not (List.mem_assoc "spans_dropped" root.args) ->
    book layers ~band ~spans ~root
      (match solve with Some s -> s | None -> report_of_root_args (Trace.root_args ctx));
    result
  | _ ->
    layers.lossy <- layers.lossy + 1;
    result

and book layers ~band ~spans ~(root : Trace.span) solve =
  let children = List.filter (fun s -> s != root) spans in
  let named n = List.filter (fun (s : Trace.span) -> s.name = n) children in
  let total l = List.fold_left (fun a s -> a +. span_ms s) 0. l in
  layers.requests <- layers.requests + 1;
  layers.root_ms <- layers.root_ms +. span_ms root;
  layers.covered_ms <- layers.covered_ms +. union_ms children ~lo:root.t_start_ns ~hi:root.t_end_ns;
  let searches = named "round.search" in
  layers.search_calls <- layers.search_calls + List.length searches;
  layers.search_ms <- layers.search_ms +. total searches +. total (named "round.residual");
  let oracle = named "oracle.solve" in
  layers.oracle_calls.(band) <- layers.oracle_calls.(band) + List.length oracle;
  layers.oracle_ms.(band) <- layers.oracle_ms.(band) +. total oracle;
  if solve <> Not_solved then begin
    layers.solves <- layers.solves + 1;
    (* the connectivity and min-delay feasibility checks run before the
       solve's first span: book that gap too *)
    let job = match named "solve.job" with [ j ] -> j | _ -> root in
    let first =
      List.fold_left
        (fun a (s : Trace.span) ->
          if s != job && Int64.compare s.t_start_ns job.t_start_ns >= 0 then min a s.t_start_ns
          else a)
        job.t_end_ns children
    in
    layers.phase1_ms <-
      layers.phase1_ms +. ms_between job.t_start_ns first +. total (named "solve.phase1")
      +. total (named "solve.min_delay_bound")
  end;
  (match solve with
  | Answered { rounds; guesses; fallback } ->
    layers.answered <- layers.answered + 1;
    layers.cancellations <- layers.cancellations + rounds;
    layers.guesses <- layers.guesses + guesses;
    if fallback then layers.fallbacks <- layers.fallbacks + 1;
    if guesses = 0 then layers.start_feasible <- layers.start_feasible + 1
  | Refused | Not_solved -> ());
  let count = List.length spans in
  if layers.kept_count + count <= chrome_span_cap then begin
    layers.kept <- List.rev_append spans layers.kept;
    layers.kept_count <- layers.kept_count + count
  end

(* the kept spans as Chrome trace-event JSON, one lane per domain *)
let chrome_json spans =
  let t0 = List.fold_left (fun a (s : Trace.span) -> min a s.t_start_ns) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t t0) /. 1000. in
  let event (s : Trace.span) =
    Printf.sprintf "{\"ph\":\"X\",\"name\":%S,\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
      s.name s.lane (us s.t_start_ns)
      (us s.t_end_ns -. us s.t_start_ns)
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) s.args))
  in
  "{\"traceEvents\":[" ^ String.concat "," (List.rev_map event spans) ^ "]}"

let write_chrome layers ~path =
  let json = chrome_json layers.kept in
  match Trace.Json.validate_chrome json with
  | Error msg -> Error ("Chrome export rejected: " ^ msg)
  | Ok events ->
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc json))
      path;
    Ok events

(* Per solve, except the cycle search's per-call figures and the oracle's
   per-call times. *)
let layer_metrics l =
  let calls = Array.fold_left ( + ) 0 l.oracle_calls in
  [ metric "cycle_search.calls_per_solve" "count" (per (float_of_int l.search_calls) l.solves);
    metric "cycle_search.ms_per_call" "ms" (per l.search_ms l.search_calls);
    metric "cycle_search.yield" "share" (per (float_of_int l.cancellations) l.search_calls);
    metric "cycle_search.time_share" "share" (share l.search_ms l.root_ms);
    metric "krsp.guesses_per_solve" "count" (per (float_of_int l.guesses) l.answered);
    metric "krsp.cancellations_per_solve" "count" (per (float_of_int l.cancellations) l.answered);
    metric "krsp.fallback_frac" "share" (per (float_of_int l.fallbacks) l.answered);
    metric "phase1.ms_per_solve" "ms" (per l.phase1_ms l.solves);
    metric "phase1.start_feasible_frac" "share" (per (float_of_int l.start_feasible) l.answered);
    metric "oracle.calls_per_solve" "count" (per (float_of_int calls) l.solves);
    metric "oracle.ms_per_call" "ms" (per (Array.fold_left ( +. ) 0. l.oracle_ms) calls)
  ]
  @ List.init bands (fun b ->
        metric (Printf.sprintf "oracle.ms_per_call.band%d" (b + 1)) "ms"
          (per l.oracle_ms.(b) l.oracle_calls.(b)))
  @ List.mapi
      (fun i name -> metric name "count" (per (float_of_int l.oracle_counts.(i)) l.solves))
      [ "oracle.final_dps"; "oracle.narrow_tests"; "oracle.gate_fallbacks" ]
  @ [ metric "trace.uncovered_frac" "share" (share (l.root_ms -. l.covered_ms) l.root_ms) ]

(* Allocation over the untraced half of a traced run, per request, and
   its major collections per thousand requests. *)
type gc_meter = { mutable alloc_words : float; mutable majors : int; mutable requests : int }

let gc_meter () = { alloc_words = 0.; majors = 0; requests = 0 }

let metered m f =
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  m.alloc_words <- m.alloc_words +. words s1 -. words s0;
  m.majors <- m.majors + s1.major_collections - s0.major_collections;
  m.requests <- m.requests + 1;
  x

let gc_metrics m =
  [ metric "gc.peak_rss_mb" "MB" (peak_rss_mb ());
    metric "gc.alloc_mb_per_request" "MB"
      (per (m.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6) m.requests);
    metric "gc.major_collections_per_1k" "count" (per (1000. *. float_of_int m.majors) m.requests)
  ]

(* The serving layers' view of a traced serve-churn run: shares of SOLVE
   requests, medians per request class, and engine, repair and view
   counts over the whole run. All zero on the solve workloads, which do
   not load these layers. *)
type serve_view = {
  hit_ms : Pct.samples;
  warm_ms : Pct.samples;
  cold_ms : Pct.samples;
  infeasible_ms : Pct.samples;
  mutation_ms : Pct.samples;
  all_ms : float;
  engine : Metrics.t option;
  topo : G.topo_stats option;
  repair : int * int;
  parse_us : Pct.samples;
  print_us : Pct.samples;
  handoff_ms : Pct.samples;
}

let empty_view () =
  {
    hit_ms = Pct.create (); warm_ms = Pct.create (); cold_ms = Pct.create ();
    infeasible_ms = Pct.create (); mutation_ms = Pct.create (); all_ms = 0.; engine = None;
    topo = None; repair = (0, 0); parse_us = Pct.create (); print_us = Pct.create ();
    handoff_ms = Pct.create ();
  }

let serve_metrics v =
  let n = Pct.count in
  let solves = n v.hit_ms + n v.warm_ms + n v.cold_ms + n v.infeasible_ms in
  let frac c = per (float_of_int c) solves in
  let engine name = match v.engine with Some r -> float_of_int (counter r name) | None -> 0. in
  let topo f = match v.topo with Some s -> float_of_int (f s) | None -> 0. in
  let p50 name s = metric ~samples:(n s) name "ms" (Pct.median s) in
  [ metric "engine.hit_frac" "share" (frac (n v.hit_ms));
    metric "engine.warm_frac" "share" (frac (n v.warm_ms));
    metric "engine.cold_frac" "share" (frac (n v.cold_ms));
    metric "engine.infeasible_frac" "share" (frac (n v.infeasible_ms));
    metric "engine.cold_time_share" "share" (share (Pct.sum v.cold_ms) v.all_ms);
    p50 "engine.hit_ms_p50" v.hit_ms;
    p50 "engine.warm_ms_p50" v.warm_ms;
    p50 "engine.cold_ms_p50" v.cold_ms;
    p50 "engine.mutation_ms_p50" v.mutation_ms;
    metric "engine.invalidated_per_mutation" "count"
      (per (engine "topo.invalidated_entries") (n v.mutation_ms));
    metric "engine.scoped_invalidations" "count" (engine "topo.scoped_invalidations");
    metric "engine.full_invalidations" "count" (engine "topo.full_invalidations");
    metric "engine.stale_hits_dropped" "count" (engine "topo.stale_hits_dropped");
    metric "repair.single_hits" "count" (float_of_int (fst v.repair));
    metric "repair.single_fallbacks" "count" (float_of_int (snd v.repair));
    metric "digraph.full_freezes" "count" (topo (fun s -> s.G.full_freezes));
    metric "digraph.overlay_freezes" "count" (topo (fun s -> s.G.overlay_freezes));
    metric "digraph.compactions" "count" (topo (fun s -> s.G.compactions));
    metric "digraph.patched_edges" "count" (topo (fun s -> s.G.patched_edges));
    metric ~samples:(n v.parse_us) "protocol.parse_us" "us" (Pct.median v.parse_us);
    metric ~samples:(n v.print_us) "protocol.print_us" "us" (Pct.median v.print_us);
    p50 "shard.handoff_ms_p50" v.handoff_ms
  ]

(* A fixed integer loop. Its time marks runs taken while the host was
   slow; it never scales a metric. *)
let calibration_ms () =
  snd
    (timed (fun () ->
         let acc = ref 0 in
         for i = 1 to 20_000_000 do
           acc := ((!acc * 31) + i) land 0xFFFFFF
         done;
         ignore (Sys.opaque_identity !acc)))

(* --- driving the closed loop ---------------------------------------------------------- *)

type outcome = { report : report; correct : bool }

let with_pool f =
  let pool = Pool.create ~size:pool_width () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Feeds batches of inputs to [step] until its timed windows add up to
   [seconds]. Each batch comes from [make] before its first timed step and
   goes to [settle], with the count of its inputs used, after its last:
   generation, parsing and checking stay outside the windows. Returns the
   number of inputs used. *)
let drive ~seconds ~make ~step ~settle =
  let budget = seconds *. 1000. and spent = ref 0. and total = ref 0 in
  while !spent < budget do
    let batch = make () in
    let used = ref 0 in
    while !used < Array.length batch && !spent < budget do
      spent := !spent +. step !used batch.(!used);
      incr used
    done;
    settle batch !used;
    total := !total + !used
  done;
  !total

let finish ~attempted ~tally ~checks ~metrics ~notes =
  let failures = List.filter_map (fun (ok, what) -> if ok then None else Some what) checks in
  {
    report =
      {
        attempted;
        failed = tally.wrong;
        metrics;
        notes =
          notes
          @ (match tally.first_wrong with Some w -> [ "first wrong answer: " ^ w ] | None -> [])
          @ List.map (fun f -> "check failed: " ^ f) failures;
      };
    correct = tally.wrong = 0 && failures = [];
  }

let trace_checks layers chrome =
  [ (layers.lossy = 0, Printf.sprintf "%d traced requests lost spans" layers.lossy);
    (match chrome with Ok _ -> (true, "") | Error msg -> (false, msg))
  ]

let chrome_note = function Ok n -> string_of_int n | Error msg -> msg

(* --- solve-k2 and rsp-k1: cold Krsp.solve over distinct instances -------------------- *)

let batch_size = 256

let parse_query (q : Inputs.query) =
  Instance.create (Io.of_edge_list q.edges) ~src:q.src ~dst:q.dst ~k:q.k ~delay_bound:q.delay_bound

let generator w ~seed =
  match w with
  | Solve_k2 -> Inputs.solve_k2 ~seed
  | Rsp_k1 -> Inputs.rsp_k1 ~seed
  | Serve_churn -> invalid_arg "Workloads.generator"

let solve pool ?trace inst = Krsp.solve inst ?trace ~max_iterations ~pool ()

let same_answer a b =
  match (a, b) with
  | Ok ((x : Instance.solution), _), Ok ((y : Instance.solution), _) ->
    x.paths = y.paths && x.cost = y.cost && x.delay = y.delay
  | Error x, Error y -> x = y
  | _ -> false

(* Set-up is parsing the first batch: its instances are the ones loaded
   before the first timed request. Later batches parse untimed. *)
let run_solves w ~seed ~seconds =
  let next = generator w ~seed in
  let generate () = Array.init batch_size (fun _ -> next ()) in
  with_pool @@ fun pool ->
  let first = generate () in
  let parsed, setup = setup (fun () -> Array.map parse_query first) in
  let pending = ref (Some (Array.combine first parsed)) in
  let make () =
    match !pending with
    | Some b ->
      pending := None;
      b
    | None -> Array.map (fun q -> (q, parse_query q)) (generate ())
  in
  let outcomes = Array.make batch_size None and latencies = Pct.create ()
  and tally = tally () in
  let step i (_, inst) =
    let r, ms = timed (fun () -> solve pool inst) in
    outcomes.(i) <- Some r;
    Pct.add latencies ms;
    ms
  in
  let settle batch used =
    for i = 0 to used - 1 do
      record tally (check_outcome (fst batch.(i)).Inputs.reference (Option.get outcomes.(i)))
    done;
    setup.again ()
  in
  let n = drive ~seconds ~make ~step ~settle in
  let tail_ok, metrics =
    end_to_end ~latencies ~tally ~setup
  in
  finish ~attempted:n ~tally ~metrics
    ~checks:[ (tail_ok, "too few requests for the tail percentile") ]
    ~notes:[ Printf.sprintf "instances solved: %d" n ]

let run_solves_traced w ~seed ~seconds ~chrome =
  let next = generator w ~seed in
  with_pool @@ fun pool ->
  let layers = layers () and gc = gc_meter () and tally = tally () in
  let untraced_ms = ref 0. and traced_ms = ref 0. in
  let make () =
    Array.init batch_size (fun _ ->
        let q = next () in
        (q, parse_query q, parse_query q))
  in
  let answers = Array.make batch_size None in
  let step i ((q : Inputs.query), plain, instrumented) =
    let run_plain () =
      let r, ms = metered gc (fun () -> timed (fun () -> solve pool plain)) in
      untraced_ms := !untraced_ms +. ms;
      (r, ms)
    in
    let run_traced () =
      traced layers ~band:q.band (fun ctx ->
          let r, ms = timed (fun () -> solve pool ~trace:ctx instrumented) in
          traced_ms := !traced_ms +. ms;
          ((r, ms), Some (report_of_outcome r)))
    in
    let (a, a_ms), (b, b_ms) =
      if i mod 2 = 0 then
        let a = run_plain () in
        (a, run_traced ())
      else
        let b = run_traced () in
        (run_plain (), b)
    in
    answers.(i) <- Some (a, b);
    a_ms +. b_ms
  in
  let settle batch used =
    for i = 0 to used - 1 do
      let q, _, _ = batch.(i) in
      let a, b = Option.get answers.(i) in
      record tally
        (if same_answer a b then check_outcome q.Inputs.reference a
         else Wrong "traced and untraced answers differ")
    done
  in
  Trace.set_policy Trace.All;
  let n = Fun.protect ~finally:Trace.reset_policy (fun () -> drive ~seconds ~make ~step ~settle) in
  let chrome = write_chrome layers ~path:chrome in
  finish ~attempted:n ~tally
    ~metrics:
      (layer_metrics layers @ serve_metrics (empty_view ()) @ gc_metrics gc
      @ [ metric "trace.overhead_frac" "share" (share (!traced_ms -. !untraced_ms) !untraced_ms) ])
    ~checks:(trace_checks layers chrome)
    ~notes:
      [ Printf.sprintf "instances solved untraced and traced: %d; Chrome spans: %s" n
          (chrome_note chrome)
      ]

(* --- serve-churn: one Engine under a Zipf query stream with link churn ---------------- *)

let serve_batch = 4096
let engine_config = { Engine.default_config with Engine.max_iterations }

(* Set-up is loading the topology, creating the engine and one warm-up
   SOLVE per distinct key. *)
let serve_setup (sv : Inputs.serve) pool () =
  let engine = Engine.create ~config:engine_config ~pool (Io.of_edge_list sv.topology) in
  let warm = Array.map (Engine.handle_line engine) (Inputs.warmup_lines sv) in
  (engine, warm)

(* the edge-id path behind a reply's vertex sequence; the generator never
   makes parallel edges, so each hop names one live edge *)
let edge_path g vertices =
  let rec go acc = function
    | u :: (v :: _ as rest) -> (
      match List.find_opt (fun e -> G.dst g e = v) (G.out_edges g u) with
      | Some e -> go (e :: acc) rest
      | None -> None)
    | _ -> Some (List.rev acc)
  in
  go [] vertices

let strip_ms reply =
  String.split_on_char ' ' reply
  |> List.filter (fun t -> not (String.starts_with ~prefix:"ms=" t))
  |> String.concat " "

(* Checks replies against a shadow replica of the engine's topology,
   advanced op by op. Until the next topology event, a key's lower bound
   and the verdict on each distinct reply to it (timing field aside) are
   memoised: a repeated cache hit is checked once. *)
type checker = {
  shadow : Inputs.Shadow.t;
  lowers : (int * int * int, int) Hashtbl.t;
  verdicts : (Inputs.key * string, verdict) Hashtbl.t;
}

let checker (sv : Inputs.serve) =
  {
    shadow = Inputs.Shadow.create (Io.of_edge_list sv.topology);
    lowers = Hashtbl.create 256;
    verdicts = Hashtbl.create 256;
  }

let check_reply c (key : Inputs.key) reply =
  let g = Inputs.Shadow.graph c.shadow in
  let inst = Instance.create g ~src:key.s ~dst:key.t ~k:key.kk ~delay_bound:key.d in
  let lower () =
    let slot = (key.s, key.t, key.kk) in
    match Hashtbl.find_opt c.lowers slot with
    | Some l -> l
    | None ->
      let l = lower_bound inst in
      Hashtbl.replace c.lowers slot l;
      l
  in
  match Protocol.parse_response reply with
  | Ok (Protocol.Solution { cost; delay; paths; _ }) ->
    let edges = List.map (edge_path g) paths in
    if List.mem None edges then Wrong ("path over a missing link: " ^ reply)
    else certify inst { Instance.paths = List.map Option.get edges; cost; delay } ~lower
  | Ok (Protocol.Err Protocol.Infeasible_disjoint) -> audit inst Check.Too_few_disjoint_paths
  | Ok (Protocol.Err (Protocol.Infeasible_delay d)) -> audit inst (Check.Delay_unreachable d)
  | Ok _ | Error _ -> Wrong reply

let check_solve c key reply =
  let memo = (key, strip_ms reply) in
  match Hashtbl.find_opt c.verdicts memo with
  | Some v -> v
  | None ->
    let v = check_reply c key reply in
    Hashtbl.replace c.verdicts memo v;
    v

let check_op c op reply =
  match op with
  | Inputs.Solve key -> check_solve c key reply
  | op ->
    Inputs.Shadow.apply c.shadow op;
    Hashtbl.reset c.lowers;
    Hashtbl.reset c.verdicts;
    if String.starts_with ~prefix:"MUTATED " reply then Applied else Wrong reply

let check_warmup c (sv : Inputs.serve) warm =
  let t = tally () in
  Array.iteri (fun i key -> record t (check_solve c key warm.(i))) sv.keys;
  t.wrong = 0

let serve_batch_of (sv : Inputs.serve) () =
  Array.init serve_batch (fun _ ->
      let op = sv.next () in
      (op, Inputs.line_of_op op))

let run_serve ~seed ~seconds =
  let sv = Inputs.serve_churn ~seed in
  with_pool @@ fun pool ->
  let (engine, warm), setup = setup (serve_setup sv pool) in
  let c = checker sv in
  let warm_ok = check_warmup c sv warm in
  let replies = Array.make serve_batch "" and latencies = Pct.create ()
  and tally = tally () in
  let step i (_, line) =
    let reply, ms = timed (fun () -> Engine.handle_line engine line) in
    replies.(i) <- reply;
    Pct.add latencies ms;
    ms
  in
  let settle batch used =
    for i = 0 to used - 1 do
      record tally (check_op c (fst batch.(i)) replies.(i))
    done;
    setup.again ()
  in
  let n = drive ~seconds ~make:(serve_batch_of sv) ~step ~settle in
  let tail_ok, metrics =
    end_to_end ~latencies ~tally ~setup
  in
  finish ~attempted:n ~tally ~metrics
    ~checks:
      [ (tail_ok, "too few requests for the tail percentile");
        (warm_ok, "a warm-up answer failed its check")
      ]
    ~notes:[ Printf.sprintf "fat-tree with %d keys; lines served: %d" (Array.length sv.keys) n ]

(* The traced serve run drives three replicas in lockstep, rotating which
   goes first: the untraced engine (end-to-end path, class latencies,
   engine and topology counters), a traced engine fed parsed requests
   (spans, protocol costs) and a 1-shard fleet (the handoff cost). *)
let run_serve_traced ~seed ~seconds ~chrome =
  let sv = Inputs.serve_churn ~seed in
  with_pool @@ fun pool ->
  let plain, warm = serve_setup sv pool () in
  let instrumented, _ = serve_setup sv pool () in
  let fleet = Shard.create ~config:engine_config ~shards:1 (Io.of_edge_list sv.topology) in
  Fun.protect ~finally:(fun () -> Shard.shutdown fleet) @@ fun () ->
  Array.iter (fun l -> ignore (Shard.handle_line fleet l)) (Inputs.warmup_lines sv);
  let c = checker sv in
  let warm_ok = check_warmup c sv warm in
  let layers = layers () and gc = gc_meter () and tally = tally () and v = empty_view () in
  let untraced_ms = ref 0. and traced_ms = ref 0. and mismatches = ref 0 in
  let repairs () =
    (counter Krsp.metrics "solver.repair_single_hits", counter Krsp.metrics "solver.repair_single_fallbacks")
  in
  let single_hits = ref 0 and single_fallbacks = ref 0 in
  let replies = Array.make serve_batch "" in
  let step i (_, line) =
    let run_plain () =
      let reply, ms = metered gc (fun () -> timed (fun () -> Engine.handle_line plain line)) in
      untraced_ms := !untraced_ms +. ms;
      (reply, ms)
    in
    let run_traced () =
      traced layers ~band:0 (fun ctx ->
          let request, p_ms = timed (fun () -> Protocol.parse_request line) in
          let h0, f0 = repairs () in
          let response, ms =
            match request with
            | Ok r -> timed (fun () -> Engine.handle instrumented ~trace:ctx r)
            | Error _ -> (Protocol.Err (Protocol.Bad_request line), 0.)
          in
          let h1, f1 = repairs () in
          single_hits := !single_hits + h1 - h0;
          single_fallbacks := !single_fallbacks + f1 - f0;
          let reply, r_ms = timed (fun () -> Protocol.print_response response) in
          Pct.add v.parse_us (1000. *. p_ms);
          Pct.add v.print_us (1000. *. r_ms);
          traced_ms := !traced_ms +. p_ms +. ms +. r_ms;
          ((reply, p_ms +. ms +. r_ms), None))
    in
    let run_fleet () =
      Trace.set_policy Trace.Off;
      let r = timed (fun () -> Shard.handle_line fleet line) in
      Trace.set_policy Trace.All;
      r
    in
    let (reply, ms), (traced_reply, t_ms), (fleet_reply, fleet_ms) =
      match i mod 3 with
      | 0 ->
        let a = run_plain () in
        let b = run_traced () in
        (a, b, run_fleet ())
      | 1 ->
        let b = run_traced () in
        let f = run_fleet () in
        (run_plain (), b, f)
      | _ ->
        let f = run_fleet () in
        let a = run_plain () in
        (a, run_traced (), f)
    in
    if strip_ms reply <> strip_ms traced_reply || strip_ms reply <> strip_ms fleet_reply then
      incr mismatches;
    replies.(i) <- reply;
    Pct.add v.handoff_ms (fleet_ms -. ms);
    Pct.add
      (match Protocol.parse_response reply with
      | Ok (Protocol.Solution { source = Protocol.Cache_hit; _ }) -> v.hit_ms
      | Ok (Protocol.Solution { source = Protocol.Warm_start; _ }) -> v.warm_ms
      | Ok (Protocol.Solution { source = Protocol.Cold; _ }) -> v.cold_ms
      | Ok (Protocol.Mutated _) -> v.mutation_ms
      | _ -> v.infeasible_ms)
      ms;
    ms +. t_ms +. fleet_ms
  in
  let settle batch used =
    for i = 0 to used - 1 do
      record tally (check_op c (fst batch.(i)) replies.(i))
    done
  in
  Trace.set_policy Trace.All;
  let n =
    Fun.protect ~finally:Trace.reset_policy (fun () ->
        drive ~seconds ~make:(serve_batch_of sv) ~step ~settle)
  in
  let view =
    {
      v with
      all_ms = !untraced_ms;
      engine = Some (Engine.metrics plain);
      topo = Some (G.topo_stats (Engine.live_graph plain));
      repair = (!single_hits, !single_fallbacks);
    }
  in
  let chrome = write_chrome layers ~path:chrome in
  finish ~attempted:n ~tally
    ~metrics:
      (layer_metrics layers @ serve_metrics view @ gc_metrics gc
      @ [ metric "trace.overhead_frac" "share" (share (!traced_ms -. !untraced_ms) !untraced_ms) ])
    ~checks:
      (trace_checks layers chrome
      @ [ (warm_ok, "a warm-up answer failed its check");
        ( !mismatches = 0,
          Printf.sprintf "%d replies differ between the engine, the traced engine and the shard"
            !mismatches )
        ])
    ~notes:
      [ Printf.sprintf
          "lines served by the engine, a traced engine and a 1-shard fleet: %d; Chrome spans: %s" n
          (chrome_note chrome)
      ]

(* --- entry point --------------------------------------------------------------------- *)

let run w ~seed ~seconds ~trace ~chrome =
  let cal0 = calibration_ms () in
  let outcome =
    match (w, trace) with
    | (Solve_k2 | Rsp_k1), false -> run_solves w ~seed ~seconds
    | (Solve_k2 | Rsp_k1), true -> run_solves_traced w ~seed ~seconds ~chrome
    | Serve_churn, false -> run_serve ~seed ~seconds
    | Serve_churn, true -> run_serve_traced ~seed ~seconds ~chrome
  in
  let cal1 = calibration_ms () in
  let r = outcome.report in
  let calibration = metric "host.calibration_ms" "ms" ((cal0 +. cal1) /. 2.) in
  {
    outcome with
    report =
      {
        r with
        metrics = (if trace then r.metrics @ [ calibration ] else r.metrics);
        notes = r.notes @ [ Printf.sprintf "host calibration: %.1f ms at start, %.1f ms at end" cal0 cal1 ];
      };
  }
