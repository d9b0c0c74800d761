module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module Metrics = Krsp_util.Metrics

type engine = Dp | Lp

(* Process-wide attribution of solver time to the three phases of one
   cancellation round. Histograms, not a profiler: cheap enough to stay on
   in production serving, precise enough to tell whether residual rebuild,
   cycle search, or the ⊕-augmentation dominates a regression. *)
let metrics = Metrics.create ()

let h_residual = Metrics.histogram metrics "solver.residual_build_ms"
let h_search = Metrics.histogram metrics "solver.cycle_search_ms"
let h_augment = Metrics.histogram metrics "solver.augment_ms"

(* Speculation accounting for the parallel guess bisection: launched = a
   flanking guess was evaluated concurrently with the midpoint, hit = the
   bisection's next midpoint was exactly the speculated guess (result
   consumed for free), wasted = the speculation ran but the search went the
   other way. *)
let c_spec_launched = Metrics.counter metrics "solver.spec_launched"
let c_spec_hits = Metrics.counter metrics "solver.spec_hits"
let c_spec_wasted = Metrics.counter metrics "solver.spec_wasted"

(* Warm-repair accounting: single = the Bhandari one-augmentation path
   re-routed the lone damaged path, fallback = a single-event repair had
   to drop to the full Suurballe re-route (negative residual cycle or an
   undecomposable difference). *)
let c_repair_single = Metrics.counter metrics "solver.repair_single_hits"
let c_repair_single_fallback = Metrics.counter metrics "solver.repair_single_fallbacks"

module Trace = Krsp_obs.Trace

(* Phase timing feeds the histogram always and, for traced requests, a
   span too — one clock pair serves both, so tracing adds no extra clock
   reads to the round. *)
let timed_span trace h name f =
  let t0 = Krsp_util.Timer.now_ns () in
  let result = f () in
  let t1 = Krsp_util.Timer.now_ns () in
  Metrics.observe h (Krsp_util.Timer.ns_to_ms (Int64.sub t1 t0));
  (match trace with
  | None -> ()
  | Some ctx -> Trace.record ctx name ~t_start_ns:t0 ~t_end_ns:t1);
  result

type stats = {
  iterations : int;
  type0 : int;
  type1 : int;
  type2 : int;
  guesses_tried : int;
  final_guess : int;
  used_fallback : bool;
  warm_started : bool;
}

type error =
  | No_k_disjoint_paths
  | Delay_bound_unreachable of int

type outcome = (Instance.solution * stats, error) Stdlib.result

let log = Logs.Src.create "krsp" ~doc:"kRSP cycle cancellation"

module L = (val Logs.src_log log : Logs.LOG)

let find_cycle engine ~exhaustive ?numeric res ~ctx ~bound =
  match engine with
  | Dp -> Cycle_search_dp.find res ~ctx ~bound ~exhaustive ()
  | Lp -> Cycle_search_lp.find ?numeric res ~ctx ~bound ~exhaustive ()

let improve t ~start ~guess ?trace ?(engine = Dp) ?(exhaustive = false) ?numeric
    ?(max_iterations = 2_000) ?(stall_limit = 40) ?arena () =
  let g = t.Instance.graph in
  let total_abs_cost = G.fold_edges g ~init:0 ~f:(fun acc e -> acc + abs (G.cost g e)) in
  (* Arena reuse: the doubled residual graph is shared by every round (and,
     via ?arena, by every guess of the outer search) — per round the only
     residual work is an O(m) mask refill. *)
  let arena = match arena with Some a -> a | None -> Residual.arena g in
  let bound = max 1 (min guess total_abs_cost) in
  (* stall detection: a guess that has not produced a new minimum delay for
     [stall_limit] iterations is hopeless (type-2 trade-backs are cycling);
     abort it so the guess search can move on *)
  let best_delay = ref max_int in
  let since_best = ref 0 in
  let rec loop paths iterations t0 t1 t2 =
    let sol = Instance.solution_of_paths t paths in
    if sol.Instance.delay < !best_delay then begin
      best_delay := sol.Instance.delay;
      since_best := 0
    end
    else incr since_best;
    if sol.Instance.delay <= t.Instance.delay_bound then
      Some (sol, iterations, t0, t1, t2)
    else if iterations >= max_iterations || !since_best > stall_limit then begin
      L.warn (fun m -> m "cap/stall hit at guess %d after %d iterations" guess iterations);
      None
    end
    else begin
      let res = timed_span trace h_residual "round.residual" (fun () -> Residual.of_arena arena ~paths) in
      let ctx =
        {
          Bicameral.delta_d = t.Instance.delay_bound - sol.Instance.delay;
          delta_c = guess - sol.Instance.cost;
          cost_cap = guess;
        }
      in
      let cycle =
        timed_span trace h_search "round.search" (fun () ->
            find_cycle engine ~exhaustive ?numeric res ~ctx ~bound)
      in
      match cycle with
      | None -> None
      | Some cand ->
        let paths' =
          timed_span trace h_augment "round.augment" (fun () ->
              let edges =
                Residual.apply_cycle res ~current:(Instance.edge_set sol)
                  ~cycle:cand.Cycle_search_dp.edges
              in
              fst
                (Krsp_graph.Walk.decompose_st g ~src:t.Instance.src ~dst:t.Instance.dst
                   ~k:t.Instance.k edges))
        in
        let t0, t1, t2 =
          match cand.Cycle_search_dp.kind with
          | Bicameral.Type0 -> (t0 + 1, t1, t2)
          | Bicameral.Type1 -> (t0, t1 + 1, t2)
          | Bicameral.Type2 -> (t0, t1, t2 + 1)
        in
        loop paths' (iterations + 1) t0 t1 t2
    end
  in
  loop start 0 0 0 0

(* Bhandari/Suurballe single-event repair: with k-1 surviving disjoint
   paths, the k-th costs one shortest-path run in the residual where every
   surviving edge is reversed with its weight negated — no graph copy, no
   k-commodity flow. The reversed arcs are negative, so the search is a
   Bellman-Ford over the live edges; the symmetric difference of the
   survivors with the found s→t walk is k disjoint paths again (the
   classic disjoint-pair recipe, SNIPPETS.md's Bhandari template). The
   survivors need not be a min-cost (k-1)-flow, so the residual may hold
   a negative cycle — detected and answered with [None] (the caller falls
   back to the full re-route); the result is best-effort on weight either
   way, exactly like every warm repair. *)
let bhandari t ~used ~weight =
  let g = t.Instance.graph in
  let n = G.n g in
  let src = t.Instance.src and dst = t.Instance.dst in
  let dist = Array.make n max_int in
  let par = Array.make n (-1) in
  let par_rev = Array.make n false in
  dist.(src) <- 0;
  let changed = ref true in
  let rounds = ref 0 in
  let neg_cycle = ref false in
  while !changed && not !neg_cycle do
    changed := false;
    incr rounds;
    G.iter_edges g (fun e ->
        let rev = Hashtbl.mem used e in
        let u = if rev then G.dst g e else G.src g e in
        if dist.(u) < max_int then begin
          let v = if rev then G.src g e else G.dst g e in
          let w = if rev then -weight e else weight e in
          if dist.(u) + w < dist.(v) then begin
            dist.(v) <- dist.(u) + w;
            par.(v) <- e;
            par_rev.(v) <- rev;
            changed := true
          end
        end);
    if !rounds > n then neg_cycle := true
  done;
  if !neg_cycle || dist.(dst) = max_int then None
  else begin
    (* walk the parent arcs dst→src, folding the symmetric difference *)
    let in_sol = Hashtbl.copy used in
    let ok = ref true in
    let steps = ref 0 in
    let v = ref dst in
    while !ok && !v <> src do
      incr steps;
      let e = if !steps > G.m g + 1 then -1 else par.(!v) in
      if e < 0 then ok := false
      else if par_rev.(!v) then begin
        Hashtbl.remove in_sol e;
        v := G.dst g e
      end
      else begin
        Hashtbl.replace in_sol e ();
        v := G.src g e
      end
    done;
    if not !ok then None
    else begin
      let edges = Hashtbl.fold (fun e () acc -> e :: acc) in_sol [] in
      let paths, cycles =
        Krsp_graph.Walk.decompose_st g ~src ~dst ~k:t.Instance.k edges
      in
      if cycles = [] && Instance.is_structurally_valid t paths then Some paths else None
    end
  end

let repair t ~paths =
  let g = t.Instance.graph in
  let m = G.m g in
  let valid p =
    p <> []
    && List.for_all (fun e -> e >= 0 && e < m) p
    && Path.is_valid g ~src:t.Instance.src ~dst:t.Instance.dst p
  in
  (* greedily keep up to k intact, mutually disjoint paths *)
  let used = Hashtbl.create 64 in
  let kept =
    List.fold_left
      (fun acc p ->
        if List.length acc >= t.Instance.k then acc
        else if valid p && List.for_all (fun e -> not (Hashtbl.mem used e)) p then begin
          List.iter (fun e -> Hashtbl.replace used e ()) p;
          p :: acc
        end
        else acc)
      [] paths
    |> List.rev
  in
  let missing = t.Instance.k - List.length kept in
  if missing = 0 then Some kept
  else begin
    (* Suurballe re-route of only the damaged paths, avoiding the kept
       ones; [weight] picks the metric the re-route minimises *)
    let reroute weight =
      let sub, new_of_old =
        G.filter_map_edges g ~f:(fun e ->
            if Hashtbl.mem used e then None else Some (weight e, G.delay g e))
      in
      let old_of_new = Array.make (G.m sub) (-1) in
      Array.iteri
        (fun old_e new_e -> if new_e >= 0 then old_of_new.(new_e) <- old_e)
        new_of_old;
      match
        Krsp_flow.Suurballe.solve sub ~src:t.Instance.src ~dst:t.Instance.dst ~k:missing
      with
      | None -> None
      | Some rerouted ->
        let all = kept @ List.map (List.map (fun e -> old_of_new.(e))) rerouted in
        if Instance.is_structurally_valid t all then Some all else None
    in
    let total_delay all = List.fold_left (fun acc p -> acc + Path.delay g p) 0 all in
    let feasible all = total_delay all <= t.Instance.delay_bound in
    let best_by_delay a b =
      match (a, b) with
      | Some x, Some y -> Some (if total_delay x <= total_delay y then x else y)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None
    in
    (* the dominant churn case — exactly one damaged path — is repaired
       incrementally: one Bellman-Ford in the survivors' residual instead
       of a filtered graph copy plus a [missing]-flow Suurballe run *)
    let single weight = if missing = 1 then bhandari t ~used ~weight else None in
    (* cost-first: the cheapest completion, kept when it meets the bound.
       Cost is delay-oblivious though, so on tight budgets it can land far
       over D and leave the resumed cancellation more work than a cold
       solve — then re-route for delay instead (a feasible start returns
       from the solve immediately), or failing both, hand cancellation the
       start that is closer to feasibility. *)
    match single (G.cost g) with
    | Some r when feasible r ->
      Metrics.incr c_repair_single;
      Some r
    | s_cost -> (
      match single (G.delay g) with
      | Some r when feasible r ->
        Metrics.incr c_repair_single;
        Some r
      | s_delay ->
        if missing = 1 then Metrics.incr c_repair_single_fallback;
        let full =
          match reroute (G.cost g) with
          | Some cheap when feasible cheap -> Some cheap
          | cheap -> (
            match reroute (G.delay g) with
            | Some fast when feasible fast -> Some fast
            | fast -> best_by_delay cheap fast)
        in
        (match full with
        | Some r when feasible r -> Some r
        | full -> best_by_delay (best_by_delay s_cost s_delay) full))
  end

let post_solve_hook : (Instance.t -> Instance.solution -> unit) ref = ref (fun _ _ -> ())

let solve_impl t ?trace ?(engine = Dp) ?(exhaustive = false) ?(phase1 = Phase1.Min_sum)
    ?numeric ?rsp_oracle ?(k1_oracle = true) ?(max_iterations = 2_000) ?(guess_steps = 12)
    ?warm_start ?pool () =
  let pool = match pool with Some p -> p | None -> Krsp_util.Pool.default () in
  (* The start comes first: k disjoint paths in hand prove the instance
     connected enough, and a start that meets D is the answer. A failed
     min-cost flow is exactly the lack of k disjoint paths (MCMF on unit
     capacities ships k units iff k edge-disjoint paths exist). *)
  let warm =
    match warm_start with
    | None -> None
    | Some prev -> Trace.with_span trace "solve.warm_repair" (fun () -> repair t ~paths:prev)
  in
  let warm_started = warm <> None in
  let start =
    match warm with
    | Some paths -> `Paths paths
    | None ->
      Trace.with_span trace "solve.phase1" (fun () ->
          match Phase1.run ?numeric ?rsp_oracle phase1 t with
          | Phase1.Start s -> `Paths s.Phase1.paths
          | Phase1.No_k_paths -> `No_k_paths
          | Phase1.Lp_infeasible -> `Lp_infeasible)
  in
  (* Only a start over D needs more: one min-delay k-flow both decides
     [Delay_bound_unreachable dmin] (its delay is dmin) and, when D is
     reachable, is the certified-feasible fallback and C_OPT upper bound. *)
  let min_delay_bound () =
    Trace.with_span trace "solve.min_delay_bound" (fun () ->
        match Phase1.min_delay t with
        | Phase1.Start s when s.Phase1.delay > t.Instance.delay_bound ->
          Error (Delay_bound_unreachable s.Phase1.delay)
        | Phase1.Start s -> Ok (Instance.solution_of_paths t s.Phase1.paths)
        | Phase1.No_k_paths | Phase1.Lp_infeasible -> Error No_k_disjoint_paths)
  in
  (* a start that meets D is returned unchanged; with the cold min-sum
     start this is exact, with a warm start it is the repaired previous
     solution as-is *)
  let as_is sol =
    Ok
      ( sol,
        {
          iterations = 0;
          type0 = 0;
          type1 = 0;
          type2 = 0;
          guesses_tried = 0;
          final_guess = 0;
          used_fallback = false;
          warm_started;
        } )
  in
  match start with
  | `No_k_paths -> Error No_k_disjoint_paths
  | `Lp_infeasible ->
    (* the delay-budgeted LP is infeasible iff dmin > D; the exact flow
       names the verdict and its payload *)
    Result.bind (min_delay_bound ()) as_is
  | `Paths start -> (
    let start_sol = Instance.solution_of_paths t start in
    if start_sol.Instance.delay <= t.Instance.delay_bound then as_is start_sol
    else
      match min_delay_bound () with
      | Error e -> Error e
      | Ok fallback ->
        if t.Instance.k = 1 && k1_oracle then begin
          (* k = 1 IS the single restricted shortest path: one oracle call
             replaces the entire guess bisection (each of whose attempts is
             itself a cancellation run). The answer is certificate-gated —
             an invalid or bound-violating path (impossible for the shipped
             engines, but the gate is what makes the oracle swappable) falls
             back to the exact DP, which must succeed since dmin ≤ D. *)
          let g = t.Instance.graph in
          let src = t.Instance.src and dst = t.Instance.dst in
          let oracle_sol =
            match
              Krsp_rsp.Oracle.solve ?trace ?kind:rsp_oracle ?tier:numeric g ~src ~dst
                ~delay_bound:t.Instance.delay_bound
            with
            | Some r
              when Path.is_valid g ~src ~dst r.Krsp_rsp.Rsp_engine.path
                   && r.Krsp_rsp.Rsp_engine.delay <= t.Instance.delay_bound ->
              Krsp_rsp.Rsp_engine.count_gate_pass ();
              Some (Instance.solution_of_paths t [ r.Krsp_rsp.Rsp_engine.path ])
            | _ ->
              Krsp_rsp.Rsp_engine.count_gate_fallback ();
              (match
                 Trace.with_span trace "oracle.gate_fallback" (fun () ->
                     Krsp_rsp.Rsp_dp.solve ?tier:numeric g ~src ~dst
                       ~delay_bound:t.Instance.delay_bound)
               with
              | Some (_, p) -> Some (Instance.solution_of_paths t [ p ])
              | None -> None)
          in
          (* the min-delay fallback is feasible too — never return worse *)
          let sol, used_fallback =
            match oracle_sol with
            | Some s when s.Instance.cost <= fallback.Instance.cost -> (s, false)
            | Some _ -> (fallback, false)
            | None -> (fallback, true)
          in
          Ok
            ( sol,
              {
                iterations = 0;
                type0 = 0;
                type1 = 0;
                type2 = 0;
                guesses_tried = 1;
                final_guess = sol.Instance.cost;
                used_fallback;
                warm_started;
              } )
        end
        else begin
          let lo0 = max 1 start_sol.Instance.cost in
          let hi0 = max lo0 fallback.Instance.cost in
          (* one doubled residual graph for the whole guess search: every
             attempt's rounds refill its masks instead of building graphs. A
             speculative attempt runs concurrently with the committed one, so
             it masks its own second arena (built lazily, only once the first
             speculation actually launches). *)
          let arena = Residual.arena t.Instance.graph in
          let spec_arena = lazy (Residual.arena t.Instance.graph) in
          (* binary search the smallest successful guess; remember the best
             verified solution seen *)
          let best = ref None in
          let iters = ref 0 and t0s = ref 0 and t1s = ref 0 and t2s = ref 0 in
          let tried = ref 0 in
          (* Span per attempt, speculative ones flagged: a traced flamegraph
             shows both bisection branches running side by side on their
             lanes, with the per-round spans nested underneath. *)
          let attempt_pure ?(spec = false) ~arena guess =
            Trace.with_span
              ~args:[ ("guess", string_of_int guess); ("spec", string_of_bool spec) ]
              trace "solve.guess"
              (fun () ->
                improve t ~start ~guess ?trace ~engine ~exhaustive ?numeric ~max_iterations
                  ~arena ())
          in
          (* Folding an attempt's outcome into the stats and [best] is kept
             separate from running it: speculative attempts are only committed
             when the bisection really reaches their guess, so the committed
             sequence — and with it [best], the iteration totals and the
             returned solution — is identical to the serial search's at any
             pool width. Discarded speculations leave no trace beyond the
             [solver.spec_*] counters. *)
          let commit guess result =
            incr tried;
            match result with
            | None -> None
            | Some (sol, it, a, b, c) ->
              iters := !iters + it;
              t0s := !t0s + a;
              t1s := !t1s + b;
              t2s := !t2s + c;
              assert (Instance.is_feasible t sol);
              (match !best with
              | Some (bs, _) when bs.Instance.cost <= sol.Instance.cost -> ()
              | _ -> best := Some (sol, guess));
              Some sol
          in
          let next_mid lo hi = lo + ((hi - lo) / 2) in
          let speculate = Krsp_util.Pool.width pool > 1 in
          (* evaluate [guess]; when a flanking guess is supplied and the pool
             is real, run both concurrently and hand the flank's result back
             uncommitted *)
          let eval guess flank =
            match flank with
            | Some fg when speculate && fg <> guess ->
              Metrics.incr c_spec_launched;
              let rs =
                Krsp_util.Pool.parallel_map ~chunk:1 pool
                  (fun (g, spec) ->
                    attempt_pure ~spec ~arena:(if spec then Lazy.force spec_arena else arena) g)
                  [| (guess, false); (fg, true) |]
              in
              (rs.(0), Some (fg, rs.(1)))
            | _ -> (attempt_pure ~arena guess, None)
          in
          let discard = function
            | Some _ -> Metrics.incr c_spec_wasted
            | None -> ()
          in
          (* always try the upper bound first: guaranteed >= C_OPT. Its
             flanking speculation is the bisection's first midpoint. *)
          let first_mid = if guess_steps > 0 && lo0 < hi0 then Some (next_mid lo0 hi0) else None in
          let r_hi, cache0 = eval hi0 first_mid in
          let hi_ok = commit hi0 r_hi <> None in
          if hi_ok then begin
            let rec bisect lo hi steps cache =
              (* invariant: [hi] succeeded, [lo - 1] region unexplored;
                 [cache] holds an uncommitted speculative result *)
              if steps <= 0 || lo >= hi then discard cache
              else begin
                let mid = next_mid lo hi in
                let result, cache' =
                  match cache with
                  | Some (g, r) when g = mid ->
                    Metrics.incr c_spec_hits;
                    (r, None)
                  | _ ->
                    discard cache;
                    (* speculate on the success branch: if [mid] works the
                       next midpoint shrinks the interval to [lo, mid] *)
                    let flank =
                      if steps > 1 && lo < mid then Some (next_mid lo mid) else None
                    in
                    eval mid flank
                in
                match commit mid result with
                | Some _ -> bisect lo mid (steps - 1) cache'
                | None ->
                  discard cache';
                  bisect (mid + 1) hi (steps - 1) None
              end
            in
            bisect lo0 hi0 guess_steps cache0
          end
          else discard cache0;
          match !best with
          | Some (sol, guess) ->
            Ok
              ( sol,
                {
                  iterations = !iters;
                  type0 = !t0s;
                  type1 = !t1s;
                  type2 = !t2s;
                  guesses_tried = !tried;
                  final_guess = guess;
                  used_fallback = false;
                  warm_started;
                } )
          | None ->
            L.warn (fun m -> m "all guesses failed; returning min-delay fallback");
            Ok
              ( fallback,
                {
                  iterations = !iters;
                  type0 = !t0s;
                  type1 = !t1s;
                  type2 = !t2s;
                  guesses_tried = !tried;
                  final_guess = hi0;
                  used_fallback = true;
                  warm_started;
                } )
        end)

(* Every Ok the pipeline produces — early feasible start, guess-search best,
   min-delay fallback — passes through here, so an installed hook (see
   Krsp_check.Hook) sees every solution this module ever returns. *)
let solve t ?trace ?engine ?exhaustive ?phase1 ?numeric ?rsp_oracle ?k1_oracle
    ?max_iterations ?guess_steps ?warm_start ?pool () =
  let outcome =
    solve_impl t ?trace ?engine ?exhaustive ?phase1 ?numeric ?rsp_oracle ?k1_oracle
      ?max_iterations ?guess_steps ?warm_start ?pool ()
  in
  (match outcome with
  | Ok (sol, _) -> Trace.with_span trace "solve.certify" (fun () -> !post_solve_hook t sol)
  | Error _ -> ());
  outcome
