(* E16 — domain-parallel solver: pool width sweep over the E15 solve
   workloads.

   One batch of instances is solved at pool widths 1/2/4/8. The one
   parallel layer inside a solve is the speculative guess bisection; the
   cycle search's root scan is serial. The solver's determinism contract
   (DESIGN.md section 10) says width only moves wall clock, never the
   answer — every width's solutions are checked identical to width 1's
   before its row is accepted. Per-phase attribution comes from the deltas
   of the process-wide Krsp.metrics histograms; the speculation counters
   show how much guess-bisection work ran ahead (spec hits) or was thrown
   away (spec wasted), and "pool tasks" counts speculative attempts only,
   two per launched speculation (the midpoint and its flank).

   A speculation needs two cores, so widths above 2 only add idle domains,
   and widths beyond the physical core count can only lose.
   KRSP_BENCH_SMOKE=1 shrinks sizes for the CI smoke job. *)

open Common
module Metrics = Krsp_util.Metrics
module Pool = Krsp_util.Pool

let smoke = Sys.getenv_opt "KRSP_BENCH_SMOKE" <> None
let widths = [ 1; 2; 4; 8 ]

(* process-wide solver metrics: read a handle once, delta around each run *)
let h_resid = Metrics.histogram Krsp.metrics "solver.residual_build_ms"
let h_search = Metrics.histogram Krsp.metrics "solver.cycle_search_ms"
let h_augment = Metrics.histogram Krsp.metrics "solver.augment_ms"
let c_spec_launched = Metrics.counter Krsp.metrics "solver.spec_launched"
let c_spec_hits = Metrics.counter Krsp.metrics "solver.spec_hits"
let c_spec_wasted = Metrics.counter Krsp.metrics "solver.spec_wasted"

type phase_snap = { resid : float; search : float; augment : float; launched : int; hits : int; wasted : int }

let snap () =
  {
    resid = Metrics.sum h_resid;
    search = Metrics.sum h_search;
    augment = Metrics.sum h_augment;
    launched = Metrics.value c_spec_launched;
    hits = Metrics.value c_spec_hits;
    wasted = Metrics.value c_spec_wasted;
  }

let canon_solutions outcomes =
  List.map
    (function
      | Ok (sol, _) ->
        Some (sol.Instance.cost, sol.Instance.delay, List.sort compare sol.Instance.paths)
      | Error _ -> None)
    outcomes

let sweep table name instances =
  let reference = ref None in
  List.iter
    (fun w ->
      let pool = Pool.create ~size:w () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let before = snap () in
          let outcomes, wall_ms =
            Timer.time_ms (fun () -> List.map (fun t -> Krsp.solve t ~pool ()) instances)
          in
          let after = snap () in
          let solutions = canon_solutions outcomes in
          (match !reference with
          | None -> reference := Some solutions
          | Some expect ->
            if solutions <> expect then
              failwith
                (Printf.sprintf "e16: %s width=%d diverges from the width-1 solutions" name w));
          let f1 = Table.fmt_float ~decimals:1 in
          let tasks =
            match List.assoc_opt "pool.tasks" (Pool.to_kv pool) with Some s -> s | None -> "0"
          in
          Table.add_row table
            [ name; string_of_int w; f1 wall_ms; f1 (after.resid -. before.resid);
              f1 (after.search -. before.search); f1 (after.augment -. before.augment);
              Printf.sprintf "%d/%d/%d" (after.launched - before.launched)
                (after.hits - before.hits) (after.wasted - before.wasted);
              tasks
            ]))
    widths

let run () =
  header "E16" "domain-parallel solver — pool width sweep, phase attribution";
  note "mode: %s; host cores (recommended domains): %d\n"
    (if smoke then "smoke (tiny sizes)" else "full")
    (Domain.recommended_domain_count ());
  note "spec l/h/w = speculative guesses launched / committed as hits / discarded\n\n";
  let table =
    Table.create
      ~columns:
        [ ("family", Table.Left); ("width", Table.Right); ("wall ms", Table.Right);
          ("resid ms", Table.Right); ("search ms", Table.Right); ("augment ms", Table.Right);
          ("spec l/h/w", Table.Right); ("pool tasks", Table.Right)
        ]
  in
  let count = if smoke then 2 else 6 in
  let n_erdos = if smoke then 14 else 28 in
  let n_waxman = if smoke then 14 else 28 in
  sweep table
    (Printf.sprintf "erdos n=%d k=2" n_erdos)
    (sample_instances ~seed:161 ~count (erdos_instance ~n:n_erdos ~k:2 ~tightness:0.5));
  sweep table
    (Printf.sprintf "waxman n=%d k=3" n_waxman)
    (sample_instances ~seed:162 ~count (waxman_instance ~n:n_waxman ~k:3 ~tightness:0.5));
  Table.print table;
  note
    "\nall rows verified bit-identical to width 1 (costs, delays, path sets).\n\
     wall-clock speedup requires real cores: on a 1-core host every width > 1\n\
     pays domain scheduling and wasted speculation for nothing.\n"
