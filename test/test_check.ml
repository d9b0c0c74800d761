(* Tests for the independent verification stack (lib/check): the certificate
   checker clause by clause (each with a planted bug), the infeasibility
   audit, the .krsp corpus format and the committed regression corpus, the
   metamorphic transformations, the differential harness (engines, pool
   widths, warm/cold) on batches of seeded random instances, the seeded fuzz
   driver's determinism and shrinking, and the KRSP_CERTIFY hook. *)

module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module X = Krsp_util.Xoshiro
module Instance = Krsp_core.Instance
module Krsp = Krsp_core.Krsp
module Scaling = Krsp_core.Scaling
module Residual = Krsp_core.Residual
module Bicameral = Krsp_core.Bicameral
module Dp = Krsp_core.Cycle_search_dp
module Hard = Krsp_gen.Hard
module Check = Krsp_check.Check
module Transform = Krsp_check.Transform
module Corpus = Krsp_check.Corpus
module Differential = Krsp_check.Differential
module Fuzz = Krsp_check.Fuzz
module Hook = Krsp_check.Hook

(* --- fixtures -------------------------------------------------------------- *)

let diamond ~delay_bound ~k =
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5);
  Instance.create g ~src:0 ~dst:3 ~k ~delay_bound

let solved t =
  match Krsp.solve t () with
  | Ok (sol, _) -> sol
  | Error _ -> Alcotest.fail "expected a solution"

(* a small random instance (possibly infeasible — both sides are audited) *)
let random_instance rng =
  let n = X.int_in rng 4 6 in
  let g = G.create ~n () in
  for v = 0 to n - 2 do
    ignore (G.add_edge g ~src:v ~dst:(v + 1) ~cost:(X.int rng 7) ~delay:(X.int rng 5))
  done;
  for _ = 1 to X.int_in rng n (3 * n) do
    let u = X.int rng n and v = X.int rng n in
    if u <> v then
      ignore
        (G.add_edge g ~src:(min u v) ~dst:(max u v) ~cost:(X.int rng 7) ~delay:(X.int rng 5))
  done;
  let k = X.int_in rng 1 3 in
  let probe = Instance.create g ~src:0 ~dst:(n - 1) ~k ~delay_bound:(G.total_delay g + 1) in
  let delay_bound =
    match Instance.min_possible_delay probe with
    | Some d -> d + X.int rng 5
    | None -> X.int rng 8
  in
  Instance.create g ~src:0 ~dst:(n - 1) ~k ~delay_bound

let has p cert = List.exists p cert.Check.violations

let prop name ?(count = 30) f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count QCheck2.Gen.int f)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- certificate clauses, each with a planted bug ---------------------------- *)

let test_certify_good () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let sol = solved t in
  let cert = Check.certify ~level:Check.Full t sol in
  Alcotest.(check bool) "certifies" true (Check.ok cert);
  (match cert.Check.cost_audit with
  | Check.Cost_proved _ -> ()
  | _ -> Alcotest.fail "expected Cost_proved on the diamond");
  (* the rendering is a PASS line per clause *)
  Alcotest.(check bool) "render" true
    (String.length (Check.to_string cert) > 0
    && String.sub (Check.to_string cert) 0 4 = "PASS")

let test_wrong_path_count () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let sol = solved t in
  let bad = { sol with Instance.paths = [ List.hd sol.Instance.paths ] } in
  let cert = Check.certify t bad in
  Alcotest.(check bool) "flagged" true
    (has (function Check.Wrong_path_count { expected = 2; got = 1 } -> true | _ -> false) cert)

let test_bad_edge_id () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let sol = solved t in
  let bad = { sol with Instance.paths = [ [ 99 ]; List.nth sol.Instance.paths 1 ] } in
  let cert = Check.certify t bad in
  Alcotest.(check bool) "flagged" true
    (has (function Check.Bad_edge_id { path = 0; edge = 99 } -> true | _ -> false) cert);
  (* garbage ids (damaged warm-start leftovers) must not crash the checker *)
  let worse = { sol with Instance.paths = [ [ -1; 3 ]; [] ] } in
  Alcotest.(check bool) "negative id + empty path survive" false
    (Check.ok (Check.certify ~level:Check.Full t worse))

let test_broken_path () =
  let t = diamond ~delay_bound:30 ~k:2 in
  (* edge 0 is 0→1, edge 3 is 2→3: not contiguous *)
  let bad = { Instance.paths = [ [ 0; 3 ]; [ 4 ] ]; cost = 13; delay = 16 } in
  let cert = Check.certify t bad in
  Alcotest.(check bool) "flagged" true
    (has (function Check.Broken_path { path = 0 } -> true | _ -> false) cert)

let test_shared_edge () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let sol = solved t in
  let p0 = List.hd sol.Instance.paths in
  let bad = { sol with Instance.paths = [ p0; p0 ] } in
  let cert = Check.certify t bad in
  Alcotest.(check bool) "flagged with witness" true
    (has
       (function
         | Check.Shared_edge { edge; first = 0; second = 1 } -> List.mem edge p0 | _ -> false)
       cert)

let test_sum_mismatch () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let sol = solved t in
  let bad = { sol with Instance.cost = sol.Instance.cost + 7 } in
  let cert = Check.certify t bad in
  Alcotest.(check bool) "flagged" true
    (has
       (function
         | Check.Sum_mismatch { claimed_cost; actual_cost; _ } ->
           claimed_cost = actual_cost + 7
         | _ -> false)
       cert)

let test_delay_exceeded () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let sol = solved t in
  (* same solution judged against a tighter instance *)
  let tight = diamond ~delay_bound:(sol.Instance.delay - 1) ~k:2 in
  let cert = Check.certify tight sol in
  Alcotest.(check bool) "flagged" true
    (has
       (function
         | Check.Delay_exceeded { delay; bound } ->
           delay = sol.Instance.delay && bound = sol.Instance.delay - 1
         | _ -> false)
       cert)

let test_cost_refuted () =
  (* k=1 diamond: optimum is e0,e1 at cost 2; the direct edge costs 10 > 2·2.
     Both the automatic upper bound (min-delay path e2,e3 costs 4) and an
     explicit opt_cost refute it. *)
  let t = diamond ~delay_bound:30 ~k:1 in
  let sol = Instance.solution_of_paths t [ [ 4 ] ] in
  let cert = Check.certify ~level:Check.Full t sol in
  Alcotest.(check bool) "refuted automatically" true
    (has (function Check.Cost_refuted _ -> true | _ -> false) cert);
  let cert2 = Check.certify ~level:Check.Full ~opt_cost:2 t sol in
  Alcotest.(check bool) "refuted with opt_cost" true
    (has (function Check.Cost_refuted { upper = 2; _ } -> true | _ -> false) cert2);
  (* the optimum itself certifies sharply *)
  let opt = Instance.solution_of_paths t [ [ 0; 1 ] ] in
  Alcotest.(check bool) "optimum proved" true
    (Check.ok (Check.certify ~level:Check.Full ~opt_cost:2 t opt))

let test_structural_is_cheap_default () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let cert = Check.certify t (solved t) in
  Alcotest.(check bool) "no cost audit at Structural" true
    (cert.Check.cost_audit = Check.Cost_skipped)

(* --- infeasibility audit ----------------------------------------------------- *)

let test_audit_infeasible () =
  let t4 = diamond ~delay_bound:30 ~k:4 in
  (* k=4 > max-flow 3: the claim is confirmed *)
  Alcotest.(check bool) "too few confirmed" true
    (Check.audit_infeasible t4 Check.Too_few_disjoint_paths = Ok ());
  (* on the k=2 diamond the same claim is a lie *)
  let t2 = diamond ~delay_bound:30 ~k:2 in
  Alcotest.(check bool) "too few rejected" true
    (Result.is_error (Check.audit_infeasible t2 Check.Too_few_disjoint_paths));
  (* k=3 needs all three routes: min delay 27; bound 10 is unreachable *)
  let t3 = diamond ~delay_bound:10 ~k:3 in
  Alcotest.(check bool) "delay confirmed" true
    (Check.audit_infeasible t3 (Check.Delay_unreachable 27) = Ok ());
  Alcotest.(check bool) "wrong payload rejected" true
    (Result.is_error (Check.audit_infeasible t3 (Check.Delay_unreachable 26)));
  (* bound 30 ≥ 27: claiming unreachable is wrong *)
  let t3' = diamond ~delay_bound:30 ~k:3 in
  Alcotest.(check bool) "reachable rejected" true
    (Result.is_error (Check.audit_infeasible t3' (Check.Delay_unreachable 27)))

(* --- corpus format ----------------------------------------------------------- *)

let test_corpus_roundtrip () =
  let t = diamond ~delay_bound:22 ~k:2 in
  let t' = Corpus.of_string (Corpus.to_string ~comment:"round\ntrip" t) in
  Alcotest.(check int) "n" (G.n t.Instance.graph) (G.n t'.Instance.graph);
  Alcotest.(check int) "m" (G.m t.Instance.graph) (G.m t'.Instance.graph);
  G.iter_edges t.Instance.graph (fun e ->
      Alcotest.(check (list int)) "edge"
        [ G.src t.Instance.graph e; G.dst t.Instance.graph e; G.cost t.Instance.graph e;
          G.delay t.Instance.graph e
        ]
        [ G.src t'.Instance.graph e; G.dst t'.Instance.graph e; G.cost t'.Instance.graph e;
          G.delay t'.Instance.graph e
        ]);
  Alcotest.(check (list int)) "query"
    [ t.Instance.src; t.Instance.dst; t.Instance.k; t.Instance.delay_bound ]
    [ t'.Instance.src; t'.Instance.dst; t'.Instance.k; t'.Instance.delay_bound ]

let test_corpus_malformed () =
  let fails s =
    match Corpus.of_string s with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing q" true (fails "n 2\ne 0 1 1 1\n");
  Alcotest.(check bool) "two q lines" true (fails "n 2\ne 0 1 1 1\nq 0 1 1 5\nq 0 1 1 5\n");
  Alcotest.(check bool) "malformed q" true (fails "n 2\ne 0 1 1 1\nq zero one\n");
  Alcotest.(check bool) "bad instance (src=dst)" true (fails "n 2\ne 0 1 1 1\nq 0 0 1 5\n")

(* every committed corpus instance must solve-and-certify (or verifiably
   refuse) — this is the regression replay for shrunk fuzz repros *)
let test_corpus_replay () =
  (* the sandboxed runtest cwd holds `corpus` directly; a `dune exec
     test/test_main.exe` from the repo root sees it under test/ *)
  let dir = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus" in
  let entries = Corpus.load_dir dir in
  Alcotest.(check bool) "corpus present" true (List.length entries >= 3);
  List.iter
    (fun (name, t) ->
      match Krsp.solve t () with
      | Ok (sol, _) ->
        let cert = Check.certify ~level:Check.Full t sol in
        if not (Check.ok cert) then
          Alcotest.fail (Printf.sprintf "%s: %s" name (Check.to_string cert))
      | Error Krsp.No_k_disjoint_paths -> (
        match Check.audit_infeasible t Check.Too_few_disjoint_paths with
        | Ok () -> ()
        | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" name msg))
      | Error (Krsp.Delay_bound_unreachable d) -> (
        match Check.audit_infeasible t (Check.Delay_unreachable d) with
        | Ok () -> ()
        | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" name msg)))
    entries

(* --- churn traces (.churn corpus + differential replay) ----------------------- *)

let churn_fixture () =
  (* the diamond plus a pier edge, with a trace hitting every mutation kind
     and a renumbering (after which the restore of the dropped edge 1 is
     skipped and edge 5, the insert, is named by its original id) *)
  let g = G.create ~n:4 () in
  ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:1 ~dst:3 ~cost:1 ~delay:10);
  ignore (G.add_edge g ~src:0 ~dst:2 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:2 ~dst:3 ~cost:2 ~delay:1);
  ignore (G.add_edge g ~src:0 ~dst:3 ~cost:10 ~delay:5);
  let trace =
    [ Differential.C_solve { src = 0; dst = 3; k = 2; delay_bound = 30 };
      Differential.C_batch [ Differential.M_del 4 ];
      Differential.C_solve { src = 0; dst = 3; k = 2; delay_bound = 30 };
      Differential.C_batch
        [ Differential.M_restore 4;
          Differential.M_rew { edge = 0; cost = 1; delay = 2 };
          Differential.M_ins { u = 0; v = 3; cost = 3; delay = 3 }
        ];
      Differential.C_solve { src = 0; dst = 3; k = 3; delay_bound = 30 };
      Differential.C_batch [ Differential.M_del 1 ];
      Differential.C_renumber;
      Differential.C_batch
        [ Differential.M_restore 1; Differential.M_rew { edge = 5; cost = 1; delay = 1 } ];
      Differential.C_solve { src = 0; dst = 3; k = 2; delay_bound = 30 }
    ]
  in
  (g, trace)

let test_churn_roundtrip () =
  let t = churn_fixture () in
  let s = Corpus.churn_to_string ~comment:"round\ntrip" t in
  let t' = Corpus.churn_of_string s in
  (* the serialisation is canonical: reserialising reproduces it byte for byte *)
  Alcotest.(check string) "byte-identical reserialisation" (Corpus.churn_to_string t)
    (Corpus.churn_to_string t');
  let g, trace = t and g', trace' = t' in
  Alcotest.(check int) "n" (G.n g) (G.n g');
  Alcotest.(check int) "m" (G.m g) (G.m g');
  Alcotest.(check int) "trace length" (List.length trace) (List.length trace')

let test_churn_malformed () =
  let fails s =
    match Corpus.churn_of_string s with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "no trace lines" true (fails "n 2\ne 0 1 1 1\n");
  Alcotest.(check bool) "bad mutation token" true
    (fails "n 2\ne 0 1 1 1\ns 0 1 1 5\nm zap:0\n");
  Alcotest.(check bool) "truncated ins" true
    (fails "n 2\ne 0 1 1 1\ns 0 1 1 5\nm ins:0:1:2\n");
  Alcotest.(check bool) "malformed solve line" true (fails "n 2\ne 0 1 1 1\ns 0 1\n")

(* the hand-written fixture replays with zero disagreements: overlay freezes
   against full rebuilds, widths 1 and 4, every witness certified *)
let test_churn_differential_diamond () =
  let g, trace = churn_fixture () in
  Alcotest.(check (list string)) "no mismatches" [] (Differential.churn g trace)

(* every committed .churn trace must replay with zero incremental-vs-refreeze
   disagreements — the regression replay for shrunk churn repros *)
let test_churn_corpus_replay () =
  let dir = if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus" in
  let entries = Corpus.load_churn_dir dir in
  Alcotest.(check bool) "churn corpus present" true (List.length entries >= 2);
  List.iter
    (fun (name, (g, trace)) ->
      match Differential.churn g trace with
      | [] -> ()
      | ms -> Alcotest.fail (Printf.sprintf "%s: %s" name (String.concat "; " ms)))
    entries

(* --- metamorphic transformations --------------------------------------------- *)

let test_transform_shapes () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let n = G.n t.Instance.graph and m = G.m t.Instance.graph in
  let sub = (Transform.subdivide t).Transform.instance in
  Alcotest.(check int) "subdivide n" (n + m) (G.n sub.Instance.graph);
  Alcotest.(check int) "subdivide m" (2 * m) (G.m sub.Instance.graph);
  let split = (Transform.split_vertices t).Transform.instance in
  Alcotest.(check int) "split n" (2 * n) (G.n split.Instance.graph);
  Alcotest.(check int) "split m" (m + (2 * n)) (G.m split.Instance.graph);
  let super = (Transform.super_terminals t).Transform.instance in
  Alcotest.(check int) "super n" (n + 2) (G.n super.Instance.graph);
  Alcotest.(check int) "super m" (m + 4) (G.m super.Instance.graph)

let test_transform_map_back () =
  let t = diamond ~delay_bound:30 ~k:2 in
  let orig = solved t in
  List.iter
    (fun tr ->
      let sol' = solved tr.Transform.instance in
      let mapped = tr.Transform.map_back sol'.Instance.paths in
      (* mapped-back paths are a valid solution of the original instance... *)
      let back = Instance.solution_of_paths t mapped in
      Alcotest.(check bool)
        (tr.Transform.name ^ " certifies")
        true
        (Check.ok (Check.certify t back));
      (* ...and the zero-cost auxiliaries account for the whole difference *)
      Alcotest.(check int)
        (tr.Transform.name ^ " cost accounting")
        sol'.Instance.cost
        (tr.Transform.cost_factor * back.Instance.cost);
      ignore orig)
    (Transform.all t)

let metamorphic_prop =
  prop "metamorphic relations hold on random instances" ~count:25 (fun seed ->
      let rng = X.create ~seed:(abs seed) in
      let t = random_instance rng in
      match Differential.metamorphic t with
      | [] -> true
      | ms -> QCheck2.Test.fail_report (String.concat "\n" ms))

(* --- differential: engines, widths, warm/cold -------------------------------- *)

(* the CI-facing batch: ≥200 seeded instances, DP vs LP and width 1 vs 4 *)
let test_differential_batch () =
  let rng = X.create ~seed:2026 in
  for _ = 1 to 200 do
    let t = random_instance rng in
    match Differential.engines t @ Differential.widths t with
    | [] -> ()
    | ms -> Alcotest.fail (String.concat "\n" ms)
  done

let test_differential_warm_cold () =
  let rng = X.create ~seed:4242 in
  for _ = 1 to 25 do
    let t = random_instance rng in
    match Differential.warm_cold t with
    | [] -> ()
    | ms -> Alcotest.fail (String.concat "\n" ms)
  done

let test_differential_all_diamond () =
  Alcotest.(check (list string)) "all axes agree" []
    (Differential.all (diamond ~delay_bound:22 ~k:2))

(* --- satellite: scaling on infeasible instances, every pool width ------------- *)

let test_scaling_infeasible_widths () =
  let disconnected =
    let g = G.create ~n:4 () in
    ignore (G.add_edge g ~src:0 ~dst:1 ~cost:1 ~delay:1);
    ignore (G.add_edge g ~src:2 ~dst:3 ~cost:1 ~delay:1);
    Instance.create g ~src:0 ~dst:3 ~k:1 ~delay_bound:10
  in
  let too_many = diamond ~delay_bound:30 ~k:4 in
  for width = 1 to 4 do
    let pool = Krsp_util.Pool.create ~size:width () in
    Fun.protect
      ~finally:(fun () -> Krsp_util.Pool.shutdown pool)
      (fun () ->
        List.iter
          (fun t ->
            match Scaling.solve t ~epsilon1:0.5 ~epsilon2:0.5 ~pool () with
            | Error Krsp.No_k_disjoint_paths -> ()
            | Error (Krsp.Delay_bound_unreachable _) ->
              Alcotest.fail
                (Printf.sprintf "width %d: wrong error (expected No_k_disjoint_paths)" width)
            | Ok _ -> Alcotest.fail (Printf.sprintf "width %d: solved the unsolvable" width))
          [ disconnected; too_many ])
  done

(* --- satellite: repair after FAIL/RESTORE sequences --------------------------- *)

let repair_prop =
  prop "repair after FAIL/RESTORE certifies, never reuses a failed edge" ~count:40
    (fun seed ->
      let rng = X.create ~seed:(abs seed) in
      let t = random_instance rng in
      match Krsp.solve t () with
      | Error _ -> true (* nothing to damage *)
      | Ok (sol, _) ->
        let g = t.Instance.graph in
        let m = G.m g in
        (* a random FAIL/RESTORE walk; what matters is the final failed set *)
        let failed = Array.make m false in
        for _ = 1 to X.int_in rng 1 6 do
          let e = X.int rng m in
          failed.(e) <- X.bool rng
        done;
        let live, new_of_old =
          G.filter_map_edges g ~f:(fun e ->
              if failed.(e) then None else Some (G.cost g e, G.delay g e))
        in
        let live_t =
          Instance.create live ~src:t.Instance.src ~dst:t.Instance.dst ~k:t.Instance.k
            ~delay_bound:t.Instance.delay_bound
        in
        (* previous solution with failed edges as damaged (-1) ids — exactly
           what krspd's of_base mapping hands to the warm-start path *)
        let warm = List.map (List.map (fun e -> new_of_old.(e))) sol.Instance.paths in
        (match Krsp.solve live_t ~warm_start:warm () with
        | Error _ -> true (* the damage may genuinely disconnect the instance *)
        | Ok (sol', _) ->
          let cert = Check.certify live_t sol' in
          if not (Check.ok cert) then
            QCheck2.Test.fail_report ("warm re-solve does not certify:\n" ^ Check.to_string cert)
          else begin
            (* live ids map back to base ids; none of them may be failed *)
            let old_of_new = Array.make (G.m live) (-1) in
            Array.iteri
              (fun old_e new_e -> if new_e >= 0 then old_of_new.(new_e) <- old_e)
              new_of_old;
            let reused =
              List.exists (List.exists (fun e -> failed.(old_of_new.(e)))) sol'.Instance.paths
            in
            if reused then QCheck2.Test.fail_report "solution reuses a failed edge" else true
          end))

(* --- satellite: the |c(O)| ≤ C_OPT cap of Definition 10 (Figure 1) ------------ *)

let test_figure1_cost_cap () =
  let cost_unit = 3 and delay_bound = 4 in
  let t = Hard.figure1 ~cost_unit ~delay_bound in
  (* the decoy route the naive cancellation walks into *)
  let naive = Krsp_core.Baselines.naive_delay_cancel t in
  let decoy =
    match naive.Krsp_core.Baselines.solution with
    | Some s -> s
    | None -> Alcotest.fail "naive baseline found nothing"
  in
  Alcotest.(check int) "decoy pays ≈ C·(D+1)"
    ((cost_unit * (delay_bound + 1)) - 1)
    decoy.Instance.cost;
  (* from the decoy, the residual contains cheap-escape cycles whose cost is
     more negative than -C_OPT — the exact cycles Definition 10's cap bans *)
  let res = Residual.build t.Instance.graph ~paths:decoy.Instance.paths in
  let big_bound = cost_unit * (delay_bound + 2) in
  let raw = Dp.enumerate_raw res ~bound:big_bound in
  let over_cap =
    List.filter (fun (_, c, d) -> c < -cost_unit && d >= 0 && d <= -c) raw
  in
  Alcotest.(check bool) "over-cap cycles exist in the raw cycle space" true (over_cap <> []);
  (* classify: the cap is the only clause that rejects them *)
  let ctx cap = { Bicameral.delta_d = -1; delta_c = 1; cost_cap = cap } in
  List.iter
    (fun (_, c, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "cap %d rejects (c=%d,d=%d)" cost_unit c d)
        true
        (Bicameral.classify (ctx cost_unit) ~cost:c ~delay:d = None);
      Alcotest.(check bool)
        (Printf.sprintf "cap %d admits (c=%d,d=%d)" (-c) c d)
        true
        (Bicameral.classify (ctx (-c)) ~cost:c ~delay:d = Some Bicameral.Type2))
    over_cap;
  (* the search itself respects the cap: no enumerated candidate under the
     capped context exceeds it, even with a wide cost window *)
  List.iter
    (fun cand ->
      Alcotest.(check bool) "candidate within cap" true
        (abs cand.Dp.cost <= cost_unit))
    (Dp.enumerate res ~ctx:(ctx cost_unit) ~bound:big_bound);
  (* and end to end, the capped search stays ≤ 2·C_OPT where the naive walk
     paid ≈ C·(D+1) — certified sharply against the known optimum *)
  let sol = solved t in
  Alcotest.(check bool) "solve certifies at the known optimum" true
    (Check.ok (Check.certify ~level:Check.Full ~opt_cost:cost_unit t sol))

(* --- fuzz: determinism, shrinking, planted bugs ------------------------------- *)

let test_fuzz_clean () =
  let o = Fuzz.run ~seed:3 ~count:40 () in
  Alcotest.(check int) "no failures" 0 (List.length o.Fuzz.failures);
  Alcotest.(check int) "all cases ran" 40 o.Fuzz.cases;
  Alcotest.(check bool) "mix of solved and infeasible" true
    (o.Fuzz.solved > 0 && o.Fuzz.solved + o.Fuzz.infeasible = 40)

let test_fuzz_planted_bugs_caught () =
  List.iter
    (fun inject ->
      let o = Fuzz.run ~seed:11 ~inject ~count:25 ~max_failures:2 () in
      Alcotest.(check bool)
        (Fuzz.inject_to_string inject ^ " caught")
        true
        (o.Fuzz.failures <> []);
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s case %d repro ≤ 12 edges"
               (Fuzz.inject_to_string inject) f.Fuzz.case)
            true
            (G.m f.Fuzz.instance.Instance.graph <= 12))
        o.Fuzz.failures)
    [ Fuzz.Share_edge; Fuzz.Drop_edge; Fuzz.Tamper_cost ]

let test_fuzz_deterministic () =
  let run () = Fuzz.run ~seed:17 ~inject:Fuzz.Share_edge ~count:20 ~max_failures:2 () in
  let a = run () and b = run () in
  Alcotest.(check int) "same case count" a.Fuzz.cases b.Fuzz.cases;
  Alcotest.(check int) "same failure count" (List.length a.Fuzz.failures)
    (List.length b.Fuzz.failures);
  Alcotest.(check bool) "failures found" true (a.Fuzz.failures <> []);
  List.iter2
    (fun fa fb ->
      Alcotest.(check int) "same case" fa.Fuzz.case fb.Fuzz.case;
      Alcotest.(check string) "byte-identical repro" (Corpus.to_string fa.Fuzz.instance)
        (Corpus.to_string fb.Fuzz.instance);
      Alcotest.(check string) "same reason" fa.Fuzz.reason fb.Fuzz.reason)
    a.Fuzz.failures b.Fuzz.failures

(* --- churn fuzzing: clean sweeps, the planted stale-entry bug ------------------ *)

let test_fuzz_churn_clean () =
  let o = Fuzz.run_churn ~seed:2026 ~count:15 () in
  Alcotest.(check int) "no disagreements" 0 (List.length o.Fuzz.churn_failures);
  Alcotest.(check int) "all traces ran" 15 o.Fuzz.traces;
  Alcotest.(check bool) "traces mix solves and mutations" true
    (o.Fuzz.churn_solves > 0 && o.Fuzz.churn_mutations > 0)

let test_fuzz_churn_stale_entry_caught () =
  (* a never-invalidated cache must be caught by re-certifying hits against
     the current topology — the harness-catches-the-bug path for staleness *)
  let o = Fuzz.run_churn ~seed:2026 ~inject:Fuzz.Stale_entry ~count:15 ~max_failures:2 () in
  Alcotest.(check bool) "stale entries caught" true (o.Fuzz.churn_failures <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "trace %d names the stale entry" f.Fuzz.trace_case)
        true
        (contains f.Fuzz.reason "stale");
      Alcotest.(check bool)
        (Printf.sprintf "trace %d shrunk (%d ops before)" f.Fuzz.trace_case
           f.Fuzz.ops_before_shrink)
        true
        (List.length f.Fuzz.trace <= f.Fuzz.ops_before_shrink))
    o.Fuzz.churn_failures

let test_fuzz_churn_deterministic () =
  let run () =
    Fuzz.run_churn ~seed:2026 ~inject:Fuzz.Stale_entry ~count:15 ~max_failures:2 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same trace count" a.Fuzz.traces b.Fuzz.traces;
  Alcotest.(check int) "same failure count"
    (List.length a.Fuzz.churn_failures)
    (List.length b.Fuzz.churn_failures);
  Alcotest.(check bool) "failures found" true (a.Fuzz.churn_failures <> []);
  List.iter2
    (fun fa fb ->
      Alcotest.(check int) "same trace case" fa.Fuzz.trace_case fb.Fuzz.trace_case;
      Alcotest.(check string) "byte-identical repro"
        (Corpus.churn_to_string (fa.Fuzz.graph, fa.Fuzz.trace))
        (Corpus.churn_to_string (fb.Fuzz.graph, fb.Fuzz.trace));
      Alcotest.(check string) "same reason" fa.Fuzz.reason fb.Fuzz.reason)
    a.Fuzz.churn_failures b.Fuzz.churn_failures

(* --- the KRSP_CERTIFY hook ---------------------------------------------------- *)

let test_hook () =
  (* solves fire the hook; a certified solve passes through unchanged *)
  Hook.enable ~level:Check.Full ();
  let t = diamond ~delay_bound:30 ~k:2 in
  let sol = solved t in
  (* the installed hook rejects a tampered solution *)
  (match !Krsp.post_solve_hook t { sol with Instance.cost = sol.Instance.cost + 1 } with
  | () -> Alcotest.fail "hook accepted a tampered solution"
  | exception Hook.Certification_failed msg ->
    Alcotest.(check bool) "message names the clause" true (contains msg "sums"));
  Hook.disable ();
  !Krsp.post_solve_hook t { sol with Instance.cost = max_int };
  (* env parsing *)
  Unix.putenv "KRSP_CERTIFY" "";
  Alcotest.(check bool) "empty = off" true (Hook.install_from_env () = None);
  Unix.putenv "KRSP_CERTIFY" "full";
  Alcotest.(check bool) "full" true (Hook.install_from_env () = Some Check.Full);
  Unix.putenv "KRSP_CERTIFY" "1";
  Alcotest.(check bool) "1 = structural" true (Hook.install_from_env () = Some Check.Structural);
  Unix.putenv "KRSP_CERTIFY" "";
  (* leave the suite-wide structural hook in place for the remaining suites *)
  Hook.enable ()

let suites =
  [ ( "check.certify",
      [ Alcotest.test_case "good solution, full level" `Quick test_certify_good;
        Alcotest.test_case "wrong path count" `Quick test_wrong_path_count;
        Alcotest.test_case "bad edge id" `Quick test_bad_edge_id;
        Alcotest.test_case "broken path" `Quick test_broken_path;
        Alcotest.test_case "shared edge" `Quick test_shared_edge;
        Alcotest.test_case "sum mismatch" `Quick test_sum_mismatch;
        Alcotest.test_case "delay exceeded" `Quick test_delay_exceeded;
        Alcotest.test_case "cost refuted" `Quick test_cost_refuted;
        Alcotest.test_case "structural skips cost audit" `Quick
          test_structural_is_cheap_default;
        Alcotest.test_case "infeasibility audit" `Quick test_audit_infeasible
      ] );
    ( "check.corpus",
      [ Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
        Alcotest.test_case "malformed inputs" `Quick test_corpus_malformed;
        Alcotest.test_case "replay committed corpus" `Quick test_corpus_replay
      ] );
    ( "check.churn",
      [ Alcotest.test_case "churn roundtrip" `Quick test_churn_roundtrip;
        Alcotest.test_case "malformed churn inputs" `Quick test_churn_malformed;
        Alcotest.test_case "diamond churn differential" `Quick
          test_churn_differential_diamond;
        Alcotest.test_case "replay committed churn corpus" `Quick test_churn_corpus_replay
      ] );
    ( "check.metamorphic",
      [ Alcotest.test_case "transform shapes" `Quick test_transform_shapes;
        Alcotest.test_case "map back on the diamond" `Quick test_transform_map_back;
        metamorphic_prop
      ] );
    ( "check.differential",
      [ Alcotest.test_case "200 instances: dp=lp, width 1=4" `Quick test_differential_batch;
        Alcotest.test_case "warm = cold" `Quick test_differential_warm_cold;
        Alcotest.test_case "all axes on the diamond" `Quick test_differential_all_diamond
      ] );
    ( "check.satellites",
      [ Alcotest.test_case "scaling infeasible at widths 1-4" `Quick
          test_scaling_infeasible_widths;
        repair_prop;
        Alcotest.test_case "figure-1 cost cap exercised" `Quick test_figure1_cost_cap
      ] );
    ( "check.fuzz",
      [ Alcotest.test_case "clean sweep" `Quick test_fuzz_clean;
        Alcotest.test_case "planted bugs caught and shrunk" `Quick
          test_fuzz_planted_bugs_caught;
        Alcotest.test_case "deterministic repros" `Quick test_fuzz_deterministic;
        Alcotest.test_case "churn clean sweep" `Quick test_fuzz_churn_clean;
        Alcotest.test_case "stale cache entries caught" `Quick
          test_fuzz_churn_stale_entry_caught;
        Alcotest.test_case "deterministic churn repros" `Quick
          test_fuzz_churn_deterministic
      ] );
    ("check.hook", [ Alcotest.test_case "certify hook" `Quick test_hook ])
  ]
