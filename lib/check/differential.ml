module G = Krsp_graph.Digraph
module Instance = Krsp_core.Instance
module Krsp = Krsp_core.Krsp
module Pool = Krsp_util.Pool

(* The harness drives the solver, so unlike {!Check} it imports the solver
   API on purpose: its job is to compare configurations, the certificate's
   to distrust all of them. *)

(* pools are long-lived by design (spawning domains per comparison would
   dominate the harness): one per width, kept for the process lifetime *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4

let pool_of width =
  match Hashtbl.find_opt pools width with
  | Some p -> p
  | None ->
    let p = Pool.create ~size:width () in
    Hashtbl.add pools width p;
    p

let infeasibility_of = function
  | Krsp.No_k_disjoint_paths -> Check.Too_few_disjoint_paths
  | Krsp.Delay_bound_unreachable d -> Check.Delay_unreachable d

let describe_error = function
  | Krsp.No_k_disjoint_paths -> "No_k_disjoint_paths"
  | Krsp.Delay_bound_unreachable d -> Printf.sprintf "Delay_bound_unreachable %d" d

let certified ~level ~what inst sol =
  let cert = Check.certify ~level inst sol in
  if Check.ok cert then []
  else [ Printf.sprintf "%s: solution does not certify:\n%s" what (Check.to_string cert) ]

let audited ~what inst err =
  match Check.audit_infeasible inst (infeasibility_of err) with
  | Ok () -> []
  | Error msg -> [ Printf.sprintf "%s: infeasibility verdict fails audit: %s" what msg ]

(* both runs must land on the same side; each side is then audited *)
let pairwise ~level ~axis inst (name_a, a) (name_b, b) =
  match (a, b) with
  | Ok (sol_a, _), Ok (sol_b, _) ->
    certified ~level ~what:(axis ^ "/" ^ name_a) inst sol_a
    @ certified ~level ~what:(axis ^ "/" ^ name_b) inst sol_b
  | Error ea, Error eb ->
    (if ea = eb then []
     else
       [ Printf.sprintf "%s: %s says %s but %s says %s" axis name_a (describe_error ea) name_b
           (describe_error eb)
       ])
    @ audited ~what:(axis ^ "/" ^ name_a) inst ea
  | Ok _, Error e ->
    [ Printf.sprintf "%s: %s solved but %s reports %s" axis name_a name_b (describe_error e) ]
  | Error e, Ok _ ->
    [ Printf.sprintf "%s: %s solved but %s reports %s" axis name_b name_a (describe_error e) ]

let engines ?(level = Check.Structural) inst =
  let dp = Krsp.solve inst ~engine:Krsp.Dp () in
  let lp = Krsp.solve inst ~engine:Krsp.Lp () in
  pairwise ~level ~axis:"engines" inst ("dp", dp) ("lp", lp)

let canon (sol : Instance.solution) =
  (sol.Instance.cost, sol.Instance.delay, List.sort compare sol.Instance.paths)

let widths ?(w1 = 1) ?(w2 = 4) ?(level = Check.Structural) inst =
  let run w = Krsp.solve inst ~pool:(pool_of w) () in
  let a = run w1 and b = run w2 in
  let names = (Printf.sprintf "width-%d" w1, Printf.sprintf "width-%d" w2) in
  let base = pairwise ~level ~axis:"widths" inst (fst names, a) (snd names, b) in
  match (a, b) with
  | Ok (sa, _), Ok (sb, _) when canon sa <> canon sb ->
    Printf.sprintf
      "widths: not bit-identical: %s gives cost=%d delay=%d, %s gives cost=%d delay=%d"
      (fst names) sa.Instance.cost sa.Instance.delay (snd names) sb.Instance.cost
      sb.Instance.delay
    :: base
  | _ -> base

(* every RSP oracle must land on the same feasibility side as the exact DP
   oracle, both sides must certify, and — at k = 1, where the oracle's
   answer IS the returned solution — a ratio-carrying oracle's cost must
   stay within (1+ε) of the exact optimum (LARAC promises feasibility
   only, so it is exempt from the ratio clause, not from certifying) *)
let oracles ?(level = Check.Structural) ?(epsilon = Krsp_rsp.Rsp_engine.default_epsilon)
    inst =
  let run kind = Krsp.solve inst ~rsp_oracle:kind () in
  let reference = run Krsp_rsp.Oracle.Dp in
  List.concat_map
    (fun kind ->
      if kind = Krsp_rsp.Oracle.Dp then []
      else begin
        let name = Krsp_rsp.Oracle.to_string kind in
        let r = run kind in
        let base = pairwise ~level ~axis:"oracles" inst ("dp", reference) (name, r) in
        match (reference, r) with
        | Ok (exact, es), Ok (approx, os)
          when inst.Instance.k = 1
               && Krsp_rsp.Oracle.has_ratio kind
               && (not es.Krsp.used_fallback)
               && not os.Krsp.used_fallback ->
          if
            float_of_int approx.Instance.cost
            > ((1. +. epsilon) *. float_of_int exact.Instance.cost) +. 1e-9
          then
            Printf.sprintf "oracles/%s: k=1 cost %d exceeds (1+%.2f)·%d" name
              approx.Instance.cost epsilon exact.Instance.cost
            :: base
          else base
        | _ -> base
      end)
    Krsp_rsp.Oracle.all

let warm_cold ?(level = Check.Structural) inst =
  match Krsp.solve inst () with
  | Error e -> audited ~what:"warm-cold/cold" inst e
  | Ok (cold, _) -> (
    let miss_cold = certified ~level ~what:"warm-cold/cold" inst cold in
    (* intact warm start: the repair keeps it, the resume must re-certify *)
    let warm intact_name start =
      match Krsp.solve inst ~warm_start:start () with
      | Ok (sol, _) -> certified ~level ~what:("warm-cold/" ^ intact_name) inst sol
      | Error e ->
        Printf.sprintf "warm-cold/%s: cold solved but warm start reports %s" intact_name
          (describe_error e)
        :: []
    in
    let damaged =
      (* simulate a failed link: poison the first path's ids, keep the rest *)
      match cold.Instance.paths with
      | first :: rest -> List.map (fun _ -> -1) first :: rest
      | [] -> [ [ -1 ] ]
    in
    miss_cold @ warm "warm-intact" cold.Instance.paths @ warm "warm-damaged" damaged)

let metamorphic ?transforms inst =
  let transforms = match transforms with Some ts -> ts | None -> Transform.all inst in
  match Krsp.solve inst () with
  | Error e ->
    (* infeasibility must be preserved by every OPT-preserving transform *)
    List.concat_map
      (fun tr ->
        if tr.Transform.cost_factor <> 1 then []
        else begin
          match Krsp.solve tr.Transform.instance () with
          | Error e' when e' = e -> []
          | Error e' ->
            [ Printf.sprintf "metamorphic/%s: infeasibility changed: %s vs %s"
                tr.Transform.name (describe_error e) (describe_error e')
            ]
          | Ok _ ->
            [ Printf.sprintf "metamorphic/%s: original infeasible (%s) but transform solved"
                tr.Transform.name (describe_error e)
            ]
        end)
      transforms
  | Ok (orig, orig_stats) ->
    List.concat_map
      (fun tr ->
        let name = "metamorphic/" ^ tr.Transform.name in
        match Krsp.solve tr.Transform.instance () with
        | Error e -> [ Printf.sprintf "%s: transform became infeasible (%s)" name
                         (describe_error e) ]
        | Ok (sol', stats') ->
          let cert' = Check.certify tr.Transform.instance sol' in
          let miss_cert =
            if Check.ok cert' then []
            else [ Printf.sprintf "%s: transformed solve does not certify:\n%s" name
                     (Check.to_string cert') ]
          in
          (* mapped-back paths must certify on the original instance, and
             the zero-cost auxiliary edges account for the whole difference:
             factor · cost(mapped) = cost(transformed) exactly *)
          let mapped = tr.Transform.map_back sol'.Instance.paths in
          let mapped_sol =
            {
              Instance.paths = mapped;
              cost =
                List.fold_left
                  (fun a p -> a + Krsp_graph.Path.cost inst.Instance.graph p)
                  0 mapped;
              delay =
                List.fold_left
                  (fun a p -> a + Krsp_graph.Path.delay inst.Instance.graph p)
                  0 mapped;
            }
          in
          let cert_mapped = Check.certify inst mapped_sol in
          let miss_mapped =
            if Check.ok cert_mapped then []
            else [ Printf.sprintf "%s: mapped-back paths do not certify:\n%s" name
                     (Check.to_string cert_mapped) ]
          in
          let miss_factor =
            if tr.Transform.cost_factor * mapped_sol.Instance.cost = sol'.Instance.cost then []
            else [ Printf.sprintf "%s: cost accounting broken: %d·%d ≠ %d" name
                     tr.Transform.cost_factor mapped_sol.Instance.cost sol'.Instance.cost ]
          in
          (* both sides carry the Lemma 3 guarantee unless they fell back,
             so the costs bracket each other through C_OPT *)
          let miss_bracket =
            if orig_stats.Krsp.used_fallback || stats'.Krsp.used_fallback then []
            else begin
              let f = tr.Transform.cost_factor in
              if sol'.Instance.cost > 2 * f * orig.Instance.cost then
                [ Printf.sprintf "%s: transformed cost %d > 2·%d·%d" name sol'.Instance.cost f
                    orig.Instance.cost ]
              else if 2 * sol'.Instance.cost < f * orig.Instance.cost then
                [ Printf.sprintf "%s: original cost %d > 2·(%d/%d)" name orig.Instance.cost
                    sol'.Instance.cost f ]
              else []
            end
          in
          miss_cert @ miss_mapped @ miss_factor @ miss_bracket)
      transforms

(* ---- churn: incremental topology vs full refreeze ------------------------- *)

type mutation =
  | M_del of int
  | M_restore of int
  | M_ins of { u : int; v : int; cost : int; delay : int }
  | M_rew of { edge : int; cost : int; delay : int }

type churn_op =
  | C_solve of { src : int; dst : int; k : int; delay_bound : int }
  | C_batch of mutation list
  | C_renumber

(* Out-of-range / no-op mutations are skipped rather than rejected: a
   shrunk trace stays replayable after edges it references are gone, and
   both replicas skip identically so their edge ids never diverge. *)
let apply_mutation g = function
  | M_del e -> if e >= 0 && e < G.m g && G.alive g e then G.remove_edge g e
  | M_restore e -> if e >= 0 && e < G.m g && not (G.alive g e) then G.unremove_edge g e
  | M_ins { u; v; cost; delay } ->
    if u >= 0 && u < G.n g && v >= 0 && v < G.n g && u <> v && cost >= 0 && delay >= 0 then
      ignore (G.add_edge g ~src:u ~dst:v ~cost ~delay)
  | M_rew { edge; cost; delay } ->
    if edge >= 0 && edge < G.m g && cost >= 0 && delay >= 0 then begin
      G.set_cost g edge cost;
      G.set_delay g edge delay
    end

let sorted_edges (sol : Instance.solution) = List.sort compare (List.concat sol.Instance.paths)

let churn ?(level = Check.Structural) ?(w1 = 1) ?(w2 = 4) base trace =
  (* two replicas of the same mutating topology: [inc] absorbs mutations
     through the delta overlay (compacting on its default budget) and is
     renumbered at every [C_renumber]; [full] rebuilds the whole CSR
     before every solve and keeps the ids the trace names. [ids.(e)] is
     full edge [e]'s id in [inc], -1 once a renumbering dropped it — from
     then on [e] stays dead on both sides (a [res] of it is skipped). *)
  let inc = G.copy base in
  let full = G.copy base in
  G.set_compaction_threshold full 0.;
  let ids = ref (Array.init (G.m full) Fun.id) in
  let inc_id e = if e >= 0 && e < Array.length !ids then !ids.(e) else -1 in
  let on_inc = function
    | M_del e -> M_del (inc_id e)
    | M_restore e -> M_restore (inc_id e)
    | M_rew r -> M_rew { r with edge = inc_id r.edge }
    | M_ins _ as m -> m
  in
  let apply m =
    match m with
    | M_restore e when e >= 0 && e < G.m full && inc_id e < 0 -> ()
    | _ ->
      let m0 = G.m full in
      apply_mutation full m;
      apply_mutation inc (on_inc m);
      if G.m full > m0 then ids := Array.append !ids [| G.m inc - 1 |]
  in
  (* inc's edges named by full ids: once ids have moved, answers compare
     as edge sets, since the path split follows hash-table order over the
     ids; until then the path lists must match too *)
  let renumbered = ref false in
  let to_full sol =
    let back = Array.make (G.m inc) (-1) in
    Array.iteri (fun e e' -> if e' >= 0 then back.(e') <- e) !ids;
    List.sort compare (List.map (fun e -> back.(e)) (List.concat sol.Instance.paths))
  in
  let step = ref 0 in
  let mismatches = ref [] in
  let note msgs = mismatches := !mismatches @ msgs in
  List.iter
    (fun op ->
      incr step;
      match op with
      | C_batch ms -> List.iter apply ms
      | C_renumber ->
        renumbered := true;
        let table = G.renumber inc ~keep:(fun _ -> false) in
        ids := Array.map (fun e' -> if e' < 0 then -1 else table.(e')) !ids
      | C_solve { src; dst; k; delay_bound } ->
        if src >= 0 && src < G.n inc && dst >= 0 && dst < G.n inc && src <> dst && k >= 1
           && delay_bound >= 0
        then begin
          ignore (G.freeze inc);
          ignore (G.rebuild full);
          let ii = Instance.create inc ~src ~dst ~k ~delay_bound in
          let fi = Instance.create full ~src ~dst ~k ~delay_bound in
          List.iter
            (fun w ->
              let axis = Printf.sprintf "churn/step-%d/width-%d" !step w in
              let a = Krsp.solve ii ~pool:(pool_of w) () in
              let b = Krsp.solve fi ~pool:(pool_of w) () in
              (* each witness is certified against the topology it was
                 solved against *)
              (match (a, b) with
              | Ok (sa, _), Ok (sb, _) ->
                note (certified ~level ~what:(axis ^ "/incremental") ii sa);
                note (certified ~level ~what:(axis ^ "/refreeze") fi sb);
                let same_edges = to_full sa = sorted_edges sb in
                if sa.Instance.cost <> sb.Instance.cost || sa.Instance.delay <> sb.Instance.delay
                   || (not same_edges)
                   || ((not !renumbered) && canon sa <> canon sb)
                then
                  note
                    [ Printf.sprintf
                        "%s: answers differ: incremental gives cost=%d delay=%d, refreeze \
                         gives cost=%d delay=%d%s"
                        axis sa.Instance.cost sa.Instance.delay sb.Instance.cost
                        sb.Instance.delay
                        (if same_edges then " (other paths)" else " over other edges")
                    ]
              | Error ea, Error eb ->
                (if ea <> eb then
                   note
                     [ Printf.sprintf "%s: incremental says %s but refreeze says %s" axis
                         (describe_error ea) (describe_error eb)
                     ]);
                note (audited ~what:(axis ^ "/incremental") ii ea)
              | Ok _, Error e ->
                note
                  [ Printf.sprintf "%s: incremental solved but refreeze reports %s" axis
                      (describe_error e)
                  ]
              | Error e, Ok _ ->
                note
                  [ Printf.sprintf "%s: refreeze solved but incremental reports %s" axis
                      (describe_error e)
                  ]))
            [ w1; w2 ]
        end)
    trace;
  !mismatches

let all ?(level = Check.Structural) inst =
  engines ~level inst @ widths ~level inst @ oracles ~level inst @ warm_cold ~level inst
  @ metamorphic inst
