module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path
module Instance = Krsp_core.Instance
module Krsp = Krsp_core.Krsp
module Xoshiro = Krsp_util.Xoshiro

type inject = Clean | Share_edge | Drop_edge | Tamper_cost

let inject_to_string = function
  | Clean -> "clean"
  | Share_edge -> "share-edge"
  | Drop_edge -> "drop-edge"
  | Tamper_cost -> "tamper-cost"

let inject_of_string = function
  | "clean" -> Some Clean
  | "share-edge" -> Some Share_edge
  | "drop-edge" -> Some Drop_edge
  | "tamper-cost" -> Some Tamper_cost
  | _ -> None

type failure = {
  case : int;
  reason : string;
  instance : Instance.t;
  edges_before_shrink : int;
}

type outcome = {
  cases : int;
  solved : int;
  infeasible : int;
  failures : failure list;
}

(* per-case stream: everything downstream is a pure function of (seed, case) *)
let case_rng ~seed ~case =
  Xoshiro.create ~seed:((seed * 1_000_003) lxor (case * 8_191) land max_int)

(* Small dense-ish DAG-leaning graphs: forward backbone 0→1→…→n-1 plus
   random extra edges (occasionally backward, so cycles appear too). Small
   weights keep the LP audit cheap and shrunk repros readable. *)
let gen_graph rng =
  let n = Xoshiro.int_in rng 4 8 in
  let g = G.create ~n () in
  for v = 0 to n - 2 do
    ignore
      (G.add_edge g ~src:v ~dst:(v + 1) ~cost:(Xoshiro.int rng 9) ~delay:(Xoshiro.int rng 6))
  done;
  let extra = Xoshiro.int_in rng n (3 * n) in
  for _ = 1 to extra do
    let u = Xoshiro.int rng n in
    let v = Xoshiro.int rng n in
    if u <> v then
      let u, v = if Xoshiro.int rng 5 = 0 then (v, u) else (min u v, max u v) in
      ignore (G.add_edge g ~src:u ~dst:v ~cost:(Xoshiro.int rng 9) ~delay:(Xoshiro.int rng 6))
  done;
  g

let gen_instance rng ~inject =
  let g = gen_graph rng in
  let n = G.n g in
  let k = match inject with Clean -> Xoshiro.int_in rng 1 3 | _ -> Xoshiro.int_in rng 2 3 in
  let probe = Instance.create g ~src:0 ~dst:(n - 1) ~k ~delay_bound:(G.total_delay g + 1) in
  let delay_bound =
    match Instance.min_possible_delay probe with
    | Some d -> d + Xoshiro.int rng 5 (* feasible, often tight *)
    | None -> Xoshiro.int rng 10 (* disconnected: exercises the infeasibility audit *)
  in
  Instance.create g ~src:0 ~dst:(n - 1) ~k ~delay_bound

let resum inst paths =
  {
    Instance.paths;
    cost = List.fold_left (fun a p -> a + Path.cost inst.Instance.graph p) 0 paths;
    delay = List.fold_left (fun a p -> a + Path.delay inst.Instance.graph p) 0 paths;
  }

let apply_inject rng inject inst (sol : Instance.solution) =
  match (inject, sol.Instance.paths) with
  | Clean, _ -> sol
  | Share_edge, first :: _ :: rest -> resum inst (first :: first :: rest)
  | Drop_edge, paths when List.exists (fun p -> List.length p > 1) paths ->
    let idx =
      let candidates =
        List.filteri (fun _ p -> List.length p > 1) paths |> List.length
      in
      Xoshiro.int rng candidates
    in
    let seen = ref (-1) in
    let paths' =
      List.map
        (fun p ->
          if List.length p > 1 then begin
            incr seen;
            if !seen = idx then
              let victim = Xoshiro.int rng (List.length p) in
              List.filteri (fun i _ -> i <> victim) p
            else p
          end
          else p)
        paths
    in
    resum inst paths'
  | Tamper_cost, _ -> { sol with Instance.cost = sol.Instance.cost + 1 + Xoshiro.int rng 5 }
  | (Share_edge | Drop_edge), _ -> sol (* too small to mutate; case passes *)

(* one pipeline run; [Some reason] = this configuration fails on [inst].
   The injection stream is re-derived from (seed, case) so the predicate is
   stable across shrink re-runs. *)
let run_case ~seed ~case ~level ~inject inst =
  match Krsp.solve inst () with
  | Error err ->
    let verdict =
      match err with
      | Krsp.No_k_disjoint_paths -> Check.Too_few_disjoint_paths
      | Krsp.Delay_bound_unreachable d -> Check.Delay_unreachable d
    in
    (match Check.audit_infeasible inst verdict with
    | Ok () -> (`Infeasible, None)
    | Error msg -> (`Infeasible, Some ("infeasibility audit: " ^ msg)))
  | Ok (sol, _) ->
    let rng = case_rng ~seed ~case in
    let sol = apply_inject rng inject inst sol in
    let cert = Check.certify ~level inst sol in
    if Check.ok cert then (`Solved, None)
    else (`Solved, Some (Check.to_string cert))

let drop_edge inst victim =
  let g = inst.Instance.graph in
  let g', _ = G.filter_map_edges g ~f:(fun e ->
      if e = victim then None else Some (G.cost g e, G.delay g e))
  in
  Instance.create g' ~src:inst.Instance.src ~dst:inst.Instance.dst ~k:inst.Instance.k
    ~delay_bound:inst.Instance.delay_bound

(* drop vertices no edge touches (src/dst kept), preserving edge order/ids *)
let compact inst =
  let g = inst.Instance.graph in
  let n = G.n g in
  let used = Array.make n false in
  used.(inst.Instance.src) <- true;
  used.(inst.Instance.dst) <- true;
  G.iter_edges g (fun e ->
      used.(G.src g e) <- true;
      used.(G.dst g e) <- true);
  if Array.for_all Fun.id used then inst
  else begin
    let remap = Array.make n (-1) in
    let next = ref 0 in
    Array.iteri (fun v u -> if u then begin remap.(v) <- !next; incr next end) used;
    let g' = G.create ~expected_edges:(G.m g) ~n:!next () in
    G.iter_edges g (fun e ->
        ignore
          (G.add_edge g' ~src:remap.(G.src g e) ~dst:remap.(G.dst g e) ~cost:(G.cost g e)
             ~delay:(G.delay g e)));
    Instance.create g' ~src:remap.(inst.Instance.src) ~dst:remap.(inst.Instance.dst)
      ~k:inst.Instance.k ~delay_bound:inst.Instance.delay_bound
  end

let shrink still_fails inst =
  (* greedy first-improvement: retry from edge 0 after every success, so the
     result is a local minimum under single-edge removal *)
  let rec edge_pass inst =
    let m = G.m inst.Instance.graph in
    let rec try_from e =
      if e >= m then inst
      else
        let candidate = drop_edge inst e in
        if still_fails candidate then edge_pass candidate else try_from (e + 1)
    in
    try_from 0
  in
  let rec k_pass inst =
    if inst.Instance.k <= 1 then inst
    else
      let candidate = { inst with Instance.k = inst.Instance.k - 1 } in
      if still_fails candidate then k_pass (edge_pass candidate) else inst
  in
  let shrunk = k_pass (edge_pass inst) in
  let compacted = compact shrunk in
  if still_fails compacted then compacted else shrunk

let run ?(level = Check.Full) ?(inject = Clean) ?(count = 50) ?(max_failures = 3) ?corpus_dir
    ?(log = fun _ -> ()) ~seed () =
  let solved = ref 0 and infeasible = ref 0 and failures = ref [] in
  (match corpus_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let case = ref 0 in
  while !case < count && List.length !failures < max_failures do
    let c = !case in
    incr case;
    let rng = case_rng ~seed ~case:c in
    let inst = gen_instance rng ~inject in
    let kind, failed = run_case ~seed ~case:c ~level ~inject inst in
    (match kind with `Solved -> incr solved | `Infeasible -> incr infeasible);
    match failed with
    | None -> ()
    | Some reason ->
      let edges_before_shrink = G.m inst.Instance.graph in
      let still_fails inst' =
        snd (run_case ~seed ~case:c ~level ~inject inst') <> None
      in
      let repro = shrink still_fails inst in
      let reason =
        match snd (run_case ~seed ~case:c ~level ~inject repro) with
        | Some r -> r
        | None -> reason (* unreachable: shrink preserves failure *)
      in
      log
        (Printf.sprintf "case %d FAILED (%d edges, shrunk from %d):\n%s" c
           (G.m repro.Instance.graph) edges_before_shrink reason);
      (match corpus_dir with
      | Some dir ->
        let file = Printf.sprintf "seed%d-case%d.krsp" seed c in
        let comment =
          Printf.sprintf "fuzz repro: seed=%d case=%d inject=%s\n%s" seed c
            (inject_to_string inject)
            (String.concat "\n" (String.split_on_char '\n' reason))
        in
        Corpus.save (Filename.concat dir file) ~comment repro;
        log (Printf.sprintf "  saved %s" (Filename.concat dir file))
      | None -> ());
      failures := { case = c; reason; instance = repro; edges_before_shrink } :: !failures
  done;
  let outcome =
    {
      cases = !case;
      solved = !solved;
      infeasible = !infeasible;
      failures = List.rev !failures;
    }
  in
  log
    (Printf.sprintf "fuzz: %d cases (%d solved, %d infeasible), %d failure%s" outcome.cases
       outcome.solved outcome.infeasible
       (List.length outcome.failures)
       (if List.length outcome.failures = 1 then "" else "s"));
  outcome

(* ---- churn fuzzing --------------------------------------------------------- *)

type churn_inject = Churn_clean | Stale_entry

let churn_inject_to_string = function Churn_clean -> "clean" | Stale_entry -> "stale-entry"

let churn_inject_of_string = function
  | "clean" -> Some Churn_clean
  | "stale-entry" -> Some Stale_entry
  | _ -> None

type churn_failure = {
  trace_case : int;
  reason : string;
  graph : G.t;
  trace : Differential.churn_op list;
  ops_before_shrink : int;
}

type churn_outcome = {
  traces : int;
  churn_solves : int;
  churn_mutations : int;
  churn_failures : churn_failure list;
}

(* ids may overshoot the current edge count (by the +2 slack and because
   earlier dels shrink the live set): Differential.apply_mutation skips
   ineffective ops, which is exactly the idempotent-replay semantics the
   MUTATE verb has *)
let gen_mutation rng g =
  let m = max 1 (G.m g) and n = G.n g in
  match Xoshiro.int rng 4 with
  | 0 -> Differential.M_del (Xoshiro.int rng (m + 2))
  | 1 -> Differential.M_restore (Xoshiro.int rng (m + 2))
  | 2 ->
    let u = Xoshiro.int rng n and v = Xoshiro.int rng n in
    Differential.M_ins { u; v; cost = Xoshiro.int rng 9; delay = Xoshiro.int rng 6 }
  | _ ->
    Differential.M_rew
      { edge = Xoshiro.int rng (m + 2); cost = Xoshiro.int rng 9; delay = Xoshiro.int rng 6 }

(* solve steps lean on the backbone endpoints so successive solves repeat
   the same query across mutations — the schedule shape that exercises
   caches, donors and overlay reuse; occasional random pairs cover the
   rest of the plane *)
let gen_trace rng g =
  let n = G.n g in
  let len = Xoshiro.int_in rng 6 12 in
  (* delay bounds are quantized to a handful of values so the schedule
     revisits the same (s, t, k, D) keys across mutations — the repeats
     are what exercises caches and stale-entry detection *)
  let total = G.total_delay g in
  let bounds = [| total + 1; max 1 (total / 2); max 1 (total / 4) |] in
  List.init len (fun _ ->
      let r = Xoshiro.int rng 10 in
      if r < 6 then begin
        let src, dst =
          if Xoshiro.int rng 4 = 0 then (Xoshiro.int rng n, Xoshiro.int rng n) else (0, n - 1)
        in
        Differential.C_solve
          {
            src;
            dst;
            k = Xoshiro.int_in rng 1 2;
            delay_bound = bounds.(Xoshiro.int rng (Array.length bounds));
          }
      end
      else if r < 9 then
        Differential.C_batch
          (List.init (Xoshiro.int_in rng 1 3) (fun _ -> gen_mutation rng g))
      else Differential.C_renumber)

(* The stale-entry planted bug: replay the trace against one mutating
   replica with a query cache that is never invalidated, and serve every
   hit as-is. The harness must catch the staleness — a served entry is
   re-certified against the {e current} topology, so a cached path through
   a deleted edge or a re-weighted sum fails its certificate. A failure
   here is the harness working. *)
let stale_replay ~level base trace =
  let g = G.copy base in
  let cache = Hashtbl.create 16 in
  let msgs = ref [] in
  let step = ref 0 in
  List.iter
    (fun op ->
      incr step;
      match op with
      | Differential.C_batch ms -> List.iter (Differential.apply_mutation g) ms
      (* the lone replica plays the unrenumbered reference: trace ids name
         its edges throughout *)
      | Differential.C_renumber -> ()
      | Differential.C_solve { src; dst; k; delay_bound } ->
        if
          src >= 0 && src < G.n g && dst >= 0 && dst < G.n g && src <> dst && k >= 1
          && delay_bound >= 0
        then begin
          ignore (G.freeze g);
          let inst = Instance.create g ~src ~dst ~k ~delay_bound in
          let key = (src, dst, k, delay_bound) in
          match Hashtbl.find_opt cache key with
          | Some sol ->
            let cert = Check.certify ~level inst sol in
            if not (Check.ok cert) then
              msgs :=
                Printf.sprintf "churn/step-%d: stale cache entry served:\n%s" !step
                  (Check.to_string cert)
                :: !msgs
          | None -> (
            match Krsp.solve inst () with
            | Ok (sol, _) -> Hashtbl.replace cache key sol
            | Error _ -> ())
        end)
    trace;
  List.rev !msgs

let run_churn_trace ~level ~inject g trace =
  match inject with
  | Churn_clean -> Differential.churn ~level g trace
  | Stale_entry -> stale_replay ~level g trace

(* greedy first-improvement, like the instance shrinker: drop whole trace
   ops to a fixpoint, then single mutations out of surviving batches *)
let shrink_trace still_fails trace =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let rec op_pass trace =
    let rec try_from i =
      if i >= List.length trace then trace
      else
        let cand = drop_nth trace i in
        if still_fails cand then op_pass cand else try_from (i + 1)
    in
    try_from 0
  in
  let rec elem_pass trace =
    let rec try_at i =
      if i >= List.length trace then trace
      else
        match List.nth trace i with
        | Differential.C_batch ms when List.length ms > 1 ->
          let rec try_elem j =
            if j >= List.length ms then try_at (i + 1)
            else
              let cand =
                List.mapi
                  (fun idx op ->
                    if idx = i then Differential.C_batch (drop_nth ms j) else op)
                  trace
              in
              if still_fails cand then elem_pass cand else try_elem (j + 1)
          in
          try_elem 0
        | _ -> try_at (i + 1)
    in
    try_at 0
  in
  elem_pass (op_pass trace)

let run_churn ?(level = Check.Structural) ?(inject = Churn_clean) ?(count = 30)
    ?(max_failures = 3) ?corpus_dir ?(log = fun _ -> ()) ~seed () =
  let solves = ref 0 and mutations = ref 0 and failures = ref [] in
  (match corpus_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let case = ref 0 in
  while !case < count && List.length !failures < max_failures do
    let c = !case in
    incr case;
    (* decouple the churn stream from the instance-fuzz stream: the same
       seed must not make the two modes correlated *)
    let rng = case_rng ~seed ~case:(c + 1_000_000) in
    let g = gen_graph rng in
    let trace = gen_trace rng g in
    List.iter
      (function
        | Differential.C_solve _ -> incr solves
        | Differential.C_batch ms -> mutations := !mutations + List.length ms
        | Differential.C_renumber -> ())
      trace;
    match run_churn_trace ~level ~inject g trace with
    | [] -> ()
    | first :: _ ->
      let ops_before_shrink = List.length trace in
      let still_fails trace' = run_churn_trace ~level ~inject g trace' <> [] in
      let repro = shrink_trace still_fails trace in
      let reason =
        match run_churn_trace ~level ~inject g repro with
        | r :: _ -> r
        | [] -> first (* unreachable: shrink preserves failure *)
      in
      log
        (Printf.sprintf "churn trace %d FAILED (%d ops, shrunk from %d):\n%s" c
           (List.length repro) ops_before_shrink reason);
      (match corpus_dir with
      | Some dir ->
        let file = Printf.sprintf "seed%d-case%d.churn" seed c in
        let comment =
          Printf.sprintf "churn repro: seed=%d case=%d inject=%s\n%s" seed c
            (churn_inject_to_string inject) reason
        in
        Corpus.save_churn (Filename.concat dir file) ~comment (g, repro);
        log (Printf.sprintf "  saved %s" (Filename.concat dir file))
      | None -> ());
      failures := { trace_case = c; reason; graph = g; trace = repro; ops_before_shrink } :: !failures
  done;
  let outcome =
    {
      traces = !case;
      churn_solves = !solves;
      churn_mutations = !mutations;
      churn_failures = List.rev !failures;
    }
  in
  log
    (Printf.sprintf "churn fuzz: %d traces (%d solve steps, %d mutations), %d failure%s"
       outcome.traces outcome.churn_solves outcome.churn_mutations
       (List.length outcome.churn_failures)
       (if List.length outcome.churn_failures = 1 then "" else "s"));
  outcome
