(* Seeded inputs for the benchmark's workloads.

   The program under test sees only the text made here: edge lists in the
   Krsp_graph.Io format with the (src, dst, k, D) of each query, and krspd
   protocol lines. Generation may call the library (topology generators,
   Instgen's bound interpolation, min-sum probes) because it runs before,
   and is excluded from, every measurement. The same seed gives
   byte-identical inputs. *)

module G = Krsp_graph.Digraph
module X = Krsp_util.Xoshiro
module Topology = Krsp_gen.Topology
module Instgen = Krsp_gen.Instgen
module Instance = Krsp_core.Instance
module Phase1 = Krsp_core.Phase1

type query = {
  edges : string;  (** the graph, as edge-list text *)
  src : int;
  dst : int;
  k : int;
  delay_bound : int;
  band : int;  (** rsp-k1's delay-scale index, 0..3; 0 on solve-k2 *)
  reference : Instance.t;  (** the generator's own instance, for the checker *)
}

let min_sum_delay inst =
  match Phase1.min_sum inst with Phase1.Start s -> Some s.Phase1.delay | _ -> None

(* Binding: D is below the min-sum solution's delay, so phase 1 alone
   cannot answer and the layer the workload targets has to run. *)
let is_binding inst =
  match min_sum_delay inst with Some d -> d > inst.Instance.delay_bound | None -> false

let query_of inst ~band =
  {
    edges = Krsp_graph.Io.to_edge_list inst.Instance.graph;
    src = inst.Instance.src;
    dst = inst.Instance.dst;
    k = inst.Instance.k;
    delay_bound = inst.Instance.delay_bound;
    band;
    reference = inst;
  }

(* --- solve-k2 ------------------------------------------------------------------ *)

(* Costs 1..3 keep the guess, and with it the (2B+1)-layer cost product
   the cycle search walks, small: a solve takes milliseconds, so a run
   times thousands of them and no single heavy instance sets the
   throughput. *)
let solve_k2_weights = { Topology.cost_range = (1, 3); delay_range = (1, 20) }

(* Query i is stratified, not drawn: the family alternates and the
   tightness walks a 0.2..0.8 grid, so every prefix of the stream carries
   the same mix and runs that reach different lengths stay comparable. *)
let solve_k2_query rng i =
  let tightness = 0.2 +. (0.1 *. float_of_int (i / 2 mod 7)) in
  let rec attempt () =
    let n = 8 + X.int rng 5 in
    let g =
      if i mod 2 = 0 then Topology.erdos_renyi rng ~n ~p:0.4 solve_k2_weights
      else Topology.waxman rng ~n ~alpha:0.9 ~beta:0.3 solve_k2_weights
    in
    match Instgen.instance rng g { Instgen.k = 2; tightness } with
    | Some inst when is_binding inst -> query_of inst ~band:0
    | _ -> attempt ()
  in
  attempt ()

(* [stream query ~seed] is the seeded generator of a query stream *)
let stream query ~seed =
  let rng = X.create ~seed and i = ref (-1) in
  fun () ->
    incr i;
    query rng !i

let solve_k2 = stream solve_k2_query

(* --- rsp-k1 -------------------------------------------------------------------- *)

let rsp_sizes = [| 48; 64; 96 |]

(* maximum edge delay per band; the binding D grows with it and falls on
   both sides of the D≈400 crossover between the exact DP and the FPTAS *)
let delay_scales = [| 15; 60; 240; 960 |]

(* E20's sparse family, as bench/e20_oracles.ml builds it: each ordered
   pair gets an edge with probability 6/n (about six out-edges per
   vertex), costs 1..30, delays 1..dmax, and a backbone chain so 0 reaches
   n-1. *)
let rsp_graph rng ~n ~dmax =
  let p = min 1.0 (6.0 /. float_of_int n) in
  let g = G.create ~n () in
  let add u v =
    ignore (G.add_edge g ~src:u ~dst:v ~cost:(1 + X.int rng 30) ~delay:(1 + X.int rng dmax))
  in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && X.float rng 1.0 < p then add u v
    done
  done;
  for i = 0 to n - 2 do
    add i (i + 1)
  done;
  g

let rsp_k1_query rng i =
  let n = rsp_sizes.(i mod Array.length rsp_sizes) in
  let band = i / Array.length rsp_sizes mod Array.length delay_scales in
  let rec attempt () =
    let g = rsp_graph rng ~n ~dmax:delay_scales.(band) in
    (* E20's bound: a third of the way from the min-delay path's delay to
       the cheapest path's *)
    match Instgen.instance_st g ~src:0 ~dst:(n - 1) { Instgen.k = 1; tightness = 1. /. 3. } with
    | Some inst when is_binding inst -> query_of inst ~band
    | _ -> attempt ()
  in
  attempt ()

let rsp_k1 = stream rsp_k1_query

(* --- serve-churn --------------------------------------------------------------- *)

type key = { s : int; t : int; kk : int; d : int }

type op =
  | Solve of key
  | Fail of int * int
  | Restore of int * int
  | Rew of { u : int; v : int; cost : int; delay : int }
  | Ins of { u : int; v : int; cost : int; delay : int }
  | Del of int * int

type serve = {
  topology : string;  (** fat-tree edge list *)
  keys : key array;  (** the distinct queries, in warm-up order *)
  next : unit -> op;  (** the timed stream *)
}

let line_of_op = function
  | Solve { s; t; kk; d } -> Printf.sprintf "SOLVE %d %d %d %d" s t kk d
  | Fail (u, v) -> Printf.sprintf "FAIL %d %d" u v
  | Restore (u, v) -> Printf.sprintf "RESTORE %d %d" u v
  | Rew { u; v; cost; delay } -> Printf.sprintf "MUTATE rew:%d:%d:%d:%d" u v cost delay
  | Ins { u; v; cost; delay } -> Printf.sprintf "MUTATE ins:%d:%d:%d:%d" u v cost delay
  | Del (u, v) -> Printf.sprintf "MUTATE del:%d:%d" u v

(* The shadow replica: a graph the checker and the generator keep in step
   with the engine's live topology by applying each op with krspd's
   semantics — FAIL takes down a link in both directions and RESTORE
   revives exactly those edges; rew re-weights, ins adds, del tombstones
   every live u→v edge. *)
module Shadow = struct
  type t = { g : G.t; failed : (int * int, G.edge list) Hashtbl.t }

  let create g = { g = G.copy g; failed = Hashtbl.create 8 }
  let graph sh = sh.g

  let directed sh u v = List.filter (fun e -> G.dst sh.g e = v) (G.out_edges sh.g u)

  let apply sh = function
    | Solve _ -> ()
    | Fail (u, v) ->
      let es = directed sh u v @ directed sh v u in
      List.iter (G.remove_edge sh.g) es;
      Hashtbl.replace sh.failed (u, v) es
    | Restore (u, v) ->
      List.iter (G.unremove_edge sh.g) (Hashtbl.find sh.failed (u, v));
      Hashtbl.remove sh.failed (u, v)
    | Rew { u; v; cost; delay } ->
      List.iter
        (fun e ->
          G.set_cost sh.g e cost;
          G.set_delay sh.g e delay)
        (directed sh u v)
    | Ins { u; v; cost; delay } -> ignore (G.add_edge sh.g ~src:u ~dst:v ~cost ~delay)
    | Del (u, v) -> List.iter (G.remove_edge sh.g) (directed sh u v)
end

let pods = 4
let distinct_keys = 128
let zipf_exponent = 1.0

(* one topology event opens on this share of slots; its matching close
   follows 20..200 slots later, so about 2% of lines are events *)
let event_open_pct = 1

(* small costs, as on solve-k2, keep a re-solve that does bind short *)
let fat_tree_weights = { Topology.cost_range = (1, 5); delay_range = (1, 20) }

let serve_churn ~seed =
  let rng = X.create ~seed in
  let g = Topology.fat_tree rng ~pods fat_tree_weights in
  let n = G.n g in
  (* Edge switches are the last pods·pods/2 vertices; hosts hang off them.
     Keys join edge switches of different pods, so every key's paths climb
     to the core. Key r, which the Zipf draw ranks r-th, asks for
     k = 1 + r mod 2: every seed's hot set mixes both k alike. *)
  let half = pods / 2 in
  let edge_switch p i = n - (pods * half) + (p * half) + i in
  let seen = Hashtbl.create distinct_keys in
  let keys = ref [] in
  while Hashtbl.length seen < distinct_keys do
    let kk = 1 + (Hashtbl.length seen mod 2) in
    let ps = X.int rng pods and pt = X.int rng (pods - 1) in
    let pt = if pt >= ps then pt + 1 else pt in
    let s = edge_switch ps (X.int rng half) and t = edge_switch pt (X.int rng half) in
    let probe = Instance.create g ~src:s ~dst:t ~k:kk ~delay_bound:max_int in
    match min_sum_delay probe with
    | Some msd ->
      (* D has slack over the min-sum delay, so answers start feasible: a
         tenth to a half for k = 1, where churn that makes D bind costs
         one oracle call; one to two times for k = 2, where it would cost
         a cycle-search solve of up to a second — a run then rests on how
         many of those it happened to draw (solve-k2 measures that layer) *)
      let lo, hi = if kk = 1 then (10, 50) else (100, 200) in
      let d = msd + max 1 (msd * (lo + X.int rng (hi - lo + 1)) / 100) in
      let key = { s; t; kk; d } in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        keys := key :: !keys
      end
    | None -> ()
  done;
  let keys = Array.of_list (List.rev !keys) in
  (* Zipf over the keys: rank r is drawn with weight 1/(r+1)^s *)
  let cumulative =
    let acc = ref 0. in
    Array.init distinct_keys (fun r ->
        acc := !acc +. (1. /. (float_of_int (r + 1) ** zipf_exponent));
        !acc)
  in
  let draw_key () =
    let x = X.float rng cumulative.(distinct_keys - 1) in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) < x then search (mid + 1) hi else search lo mid
    in
    keys.(search 0 (distinct_keys - 1))
  in
  let shadow = Shadow.create g in
  let sg = Shadow.graph shadow in
  let links = Array.of_list (List.filter (fun e -> G.src g e < G.dst g e) (G.edges g)) in
  let pair u v = (min u v, max u v) in
  let busy = Hashtbl.create 16 in
  let closes = ref [] (* (due slot, op), unordered *) in
  let open_event slot =
    let close_at = slot + 20 + X.int rng 181 in
    let schedule u v open_op close_op =
      Hashtbl.replace busy (pair u v) ();
      closes := (close_at, (u, v, close_op)) :: !closes;
      Some open_op
    in
    match X.int rng 3 with
    | 0 ->
      let e = X.pick rng links in
      let u = G.src g e and v = G.dst g e in
      if Hashtbl.mem busy (pair u v) then None else schedule u v (Fail (u, v)) (Restore (u, v))
    | 1 ->
      let e = X.pick rng links in
      let u, v = if X.bool rng then (G.src g e, G.dst g e) else (G.dst g e, G.src g e) in
      if Hashtbl.mem busy (pair u v) then None
      else begin
        match Shadow.directed shadow u v with
        | [ e' ] ->
          let cost = G.cost sg e' and delay = G.delay sg e' in
          schedule u v
            (Rew { u; v; cost = cost + 1 + X.int rng 10; delay = delay + 1 + X.int rng 10 })
            (Rew { u; v; cost; delay })
        | _ -> None
      end
    | _ ->
      let u = X.int rng n and v = X.int rng n in
      if u = v || Hashtbl.mem busy (pair u v) || Shadow.directed shadow u v <> [] then None
      else
        schedule u v
          (Ins { u; v; cost = 1 + X.int rng 20; delay = 1 + X.int rng 20 })
          (Del (u, v))
  in
  let next_op slot =
    match List.partition (fun (due, _) -> due <= slot) !closes with
    | (_, (u, v, close_op)) :: rest_due, later ->
      closes := rest_due @ later;
      Hashtbl.remove busy (pair u v);
      close_op
    | [], _ -> (
      if X.int rng 100 >= event_open_pct then Solve (draw_key ())
      else match open_event slot with Some op -> op | None -> Solve (draw_key ()))
  in
  let slot = ref (-1) in
  let next () =
    incr slot;
    let op = next_op !slot in
    Shadow.apply shadow op;
    op
  in
  { topology = Krsp_graph.Io.to_edge_list g; keys; next }

let warmup_lines serve = Array.map (fun key -> line_of_op (Solve key)) serve.keys
