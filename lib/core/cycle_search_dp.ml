module G = Krsp_graph.Digraph
module Walk = Krsp_graph.Walk

type candidate = { edges : G.edge list; cost : int; delay : int; kind : Bicameral.kind }

(* The product (state) space — vertex (u, c) for residual vertex u and
   accumulated cost c in [-B, B] — is never materialised. State (u, c) is
   the integer u·(2B+1) + (c+B); its out-edges are the active residual
   out-edges of u whose cost keeps c inside the window, weighted by the
   residual delay (the quantity minimised). One pass per search flattens
   the round's active edges into parallel arrays grouped by source, in
   ascending residual edge id: the order the CSR of a materialised
   product holds them in. Together with the FIFO discipline of [spfa] this
   reproduces a Bellman_ford run over that product exactly — distances,
   parents, enqueue counts — and with them every candidate list (the
   differential property in test/test_core.ml holds it to that). *)
type space = {
  bound : int;
  width : int; (* 2·bound + 1 layers *)
  states : int; (* n · width *)
  graph : G.t; (* the residual graph, for walking parent chains *)
  out_start : int array; (* length n+1: u's edges are slots out_start.(u) .. out_start.(u+1)-1 *)
  out_edge : int array; (* slot -> residual edge id *)
  out_dst : int array; (* slot -> head vertex *)
  out_cost : int array; (* slot -> residual cost, the layer offset *)
  out_delay : int array; (* slot -> residual delay, the relaxed weight *)
}

let space res ~bound =
  if bound < 1 then invalid_arg "Cycle_search_dp.space: bound must be >= 1";
  let rg = res.Residual.graph and active = res.Residual.active in
  let n = G.n rg in
  let start = Array.make (n + 1) 0 in
  G.iter_edges rg (fun e ->
      if active.(e) then begin
        let u = G.src rg e + 1 in
        start.(u) <- start.(u) + 1
      end);
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let slots = start.(n) in
  let edge = Array.make slots 0 and dst = Array.make slots 0 in
  let cost = Array.make slots 0 and delay = Array.make slots 0 in
  let next = Array.sub start 0 n in
  G.iter_edges rg (fun e ->
      if active.(e) then begin
        let u = G.src rg e in
        let i = next.(u) in
        next.(u) <- i + 1;
        edge.(i) <- e;
        dst.(i) <- G.dst rg e;
        cost.(i) <- G.cost rg e;
        delay.(i) <- G.delay rg e
      end);
  let width = (2 * bound) + 1 in
  {
    bound;
    width;
    states = n * width;
    graph = rg;
    out_start = start;
    out_edge = edge;
    out_dst = dst;
    out_cost = cost;
    out_delay = delay;
  }

let state sp u c = (u * sp.width) + (c + sp.bound)

(* the state [s] was reached from through its parent edge *)
let parent_state sp parent s =
  let e = parent.(s) in
  (G.src sp.graph e * sp.width) + (s mod sp.width) - G.cost sp.graph e

(* As in Bellman_ford: [states] hops up the parent chain from a state
   downstream of a negative cycle land inside it; collect edges from there
   until the start repeats. *)
let extract_cycle sp parent from =
  let s = ref from in
  for _ = 1 to sp.states do
    assert (parent.(!s) >= 0);
    s := parent_state sp parent !s
  done;
  let cycle_start = !s in
  let rec collect acc s =
    let u = parent_state sp parent s in
    let acc = parent.(s) :: acc in
    if u = cycle_start then acc else collect acc u
  in
  collect [] cycle_start

type outcome =
  | Settled of int array (* parent residual edge per state, -1 at sources *)
  | Cycle of G.edge list

(* FIFO SPFA over the implicit product, with Bellman_ford's enqueue-count
   bound (a state entering the queue more than [states + 1] times lies
   downstream of a negative cycle). Every state with a finite [dist] starts
   queued, in ascending order; [dist] is updated in place. *)
let spfa sp dist =
  let states = sp.states and width = sp.width in
  let start = sp.out_start and edge = sp.out_edge and dst = sp.out_dst in
  let cost = sp.out_cost and delay = sp.out_delay in
  let parent = Array.make states (-1) in
  let in_queue = Bytes.make states '\000' in
  let enqueues = Array.make states 0 in
  (* a state is queued at most once at a time, so [states] slots suffice *)
  let queue = Array.make (max states 1) 0 in
  let head = ref 0 and tail = ref 0 and queued = ref 0 in
  for s = 0 to states - 1 do
    if dist.(s) <> max_int then begin
      queue.(!tail) <- s;
      incr tail;
      incr queued;
      Bytes.unsafe_set in_queue s '\001';
      enqueues.(s) <- 1
    end
  done;
  if !tail = states then tail := 0;
  let exception Found of int in
  match
    while !queued > 0 do
      let s = queue.(!head) in
      head := if !head + 1 = states then 0 else !head + 1;
      decr queued;
      Bytes.unsafe_set in_queue s '\000';
      let ds = dist.(s) in
      let u = s / width in
      let layer = s - (u * width) in
      for i = start.(u) to start.(u + 1) - 1 do
        let l = layer + Array.unsafe_get cost i in
        if l >= 0 && l < width then begin
          let t = (Array.unsafe_get dst i * width) + l in
          let nd = ds + Array.unsafe_get delay i in
          if nd < Array.unsafe_get dist t then begin
            Array.unsafe_set dist t nd;
            Array.unsafe_set parent t (Array.unsafe_get edge i);
            if Bytes.unsafe_get in_queue t = '\000' then begin
              let k = Array.unsafe_get enqueues t + 1 in
              Array.unsafe_set enqueues t k;
              if k > states + 1 then raise_notrace (Found t);
              Array.unsafe_set queue !tail t;
              tail := if !tail + 1 = states then 0 else !tail + 1;
              incr queued;
              Bytes.unsafe_set in_queue t '\001'
            end
          end
        end
      done
    done
  with
  | () -> Settled parent
  | exception Found t -> Cycle (extract_cycle sp parent t)

let phase_a sp =
  match spfa sp (Array.make sp.states 0) with
  | Cycle walk -> Some walk
  | Settled _ -> None

let phase_b sp ~root =
  let dist = Array.make sp.states max_int in
  dist.(state sp root 0) <- 0;
  match spfa sp dist with
  | Cycle _ -> None
  | Settled parent -> Some (dist, parent)

(* Min-delay closed walks from (root, 0) to every reachable (root, c),
   c ≠ 0, in ascending c; none when a negative cycle is reachable (that is
   phase A's business). *)
let root_walks sp root =
  match phase_b sp ~root with
  | None -> []
  | Some (dist, parent) ->
    let rec collect acc s =
      let e = parent.(s) in
      if e = -1 then acc else collect (e :: acc) (parent_state sp parent s)
    in
    let walks = ref [] in
    for c = sp.bound downto -sp.bound do
      let s = state sp root c in
      if c <> 0 && dist.(s) <> max_int then walks := collect [] s :: !walks
    done;
    !walks

let roots res =
  let rg = res.Residual.graph in
  let mark = Array.make (G.n rg) false in
  Array.iteri
    (fun e reversed ->
      if reversed && res.Residual.active.(e) then begin
        mark.(G.src rg e) <- true;
        mark.(G.dst rg e) <- true
      end)
    res.Residual.is_reversed;
  let out = ref [] in
  Array.iteri (fun v m -> if m then out := v :: !out) mark;
  List.rev !out

let evaluate res ctx cyc =
  let cost = Residual.cycle_cost res cyc and delay = Residual.cycle_delay res cyc in
  match Bicameral.classify ctx ~cost ~delay with
  | None -> None
  | Some kind -> Some { edges = cyc; cost; delay; kind }

(* Decompose a closed residual walk (edge multiset, degree-balanced) into
   simple cycles. *)
let cycles_of_walk res walk_edges = Walk.decompose_cycles res.Residual.graph walk_edges

let candidates_of_walk res ctx walk_edges =
  List.filter_map (evaluate res ctx) (cycles_of_walk res walk_edges)

let better ctx a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some ca, Some cb ->
    if Bicameral.compare_candidates ctx (ca.cost, ca.delay) (cb.cost, cb.delay) <= 0 then
      Some ca
    else Some cb

(* Phase A: any negative-delay cycle of the state space projects to
   residual cycles of total cost 0 and total delay < 0, at least one piece
   of which is itself negative-delay. *)
let phase_a_candidates res ctx sp =
  match phase_a sp with
  | None -> []
  | Some walk -> candidates_of_walk res ctx walk

let phase_b_candidates res ctx sp root =
  List.fold_left (fun acc walk -> candidates_of_walk res ctx walk @ acc) [] (root_walks sp root)

(* When stopping early, keep scanning roots until a delay-reducing candidate
   (type-0/1) shows up — settling for the first type-2 can stall Algorithm 1
   in long trade-back sequences. *)
let delay_reducing found =
  List.exists (fun c -> c.kind <> Bicameral.Type2) found

let search res ~ctx ~bound ~stop_early =
  let sp = space res ~bound in
  let rec scan all = function
    | [] -> all
    | root :: rest ->
      let found = phase_b_candidates res ctx sp root in
      let all = found @ all in
      if stop_early && delay_reducing found then all else scan all rest
  in
  let a = phase_a_candidates res ctx sp in
  if stop_early && delay_reducing a then a else scan a (roots res)

let find res ~ctx ~bound ?(exhaustive = false) () =
  let cands = search res ~ctx ~bound ~stop_early:(not exhaustive) in
  List.fold_left (fun best c -> better ctx best (Some c)) None cands

let enumerate res ~ctx ~bound = search res ~ctx ~bound ~stop_early:false

let enumerate_raw res ~bound =
  let sp = space res ~bound in
  let all = ref [] in
  let push_walk walk =
    List.iter
      (fun cyc ->
        all := (cyc, Residual.cycle_cost res cyc, Residual.cycle_delay res cyc) :: !all)
      (cycles_of_walk res walk)
  in
  (match phase_a sp with
  | Some walk -> push_walk walk
  | None -> List.iter (fun root -> List.iter push_walk (root_walks sp root)) (roots res));
  !all
