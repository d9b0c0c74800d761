module G = Krsp_graph.Digraph
module Path = Krsp_graph.Path

type t = {
  graph : G.t;
  base_edge : int array;
  is_reversed : bool array;
  active : bool array;
}

(* --- one-shot build (fresh graph per call) -------------------------------- *)

let build g ~paths =
  if not (Path.edge_disjoint paths) then invalid_arg "Residual.build: paths share edges";
  let on_path = Array.make (G.m g) false in
  List.iter (fun p -> List.iter (fun e -> on_path.(e) <- true) p) paths;
  let rg = G.create ~expected_edges:(G.m g) ~n:(G.n g) () in
  let base_edge = Array.make (G.m g) (-1) in
  let is_reversed = Array.make (G.m g) false in
  G.iter_edges g (fun e ->
      let re =
        if on_path.(e) then
          G.add_edge rg ~src:(G.dst g e) ~dst:(G.src g e) ~cost:(-G.cost g e)
            ~delay:(-G.delay g e)
        else G.add_edge rg ~src:(G.src g e) ~dst:(G.dst g e) ~cost:(G.cost g e) ~delay:(G.delay g e)
      in
      base_edge.(re) <- e;
      is_reversed.(re) <- on_path.(e));
  { graph = rg; base_edge; is_reversed; active = Array.make (G.m g) true }

(* --- arena (preallocated doubled graph, reused across rounds) ------------- *)

(* The residual of ANY path set lives inside one static "doubled" graph:
   base edge [e] contributes a forward copy [2e] (same endpoints and
   weights) and a reversed copy [2e+1] (endpoints swapped, both weights
   negated). A round's residual is then a pure view transform — refill the
   [active] mask so exactly one copy of each base edge participates — and
   the doubled graph (and its frozen CSR view) survives every cancellation
   round untouched. *)
type arena = {
  a_graph : G.t;
  a_base : G.t; (* the base graph, for tombstone lookups in of_arena *)
  a_base_edge : int array; (* length 2m: doubled id -> base id (= id/2) *)
  a_is_reversed : bool array; (* doubled id -> is it the reversed copy (= id odd) *)
  a_active : bool array; (* length 2m, refilled by of_arena *)
  a_on_path : bool array; (* length m, scratch *)
}

(* The doubled graph covers every allocated base id — tombstoned edges
   included — because the [2e]/[2e+1] addressing must stay aligned with
   the base graph's id space. A dead base edge simply has both its copies
   forced inactive by [of_arena], so no cycle search (they all honour the
   mask) can ever traverse it. *)
let arena g =
  let m = G.m g in
  let dg = G.create ~expected_edges:(max (2 * m) 1) ~n:(G.n g) () in
  let base_edge = Array.make (max (2 * m) 1) (-1) in
  let is_reversed = Array.make (max (2 * m) 1) false in
  for e = 0 to m - 1 do
    let u = G.src g e and w = G.dst g e in
    let c = G.cost g e and d = G.delay g e in
    let fwd = G.add_edge dg ~src:u ~dst:w ~cost:c ~delay:d in
    let bwd = G.add_edge dg ~src:w ~dst:u ~cost:(-c) ~delay:(-d) in
    assert (fwd = 2 * e && bwd = (2 * e) + 1);
    base_edge.(fwd) <- e;
    base_edge.(bwd) <- e;
    is_reversed.(bwd) <- true
  done;
  (* the whole point: freeze once, every round reuses this CSR view *)
  ignore (G.freeze dg);
  {
    a_graph = dg;
    a_base = g;
    a_base_edge = base_edge;
    a_is_reversed = is_reversed;
    a_active = Array.make (max (2 * m) 1) false;
    a_on_path = Array.make (max m 1) false;
  }

let of_arena a ~paths =
  if not (Path.edge_disjoint paths) then invalid_arg "Residual.of_arena: paths share edges";
  let m = G.m a.a_graph / 2 in
  Array.fill a.a_on_path 0 (max m 1) false;
  List.iter
    (List.iter (fun e ->
         if e < 0 || e >= m then invalid_arg "Residual.of_arena: edge outside arena";
         a.a_on_path.(e) <- true))
    paths;
  for e = 0 to m - 1 do
    let live = G.alive a.a_base e in
    a.a_active.(2 * e) <- live && not a.a_on_path.(e);
    a.a_active.((2 * e) + 1) <- live && a.a_on_path.(e)
  done;
  {
    graph = a.a_graph;
    base_edge = a.a_base_edge;
    is_reversed = a.a_is_reversed;
    active = a.a_active;
  }

let active t e = t.active.(e)

let iter_active t f =
  for e = 0 to G.m t.graph - 1 do
    if t.active.(e) then f e
  done

let cost t e = G.cost t.graph e
let delay t e = G.delay t.graph e

let apply_cycle t ~current ~cycle =
  let in_current = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace in_current e ()) current;
  List.iter
    (fun re ->
      let e = t.base_edge.(re) in
      if t.is_reversed.(re) then begin
        if not (Hashtbl.mem in_current e) then
          invalid_arg "Residual.apply_cycle: reversing an unused edge";
        Hashtbl.remove in_current e
      end
      else begin
        if Hashtbl.mem in_current e then
          invalid_arg "Residual.apply_cycle: adding an edge already in use";
        Hashtbl.replace in_current e ()
      end)
    cycle;
  Hashtbl.fold (fun e () acc -> e :: acc) in_current []

let cycle_cost t cyc = List.fold_left (fun acc e -> acc + cost t e) 0 cyc
let cycle_delay t cyc = List.fold_left (fun acc e -> acc + delay t e) 0 cyc
