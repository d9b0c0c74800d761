(* Edges live in growable parallel arrays; adjacency is kept twice:

   - an array of edge-id lists, the mutable ground truth (edges are
     appended by [add_edge] and individually tombstoned by [remove_edge]
     — the list cell stays in place, iteration skips dead ids, so edge
     identifiers are stable until [renumber] drops dead ids);
   - a frozen CSR (compressed sparse row) snapshot — flat [int array]
     index+edge arrays for both directions — built on demand by {!freeze}
     and cached until the next adjacency mutation.

   A generation counter ([version]) ties the two together: [add_edge],
   [add_vertex], [remove_edge] and [unremove_edge] bump it, so a cached
   snapshot whose generation lags the graph's is stale and [freeze]
   rebuilds it. Weight mutation ([set_cost] / [set_delay]) does not
   invalidate — views read weights through the live arrays, only
   adjacency is frozen.

   Dynamic topology: a rebuild after a small mutation batch does not pay
   O(n + m). [freeze] keeps the last full CSR build ([base]) and answers
   with a *delta overlay*: the base arrays plus override rows for just
   the vertices whose adjacency changed since that build. Override rows
   are rebuilt from the ground-truth lists — the lists hold ids
   newest-first, so filtering the dead ids and reversing restores
   ascending edge-id order, exactly the counting sort's per-vertex
   output. An overlay view is therefore indistinguishable, edge id for
   edge id, from a full re-freeze; consumers never branch on which kind
   they got. Past a size threshold (default an eighth of the live edge
   set) the patch is folded into a fresh full build (*compaction*). *)

type vertex = int
type edge = int

type t = {
  mutable n : int;
  mutable m : int;
  mutable src : int array;
  mutable dst : int array;
  mutable cost : int array;
  mutable delay : int array;
  mutable out : edge list array; (* length >= n *)
  mutable inc : edge list array;
  mutable removed : Bytes.t; (* length >= m; '\001' marks a tombstone *)
  mutable n_removed : int;
  mutable version : int; (* bumped by any adjacency mutation *)
  mutable csr : view option; (* cached snapshot, valid iff gen = version *)
  mutable base : view option; (* last full (non-overlay) CSR build *)
  mutable dirty_out : vertex list; (* out-rows differing from [base] *)
  mutable dirty_in : vertex list;
  mutable patch_edges : int; (* adjacency mutations since [base] *)
  mutable compact_frac : float; (* overlay budget as a fraction of live m *)
  (* freeze-path counters, exported to the serving layer as topo.* *)
  mutable c_full_freezes : int;
  mutable c_overlay_freezes : int;
  mutable c_compactions : int;
  mutable c_patched_total : int;
}

and view = {
  vg : t;
  gen : int; (* vg.version at freeze time *)
  vn : int;
  vm : int;
  out_idx : int array; (* length vn+1; out-edges of u are out_adj.(out_idx.(u) .. out_idx.(u+1)-1) *)
  out_adj : int array; (* live edge ids grouped by source, ascending per row *)
  in_idx : int array;
  in_adj : int array;
  ov : overlay option; (* delta patch over the base arrays, None = full build *)
}

(* Override rows live in one flat buffer per direction: position [p] holds
   the row length, entries follow. [o_*_pos] maps a vertex to its row
   position, -1 = not overridden (read the base arrays). *)
and overlay = {
  o_out_pos : int array; (* length vn *)
  o_out_buf : int array;
  o_in_pos : int array;
  o_in_buf : int array;
}

let default_compact_frac = 0.125

let create ?(expected_edges = 16) ~n () =
  let cap = max expected_edges 1 in
  {
    n;
    m = 0;
    src = Array.make cap 0;
    dst = Array.make cap 0;
    cost = Array.make cap 0;
    delay = Array.make cap 0;
    out = Array.make (max n 1) [];
    inc = Array.make (max n 1) [];
    removed = Bytes.make cap '\000';
    n_removed = 0;
    version = 0;
    csr = None;
    base = None;
    dirty_out = [];
    dirty_in = [];
    patch_edges = 0;
    compact_frac = default_compact_frac;
    c_full_freezes = 0;
    c_overlay_freezes = 0;
    c_compactions = 0;
    c_patched_total = 0;
  }

(* The cached snapshot must not travel: its [vg] back-pointer would keep
   reading weights from the *original* graph, so a copy that shared it
   would silently see the original's later [set_cost] writes. The copy
   starts with no base either — its first freeze is a full build. *)
let copy t =
  {
    t with
    src = Array.copy t.src;
    dst = Array.copy t.dst;
    cost = Array.copy t.cost;
    delay = Array.copy t.delay;
    out = Array.copy t.out;
    inc = Array.copy t.inc;
    removed = Bytes.copy t.removed;
    csr = None;
    base = None;
    dirty_out = [];
    dirty_in = [];
    patch_edges = 0;
  }

let n t = t.n
let m t = t.m
let m_alive t = t.m - t.n_removed
let generation t = t.version

let check_edge t e = if e < 0 || e >= t.m then invalid_arg "Digraph: bad edge id"

(* unchecked: callers guarantee e < m *)
let live t e = Bytes.unsafe_get t.removed e = '\000'
let alive t e = check_edge t e; live t e

let invalidate t =
  t.version <- t.version + 1;
  t.csr <- None

(* Record an adjacency mutation touching [u]'s out-row and [v]'s in-row.
   Dirty tracking only matters once a base build exists. *)
let touch t ~u ~v =
  if t.base <> None then begin
    t.dirty_out <- u :: t.dirty_out;
    t.dirty_in <- v :: t.dirty_in;
    t.patch_edges <- t.patch_edges + 1
  end;
  invalidate t

let grow_vertices t =
  let cap = Array.length t.out in
  if t.n >= cap then begin
    let cap' = 2 * cap in
    let out' = Array.make cap' [] and inc' = Array.make cap' [] in
    Array.blit t.out 0 out' 0 cap;
    Array.blit t.inc 0 inc' 0 cap;
    t.out <- out';
    t.inc <- inc'
  end

let add_vertex t =
  grow_vertices t;
  let v = t.n in
  t.n <- t.n + 1;
  (* the base arrays know nothing about v: give it (empty) override rows *)
  touch t ~u:v ~v;
  v

let grow_edges t =
  let cap = Array.length t.src in
  if t.m >= cap then begin
    let cap' = 2 * cap in
    let extend a = let a' = Array.make cap' 0 in Array.blit a 0 a' 0 cap; a' in
    t.src <- extend t.src;
    t.dst <- extend t.dst;
    t.cost <- extend t.cost;
    t.delay <- extend t.delay;
    let r' = Bytes.make cap' '\000' in
    Bytes.blit t.removed 0 r' 0 cap;
    t.removed <- r'
  end

let add_edge t ~src ~dst ~cost ~delay =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Digraph.add_edge: endpoint out of range";
  grow_edges t;
  let e = t.m in
  t.m <- t.m + 1;
  t.src.(e) <- src;
  t.dst.(e) <- dst;
  t.cost.(e) <- cost;
  t.delay.(e) <- delay;
  Bytes.unsafe_set t.removed e '\000';
  t.out.(src) <- e :: t.out.(src);
  t.inc.(dst) <- e :: t.inc.(dst);
  touch t ~u:src ~v:dst;
  e

let remove_edge t e =
  check_edge t e;
  if not (live t e) then invalid_arg "Digraph.remove_edge: edge already removed";
  Bytes.unsafe_set t.removed e '\001';
  t.n_removed <- t.n_removed + 1;
  touch t ~u:t.src.(e) ~v:t.dst.(e)

let unremove_edge t e =
  check_edge t e;
  if live t e then invalid_arg "Digraph.unremove_edge: edge is not removed";
  Bytes.unsafe_set t.removed e '\000';
  t.n_removed <- t.n_removed - 1;
  touch t ~u:t.src.(e) ~v:t.dst.(e)

(* Ids are assigned in ascending old-id order, so the map is monotone:
   every newest-first list stays newest-first and every CSR row keeps its
   order. The arrays shrink in place (a kept id never moves up). Dropping
   [base] makes the next freeze a full build. *)
let renumber t ~keep =
  let table = Array.make t.m (-1) in
  let next = ref 0 and dead = ref 0 in
  for e = 0 to t.m - 1 do
    let alive = live t e in
    if alive || keep e then begin
      let e' = !next in
      table.(e) <- e';
      if e' < e then begin
        t.src.(e') <- t.src.(e);
        t.dst.(e') <- t.dst.(e);
        t.cost.(e') <- t.cost.(e);
        t.delay.(e') <- t.delay.(e);
        Bytes.unsafe_set t.removed e' (Bytes.unsafe_get t.removed e)
      end;
      if not alive then incr dead;
      incr next
    end
  done;
  let remap = List.filter_map (fun e -> if table.(e) < 0 then None else Some table.(e)) in
  for v = 0 to t.n - 1 do
    t.out.(v) <- remap t.out.(v);
    t.inc.(v) <- remap t.inc.(v)
  done;
  t.m <- !next;
  t.n_removed <- !dead;
  t.base <- None;
  t.dirty_out <- [];
  t.dirty_in <- [];
  t.patch_edges <- 0;
  invalidate t;
  table

let set_compaction_threshold t frac = t.compact_frac <- frac

type topo_stats = {
  full_freezes : int;
  overlay_freezes : int;
  compactions : int;
  patched_edges : int;
  patch_pending : int;
  removed_edges : int;
}

let topo_stats t =
  {
    full_freezes = t.c_full_freezes;
    overlay_freezes = t.c_overlay_freezes;
    compactions = t.c_compactions;
    patched_edges = t.c_patched_total;
    patch_pending = t.patch_edges;
    removed_edges = t.n_removed;
  }

(* --- frozen CSR snapshot ------------------------------------------------- *)

(* Counting sort of the live edge ids by endpoint: O(n + m), two passes.
   Per-vertex edge order is insertion order, i.e. ascending edge id (the
   lists hold the reverse). *)
let build_view t =
  let n = t.n and m = t.m in
  let out_idx = Array.make (n + 1) 0 and in_idx = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    if live t e then begin
      let u = t.src.(e) + 1 and w = t.dst.(e) + 1 in
      out_idx.(u) <- out_idx.(u) + 1;
      in_idx.(w) <- in_idx.(w) + 1
    end
  done;
  for v = 1 to n do
    out_idx.(v) <- out_idx.(v) + out_idx.(v - 1);
    in_idx.(v) <- in_idx.(v) + in_idx.(v - 1)
  done;
  let ma = out_idx.(n) in
  let out_adj = Array.make ma 0 and in_adj = Array.make ma 0 in
  let out_cur = Array.sub out_idx 0 (max n 1) and in_cur = Array.sub in_idx 0 (max n 1) in
  for e = 0 to m - 1 do
    if live t e then begin
      let u = t.src.(e) and w = t.dst.(e) in
      out_adj.(out_cur.(u)) <- e;
      out_cur.(u) <- out_cur.(u) + 1;
      in_adj.(in_cur.(w)) <- e;
      in_cur.(w) <- in_cur.(w) + 1
    end
  done;
  { vg = t; gen = t.version; vn = n; vm = m; out_idx; out_adj; in_idx; in_adj; ov = None }

let full_build t ~compacting =
  let v = build_view t in
  t.csr <- Some v;
  t.base <- Some v;
  t.dirty_out <- [];
  t.dirty_in <- [];
  t.patch_edges <- 0;
  t.c_full_freezes <- t.c_full_freezes + 1;
  if compacting then t.c_compactions <- t.c_compactions + 1;
  v

(* Override rows for the dirty vertices, rebuilt from the ground-truth
   lists. O(Σ dirty row lengths + n) — the O(n) is the position arrays. *)
let build_overlay t b =
  let n = t.n in
  let mk dirty row_of =
    let pos = Array.make n (-1) in
    let buf = ref (Array.make (max 16 (2 * t.patch_edges)) 0) in
    let len = ref 0 in
    let push x =
      if !len >= Array.length !buf then begin
        let b' = Array.make (2 * Array.length !buf) 0 in
        Array.blit !buf 0 b' 0 !len;
        buf := b'
      end;
      Array.unsafe_set !buf !len x;
      incr len
    in
    let uniq = ref [] in
    List.iter
      (fun u ->
        if pos.(u) < 0 then begin
          uniq := u :: !uniq;
          let row = List.rev (List.filter (live t) (row_of u)) in
          pos.(u) <- !len;
          push (List.length row);
          List.iter push row
        end)
      dirty;
    (pos, Array.sub !buf 0 !len, !uniq)
  in
  let o_out_pos, o_out_buf, du = mk t.dirty_out (fun u -> t.out.(u)) in
  let o_in_pos, o_in_buf, di = mk t.dirty_in (fun u -> t.inc.(u)) in
  (* deduplicated: the next overlay build rescans each row once *)
  t.dirty_out <- du;
  t.dirty_in <- di;
  t.c_overlay_freezes <- t.c_overlay_freezes + 1;
  t.c_patched_total <- t.c_patched_total + t.patch_edges;
  let v =
    { b with gen = t.version; vn = n; vm = t.m;
      ov = Some { o_out_pos; o_out_buf; o_in_pos; o_in_buf } }
  in
  t.csr <- Some v;
  v

let overlay_budget t =
  if t.compact_frac <= 0. then -1
  else max 8 (int_of_float (t.compact_frac *. float_of_int (t.m - t.n_removed)))

let freeze t =
  match t.csr with
  | Some v when v.gen == t.version -> v
  | _ -> (
    match t.base with
    | Some b when t.patch_edges <= overlay_budget t -> build_overlay t b
    | Some _ -> full_build t ~compacting:true
    | None -> full_build t ~compacting:false)

let rebuild t =
  match t.csr with
  | Some v when v.gen == t.version && v.ov = None -> v
  | _ -> full_build t ~compacting:(t.base <> None && t.patch_edges > 0)

let is_frozen t =
  match t.csr with Some v -> v.gen == t.version | None -> false

module View = struct
  let graph v = v.vg
  let n v = v.vn
  let m v = v.vm
  let valid v = v.gen == v.vg.version
  let is_overlay v = v.ov <> None

  let check_vertex v u =
    if u < 0 || u >= v.vn then invalid_arg "Digraph.View: vertex outside snapshot"

  let check_edge v e =
    if e < 0 || e >= v.vm then invalid_arg "Digraph.View: edge outside snapshot"

  (* Edge ids below [vm] stay valid until a [renumber] (which voids every
     earlier view), so accessors read straight through to the live weight
     arrays. *)
  let src v e = check_edge v e; Array.unsafe_get v.vg.src e
  let dst v e = check_edge v e; Array.unsafe_get v.vg.dst e
  let cost v e = check_edge v e; Array.unsafe_get v.vg.cost e
  let delay v e = check_edge v e; Array.unsafe_get v.vg.delay e

  (* Each adjacency read resolves the row once: an overridden vertex reads
     its overlay row, anything else the base arrays. Vertices added after
     the base build always carry an override row (possibly empty), so the
     base branch never indexes past the base's out_idx. *)
  let iter_out v u f =
    check_vertex v u;
    match v.ov with
    | Some o when Array.unsafe_get o.o_out_pos u >= 0 ->
      let p = Array.unsafe_get o.o_out_pos u in
      let stop = p + 1 + Array.unsafe_get o.o_out_buf p in
      for i = p + 1 to stop - 1 do
        f (Array.unsafe_get o.o_out_buf i)
      done
    | _ ->
      let stop = Array.get v.out_idx (u + 1) in
      for i = Array.get v.out_idx u to stop - 1 do
        f (Array.unsafe_get v.out_adj i)
      done

  let iter_in v u f =
    check_vertex v u;
    match v.ov with
    | Some o when Array.unsafe_get o.o_in_pos u >= 0 ->
      let p = Array.unsafe_get o.o_in_pos u in
      let stop = p + 1 + Array.unsafe_get o.o_in_buf p in
      for i = p + 1 to stop - 1 do
        f (Array.unsafe_get o.o_in_buf i)
      done
    | _ ->
      let stop = Array.get v.in_idx (u + 1) in
      for i = Array.get v.in_idx u to stop - 1 do
        f (Array.unsafe_get v.in_adj i)
      done

  let fold_out v u ~init ~f =
    let acc = ref init in
    iter_out v u (fun e -> acc := f !acc e);
    !acc

  let fold_in v u ~init ~f =
    let acc = ref init in
    iter_in v u (fun e -> acc := f !acc e);
    !acc

  let out_degree v u =
    check_vertex v u;
    match v.ov with
    | Some o when o.o_out_pos.(u) >= 0 -> o.o_out_buf.(o.o_out_pos.(u))
    | _ -> v.out_idx.(u + 1) - v.out_idx.(u)

  let in_degree v u =
    check_vertex v u;
    match v.ov with
    | Some o when o.o_in_pos.(u) >= 0 -> o.o_in_buf.(o.o_in_pos.(u))
    | _ -> v.in_idx.(u + 1) - v.in_idx.(u)

  (* Cursor-style access for iterative DFS frames (Scc) and early-exit
     scans (Decompose): a half-open span into the flat adjacency order.
     Overlay rows are addressed past the end of the base arrays —
     positions >= |out_adj| decode into the overlay buffer — so a span is
     still just a pair of ints whichever row it came from. *)
  let out_span v u =
    check_vertex v u;
    match v.ov with
    | Some o when o.o_out_pos.(u) >= 0 ->
      let p = o.o_out_pos.(u) and base = Array.length v.out_adj in
      (base + p + 1, base + p + 1 + o.o_out_buf.(p))
    | _ -> (v.out_idx.(u), v.out_idx.(u + 1))

  let out_entry v i =
    match v.ov with
    | Some o when i >= Array.length v.out_adj ->
      Array.unsafe_get o.o_out_buf (i - Array.length v.out_adj)
    | _ -> Array.unsafe_get v.out_adj i

  let in_span v u =
    check_vertex v u;
    match v.ov with
    | Some o when o.o_in_pos.(u) >= 0 ->
      let p = o.o_in_pos.(u) and base = Array.length v.in_adj in
      (base + p + 1, base + p + 1 + o.o_in_buf.(p))
    | _ -> (v.in_idx.(u), v.in_idx.(u + 1))

  let in_entry v i =
    match v.ov with
    | Some o when i >= Array.length v.in_adj ->
      Array.unsafe_get o.o_in_buf (i - Array.length v.in_adj)
    | _ -> Array.unsafe_get v.in_adj i
end

let src t e = check_edge t e; t.src.(e)
let dst t e = check_edge t e; t.dst.(e)
let cost t e = check_edge t e; t.cost.(e)
let delay t e = check_edge t e; t.delay.(e)

let set_cost t e c = check_edge t e; t.cost.(e) <- c
let set_delay t e d = check_edge t e; t.delay.(e) <- d

let out_edges t v = if t.n_removed = 0 then t.out.(v) else List.filter (live t) t.out.(v)
let in_edges t v = if t.n_removed = 0 then t.inc.(v) else List.filter (live t) t.inc.(v)

(* On a frozen graph the traversals below walk the CSR arrays; otherwise
   they fall back to the lists (building the snapshot implicitly here would
   turn a one-off probe on a graph under construction into an O(n+m) hit). *)
let iter_out t v f =
  match t.csr with
  | Some c when c.gen == t.version -> View.iter_out c v f
  | _ ->
    if t.n_removed = 0 then List.iter f t.out.(v)
    else List.iter (fun e -> if live t e then f e) t.out.(v)

let iter_in t v f =
  match t.csr with
  | Some c when c.gen == t.version -> View.iter_in c v f
  | _ ->
    if t.n_removed = 0 then List.iter f t.inc.(v)
    else List.iter (fun e -> if live t e then f e) t.inc.(v)

let out_degree t v =
  match t.csr with
  | Some c when c.gen == t.version -> View.out_degree c v
  | _ ->
    if t.n_removed = 0 then List.length t.out.(v)
    else List.fold_left (fun acc e -> if live t e then acc + 1 else acc) 0 t.out.(v)

let in_degree t v =
  match t.csr with
  | Some c when c.gen == t.version -> View.in_degree c v
  | _ ->
    if t.n_removed = 0 then List.length t.inc.(v)
    else List.fold_left (fun acc e -> if live t e then acc + 1 else acc) 0 t.inc.(v)

let iter_edges t f =
  if t.n_removed = 0 then
    for e = 0 to t.m - 1 do
      f e
    done
  else
    for e = 0 to t.m - 1 do
      if live t e then f e
    done

let fold_edges t ~init ~f =
  let acc = ref init in
  iter_edges t (fun e -> acc := f !acc e);
  !acc

let edges t =
  let ids = List.init t.m (fun e -> e) in
  if t.n_removed = 0 then ids else List.filter (live t) ids

let total_cost t = fold_edges t ~init:0 ~f:(fun acc e -> acc + t.cost.(e))
let total_delay t = fold_edges t ~init:0 ~f:(fun acc e -> acc + t.delay.(e))

let find_edge t ~src ~dst =
  List.find_opt (fun e -> t.dst.(e) = dst && live t e) t.out.(src)

let filter_map_edges t ~f =
  let g = create ~expected_edges:(max t.m 1) ~n:t.n () in
  let mapping = Array.make (max t.m 1) (-1) in
  for e = 0 to t.m - 1 do
    if live t e then
      match f e with
      | None -> ()
      | Some (cost, delay) ->
        mapping.(e) <- add_edge g ~src:t.src.(e) ~dst:t.dst.(e) ~cost ~delay
  done;
  (g, mapping)

let reverse t =
  let r = create ~expected_edges:(max t.m 1) ~n:t.n () in
  for e = 0 to t.m - 1 do
    if live t e then
      ignore (add_edge r ~src:t.dst.(e) ~dst:t.src.(e) ~cost:t.cost.(e) ~delay:t.delay.(e))
  done;
  r

let pp fmt t =
  Format.fprintf fmt "digraph n=%d m=%d alive=%d@." t.n t.m (m_alive t);
  for e = 0 to t.m - 1 do
    Format.fprintf fmt "  e%d: %d -> %d (c=%d, d=%d)%s@." e t.src.(e) t.dst.(e) t.cost.(e)
      t.delay.(e)
      (if live t e then "" else " [removed]")
  done
