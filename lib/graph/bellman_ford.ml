module G = Digraph
module V = Digraph.View

type result =
  | Dist of { dist : int array; parent : int array }
  | Negative_cycle of Path.t

(* Walk the parent chain from a vertex known to be on or downstream of a
   negative cycle; after n hops we are inside the cycle, then collect edges
   until the start vertex repeats. (Any cycle of the predecessor graph has
   negative weight — Cherkassky & Goldberg, Lemma for labeling methods.) *)
let extract_cycle g parent start =
  let n = G.n g in
  let v = ref start in
  for _ = 1 to n do
    let e = parent.(!v) in
    assert (e >= 0);
    v := G.src g e
  done;
  let cycle_start = !v in
  let rec collect acc v =
    let e = parent.(v) in
    let u = G.src g e in
    let acc = e :: acc in
    if u = cycle_start then acc else collect acc u
  in
  collect [] cycle_start

(* SPFA (queue-based Bellman-Ford): near-linear on sparse layered graphs,
   with the classic enqueue-count bound for negative-cycle detection (a
   vertex re-entering the queue more than n times lies downstream of a
   negative cycle). Cycle_search_dp runs the same discipline over an
   implicit product, and the tests hold it to this reference. *)
let run_from g ~weight ~disabled dist =
  let n = G.n g in
  let view = G.freeze g in
  let parent = Array.make n (-1) in
  let in_queue = Array.make n false in
  let enqueues = Array.make n 0 in
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if dist.(v) <> max_int then begin
      Queue.add v q;
      in_queue.(v) <- true;
      enqueues.(v) <- 1
    end
  done;
  let cycle = ref None in
  (try
     while not (Queue.is_empty q) do
       let u = Queue.pop q in
       in_queue.(u) <- false;
       let du = dist.(u) in
       V.iter_out view u (fun e ->
           if not (disabled e) then begin
             let v = V.dst view e in
             let nd = du + weight e in
             if nd < dist.(v) then begin
               dist.(v) <- nd;
               parent.(v) <- e;
               if not in_queue.(v) then begin
                 enqueues.(v) <- enqueues.(v) + 1;
                 if enqueues.(v) > n + 1 then begin
                   cycle := Some (extract_cycle g parent v);
                   raise Exit
                 end;
                 Queue.add v q;
                 in_queue.(v) <- true
               end
             end
           end)
     done
   with Exit -> ());
  match !cycle with
  | Some c -> Negative_cycle c
  | None -> Dist { dist; parent }

let run g ~weight ?(disabled = fun _ -> false) ~src () =
  let dist = Array.make (G.n g) max_int in
  dist.(src) <- 0;
  run_from g ~weight ~disabled dist

let negative_cycle g ~weight ?(disabled = fun _ -> false) () =
  (* virtual super-source: every vertex starts at distance 0 *)
  let dist = Array.make (G.n g) 0 in
  match run_from g ~weight ~disabled dist with
  | Dist _ -> None
  | Negative_cycle c -> Some c

let shortest_path g ~weight ?disabled ~src ~dst () =
  match run g ~weight ?disabled ~src () with
  | Negative_cycle _ -> failwith "Bellman_ford.shortest_path: negative cycle"
  | Dist { dist; parent } ->
    if dist.(dst) = max_int then None
    else begin
      let rec go acc v =
        let e = parent.(v) in
        if e = -1 then acc else go (e :: acc) (G.src g e)
      in
      Some (dist.(dst), go [] dst)
    end
