(* Fixed domain pool with a shared FIFO queue and help-first waiting.

   Invariant that makes nested parallel_map safe without a scheduler: a
   domain only sleeps when the queue is empty at the moment it checks, and
   a batch's tasks are enqueued before its submitter enters the wait loop —
   so every queued task always has at least one awake domain (its
   submitter, or a parked worker woken by the enqueue broadcast) that will
   eventually pop it. Blocked submitters are woken by their own batch's
   completion broadcast. *)

type t = {
  width : int; (* total parallelism including the caller *)
  mu : Mutex.t;
  work_cv : Condition.t; (* signalled on enqueue and shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  metrics : Metrics.t;
  c_tasks : Metrics.counter;
  c_max_depth : Metrics.counter; (* monotonic high-water mark *)
  busy : Metrics.counter array; (* busy_us by slot; 0 = caller, 1.. = workers *)
}

let now_us () = Int64.to_int (Int64.div (Timer.now_ns ()) 1000L)

let run_task t ~slot task =
  let t0 = now_us () in
  task ();
  (* task () never raises: every enqueued closure wraps its own handler *)
  Metrics.incr t.c_tasks;
  Metrics.incr ~by:(max 0 (now_us () - t0)) t.busy.(slot)

let rec worker_loop t slot =
  Mutex.lock t.mu;
  while Queue.is_empty t.queue && not t.stopped do
    Condition.wait t.work_cv t.mu
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mu (* stopped and drained *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mu;
    run_task t ~slot task;
    worker_loop t slot
  end

(* caller must hold t.mu *)
let enqueue_locked t task =
  Queue.add task t.queue;
  let depth = Queue.length t.queue in
  let seen = Metrics.value t.c_max_depth in
  if depth > seen then Metrics.incr ~by:(depth - seen) t.c_max_depth

let env_width () =
  match Sys.getenv_opt "KRSP_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> Some (max 1 v)
    | None -> None)

let create ?size () =
  let width =
    match size with
    | Some s -> max 1 s
    | None -> (
      match env_width () with
      | Some w -> w
      | None -> max 1 (Domain.recommended_domain_count ()))
  in
  let metrics = Metrics.create () in
  let t =
    {
      width;
      mu = Mutex.create ();
      work_cv = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      workers = [];
      metrics;
      c_tasks = Metrics.counter metrics "pool.tasks";
      c_max_depth = Metrics.counter metrics "pool.max_queue_depth";
      busy =
        Array.init width (fun i ->
            Metrics.counter metrics (Printf.sprintf "pool.domain%d.busy_us" i));
    }
  in
  t.workers <- List.init (width - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let width t = t.width

let shutdown t =
  Mutex.lock t.mu;
  if t.stopped then Mutex.unlock t.mu
  else begin
    t.stopped <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mu;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* ---- the process-wide default pool ---------------------------------------- *)

let default_mu = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_mu;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create () in
      default_pool := Some p;
      (* park-and-join on exit so the runtime never tears down under a live
         domain; workers drain any queued tasks first *)
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock default_mu;
  p

(* ---- batches --------------------------------------------------------------- *)

let serial t = t.width <= 1 || t.stopped

let default_chunk t n = max 1 ((n + (4 * t.width) - 1) / (4 * t.width))

let parallel_map ?chunk t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if serial t || n = 1 then Array.map f arr
  else begin
    let chunk =
      match chunk with Some c when c >= 1 -> c | Some _ | None -> default_chunk t n
    in
    let nchunks = (n + chunk - 1) / chunk in
    let results = Array.make n None in
    let pending = ref nchunks in
    let failure = ref None in (* (chunk index, exn, backtrace), lowest chunk wins *)
    let done_cv = Condition.create () in
    let run_chunk ci () =
      let err =
        try
          let lo = ci * chunk in
          let hi = min (n - 1) (lo + chunk - 1) in
          for i = lo to hi do
            results.(i) <- Some (f arr.(i))
          done;
          None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.mu;
      (match err with
      | None -> ()
      | Some (e, bt) -> (
        match !failure with
        | Some (cj, _, _) when cj <= ci -> ()
        | _ -> failure := Some (ci, e, bt)));
      decr pending;
      if !pending = 0 then Condition.broadcast done_cv;
      Mutex.unlock t.mu
    in
    Mutex.lock t.mu;
    for ci = 0 to nchunks - 1 do
      enqueue_locked t (run_chunk ci)
    done;
    Condition.broadcast t.work_cv;
    (* help-first wait: run queued tasks (ours or any nested batch's) until
       this batch completes; sleep only when the queue is momentarily empty *)
    while !pending > 0 do
      if Queue.is_empty t.queue then Condition.wait done_cv t.mu
      else begin
        let task = Queue.pop t.queue in
        Mutex.unlock t.mu;
        run_task t ~slot:0 task;
        Mutex.lock t.mu
      end
    done;
    Mutex.unlock t.mu;
    match !failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map
        (function Some v -> v | None -> assert false (* pending hit 0 *))
        results
  end

let to_kv t =
  let depth = Mutex.lock t.mu; let d = Queue.length t.queue in Mutex.unlock t.mu; d in
  [ ("pool.width", string_of_int t.width); ("pool.queue_depth", string_of_int depth) ]
  @ Metrics.to_kv t.metrics
