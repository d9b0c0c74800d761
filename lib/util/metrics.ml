(* Log-bucketed histograms: bucket i covers (bound.(i-1), bound.(i)] with
   geometrically growing bounds, ratio ~1.19 (2^(1/4)), from 1µs to ~17min.
   Percentiles interpolate within the winning bucket and are clamped to the
   observed [min, max], so small sample sets still report sane numbers. *)

let ratio = sqrt (sqrt 2.0)
let n_buckets = 120
let lowest = 0.001 (* ms *)

let bounds =
  Array.init n_buckets (fun i ->
      if i = n_buckets - 1 then infinity else lowest *. (ratio ** float_of_int i))

(* Every series carries its own mutex: observations come from several
   domains at once (speculative guess attempts on pool workers, krspd's
   shard workers sharing the process-wide solver registry), and OCaml's
   memory model makes unsynchronised read-write races lose increments. A
   per-series lock keeps contention off unrelated series; the critical
   sections are a handful of loads and stores. *)
type counter = { mutable c : int; c_mu : Mutex.t }

type histogram = {
  buckets : int array;
  mutable total : int;
  mutable hsum : float;
  mutable vmin : float;
  mutable vmax : float;
  h_mu : Mutex.t;
}

type series = Counter of counter | Histogram of histogram

type t = {
  tbl : (string, series) Hashtbl.t;
  mutable order : string list; (* reverse creation order *)
  reg_mu : Mutex.t; (* guards tbl/order: handle lookup can race with creation *)
}

let create () = { tbl = Hashtbl.create 16; order = []; reg_mu = Mutex.create () }

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let get_or_create t name make =
  with_lock t.reg_mu (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some s -> s
      | None ->
        let s = make () in
        Hashtbl.replace t.tbl name s;
        t.order <- name :: t.order;
        s)

let counter t name =
  match get_or_create t name (fun () -> Counter { c = 0; c_mu = Mutex.create () }) with
  | Counter c -> c
  | Histogram _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is a histogram" name)

let histogram t name =
  let make () =
    Histogram
      {
        buckets = Array.make n_buckets 0;
        total = 0;
        hsum = 0.;
        vmin = infinity;
        vmax = 0.;
        h_mu = Mutex.create ();
      }
  in
  match get_or_create t name make with
  | Histogram h -> h
  | Counter _ -> invalid_arg (Printf.sprintf "Metrics.histogram: %S is a counter" name)

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotonic";
  with_lock c.c_mu (fun () -> c.c <- c.c + by)

let value c = with_lock c.c_mu (fun () -> c.c)

let bucket_of v =
  (* smallest i with v <= bounds.(i); bounds are sorted so a binary search
     would do, but n_buckets is tiny and observations are rare vs solves *)
  let rec go i = if i >= n_buckets - 1 || v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let v = if v < 0. then 0. else v in
  let i = bucket_of v in
  with_lock h.h_mu (fun () ->
      h.buckets.(i) <- h.buckets.(i) + 1;
      h.total <- h.total + 1;
      h.hsum <- h.hsum +. v;
      if v < h.vmin then h.vmin <- v;
      if v > h.vmax then h.vmax <- v)

let count h = with_lock h.h_mu (fun () -> h.total)
let sum h = with_lock h.h_mu (fun () -> h.hsum)

(* percentile/to_kv read bucket counts without the lock: they run on the
   main domain for diagnostics, and a torn read costs at most one
   observation's worth of skew in an estimate that is already bucketed *)
let percentile h p =
  if p < 0. || p > 100. then invalid_arg "Metrics.percentile";
  if h.total = 0 then 0.
  else begin
    let target = max 1 (int_of_float (ceil (p /. 100. *. float_of_int h.total))) in
    let rec find i seen =
      let seen = seen + h.buckets.(i) in
      if seen >= target || i = n_buckets - 1 then i else find (i + 1) seen
    in
    let i = find 0 0 in
    let lo = if i = 0 then 0. else bounds.(i - 1) in
    let hi = if i = n_buckets - 1 then h.vmax else bounds.(i) in
    let est = (lo +. hi) /. 2. in
    Float.min h.vmax (Float.max h.vmin est)
  end

let merge ~into src =
  let names = with_lock src.reg_mu (fun () -> List.rev src.order) in
  List.iter
    (fun name ->
      match with_lock src.reg_mu (fun () -> Hashtbl.find_opt src.tbl name) with
      | None -> ()
      | Some (Counter c) -> incr ~by:(value c) (counter into name)
      | Some (Histogram h) ->
        (* snapshot under the source lock, then fold into the destination
           under its own lock — never hold both at once *)
        let buckets, total, hsum, vmin, vmax =
          with_lock h.h_mu (fun () ->
              (Array.copy h.buckets, h.total, h.hsum, h.vmin, h.vmax))
        in
        let d = histogram into name in
        if total > 0 then
          with_lock d.h_mu (fun () ->
              Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) buckets;
              d.total <- d.total + total;
              d.hsum <- d.hsum +. hsum;
              if vmin < d.vmin then d.vmin <- vmin;
              if vmax > d.vmax then d.vmax <- vmax))
    names

type data =
  | Counter_data of int
  | Histogram_data of {
      buckets : int array;
      total : int;
      sum : float;
      vmin : float;
      vmax : float;
    }

let bucket_bounds = bounds

let snapshot t =
  let names = with_lock t.reg_mu (fun () -> List.rev t.order) in
  List.filter_map
    (fun name ->
      match with_lock t.reg_mu (fun () -> Hashtbl.find_opt t.tbl name) with
      | None -> None
      | Some (Counter c) -> Some (name, Counter_data (value c))
      | Some (Histogram h) ->
        let buckets, total, sum, vmin, vmax =
          with_lock h.h_mu (fun () ->
              (Array.copy h.buckets, h.total, h.hsum, h.vmin, h.vmax))
        in
        Some (name, Histogram_data { buckets; total; sum; vmin; vmax }))
    names

let to_kv t =
  let f3 x = Printf.sprintf "%.3f" x in
  let names = with_lock t.reg_mu (fun () -> List.rev t.order) in
  List.concat_map
    (fun name ->
      match with_lock t.reg_mu (fun () -> Hashtbl.find t.tbl name) with
      | Counter c -> [ (name, string_of_int (value c)) ]
      | Histogram h ->
        [ (name ^ ".count", string_of_int h.total); (name ^ ".sum_ms", f3 h.hsum);
          (name ^ ".p50", f3 (percentile h 50.)); (name ^ ".p90", f3 (percentile h 90.));
          (name ^ ".p99", f3 (percentile h 99.));
          (name ^ ".p999", f3 (percentile h 99.9));
          (name ^ ".min", f3 (if h.total = 0 then 0. else h.vmin));
          (name ^ ".max", f3 (if h.total = 0 then 0. else h.vmax))
        ])
    names

let dump t =
  to_kv t |> List.map (fun (k, v) -> Printf.sprintf "%s %s" k v) |> String.concat "\n"
