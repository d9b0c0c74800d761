(* Timing samples and their percentiles under the ten-beyond rule: a
   percentile is reported only when at least ten samples lie above it, so
   no tail figure rests on a handful of requests. Samples are kept unboxed
   in one array that doubles when full. *)

let min_beyond = 10

let supports ~samples p = float_of_int samples *. (1. -. (p /. 100.)) >= float_of_int min_beyond

type samples = { mutable data : Float.Array.t; mutable fill : int }

let create () = { data = Float.Array.create 1024; fill = 0 }

let add s x =
  if s.fill = Float.Array.length s.data then begin
    let bigger = Float.Array.create (2 * s.fill) in
    Float.Array.blit s.data 0 bigger 0 s.fill;
    s.data <- bigger
  end;
  Float.Array.set s.data s.fill x;
  s.fill <- s.fill + 1

let of_list l =
  let s = create () in
  List.iter (add s) l;
  s

let count s = s.fill

let sum s =
  let acc = ref 0. in
  for i = 0 to s.fill - 1 do
    acc := !acc +. Float.Array.get s.data i
  done;
  !acc

let sorted s =
  let a = Float.Array.sub s.data 0 s.fill in
  Float.Array.sort Float.compare a;
  a

type t = { value : float; samples : int }

(* nearest-rank percentile *)
let percentile p s =
  let n = count s in
  if n = 0 || not (supports ~samples:n p) then None
  else begin
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    Some { value = Float.Array.get (sorted s) (max 0 (min (n - 1) (rank - 1))); samples = n }
  end

(* the plain median, for figures outside the rule; 0 with no samples *)
let median s =
  let n = count s in
  if n = 0 then 0.
  else begin
    let a = sorted s and mid = n / 2 in
    if n mod 2 = 1 then Float.Array.get a mid
    else (Float.Array.get a (mid - 1) +. Float.Array.get a mid) /. 2.
  end
