(* Sample buffers and order statistics. *)

(* A growable float buffer: latencies and per-document layer costs. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sorted_of_array a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let sorted s = sorted_of_array (Array.sub s.a 0 s.n)

(* Linear interpolation between closest ranks over a sorted array; nan when
   empty so a missing sample can never pass for a measurement. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile s q = quantile_sorted (sorted s) q
let median_of_array a = quantile_sorted (sorted_of_array a) 0.5

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)] computes
   them (method "exclusive"), so spreads read the same here and there. *)
let quartiles a =
  let d = sorted_of_array a in
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
