(* Order statistics for latency reports.

   Percentiles use the nearest-rank rule on a sorted copy.  A tail
   percentile is only reported when at least [min_beyond] samples lie
   beyond it: fewer than that and the "p99" of a run is decided by a
   handful of outliers. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest rank of the [p]-th percentile among [n] samples (1-based); the
   epsilon keeps 99.9% of 10000 at 9990 despite rounding. *)
let rank ~n p = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))

(* The smallest sample with at least [p]% of the samples at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (rank ~n p - 1)))

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.

(* Samples strictly beyond the [p]-th percentile of [n] samples. *)
let beyond ~n p = n - rank ~n p

let tail_levels = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

type tail = { level : float; value : float; samples : int }

(* The highest level in [tail_levels] that leaves at least [min_beyond]
   samples beyond it, with its value; [None] when even the median does
   not. *)
let tail ?(min_beyond = 10) a =
  let n = Array.length a in
  match List.find_opt (fun p -> beyond ~n p >= min_beyond) tail_levels with
  | None -> None
  | Some level -> Some { level; value = percentile a level; samples = n }

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio num den = if den = 0. then 0. else num /. den

(* The [p]-th percentile of each of the consecutive windows (in arrival
   order) of at least [per_window] samples; empty when there are not two
   such windows. *)
let window_percentiles ?(per_window = 1000) a p =
  let n = Array.length a in
  let k = n / per_window in
  if k < 2 then [||]
  else
    Array.init k (fun w ->
        let lo = w * n / k and hi = (w + 1) * n / k in
        percentile (Array.sub a lo (hi - lo)) p)

(* The median of the window percentiles, or the plain percentile when
   there are not two windows.  A stall that lands in one window moves one
   of the medians, not the whole figure. *)
let windowed_percentile ?per_window a p =
  match window_percentiles ?per_window a p with
  | [||] -> percentile a p
  | w -> median w
