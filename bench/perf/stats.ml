(* Order statistics for run summaries. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; nan for no values. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method): the first and third quartiles. Needs two or more values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: fewer than two values";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 3)

(* The highest of the usual reporting percentiles that still has at
   least ten samples beyond it, so that a tail figure never rests on a
   handful of samples. [None] below twenty samples. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.9; 99.; 98.; 95.; 90.; 75.; 50. ]
