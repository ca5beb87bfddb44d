let sorted xs =
  if xs = [] then invalid_arg "Stats: no samples";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Percentiles such as 99.9 are not exact in binary: compare with a little
   slack so that p99.9 of 1000 samples is the 999th. *)
let eps = 1e-9

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. eps)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let ladder = [ 50.; 90.; 99.; 99.9 ]

let tail_percentile n =
  List.fold_left
    (fun best p ->
      if (float_of_int n *. (100. -. p) /. 100.) +. eps >= 10. then Some p else best)
    None ladder

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med
