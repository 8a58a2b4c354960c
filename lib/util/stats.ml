let mean xs =
  assert (Array.length xs > 0);
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let min_max xs =
  assert (Array.length xs > 0);
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let sorted xs =
  let copy = Array.copy xs in
  Array.sort Float.compare copy;
  copy

let percentile xs p =
  assert (Array.length xs > 0 && p >= 0.0 && p <= 100.0);
  let s = sorted xs in
  let n = Array.length s in
  if n = 1 then s.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor rank) in
    let frac = rank -. float_of_int i in
    if i >= n - 1 then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let quantile xs q =
  assert (q >= 0.0 && q <= 1.0);
  percentile xs (q *. 100.0)

let geometric_mean xs =
  assert (Array.length xs > 0);
  let acc =
    Array.fold_left
      (fun acc x ->
        assert (x > 0.0);
        acc +. log x)
      0.0 xs
  in
  exp (acc /. float_of_int (Array.length xs))
