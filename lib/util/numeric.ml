let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let binary_search_min ~feasible ~lo ~hi ?(iters = 50) () =
  if not (feasible hi) then None
  else if feasible lo then Some lo
  else
    (* invariant: feasible hi, not (feasible lo) *)
    let rec loop lo hi i =
      if i = 0 then Some hi
      else
        let mid = 0.5 *. (lo +. hi) in
        if feasible mid then loop lo mid (i - 1) else loop mid hi (i - 1)
    in
    loop lo hi iters

let integrate_trapezoid ~f ~lo ~hi ~n =
  assert (n >= 1);
  let h = (hi -. lo) /. float_of_int n in
  let acc = ref (0.5 *. (f lo +. f hi)) in
  for i = 1 to n - 1 do
    acc := !acc +. f (lo +. (float_of_int i *. h))
  done;
  !acc *. h

let log_interp_points ~lo ~hi ~n =
  assert (n >= 2 && lo > 0.0 && hi >= lo);
  let ratio = log (hi /. lo) /. float_of_int (n - 1) in
  Array.init n (fun i -> lo *. exp (float_of_int i *. ratio))

let linspace ~lo ~hi ~n =
  assert (n >= 2);
  let step = (hi -. lo) /. float_of_int (n - 1) in
  Array.init n (fun i -> lo +. (float_of_int i *. step))
