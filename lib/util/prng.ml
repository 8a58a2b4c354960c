(* SplitMix64 (Steele, Lea & Flood 2014): a tiny, high-quality, splittable
   generator. We avoid Stdlib.Random so that streams are stable across OCaml
   releases. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let of_string name =
  (* FNV-1a 64-bit over the bytes of [name]. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  create (mix64 !h)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = create (bits64 t)

let int t n =
  assert (n > 0);
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod n

let float t x =
  (* 53 random mantissa bits mapped to [0, 1). *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  v /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L
let uniform t lo hi = lo +. float t (hi -. lo)

let gaussian t ~mean ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mean +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choose_weighted t pairs =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  assert (total > 0.0);
  let target = float t total in
  let rec pick i acc =
    if i = Array.length pairs - 1 then fst pairs.(i)
    else
      let _, w = pairs.(i) in
      let acc = acc +. w in
      if target < acc then fst pairs.(i) else pick (i + 1) acc
  in
  pick 0 0.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
