(* Node ids are dense ints: 0 = false terminal, 1 = true terminal, >= 2
   internal. Canonicity invariants: low <> high for every internal node, and
   children have strictly larger variable indices (or are terminals), so
   structural equality of ids is semantic equivalence. The single recursive
   kernel is [ite]; every connective is defined through it. *)

type node = int

type manager = {
  vars : int;
  node_limit : int;
  mutable capacity : int;
  mutable next : int;
  mutable var_of : int array;
  mutable low_of : int array;
  mutable high_of : int array;
  unique : (int * int * int, int) Hashtbl.t;
  ite_cache : (int * int * int, int) Hashtbl.t;
}

exception Too_large of int

let terminal_var = max_int

let manager ?(node_limit = 1_000_000) ~var_count () =
  assert (var_count >= 0);
  let capacity = 1024 in
  let m =
    {
      vars = var_count;
      node_limit;
      capacity;
      next = 2;
      var_of = Array.make capacity terminal_var;
      low_of = Array.make capacity (-1);
      high_of = Array.make capacity (-1);
      unique = Hashtbl.create 1024;
      ite_cache = Hashtbl.create 1024;
    }
  in
  m

let var_count m = m.vars
let bdd_false (_ : manager) : node = 0
let bdd_true (_ : manager) : node = 1
let of_bool m b = if b then bdd_true m else bdd_false m
let is_true _ n = n = 1
let is_false _ n = n = 0
let equal (a : node) (b : node) = a = b

let grow m =
  let capacity = m.capacity * 2 in
  let extend arr fill =
    let fresh = Array.make capacity fill in
    Array.blit arr 0 fresh 0 m.capacity;
    fresh
  in
  m.var_of <- extend m.var_of terminal_var;
  m.low_of <- extend m.low_of (-1);
  m.high_of <- extend m.high_of (-1);
  m.capacity <- capacity

let mk m v low high =
  if low = high then low
  else
    let key = (v, low, high) in
    match Hashtbl.find_opt m.unique key with
    | Some id -> id
    | None ->
      if m.next - 2 >= m.node_limit then raise (Too_large (m.next - 2));
      if m.next >= m.capacity then grow m;
      let id = m.next in
      m.next <- id + 1;
      m.var_of.(id) <- v;
      m.low_of.(id) <- low;
      m.high_of.(id) <- high;
      Hashtbl.add m.unique key id;
      id

let var m i =
  assert (i >= 0 && i < m.vars);
  mk m i 0 1

let top_var m n = if n < 2 then terminal_var else m.var_of.(n)

let cofactors m n v =
  if n < 2 || m.var_of.(n) <> v then (n, n) else (m.low_of.(n), m.high_of.(n))

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some r -> r
    | None ->
      let v = min (top_var m f) (min (top_var m g) (top_var m h)) in
      let f0, f1 = cofactors m f v in
      let g0, g1 = cofactors m g v in
      let h0, h1 = cofactors m h v in
      let low = ite m f0 g0 h0 in
      let high = ite m f1 g1 h1 in
      let r = mk m v low high in
      Hashtbl.add m.ite_cache key r;
      r

let bdd_not m f = ite m f 0 1
let bdd_and m f g = ite m f g 0
let bdd_or m f g = ite m f 1 g
let bdd_xor m f g = ite m f (bdd_not m g) g
let bdd_xnor m f g = ite m f g (bdd_not m g)
let bdd_nand m f g = bdd_not m (bdd_and m f g)
let bdd_nor m f g = bdd_not m (bdd_or m f g)

let restrict m f i b =
  let memo = Hashtbl.create 64 in
  let rec go f =
    if f < 2 then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let v = m.var_of.(f) in
        let r =
          if v > i then f
          else if v = i then if b then m.high_of.(f) else m.low_of.(f)
          else mk m v (go m.low_of.(f)) (go m.high_of.(f))
        in
        Hashtbl.add memo f r;
        r
  in
  go f

let boolean_difference m f i =
  bdd_xor m (restrict m f i true) (restrict m f i false)

let support m f =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      Hashtbl.replace vars m.var_of.(f) ();
      go m.low_of.(f);
      go m.high_of.(f)
    end
  in
  go f;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort compare

let eval m f assignment =
  assert (Array.length assignment = m.vars);
  let rec go f =
    if f = 0 then false
    else if f = 1 then true
    else if assignment.(m.var_of.(f)) then go m.high_of.(f)
    else go m.low_of.(f)
  in
  go f

let probability m f p =
  assert (Array.length p = m.vars);
  let memo = Hashtbl.create 64 in
  let rec go f =
    if f = 0 then 0.0
    else if f = 1 then 1.0
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let pv = p.(m.var_of.(f)) in
        let r = (pv *. go m.high_of.(f)) +. ((1.0 -. pv) *. go m.low_of.(f)) in
        Hashtbl.add memo f r;
        r
  in
  go f

let sat_count m f =
  let half = Array.make m.vars 0.5 in
  probability m f half *. (2.0 ** float_of_int m.vars)

let any_sat m f =
  if f = 0 then None
  else begin
    let assignment = Array.make m.vars false in
    let rec walk f =
      if f = 1 then ()
      else begin
        let v = m.var_of.(f) in
        (* one branch must reach the true terminal: prefer high *)
        if m.high_of.(f) <> 0 then begin
          assignment.(v) <- true;
          walk m.high_of.(f)
        end
        else walk m.low_of.(f)
      end
    in
    walk f;
    Some assignment
  end

let size m f =
  let seen = Hashtbl.create 64 in
  let rec go f acc =
    if f < 2 || Hashtbl.mem seen f then acc
    else begin
      Hashtbl.add seen f ();
      go m.low_of.(f) (go m.high_of.(f) (acc + 1))
    end
  in
  go f 0
