module Prng = Dcopt_util.Prng
module Numeric = Dcopt_util.Numeric
module Stats = Dcopt_util.Stats
module Heap = Dcopt_util.Heap
module Si = Dcopt_util.Si
module Text_table = Dcopt_util.Text_table

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_of_string_stable () =
  let a = Prng.of_string "s298" and b = Prng.of_string "s298" in
  Alcotest.(check int64) "same seed" (Prng.bits64 a) (Prng.bits64 b);
  let c = Prng.of_string "s299" in
  Alcotest.(check bool) "different name differs" true
    (Prng.bits64 (Prng.of_string "s298") <> Prng.bits64 c)

let test_prng_split_independent () =
  let a = Prng.create 7L in
  let child = Prng.split a in
  Alcotest.(check bool) "split differs from parent" true
    (Prng.bits64 child <> Prng.bits64 a)

let test_prng_int_range () =
  let rng = Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_range () =
  let rng = Prng.create 5L in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_uniform_mean () =
  let rng = Prng.create 13L in
  let xs = Array.init 20_000 (fun _ -> Prng.uniform rng 2.0 4.0) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 3" true (Float.abs (m -. 3.0) < 0.03)

let test_prng_gaussian_moments () =
  let rng = Prng.create 17L in
  let xs = Array.init 40_000 (fun _ -> Prng.gaussian rng ~mean:1.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean" true (Float.abs (Stats.mean xs -. 1.0) < 0.05);
  let m = Stats.mean xs in
  let sigma = sqrt (Stats.mean (Array.map (fun x -> (x -. m) *. (x -. m)) xs)) in
  Alcotest.(check bool) "sigma" true (Float.abs (sigma -. 2.0) < 0.05)

let test_prng_choose_weighted () =
  let rng = Prng.create 23L in
  let hits = Array.make 2 0 in
  for _ = 1 to 10_000 do
    let i = Prng.choose_weighted rng [| (0, 1.0); (1, 3.0) |] in
    hits.(i) <- hits.(i) + 1
  done;
  let ratio = float_of_int hits.(1) /. float_of_int hits.(0) in
  Alcotest.(check bool) "3:1 weighting" true (ratio > 2.5 && ratio < 3.5)

let test_prng_choose_and_bool () =
  let rng = Prng.create 31L in
  let arr = [| 'a'; 'b'; 'c'; 'd' |] in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 400 do
    let c = Prng.choose rng arr in
    Alcotest.(check bool) "drawn from the array" true (Array.mem c arr);
    Hashtbl.replace seen c ()
  done;
  Alcotest.(check int) "every element drawn" 4 (Hashtbl.length seen);
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool rng then incr trues
  done;
  Alcotest.(check bool) "both values, near half each" true
    (!trues > 400 && !trues < 600)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 29L in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Numeric                                                            *)

let test_clamp () =
  check_float "below" 1.0 (Numeric.clamp ~lo:1.0 ~hi:2.0 0.5);
  check_float "above" 2.0 (Numeric.clamp ~lo:1.0 ~hi:2.0 2.5);
  check_float "inside" 1.5 (Numeric.clamp ~lo:1.0 ~hi:2.0 1.5)

let test_binary_search_min () =
  let feasible x = x >= 3.25 in
  match Numeric.binary_search_min ~feasible ~lo:0.0 ~hi:10.0 () with
  | Some x -> Alcotest.(check (float 1e-6)) "threshold" 3.25 x
  | None -> Alcotest.fail "expected Some"

let test_binary_search_min_none () =
  Alcotest.(check bool) "no feasible" true
    (Numeric.binary_search_min ~feasible:(fun _ -> false) ~lo:0.0 ~hi:1.0 ()
     = None)

let test_binary_search_min_all () =
  Alcotest.(check (option (float 0.0))) "all feasible" (Some 0.0)
    (Numeric.binary_search_min ~feasible:(fun _ -> true) ~lo:0.0 ~hi:1.0 ())

(* On [1, 100] every midpoint of a 40-step bisection is exact, so its
   answer is the smallest feasible point of the grid 1 + 99 k / 2^40: the
   property that lets the sizing kernel reproduce the bisection bit for
   bit. *)
let test_binary_search_min_grid () =
  let step = 99.0 *. 0x1p-40 in
  List.iter
    (fun t ->
      match
        Numeric.binary_search_min ~feasible:(fun x -> x >= t) ~lo:1.0
          ~hi:100.0 ~iters:40 ()
      with
      | None -> Alcotest.failf "t=%h: expected Some" t
      | Some x ->
        (* both operations are exact: k is 99 times an integer on the grid *)
        let k = (x -. 1.0) *. 0x1p40 in
        if Float.rem k 99.0 <> 0.0 then
          Alcotest.failf "t=%h: %h is off the grid" t x;
        if not (x >= t && x -. step < t) then
          Alcotest.failf "t=%h: %h is not the first grid point at or above it"
            t x)
    [ 1.0; 1.5; Float.pi; 3.25; 42.0 +. 1e-9; 99.999; 100.0 ]

let test_integrate () =
  let v = Numeric.integrate_trapezoid ~f:(fun x -> x) ~lo:0.0 ~hi:1.0 ~n:100 in
  Alcotest.(check (float 1e-9)) "integral of x" 0.5 v

let test_linspace () =
  let xs = Numeric.linspace ~lo:0.0 ~hi:1.0 ~n:5 in
  Alcotest.(check int) "count" 5 (Array.length xs);
  check_float "first" 0.0 xs.(0);
  check_float "last" 1.0 xs.(4);
  check_float "mid" 0.5 xs.(2)

let test_log_points () =
  let xs = Numeric.log_interp_points ~lo:1.0 ~hi:100.0 ~n:3 in
  check_float "geometric middle" 10.0 xs.(1)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  let lo, hi = Stats.min_max xs in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p50" 30.0 (Stats.percentile xs 50.0);
  check_float "p100" 50.0 (Stats.percentile xs 100.0);
  check_float "p25" 20.0 (Stats.percentile xs 25.0)

let test_stats_quantile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "q0" 10.0 (Stats.quantile xs 0.0);
  check_float "q0.5" 30.0 (Stats.quantile xs 0.5);
  check_float "q1" 50.0 (Stats.quantile xs 1.0);
  (* linear interpolation between order statistics *)
  check_float "q0.9" 46.0 (Stats.quantile xs 0.9);
  check_float "q0.125" 15.0 (Stats.quantile xs 0.125);
  (* order-independent and consistent with percentile *)
  let ys = [| 50.0; 10.0; 40.0; 20.0; 30.0 |] in
  check_float "unsorted input" (Stats.percentile xs 75.0) (Stats.quantile ys 0.75);
  check_float "singleton" 7.0 (Stats.quantile [| 7.0 |] 0.99)

let test_geometric_mean () =
  check_float "geomean" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |])

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~priority:p p) [ 3.0; 1.0; 4.0; 1.5; 9.0; 2.6 ];
  let rec drain acc =
    match Heap.pop h with
    | None -> List.rev acc
    | Some (p, _) -> drain (p :: acc)
  in
  Alcotest.(check (list (float 0.0))) "descending"
    [ 9.0; 4.0; 3.0; 2.6; 1.5; 1.0 ] (drain [])

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let test_heap_peek () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~priority:p (int_of_float p)) [ 2.0; 7.0; 5.0 ];
  let check what want got =
    Alcotest.(check (option (pair (float 0.0) int))) what want got
  in
  check "peek sees the top" (Some (7.0, 7)) (Heap.peek h);
  check "and leaves it there" (Some (7.0, 7)) (Heap.peek h);
  check "pop returns what peek saw" (Some (7.0, 7)) (Heap.pop h);
  check "then the next" (Some (5.0, 5)) (Heap.peek h)

let heap_property =
  QCheck.Test.make ~name:"heap pops in non-increasing priority" ~count:200
    QCheck.(list float)
    (fun ps ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~priority:p ()) ps;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (p, ()) -> p <= last && drain p
      in
      drain infinity)

(* ------------------------------------------------------------------ *)
(* Si / Text_table                                                    *)

let test_si_prefixed () =
  let m, p = Si.prefixed 2.41e-12 in
  Alcotest.(check string) "pico" "p" p;
  Alcotest.(check bool) "mantissa" true (Float.abs (m -. 2.41) < 1e-9)

let test_si_format () =
  Alcotest.(check string) "pJ" "2.41 pJ" (Si.format ~unit:"J" 2.41e-12);
  Alcotest.(check string) "zero" "0 J" (Si.format ~unit:"J" 0.0)

let test_si_negative_and_large () =
  Alcotest.(check string) "negative" "-2.5 mJ" (Si.format ~unit:"J" (-2.5e-3));
  Alcotest.(check string) "huge clamps to exa" "5e+03 EJ"
    (Si.format ~unit:"J" 5e21);
  Alcotest.(check string) "tiny clamps to atto" "0.5 aJ"
    (Si.format ~unit:"J" 5e-19)

let test_si_format_exp () =
  Alcotest.(check string) "exp" "2.41e-12" (Si.format_exp 2.41e-12)

let test_text_table () =
  let t = Text_table.create ~headers:[ "a"; "bb" ] in
  Text_table.add_row t [ "1"; "2" ];
  Text_table.add_separator t;
  Text_table.add_row t [ "333"; "4" ];
  let s = Text_table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 <> " " || true);
  (* every line has the same length *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let lens = List.map String.length lines in
  Alcotest.(check bool) "rectangular" true
    (List.for_all (fun l -> l = List.hd lens) lens)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "of_string stable" `Quick test_prng_of_string_stable;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "weighted choice" `Quick test_prng_choose_weighted;
          Alcotest.test_case "choose and bool" `Quick test_prng_choose_and_bool;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutation;
        ] );
      ( "numeric",
        [
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "binary_search_min" `Quick test_binary_search_min;
          Alcotest.test_case "binary_search_min none" `Quick
            test_binary_search_min_none;
          Alcotest.test_case "binary_search_min all" `Quick
            test_binary_search_min_all;
          Alcotest.test_case "binary_search_min on the dyadic grid" `Quick
            test_binary_search_min_grid;
          Alcotest.test_case "trapezoid" `Quick test_integrate;
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "log points" `Quick test_log_points;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "geomean" `Quick test_geometric_mean;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          QCheck_alcotest.to_alcotest heap_property;
        ] );
      ( "format",
        [
          Alcotest.test_case "si prefixed" `Quick test_si_prefixed;
          Alcotest.test_case "si format" `Quick test_si_format;
          Alcotest.test_case "si negatives and extremes" `Quick
            test_si_negative_and_large;
          Alcotest.test_case "si exp" `Quick test_si_format_exp;
          Alcotest.test_case "text table" `Quick test_text_table;
        ] );
    ]
