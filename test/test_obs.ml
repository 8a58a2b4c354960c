(* Tests for dcopt_obs: metrics registry semantics, span recording and
   nesting, Chrome trace-event export well-formedness, and the optimizer
   telemetry stream. *)

module Metrics = Dcopt_obs.Metrics
module Span = Dcopt_obs.Span
module Clock = Dcopt_util.Clock
module Telemetry = Dcopt_obs.Telemetry
module Bench_gate = Dcopt_obs.Bench_gate
module Par = Dcopt_par.Par
module Json = Dcopt_util.Json
module Circuit = Dcopt_netlist.Circuit
module Activity = Dcopt_activity.Activity
module Delay_assign = Dcopt_timing.Delay_assign
module Power_model = Dcopt_opt.Power_model
module Heuristic = Dcopt_opt.Heuristic
module Multi_vdd = Dcopt_opt.Multi_vdd
module Budget_repair = Dcopt_opt.Budget_repair
module Tech = Dcopt_device.Tech

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock_strictly_increasing () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ns () in
    Alcotest.(check bool) "strictly increasing" true (Int64.compare t !prev > 0);
    prev := t
  done

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_semantics () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Alcotest.(check int) "fresh" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr ~by:5 c;
  Alcotest.(check int) "1 + 5" 6 (Metrics.value c);
  let c' = Metrics.counter "test.counter" in
  Metrics.incr c';
  Alcotest.(check int) "same instrument" 7 (Metrics.value c);
  (match Metrics.incr ~by:(-1) c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative increment accepted");
  (match Metrics.gauge "test.counter" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type mismatch accepted");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.value c);
  Alcotest.(check bool) "registration survives reset" true
    (List.mem "test.counter" (Metrics.names ()))

let test_gauge_semantics () =
  Metrics.reset ();
  let g = Metrics.gauge "test.gauge" in
  check_float "fresh" 0.0 (Metrics.gauge_value g);
  Metrics.set g 2.5;
  Metrics.set g (-1.25);
  check_float "last write wins" (-1.25) (Metrics.gauge_value g);
  Metrics.reset ();
  check_float "reset zeroes" 0.0 (Metrics.gauge_value g)

let test_histogram_semantics () =
  Metrics.reset ();
  let h = Metrics.histogram "test.histogram" in
  Alcotest.(check int) "fresh" 0 (Metrics.count h);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  Alcotest.(check int) "empty buckets" 0 (Array.length (Metrics.buckets h));
  (* push past the initial 16-slot buffer to exercise growth *)
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Metrics.count h);
  let xs = Metrics.samples h in
  Alcotest.(check int) "samples length" 100 (Array.length xs);
  check_float "observation order" 1.0 xs.(0);
  check_float "observation order (last)" 100.0 xs.(99);
  check_float "p50" 50.5 (Metrics.quantile h 0.5);
  check_float "p0" 1.0 (Metrics.quantile h 0.0);
  check_float "p100" 100.0 (Metrics.quantile h 1.0);
  let buckets = Metrics.buckets h in
  (* samples 1..100 span decades [1,10), [10,100), [100,1000) *)
  Alcotest.(check int) "log-scale decade count" 3 (Array.length buckets);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets in
  Alcotest.(check int) "buckets partition samples" 100 total;
  let lo0, hi0, c0 = buckets.(0) in
  check_float "first bucket lo" 1.0 lo0;
  check_float "first bucket hi" 10.0 hi0;
  Alcotest.(check int) "first decade holds 1..9" 9 c0;
  Metrics.observe (Metrics.histogram "test.histogram") (-3.0);
  let buckets = Metrics.buckets h in
  Alcotest.(check int) "non-positive leading bucket" 4 (Array.length buckets);
  let lo, _, c = buckets.(0) in
  check_float "leading bucket starts at 0" 0.0 lo;
  Alcotest.(check int) "leading bucket count" 1 c;
  Metrics.reset ();
  Alcotest.(check int) "reset empties" 0 (Metrics.count h)

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let test_metrics_render () =
  Metrics.reset ();
  let c = Metrics.counter "test.render.counter" in
  Metrics.incr ~by:3 c;
  let h = Metrics.histogram "test.render.histogram" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0 ];
  let table = Metrics.render () in
  Alcotest.(check bool) "counter row present" true
    (contains ~needle:"test.render.counter" table);
  Alcotest.(check bool) "histogram row present" true
    (contains ~needle:"test.render.histogram" table)

(* The OpenMetrics exposition is checked family by family: the registry
   carries every module-level instrument in the binary, so the test
   filters the rendered lines down to its own metric names instead of
   golden-matching the whole document. *)
let test_openmetrics_render () =
  Metrics.reset ();
  let c = Metrics.counter ~help:"count \"things\"\nover \\ lines" "test.om.counter" in
  Metrics.incr ~by:7 c;
  let g = Metrics.gauge "test.om.gauge" in
  Metrics.set g nan;
  ignore (Metrics.histogram ~help:"nothing yet" "test.om.empty");
  let h = Metrics.histogram "test.om.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0; -1.0 ];
  let out = Metrics.render_openmetrics () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  let block family = List.filter (contains ~needle:family) lines in
  Alcotest.(check (list string))
    "counter family: HELP escaping, TYPE, _total suffix"
    [
      "# HELP test_om_counter count \\\"things\\\"\\nover \\\\ lines";
      "# TYPE test_om_counter counter";
      "test_om_counter_total 7";
    ]
    (block "test_om_counter");
  Alcotest.(check (list string)) "gauge family: NaN sample"
    [ "# TYPE test_om_gauge gauge"; "test_om_gauge NaN" ]
    (block "test_om_gauge");
  Alcotest.(check (list string)) "empty histogram: +Inf bucket only"
    [
      "# HELP test_om_empty nothing yet";
      "# TYPE test_om_empty histogram";
      "test_om_empty_bucket{le=\"+Inf\"} 0";
      "test_om_empty_sum 0.0";
      "test_om_empty_count 0";
    ]
    (block "test_om_empty");
  Alcotest.(check (list string))
    "histogram family: cumulative buckets, exact sum and count"
    [
      "# TYPE test_om_hist histogram";
      "test_om_hist_bucket{le=\"0.1\"} 1";
      "test_om_hist_bucket{le=\"1.0\"} 2";
      "test_om_hist_bucket{le=\"10.0\"} 3";
      "test_om_hist_bucket{le=\"100.0\"} 4";
      "test_om_hist_bucket{le=\"+Inf\"} 4";
      "test_om_hist_sum 54.5";
      "test_om_hist_count 4";
    ]
    (block "test_om_hist");
  (match List.rev lines with
  | last :: _ -> Alcotest.(check string) "terminated by # EOF" "# EOF" last
  | [] -> Alcotest.fail "empty exposition");
  Metrics.reset ()

let test_histogram_reservoir () =
  Metrics.reset ();
  let h = Metrics.histogram "test.reservoir" in
  let n = Metrics.reservoir_cap + 5000 in
  for i = 1 to n do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count stays exact past the cap" n (Metrics.count h);
  Alcotest.(check int) "retained samples capped" Metrics.reservoir_cap
    (Array.length (Metrics.samples h));
  check_float "sum stays exact"
    (float_of_int (n * (n + 1) / 2))
    (Metrics.observed_sum h);
  check_float "mean stays exact"
    (float_of_int (n + 1) /. 2.0)
    (Metrics.mean h);
  let q = Metrics.quantile h 0.5 in
  Alcotest.(check bool) "median estimate lands mid-stream" true
    (q > 0.3 *. float_of_int n && q < 0.7 *. float_of_int n);
  let first = Metrics.samples h in
  Metrics.reset ();
  for i = 1 to n do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check bool) "reset reseeds: identical stream, identical reservoir"
    true
    (first = Metrics.samples h);
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Bench regression gate                                               *)

let meas name ns = { Bench_gate.name; ns }

let test_bench_gate_verdicts () =
  let baseline = [ meas "kernel:a" 100.0; meas "incr:b" 50.0 ] in
  let ok = Bench_gate.check ~baseline ~current:baseline () in
  Alcotest.(check int) "one verdict per baseline entry" 2 (List.length ok);
  Alcotest.(check bool) "identical numbers pass" true (Bench_gate.all_ok ok);
  (* within the noise threshold *)
  let near = [ meas "kernel:a" 140.0; meas "incr:b" 50.0 ] in
  Alcotest.(check bool) "1.4x passes the 1.5x default" true
    (Bench_gate.all_ok (Bench_gate.check ~baseline ~current:near ()));
  (* the acceptance case: an injected 2x slowdown must gate *)
  let slowed = [ meas "kernel:a" 200.0; meas "incr:b" 50.0 ] in
  let verdicts = Bench_gate.check ~baseline ~current:slowed () in
  Alcotest.(check bool) "2x slowdown fails" false (Bench_gate.all_ok verdicts);
  (match Bench_gate.failures verdicts with
  | [ f ] ->
    Alcotest.(check string) "the slowed kernel is the failure" "kernel:a"
      f.Bench_gate.v_name;
    check_float "ratio reported" 2.0 f.Bench_gate.ratio
  | fs -> Alcotest.fail (Printf.sprintf "%d failures, want 1" (List.length fs)));
  Alcotest.(check bool) "report labels the regression" true
    (contains ~needle:"FAIL" (Bench_gate.render verdicts));
  (* a custom threshold moves the bar *)
  Alcotest.(check bool) "2x passes a 3x threshold" true
    (Bench_gate.all_ok
       (Bench_gate.check ~threshold:3.0 ~baseline ~current:slowed ()));
  (* coverage rot: a baseline kernel with no current measurement fails *)
  let partial = [ meas "kernel:a" 100.0 ] in
  let verdicts = Bench_gate.check ~baseline ~current:partial () in
  Alcotest.(check bool) "missing measurement fails" false
    (Bench_gate.all_ok verdicts);
  (match Bench_gate.failures verdicts with
  | [ f ] ->
    Alcotest.(check bool) "missing side is None" true
      (f.Bench_gate.current_ns = None)
  | _ -> Alcotest.fail "want exactly the missing kernel as failure");
  (* new kernels only on the current side don't gate yet *)
  let extra = baseline @ [ meas "kernel:new" 1.0 ] in
  Alcotest.(check int) "current-only kernels ignored" 2
    (List.length (Bench_gate.check ~baseline ~current:extra ()))

let test_bench_gate_json () =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "dcopt-bench-timing/1");
        ( "kernels",
          Json.List
            [
              Json.Obj
                [ ("name", Json.String "a"); ("ns_per_run", Json.Float 12.5) ];
              Json.Obj [ ("name", Json.String "b"); ("ns_per_run", Json.Null) ];
            ] );
        ( "incremental",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "c");
                  ("incr_ns_per_move", Json.Float 3.0);
                ];
            ] );
      ]
  in
  let ms = Bench_gate.measurements_of_json doc in
  Alcotest.(check (list string)) "namespaced, null timings skipped"
    [ "kernel:a"; "incr:c" ]
    (List.map (fun m -> m.Bench_gate.name) ms);
  check_float "kernel ns carried" 12.5 (List.hd ms).Bench_gate.ns;
  match Bench_gate.load_baseline "no_such_baseline.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonexistent baseline loaded"

(* ------------------------------------------------------------------ *)
(* Minimal JSON checker (recursive descent), enough to validate the
   Chrome trace export without pulling in a JSON dependency.           *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let pos = ref 0 in
  let n = String.length s in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/') ->
          Buffer.add_char b (Option.get (peek ()));
          advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 'b' -> Buffer.add_char b '\b'; advance ()
        | Some 'f' -> Buffer.add_char b '\012'; advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          Buffer.add_char b '?'
        | _ -> fail "bad escape");
        loop ()
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); J_obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); J_obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); J_list [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); J_list (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | J_obj kvs -> List.assoc_opt name kvs
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_disabled_is_passthrough () =
  Span.set_enabled false;
  Span.reset ();
  let r = Span.with_ "invisible" (fun () -> 41 + 1) in
  Alcotest.(check int) "value returned" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.spans ()))

let record_nest () =
  Span.set_enabled true;
  Span.reset ();
  let r =
    Span.with_ "parent" (fun () ->
        let a = Span.with_ "child-a" (fun () -> 1) in
        let b =
          Span.with_ "child-b" (fun () ->
              Span.with_ "grandchild" ~args:[ ("k", "v") ] (fun () -> 2))
        in
        a + b)
  in
  Span.set_enabled false;
  Alcotest.(check int) "nested value" 3 r;
  Span.spans ()

let test_span_nesting_and_order () =
  let spans = record_nest () in
  Alcotest.(check (list string))
    "completion order (children first)"
    [ "child-a"; "grandchild"; "child-b"; "parent" ]
    (List.map (fun s -> s.Span.name) spans);
  Alcotest.(check (list int)) "depths" [ 1; 2; 1; 0 ]
    (List.map (fun s -> s.Span.depth) spans);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Span.name ^ " strictly positive duration")
        true
        (Int64.compare s.Span.dur_ns 0L > 0))
    spans;
  let find name = List.find (fun s -> s.Span.name = name) spans in
  let ends s = Int64.add s.Span.start_ns s.Span.dur_ns in
  let contains outer inner =
    Int64.compare outer.Span.start_ns inner.Span.start_ns <= 0
    && Int64.compare (ends inner) (ends outer) <= 0
  in
  let parent = find "parent" and child_b = find "child-b" in
  Alcotest.(check bool) "parent contains child-a" true
    (contains parent (find "child-a"));
  Alcotest.(check bool) "parent contains child-b" true (contains parent child_b);
  Alcotest.(check bool) "child-b contains grandchild" true
    (contains child_b (find "grandchild"));
  Alcotest.(check bool) "siblings ordered" true
    (Int64.compare (ends (find "child-a")) child_b.Span.start_ns <= 0);
  (* top-level total counts only depth 0 *)
  Alcotest.(check bool) "top-level total = parent duration" true
    (Int64.equal (Span.top_level_total_ns ()) parent.Span.dur_ns);
  let roll = Span.roll_up () in
  Alcotest.(check int) "roll-up has one row per name" 4 (List.length roll);
  List.iter
    (fun (_, calls, total) ->
      Alcotest.(check int) "one call each" 1 calls;
      Alcotest.(check bool) "positive total" true (Int64.compare total 0L > 0))
    roll

let test_span_closes_on_exception () =
  Span.set_enabled true;
  Span.reset ();
  (try
     Span.with_ "outer" (fun () ->
         ignore (Span.with_ "raises" (fun () -> failwith "boom")))
   with Failure _ -> ());
  Span.set_enabled false;
  let names = List.map (fun s -> s.Span.name) (Span.spans ()) in
  Alcotest.(check (list string)) "both spans closed" [ "raises"; "outer" ] names;
  let raises = List.hd (Span.spans ()) in
  Alcotest.(check int) "nested depth survives the raise" 1 raises.Span.depth

let test_chrome_export_well_formed () =
  let spans = record_nest () in
  let doc = parse_json (Span.export_chrome ()) in
  let events =
    match field "traceEvents" doc with
    | Some (J_list evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check int) "one event per span" (List.length spans)
    (List.length events);
  let num ev key =
    match field key ev with
    | Some (J_num f) -> f
    | _ -> Alcotest.fail (key ^ " missing or not a number")
  in
  List.iter
    (fun ev ->
      (match field "name" ev with
      | Some (J_str _) -> ()
      | _ -> Alcotest.fail "name missing");
      (match field "ph" ev with
      | Some (J_str "X") -> ()
      | _ -> Alcotest.fail "ph must be \"X\"");
      Alcotest.(check bool) "ts >= 0" true (num ev "ts" >= 0.0);
      Alcotest.(check bool) "dur > 0" true (num ev "dur" > 0.0);
      ignore (num ev "pid");
      ignore (num ev "tid"))
    events;
  let names =
    List.filter_map
      (fun ev -> match field "name" ev with Some (J_str s) -> Some s | _ -> None)
      events
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Span.name ^ " exported") true
        (List.mem s.Span.name names))
    spans;
  (* grandchild args survive the round trip *)
  let grandchild =
    List.find (fun ev -> field "name" ev = Some (J_str "grandchild")) events
  in
  match field "args" grandchild with
  | Some (J_obj kvs) ->
    Alcotest.(check bool) "custom arg exported" true
      (List.assoc_opt "k" kvs = Some (J_str "v"))
  | _ -> Alcotest.fail "args missing"

(* A broken clock source must degrade to a 1 ns span and a counter bump,
   never an exception: tracing can't be allowed to kill a serve loop. *)
let test_span_clamp_defensive () =
  Metrics.reset ();
  Span.set_enabled true;
  Span.reset ();
  Span.record_span ~name:"backwards" ~start_ns:1000L ~end_ns:900L ();
  Span.record_span ~name:"zero-width" ~start_ns:1000L ~end_ns:1000L ();
  Span.record_span ~name:"forwards" ~start_ns:1000L ~end_ns:1500L ();
  Span.set_enabled false;
  let spans = Span.spans () in
  let dur name =
    (List.find (fun s -> s.Span.name = name) spans).Span.dur_ns
  in
  Alcotest.(check int64) "backwards interval clamped to 1" 1L (dur "backwards");
  Alcotest.(check int64) "zero interval clamped to 1" 1L (dur "zero-width");
  Alcotest.(check int64) "sane interval kept" 500L (dur "forwards");
  Alcotest.(check int) "clamps counted" 2
    (Metrics.value (Metrics.counter "span.clock_clamped"));
  Span.reset ();
  Metrics.reset ()

let test_multi_domain_merge () =
  Span.reset ();
  Span.set_enabled true;
  let seen = Atomic.make [] in
  let note_domain () =
    let id = (Domain.self () :> int) in
    let rec add () =
      let cur = Atomic.get seen in
      if not (List.mem id cur) then
        if not (Atomic.compare_and_set seen cur (id :: cur)) then add ()
    in
    add ()
  in
  let deadline = Int64.add (Clock.now_ns ()) 2_000_000_000L in
  let rendezvous i =
    Span.with_ "pool.task" ~args:[ ("i", string_of_int i) ] (fun () ->
        note_domain ();
        (* hold the span open until a second domain joins (bounded by the
           deadline), so the merged trace provably crosses domains *)
        while
          List.length (Atomic.get seen) < 2
          && Int64.compare (Clock.now_ns ()) deadline < 0
        do
          Domain.cpu_relax ()
        done;
        i * i)
  in
  let out = Par.map ~jobs:4 rendezvous (Array.init 8 (fun i -> i)) in
  Span.set_enabled false;
  Alcotest.(check bool) "results positioned by index" true
    (out = Array.init 8 (fun i -> i * i));
  Alcotest.(check bool) "two domains participated" true
    (List.length (Atomic.get seen) >= 2);
  let merged = Span.merged () in
  Alcotest.(check int) "every task span merged" 8 (List.length merged);
  let tids = List.sort_uniq compare (List.map fst merged) in
  Alcotest.(check bool) "merge spans >= 2 tids" true (List.length tids >= 2);
  let rec sorted = function
    | (t1, s1) :: ((t2, s2) :: _ as rest) ->
      (t1 < t2
      || (t1 = t2 && Int64.compare s1.Span.start_ns s2.Span.start_ns < 0))
      && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "merge strictly ordered by (tid, start)" true
    (sorted merged);
  (* the Chrome export puts each domain on its own trace row *)
  let doc = parse_json (Span.export_chrome ()) in
  let events =
    match field "traceEvents" doc with
    | Some (J_list evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  let ev_tids =
    List.sort_uniq compare
      (List.filter_map
         (fun ev ->
           match field "tid" ev with Some (J_num t) -> Some t | _ -> None)
         events)
  in
  Alcotest.(check bool) "chrome trace has >= 2 tids" true
    (List.length ev_tids >= 2);
  (* logical content is scheduling-independent: a jobs=1 replay records
     the same span multiset *)
  let key (_, s) = s.Span.name ^ "#" ^ List.assoc "i" s.Span.args in
  let keys4 = List.sort compare (List.map key merged) in
  Span.reset ();
  Span.set_enabled true;
  let plain i =
    Span.with_ "pool.task" ~args:[ ("i", string_of_int i) ] (fun () -> i * i)
  in
  let out1 = Par.map ~jobs:1 plain (Array.init 8 (fun i -> i)) in
  Span.set_enabled false;
  Alcotest.(check bool) "jobs=1 results identical" true (out = out1);
  let keys1 = List.sort compare (List.map key (Span.merged ())) in
  Alcotest.(check (list string)) "jobs=4 and jobs=1 record the same spans"
    keys4 keys1;
  Span.reset ()

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let mk_iteration i =
  {
    Telemetry.optimizer = "test";
    index = i;
    vdd = 1.0;
    vt = 0.2;
    static_energy = 1e-15;
    dynamic_energy = 2e-15;
    total_energy = 3e-15;
    feasible = i mod 2 = 0;
  }

let test_telemetry_combinators () =
  let r1 = Telemetry.recorder () and r2 = Telemetry.recorder () in
  let obs =
    Telemetry.tee (Telemetry.record r1)
      (Telemetry.relabel "renamed" (Telemetry.record r2))
  in
  for i = 0 to 4 do
    obs (mk_iteration i)
  done;
  Telemetry.null (mk_iteration 99);
  Alcotest.(check int) "tee feeds first" 5 (Telemetry.count r1);
  Alcotest.(check int) "tee feeds second" 5 (Telemetry.count r2);
  let its1 = Telemetry.iterations r1 and its2 = Telemetry.iterations r2 in
  Alcotest.(check string) "original label" "test" its1.(0).Telemetry.optimizer;
  Alcotest.(check string) "relabel rewrites" "renamed"
    its2.(0).Telemetry.optimizer;
  Alcotest.(check int) "arrival order" 4 its1.(4).Telemetry.index

let test_telemetry_to_metrics () =
  Metrics.reset ();
  let obs = Telemetry.to_metrics () in
  for i = 0 to 9 do
    obs (mk_iteration i)
  done;
  Alcotest.(check int) "iteration counter" 10
    (Metrics.value (Metrics.counter "opt.test.iterations"));
  Alcotest.(check int) "infeasible counter" 5
    (Metrics.value (Metrics.counter "opt.test.infeasible"));
  Alcotest.(check int) "vdd histogram sees all" 10
    (Metrics.count (Metrics.histogram "opt.test.iteration.vdd"));
  Alcotest.(check int) "energy histogram sees feasible only" 5
    (Metrics.count (Metrics.histogram "opt.test.iteration.total_energy"));
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Procedure-1 metrics: timing.* counters and the fallback share       *)

let test_procedure1_metrics () =
  Metrics.reset ();
  let module Gate = Dcopt_netlist.Gate in
  (* one gate of three drives nothing and is not a PO: the fallback's *)
  let dangling =
    Circuit.create ~name:"dangling"
      ~nodes:
        [
          ("a", Gate.Input, []);
          ("g1", Gate.Not, [ "a" ]);
          ("dead", Gate.Not, [ "g1" ]);
          ("out", Gate.Not, [ "g1" ]);
        ]
      ~outputs:[ "out" ]
  in
  let chain =
    Circuit.create ~name:"chain"
      ~nodes:
        [
          ("a", Gate.Input, []);
          ("g1", Gate.Not, [ "a" ]);
          ("g2", Gate.Not, [ "g1" ]);
        ]
      ~outputs:[ "g2" ]
  in
  let b1 = Delay_assign.assign dangling ~cycle_time:1e-9 in
  let b2 = Delay_assign.assign chain ~cycle_time:1e-9 in
  let counter name = Metrics.value (Metrics.counter name) in
  Alcotest.(check int) "assignments" 2 (counter "timing.assignments");
  Alcotest.(check int) "paths used"
    (b1.Delay_assign.paths_used + b2.Delay_assign.paths_used)
    (counter "timing.paths_used");
  Alcotest.(check int) "fallback gates" 1 (counter "timing.fallback_gates");
  Alcotest.(check int) "slope adjusted"
    (b1.Delay_assign.slope_adjusted + b2.Delay_assign.slope_adjusted)
    (counter "timing.slope_adjusted");
  let share = Metrics.histogram "timing.fallback_share" in
  Alcotest.(check int) "one observation per assign" 2 (Metrics.count share);
  Alcotest.(check (array (float 0.0))) "fallback_gates / gate_count"
    [| 1.0 /. 3.0; 0.0 |] (Metrics.samples share);
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Heuristic observer on s27: deterministic, bounded by M^3            *)

let s27_env ?(tech = Tech.default) () =
  let fc = 300e6 in
  let core = Circuit.combinational_core (Dcopt_suite.Suite.find_exn "s27") in
  let specs = Activity.uniform_inputs core ~probability:0.5 ~density:0.1 in
  let profile = Activity.local_profile core specs in
  let env = Power_model.make_env ~tech ~fc core profile in
  let raw =
    (Delay_assign.assign core ~cycle_time:(1.0 /. fc)).Delay_assign.t_max
  in
  let budgets =
    match
      Budget_repair.repair env ~budgets:raw ~vdd:tech.Tech.vdd_max
        ~vt:tech.Tech.vt_min
    with
    | Budget_repair.Repaired { budgets; _ } -> budgets
    | Budget_repair.Infeasible _ -> raw
  in
  (env, budgets)

let observed_run env ~budgets =
  let recorder = Telemetry.recorder () in
  let sol =
    Heuristic.optimize ~observer:(Telemetry.record recorder) env ~budgets
  in
  (sol, Telemetry.iterations recorder)

let test_heuristic_observer_deterministic () =
  let env, budgets = s27_env () in
  let sol1, its1 = observed_run env ~budgets in
  let _sol2, its2 = observed_run env ~budgets in
  Alcotest.(check bool) "found a solution" true (sol1 <> None);
  Alcotest.(check bool) "saw iterations" true (Array.length its1 > 0);
  Alcotest.(check int) "iteration count deterministic" (Array.length its1)
    (Array.length its2);
  let m = 16 in
  Alcotest.(check bool) "bounded by M^3" true
    (Array.length its1 <= m * m * m);
  Array.iteri
    (fun i it ->
      Alcotest.(check int) "indices are the stream position" i
        it.Telemetry.index;
      Alcotest.(check string) "labelled heuristic" "heuristic"
        it.Telemetry.optimizer;
      let it2 = its2.(i) in
      check_float "vdd replays" it.Telemetry.vdd it2.Telemetry.vdd;
      check_float "vt replays" it.Telemetry.vt it2.Telemetry.vt;
      Alcotest.(check bool) "feasibility replays" it.Telemetry.feasible
        it2.Telemetry.feasible;
      if it.Telemetry.feasible then begin
        check_float "energy sums" it.Telemetry.total_energy
          (it.Telemetry.static_energy +. it.Telemetry.dynamic_energy);
        Alcotest.(check bool) "feasible energy positive" true
          (it.Telemetry.total_energy > 0.0)
      end)
    its1;
  (* the winning energy is one the observer saw *)
  match sol1 with
  | None -> ()
  | Some sol ->
    let best = Dcopt_opt.Solution.total_energy sol in
    Alcotest.(check bool) "solution energy appears in the stream" true
      (Array.exists
         (fun it ->
           it.Telemetry.feasible
           && Float.abs (it.Telemetry.total_energy -. best)
              <= 1e-9 *. Float.abs best)
         its1)

(* Multi-vt and multi-vdd: the delegated single-threshold search's records
   and then their own, one stream labelled with the optimizer's name. *)
let test_multi_optimizer_streams () =
  let env, budgets = s27_env () in
  let inner_count =
    let recorder = Telemetry.recorder () in
    ignore
      (Heuristic.optimize ~observer:(Telemetry.record recorder)
         ~options:
           { Heuristic.default_options with m_steps = 12;
             strategy = Heuristic.Grid_refine }
         env ~budgets);
    Telemetry.count recorder
  in
  let check_stream name its ~own =
    Alcotest.(check int) (name ^ " own trials") own
      (Array.length its - inner_count);
    Array.iteri
      (fun i it ->
        Alcotest.(check int) (name ^ " index") i it.Telemetry.index;
        Alcotest.(check string) (name ^ " label") name it.Telemetry.optimizer)
      its
  in
  let recorder = Telemetry.recorder () in
  let sol =
    Dcopt_opt.Multi_vt.optimize ~observer:(Telemetry.record recorder) env
      ~budgets
  in
  let its = Telemetry.iterations recorder in
  Alcotest.(check bool) "multi-vt solved" true (sol <> None);
  (* two rounds of nine class thresholds per class, five supplies, and
     the greedy candidates that promoted a gate *)
  let own = Array.length its - inner_count in
  Alcotest.(check bool) "multi-vt own trials" true (own >= (2 * 2 * 9) + 5);
  check_stream "multi-vt" its ~own;
  let recorder = Telemetry.recorder () in
  let r =
    Multi_vdd.optimize ~observer:(Telemetry.record recorder) env ~budgets
  in
  let low = (Multi_vdd.classify env ~budgets ~slack_threshold:1.5).Multi_vdd.low_count in
  Alcotest.(check bool) "multi-vdd solved" true (r <> None);
  (* four high rails, four low-rail fractions, four thresholds *)
  check_stream "multi-vdd" (Telemetry.iterations recorder)
    ~own:(if low > 0 then 64 else 0);
  Alcotest.(check bool) "s27 has low-rail candidates" true (low > 0)

(* ------------------------------------------------------------------ *)
(* Sizing counters: every sized gate tallied, bisections visible         *)

let test_sizing_counters () =
  let value name = Metrics.value (Metrics.counter name) in
  let env, budgets = s27_env () in
  let gates = Array.length (Power_model.gate_ids env) in
  let n = Circuit.size (Power_model.circuit env) in
  Metrics.reset ();
  ignore (Power_model.size_all env ~vdd:1.0 ~vt:(Array.make n 0.2) ~budgets);
  Alcotest.(check int) "size_all tallies every gate" gates
    (value "sizing.gates");
  Alcotest.(check int) "the default width range never bisects" 0
    (value "sizing.bisections");
  let assignment = Multi_vdd.classify env ~budgets ~slack_threshold:1.5 in
  ignore
    (Multi_vdd.evaluate env assignment ~vdd_high:1.0 ~vdd_low:0.7 ~vt:0.2
       ~budgets);
  (* a gate demoted from the low rail is sized twice *)
  Alcotest.(check bool) "multi-vdd tallies every gate" true
    (value "sizing.gates" >= 2 * gates);
  Alcotest.(check int) "multi-vdd does not bisect either" 0
    (value "sizing.bisections");
  (* a width range off the power-of-two grid forces the bisection *)
  let env, budgets = s27_env ~tech:{ Tech.default with Tech.w_min = 0.3 } () in
  Metrics.reset ();
  ignore (Power_model.size_all env ~vdd:1.0 ~vt:(Array.make n 0.2) ~budgets);
  Alcotest.(check int) "non-dyadic: every gate tallied" gates
    (value "sizing.gates");
  Alcotest.(check int) "non-dyadic: every gate bisected" gates
    (value "sizing.bisections");
  Metrics.reset ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "strictly increasing" `Quick
            test_clock_strictly_increasing ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "gauge" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram" `Quick test_histogram_semantics;
          Alcotest.test_case "render" `Quick test_metrics_render;
          Alcotest.test_case "openmetrics render" `Quick
            test_openmetrics_render;
          Alcotest.test_case "reservoir sampling" `Quick
            test_histogram_reservoir;
          Alcotest.test_case "procedure-1 metrics" `Quick
            test_procedure1_metrics;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "verdicts" `Quick test_bench_gate_verdicts;
          Alcotest.test_case "timing json" `Quick test_bench_gate_json;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled passthrough" `Quick
            test_span_disabled_is_passthrough;
          Alcotest.test_case "nesting and order" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "closes on exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "chrome export" `Quick
            test_chrome_export_well_formed;
          Alcotest.test_case "clock clamp" `Quick test_span_clamp_defensive;
          Alcotest.test_case "multi-domain merge" `Quick
            test_multi_domain_merge;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "combinators" `Quick test_telemetry_combinators;
          Alcotest.test_case "to_metrics" `Quick test_telemetry_to_metrics;
          Alcotest.test_case "heuristic observer deterministic" `Quick
            test_heuristic_observer_deterministic;
          Alcotest.test_case "multi-vt and multi-vdd streams" `Quick
            test_multi_optimizer_streams;
        ] );
      ( "sizing",
        [ Alcotest.test_case "counters" `Quick test_sizing_counters ] );
    ]
