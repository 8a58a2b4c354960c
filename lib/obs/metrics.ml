module Stats = Dcopt_util.Stats
module Prng = Dcopt_util.Prng

(* Counters are atomic: library code bumps module-level counters from
   inside Par pool tasks (activity, budgeting, simulation), so increments
   may come from any domain. Gauges and histograms stay plain mutable —
   every writer is main-domain-only by convention (see the .mli). *)
type counter = { count : int Atomic.t }
type gauge = { mutable value : float }

(* Histograms keep raw samples exactly up to [reservoir_cap], then switch
   to Algorithm-R reservoir sampling driven by a per-histogram PRNG
   seeded from the metric name — deterministic, so two runs observing the
   same stream retain the same samples. [total]/[sum] keep exact count
   and mean either way; only quantiles and min/max become estimates past
   the cap. *)
type histogram = {
  h_name : string;
  mutable data : float array; (* growable buffer; first [len] slots live *)
  mutable len : int;
  mutable total : int; (* observations ever, >= len *)
  mutable sum : float; (* exact running sum of all observations *)
  mutable rng : Prng.t; (* reservoir replacement stream *)
}

let reservoir_cap = 8192

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let help_texts : (string, string) Hashtbl.t = Hashtbl.create 64

let register name help make =
  (match help with Some h -> Hashtbl.replace help_texts name h | None -> ());
  match Hashtbl.find_opt registry name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.replace registry name m;
    m

let counter ?help name =
  match register name help (fun () -> Counter { count = Atomic.make 0 }) with
  | Counter c -> c
  | Gauge _ | Histogram _ ->
    invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: negative increment";
  ignore (Atomic.fetch_and_add c.count by)

let value c = Atomic.get c.count

let gauge ?help name =
  match register name help (fun () -> Gauge { value = 0.0 }) with
  | Gauge g -> g
  | Counter _ | Histogram _ ->
    invalid_arg (Printf.sprintf "Metrics.gauge: %S is not a gauge" name)

let set g v = g.value <- v
let gauge_value g = g.value

let histogram ?help name =
  match
    register name help (fun () ->
        Histogram
          {
            h_name = name;
            data = Array.make 16 0.0;
            len = 0;
            total = 0;
            sum = 0.0;
            rng = Prng.of_string name;
          })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ ->
    invalid_arg (Printf.sprintf "Metrics.histogram: %S is not a histogram" name)

let observe h x =
  h.total <- h.total + 1;
  h.sum <- h.sum +. x;
  if h.len < reservoir_cap then begin
    if h.len = Array.length h.data then begin
      let bigger =
        Array.make (min reservoir_cap (2 * Array.length h.data)) 0.0
      in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- x;
    h.len <- h.len + 1
  end
  else begin
    (* Algorithm R: the new sample replaces a uniformly chosen slot with
       probability cap/total, keeping every observation equally likely to
       be retained. *)
    let j = Prng.int h.rng h.total in
    if j < reservoir_cap then h.data.(j) <- x
  end

let count h = h.total
let observed_sum h = h.sum
let samples h = Array.sub h.data 0 h.len

let quantile h q =
  if h.len = 0 then nan else Stats.quantile (samples h) q

let mean h = if h.total = 0 then nan else h.sum /. float_of_int h.total

let buckets ?(base = 10.0) h =
  if h.len = 0 then [||]
  else begin
    if not (base > 1.0) then invalid_arg "Metrics.buckets: base <= 1";
    let xs = samples h in
    let positives = Array.of_list (List.filter (fun x -> x > 0.0) (Array.to_list xs)) in
    let non_positive = h.len - Array.length positives in
    let log_floor x = Float.floor (log x /. log base) in
    let bucket_ranges =
      if Array.length positives = 0 then []
      else begin
        let lo, hi = Stats.min_max positives in
        let e_lo = int_of_float (log_floor lo) in
        let e_hi = int_of_float (log_floor hi) in
        (* cap the bucket count so degenerate ranges stay printable *)
        let e_lo = max e_lo (e_hi - 39) in
        List.init (e_hi - e_lo + 1) (fun i ->
            let e = e_lo + i in
            (base ** float_of_int e, base ** float_of_int (e + 1)))
      end
    in
    let count_in (lo, hi) =
      Array.fold_left
        (fun acc x -> if x >= lo && x < hi then acc + 1 else acc)
        0 positives
    in
    let pos_buckets =
      List.map (fun (lo, hi) -> (lo, hi, count_in (lo, hi))) bucket_ranges
    in
    (* samples below the capped lowest boundary land in the first bucket *)
    let pos_buckets =
      match pos_buckets with
      | (lo, hi, c) :: rest ->
        let below =
          Array.fold_left
            (fun acc x -> if x > 0.0 && x < lo then acc + 1 else acc)
            0 positives
        in
        (lo, hi, c + below) :: rest
      | [] -> []
    in
    let all =
      if non_positive > 0 then
        let first_bound =
          match pos_buckets with (lo, _, _) :: _ -> lo | [] -> 1.0
        in
        (0.0, first_bound, non_positive) :: pos_buckets
      else pos_buckets
    in
    Array.of_list all
  end

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) registry []
  |> List.sort String.compare

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Atomic.set c.count 0
      | Gauge g -> g.value <- 0.0
      | Histogram h ->
        h.len <- 0;
        h.total <- 0;
        h.sum <- 0.0;
        h.rng <- Prng.of_string h.h_name)
    registry

let sorted_metrics () =
  List.map (fun name -> (name, Hashtbl.find registry name)) (names ())

let format_value v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1e4 || (Float.abs v < 1e-3 && v <> 0.0) then
    Printf.sprintf "%.3g" v
  else Printf.sprintf "%.4g" v

let render () =
  let table =
    Dcopt_util.Text_table.create
      ~headers:[ "Metric"; "Type"; "Count"; "Value/Mean"; "p50"; "p90"; "p99"; "Max" ]
  in
  List.iter
    (fun (name, m) ->
      let row =
        match m with
        | Counter c ->
          [ name; "counter"; string_of_int (Atomic.get c.count); "-"; "-";
            "-"; "-"; "-" ]
        | Gauge g ->
          [ name; "gauge"; "-"; format_value g.value; "-"; "-"; "-"; "-" ]
        | Histogram h ->
          if h.len = 0 then
            [ name; "histogram"; "0"; "-"; "-"; "-"; "-"; "-" ]
          else
            let xs = samples h in
            let _, hi = Stats.min_max xs in
            [
              name; "histogram"; string_of_int h.total;
              format_value (mean h);
              format_value (Stats.quantile xs 0.5);
              format_value (Stats.quantile xs 0.9);
              format_value (Stats.quantile xs 0.99);
              format_value hi;
            ]
      in
      Dcopt_util.Text_table.add_row table row)
    (sorted_metrics ());
  Dcopt_util.Text_table.render table

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)

(* OpenMetrics metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted
   names map '.' (and anything else illegal) to '_'. Distinct registry
   names that collide after sanitization share an exposition family —
   harmless for the dot-separated names this code base uses. *)
let openmetrics_name name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
        if i = 0 then Buffer.add_char b '_';
        Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* HELP text and label values share one escape set: backslash, newline
   and double quote (the spec requires the first two for HELP, all three
   for label values; escaping the quote in HELP text is also legal). *)
let openmetrics_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '"' -> Buffer.add_string b "\\\""
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let om_float v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Dcopt_util.Json.float_lit v

let render_openmetrics () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, m) ->
      let om = openmetrics_name name in
      (match Hashtbl.find_opt help_texts name with
      | Some h ->
        Printf.bprintf b "# HELP %s %s\n" om (openmetrics_escape h)
      | None -> ());
      match m with
      | Counter c ->
        Printf.bprintf b "# TYPE %s counter\n" om;
        Printf.bprintf b "%s_total %d\n" om (Atomic.get c.count)
      | Gauge g ->
        Printf.bprintf b "# TYPE %s gauge\n" om;
        Printf.bprintf b "%s %s\n" om (om_float g.value)
      | Histogram h ->
        Printf.bprintf b "# TYPE %s histogram\n" om;
        (* cumulative _bucket series over the log-scale boundaries; the
           +Inf bucket carries the exact total, so past the reservoir cap
           the un-retained remainder is attributed to +Inf (cumulative
           counts stay non-decreasing and _count-consistent) *)
        let cum = ref 0 in
        Array.iter
          (fun (_, hi, c) ->
            cum := !cum + c;
            Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" om (om_float hi) !cum)
          (buckets h);
        Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" om h.total;
        Printf.bprintf b "%s_sum %s\n" om (om_float h.sum);
        Printf.bprintf b "%s_count %d\n" om h.total)
    (sorted_metrics ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
