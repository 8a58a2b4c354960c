(* Sample summaries, the GC-statistics parser and the verdict rule of
   [main.exe compare], the pure parts of the benchmark, kept apart so
   the fast tests can reach them. *)

module Json = Dcopt_util.Json
module Stats = Dcopt_util.Stats

(* Median and quartiles only: a run has too few passes for any tail
   percentile to have ten samples beyond it. *)
type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize samples =
  let xs = Array.of_list samples in
  if Array.length xs = 0 then invalid_arg "Summary.summarize: no samples";
  {
    median = Stats.quantile xs 0.5;
    q1 = Stats.quantile xs 0.25;
    q3 = Stats.quantile xs 0.75;
    n = Array.length xs;
  }

let median samples = (summarize samples).median

(* Quartile distance as a share of the median: the noise of one run. *)
let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(* [OCAMLRUNPARAM=v=0x400] makes every OCaml process print its GC
   statistics to stderr at exit; fleet workers share the coordinator's
   stderr, so one pass's stderr holds one block per process. Whole lines
   are written at once, so matching lines is enough even when blocks of
   processes exiting together interleave. *)
let top_heap_words stderr_text =
  let prefix = "top_heap_words: " in
  let plen = String.length prefix in
  String.split_on_char '\n' stderr_text
  |> List.filter_map (fun line ->
         if String.length line > plen && String.sub line 0 plen = prefix then
           int_of_string_opt
             (String.trim (String.sub line plen (String.length line - plen)))
         else None)

(* Peak heap of a pass in MB: each process's [top_heap_words] x 8 bytes,
   summed over every process of the pass. *)
let peak_heap_mb stderr_text =
  float_of_int (8 * List.fold_left ( + ) 0 (top_heap_words stderr_text)) /. 1e6

type verdict = Same | Better | Worse | Unresolved

let verdict_to_string = function
  | Same -> "same"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* One side of a comparison. A single run stands for itself, with its
   passes' quartiles. Several runs, made alternately with the other
   side's, are summarized by their medians: the spread between runs is
   the one that sees the host speeding up or slowing down between them,
   which a single run's own quartiles cannot. *)
let side = function
  | [] -> invalid_arg "Summary.side: no runs"
  | [ run ] -> run
  | runs -> summarize (List.map (fun s -> s.median) runs)

(* [b] against the baseline [a]: unresolved when either side's quartile
   spread is wider than the bound (the runs cannot tell a change that
   size from noise), otherwise worse/better when the medians differ by
   more than the bound in the metric's direction. *)
let verdict ~better ~bound a b =
  if spread a > bound || spread b > bound then Unresolved
  else
    let rel =
      if a.median = b.median then 0.0
      else if a.median = 0.0 then Float.copy_sign Float.infinity b.median
      else (b.median -. a.median) /. Float.abs a.median
    in
    let worse_rel = match better with Spec.Lower -> rel | Spec.Higher -> -.rel in
    if worse_rel > bound then Worse
    else if worse_rel < -.bound then Better
    else Same

let summary_to_json ~unit_ ~samples s =
  Json.Obj
    [
      ("unit", Json.String unit_);
      ("median", Json.Float s.median);
      ("q1", Json.Float s.q1);
      ("q3", Json.Float s.q3);
      ("n", Json.Int s.n);
      ("samples", Json.List (List.map (fun x -> Json.Float x) samples));
    ]

let summary_of_json json =
  let num name = Option.bind (Json.field name json) Json.get_float in
  match (num "median", num "q1", num "q3", Option.bind (Json.field "n" json) Json.get_int) with
  | Some median, Some q1, Some q3, Some n -> Ok { median; q1; q3; n }
  | _ -> Error "metric entry lacks median/q1/q3/n"
