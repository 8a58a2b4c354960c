module Clock = Dcopt_util.Clock

type span = {
  name : string;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  args : (string * string) list;
}

(* Read from pool workers, flipped only from the main domain. *)
let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* A substituted non-monotonic clock source (or a manual [record_span]
   with end <= start) degrades to a 1 ns span and bumps this counter
   instead of asserting — a broken clock must not kill a serve process. *)
let clamped_counter =
  Metrics.counter
    ~help:"spans whose duration was clamped to 1ns (non-monotonic clock)"
    "span.clock_clamped"

(* Each domain records into its own buffer: pool workers trace their task
   bodies without racing the main domain's nesting. Buffers register
   themselves in [all_buffers] on first use (the only cross-domain write,
   hence the mutex); after that a domain only ever touches its own buffer.
   The main domain reads every buffer at merge/reset time — safe because
   workers are quiescent outside a parallel batch and the pool barrier
   orders their writes before the main domain's reads. *)
type dom_buf = {
  tid : int; (* domain id, the Chrome trace tid *)
  mutable completed : span list; (* reverse completion order *)
  mutable open_depth : int;
}

let buffers_mutex = Mutex.create ()
let all_buffers : dom_buf list ref = ref []

let buf_key =
  Domain.DLS.new_key (fun () ->
      let buf =
        { tid = (Domain.self () :> int); completed = []; open_depth = 0 }
      in
      Mutex.lock buffers_mutex;
      all_buffers := buf :: !all_buffers;
      Mutex.unlock buffers_mutex;
      buf)

let my_buf () = Domain.DLS.get buf_key

let clamp_dur dur_ns =
  if Int64.compare dur_ns 0L > 0 then dur_ns
  else begin
    Metrics.incr clamped_counter;
    1L
  end

let record_span ?(args = []) ~name ~start_ns ~end_ns () =
  if Atomic.get enabled_flag then begin
    let buf = my_buf () in
    let dur_ns = clamp_dur (Int64.sub end_ns start_ns) in
    buf.completed <-
      { name; start_ns; dur_ns; depth = buf.open_depth; args }
      :: buf.completed
  end

let with_ ?(args = []) name fn =
  if not (Atomic.get enabled_flag) then fn ()
  else begin
    let buf = my_buf () in
    let start_ns = Clock.now_ns () in
    let depth = buf.open_depth in
    buf.open_depth <- depth + 1;
    let close () =
      buf.open_depth <- depth;
      let dur_ns = clamp_dur (Int64.sub (Clock.now_ns ()) start_ns) in
      buf.completed <- { name; start_ns; dur_ns; depth; args } :: buf.completed
    in
    match fn () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let reset () =
  Mutex.lock buffers_mutex;
  let bufs = !all_buffers in
  Mutex.unlock buffers_mutex;
  List.iter (fun b -> b.completed <- []) bufs

(* Main-domain view, unchanged from the single-domain tracer: completion
   order, so a parent follows its children. *)
let spans () = List.rev (my_buf ()).completed

let merged () =
  Mutex.lock buffers_mutex;
  let bufs = !all_buffers in
  Mutex.unlock buffers_mutex;
  let all =
    List.concat_map
      (fun b -> List.rev_map (fun s -> (b.tid, s)) b.completed)
      bufs
  in
  (* (tid, start_ns) is a total order: Clock.now_ns never repeats, so the
     merge is deterministic for a given set of recorded spans. *)
  List.sort
    (fun (t1, s1) (t2, s2) ->
      match compare t1 t2 with
      | 0 -> Int64.compare s1.start_ns s2.start_ns
      | c -> c)
    all

let top_level_total_ns () =
  List.fold_left
    (fun acc s -> if s.depth = 0 then Int64.add acc s.dur_ns else acc)
    0L (my_buf ()).completed

let roll_up () =
  let order = ref [] in
  let totals : (string, int * int64) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt totals s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace totals s.name (1, s.dur_ns)
      | Some (n, t) -> Hashtbl.replace totals s.name (n + 1, Int64.add t s.dur_ns))
    (spans ());
  List.rev_map
    (fun name ->
      let n, t = Hashtbl.find totals name in
      (name, n, t))
    !order

let export_chrome () =
  let spans = merged () in
  let t0 =
    List.fold_left
      (fun acc (_, s) ->
        if Int64.compare s.start_ns acc < 0 then s.start_ns else acc)
      (match spans with [] -> 0L | (_, s) :: _ -> s.start_ns)
      spans
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i (tid, s) ->
      if i > 0 then Buffer.add_char b ',';
      let args_json =
        ("depth", string_of_int s.depth) :: s.args
        |> List.map (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (Metrics.json_escape k)
                 (Metrics.json_escape v))
        |> String.concat ","
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"dcopt\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
           (Metrics.json_escape s.name)
           tid
           (Clock.ns_to_us (Int64.sub s.start_ns t0))
           (Clock.ns_to_us s.dur_ns) args_json))
    spans;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (export_chrome ()))
