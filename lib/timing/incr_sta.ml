module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat

(* The worklist is a set of per-level buckets instead of a priority heap:
   a dirty gate is appended to the bucket of its level, and propagation
   sweeps the buckets in ascending level order. Level order is a valid
   topological order, and because every fanout of a level-l node sits at a
   strictly higher level, the bucket being processed never grows under the
   sweep — a single ascending pass drains everything. Each bucket is
   preallocated to the number of gates at its level, so marking is a plain
   append with no growth or heap sift. Structure (gate flags, levels,
   both adjacency directions) is read straight from the shared flat
   view. *)
type t = {
  flat : Flat.t;
  delays : float array;
  arrival : float array;
  buckets : int array array;   (* one per level, capacity = gates there *)
  bucket_len : int array;
  mutable min_dirty : int;     (* lowest level with queued gates; depth+1 = none *)
  mutable dirty : int;         (* total queued gates *)
  queued : bool array;
  journaled : bool array;
  mutable journal : (int * float * float) list;
}

let create flat =
  if not (Circuit.is_combinational (Flat.circuit flat)) then
    invalid_arg "Incr_sta.create: circuit is sequential";
  let n = Flat.size flat in
  let depth = Flat.depth flat in
  let buckets =
    Array.init (depth + 1) (fun l ->
        let lo, hi = Flat.level_gates flat l in
        Array.make (hi - lo) 0)
  in
  {
    flat;
    delays = Array.make n 0.0;
    arrival = Array.make n 0.0;
    buckets;
    bucket_len = Array.make (depth + 1) 0;
    min_dirty = depth + 1;
    dirty = 0;
    queued = Array.make n false;
    journaled = Array.make n false;
    journal = [];
  }

let delays t = t.delays
let arrivals t = t.arrival
let is_gate t id = t.flat.Flat.is_gate.(id)

let mark_dirty t id =
  if is_gate t id && not t.queued.(id) then begin
    t.queued.(id) <- true;
    let l = t.flat.Flat.levels.(id) in
    t.buckets.(l).(t.bucket_len.(l)) <- id;
    t.bucket_len.(l) <- t.bucket_len.(l) + 1;
    t.dirty <- t.dirty + 1;
    if l < t.min_dirty then t.min_dirty <- l
  end

let drain t =
  let depth = t.flat.Flat.depth in
  if t.dirty > 0 then
    for l = t.min_dirty to depth do
      for i = 0 to t.bucket_len.(l) - 1 do
        t.queued.(t.buckets.(l).(i)) <- false
      done;
      t.bucket_len.(l) <- 0
    done;
  t.dirty <- 0;
  t.min_dirty <- depth + 1

(* Same folds, in the same (pin) order, as the full evaluation's
   topological sweep, so a recomputed node whose inputs are unchanged
   reproduces its previous delay and arrival bit for bit — that equality
   is the worklist's termination test. *)
let step t ~recompute id =
  if not t.journaled.(id) then begin
    t.journaled.(id) <- true;
    t.journal <- (id, t.delays.(id), t.arrival.(id)) :: t.journal
  end;
  let f = t.flat in
  let lo = f.Flat.fanin_off.(id) and hi = f.Flat.fanin_off.(id + 1) in
  let mfd = ref 0.0 in
  for p = lo to hi - 1 do
    let fi = f.Flat.fanin_edges.(p) in
    if f.Flat.is_gate.(fi) then mfd := Float.max !mfd t.delays.(fi)
  done;
  let d = recompute ~id ~max_fanin_delay:!mfd in
  let worst = ref 0.0 in
  for p = lo to hi - 1 do
    worst := Float.max !worst t.arrival.(f.Flat.fanin_edges.(p))
  done;
  let a = !worst +. d in
  let changed =
    not (Float.equal d t.delays.(id) && Float.equal a t.arrival.(id))
  in
  t.delays.(id) <- d;
  t.arrival.(id) <- a;
  changed

let propagate t ~recompute =
  let depth = t.flat.Flat.depth in
  let fanout_off = t.flat.Flat.fanout_off in
  let fanout_edges = t.flat.Flat.fanout_edges in
  let processed = ref 0 in
  let l = ref t.min_dirty in
  (* Marks raised while processing level l land strictly above l, so the
     ascending sweep visits them; [dirty] short-circuits the tail once the
     wavefront has died out. *)
  while !l <= depth && t.dirty > 0 do
    let len = t.bucket_len.(!l) in
    if len > 0 then begin
      let bucket = t.buckets.(!l) in
      (* Retire the whole bucket before stepping any of it: [recompute]
         may raise (e.g. Guard.Non_finite) mid-bucket, and an id left
         queued=true with no bucket slot could never be re-marked dirty.
         Clearing up front is safe — fanouts sit at strictly higher
         levels, so no step below can re-queue an id from this bucket. *)
      for i = 0 to len - 1 do
        t.queued.(bucket.(i)) <- false
      done;
      t.bucket_len.(!l) <- 0;
      t.dirty <- t.dirty - len;
      for i = 0 to len - 1 do
        let id = bucket.(i) in
        incr processed;
        if step t ~recompute id then
          for p = fanout_off.(id) to fanout_off.(id + 1) - 1 do
            mark_dirty t fanout_edges.(p)
          done
      done
    end;
    incr l
  done;
  t.min_dirty <- depth + 1;
  !processed

let refresh t ~recompute =
  drain t;
  Circuit.iter_topo (Flat.circuit t.flat) (fun id ->
      if is_gate t id then ignore (step t ~recompute id))

let commit t =
  drain t;
  List.iter (fun (id, _, _) -> t.journaled.(id) <- false) t.journal;
  t.journal <- []

let rollback t =
  drain t;
  List.iter
    (fun (id, d, a) ->
      t.journaled.(id) <- false;
      t.delays.(id) <- d;
      t.arrival.(id) <- a)
    t.journal;
  t.journal <- []
