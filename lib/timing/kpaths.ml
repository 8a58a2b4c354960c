module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat

type path = { gate_ids : int array; criticality : int }

let output_flags f =
  let flags = Array.make (Flat.size f) false in
  Array.iter (fun id -> flags.(id) <- true) f.Flat.output_ids;
  flags

(* Circuit.fanout_count (one per consuming pin, plus one for a primary
   output) floored at 1. *)
let effective_fanouts f =
  let is_output = output_flags f in
  Array.init (Flat.size f) (fun id ->
      Int.max 1
        (f.Flat.fanout_off.(id + 1) - f.Flat.fanout_off.(id)
        + Bool.to_int is_output.(id)))

(* Heap keys pack [priority lsl shift lor slot lsl 1 lor tag]: the
   priority bits sit on top, so comparing [key lsr shift] compares
   priorities only, exactly as Dcopt_util.Heap compares its float keys
   (every priority is an integer sum of weights, so the float order and
   the int order agree). Tag 1 marks a complete path whose last gate is
   the slot's. *)
type cursor = {
  flat : Flat.t;
  eff : int array;
  best : int array;  (* -1: no primary output reachable *)
  is_output : bool array;
  limit : int;
  shift : int;
  mutable emitted : int;
  mutable last_crit : int;
  (* arena of partial paths: slot -> [(prefix slot + 1) lsl gbits lor last
     gate], one int per slot *)
  gbits : int;
  mutable arena : int array;
  mutable slots : int;
  mutable heap : int array;
  mutable len : int;
}

(* best.(n) = largest criticality obtainable from gate n (inclusive) to
   any primary output. Decreasing level order visits every fanout first. *)
let best_completion f ~eff ~is_output =
  let best = Array.make (Flat.size f) (-1) in
  let order = f.Flat.level_order in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    if f.Flat.is_gate.(id) then begin
      let tail = ref (if is_output.(id) then 0 else -1) in
      for p = f.Flat.fanout_off.(id) to f.Flat.fanout_off.(id + 1) - 1 do
        tail := Int.max !tail best.(f.Flat.fanout_edges.(p))
      done;
      if !tail >= 0 then best.(id) <- eff.(id) + !tail
    end
  done;
  best

let bit_length x =
  let rec go b x = if x = 0 then b else go (b + 1) (x lsr 1) in
  go 0 x

let grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Sift-up: move parents down while their priority is strictly below the
   new key's, as Dcopt_util.Heap.push swaps. *)
let push c key =
  if c.len = Array.length c.heap then c.heap <- grow c.heap;
  let h = c.heap and shift = c.shift in
  let p = key lsr shift in
  let i = ref c.len in
  c.len <- c.len + 1;
  while
    !i > 0
    &&
    let up = (!i - 1) / 2 in
    h.(up) lsr shift < p
  do
    let up = (!i - 1) / 2 in
    h.(!i) <- h.(up);
    i := up
  done;
  h.(!i) <- key

(* Sift-down of the former last key from the root: step to the strictly
   larger child, left child first, as Dcopt_util.Heap.pop does. *)
let pop c =
  let h = c.heap and shift = c.shift in
  let top = h.(0) in
  let len = c.len - 1 in
  c.len <- len;
  if len > 0 then begin
    let key = h.(len) in
    let p = key lsr shift in
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      let child = ref !i and cp = ref p in
      if l < len && h.(l) lsr shift > !cp then begin
        child := l;
        cp := h.(l) lsr shift
      end;
      if l + 1 < len && h.(l + 1) lsr shift > !cp then child := l + 1;
      if !child = !i then go := false
      else begin
        h.(!i) <- h.(!child);
        i := !child
      end
    done;
    h.(!i) <- key
  end;
  top

let push_partial c ~gate ~parent ~priority =
  let s = c.slots in
  if s lsr (c.shift - 1) <> 0 then
    failwith "Kpaths: partial-path arena exceeds the heap key width";
  (* parent < s, so [s lsl gbits] bounds every packed entry *)
  if s lsr (62 - c.gbits) <> 0 then
    failwith "Kpaths: partial-path arena exceeds the packed entry width";
  if s = Array.length c.arena then c.arena <- grow c.arena;
  c.arena.(s) <- ((parent + 1) lsl c.gbits) lor gate;
  c.slots <- s + 1;
  push c ((priority lsl c.shift) lor (s lsl 1))

let[@inline] arena_gate c s = c.arena.(s) land ((1 lsl c.gbits) - 1)
let[@inline] arena_parent c s = (c.arena.(s) lsr c.gbits) - 1

let cursor ?max_paths f ~eff =
  let n = Flat.size f in
  let is_output = output_flags f in
  let best = best_completion f ~eff ~is_output in
  (* every priority is at most the best completion of some start gate *)
  let shift = 62 - bit_length (Array.fold_left Int.max 0 best) in
  let gate_count =
    Array.fold_left (fun acc g -> if g then acc + 1 else acc) 0 f.Flat.is_gate
  in
  let c =
    {
      flat = f;
      eff;
      best;
      is_output;
      limit = Option.value max_paths ~default:(64 * max 1 gate_count);
      shift;
      emitted = 0;
      last_crit = 0;
      gbits = bit_length n;
      arena = Array.make (max 16 n) 0;
      slots = 0;
      heap = Array.make (max 16 n) 0;
      len = 0;
    }
  in
  for id = 0 to n - 1 do
    if f.Flat.is_gate.(id) && best.(id) >= 0 then begin
      let pi_fanin = ref false in
      for p = f.Flat.fanin_off.(id) to f.Flat.fanin_off.(id + 1) - 1 do
        if not f.Flat.is_gate.(f.Flat.fanin_edges.(p)) then pi_fanin := true
      done;
      if !pi_fanin then
        push_partial c ~gate:id ~parent:(-1) ~priority:best.(id)
    end
  done;
  c

(* Pop until a complete path surfaces; its slot, or -1. A partial
   path's criticality is not stored: its priority is prefix + best(last
   gate), and the prefix plus the last gate's weight is the
   criticality. *)
let rec next_slot c =
  if c.emitted >= c.limit || c.len = 0 then -1
  else begin
    let key = pop c in
    let priority = key lsr c.shift in
    let slot = (key land ((1 lsl c.shift) - 1)) lsr 1 in
    if key land 1 = 1 then begin
      c.emitted <- c.emitted + 1;
      c.last_crit <- priority;
      slot
    end
    else begin
      let f = c.flat and best = c.best in
      let head = arena_gate c slot in
      let crit = priority - best.(head) + c.eff.(head) in
      if c.is_output.(head) then
        push c ((crit lsl c.shift) lor (slot lsl 1) lor 1);
      for p = f.Flat.fanout_off.(head) to f.Flat.fanout_off.(head + 1) - 1 do
        let g = f.Flat.fanout_edges.(p) in
        if best.(g) >= 0 then
          push_partial c ~gate:g ~parent:slot ~priority:(crit + best.(g))
      done;
      next_slot c
    end
  end

let next c buf =
  let len = ref 0 and s = ref (next_slot c) in
  while !s >= 0 do
    buf.(!len) <- arena_gate c !s;
    incr len;
    s := arena_parent c !s
  done;
  !len

let enumerate ?max_paths circuit =
  if not (Circuit.is_combinational circuit) then
    invalid_arg "Kpaths.enumerate: circuit is sequential";
  let f = Flat.of_circuit circuit in
  let c = cursor ?max_paths f ~eff:(effective_fanouts f) in
  let buf = Array.make (Flat.depth f) 0 in
  let rec seq () =
    let len = next c buf in
    if len = 0 then Seq.Nil
    else
      let gate_ids = Array.init len (fun i -> buf.(len - 1 - i)) in
      Seq.Cons ({ gate_ids; criticality = c.last_crit }, seq)
  in
  seq
