(* Struct-of-arrays view of a circuit: every per-node attribute lives in a
   dense column indexed by node id, and both adjacency directions are in
   compressed-sparse-row form. Built once from a Circuit.t; all arrays are
   either shared read-only with the circuit (fanout CSR, levels, topo
   order) or derived in O(n + e). *)

type t = {
  circuit : Circuit.t;
  n : int;
  is_gate : bool array;
  fanin_off : int array;
  fanin_edges : int array;
  fanout_off : int array;
  fanout_edges : int array;
  output_ids : int array;
  levels : int array;
  depth : int;
  level_off : int array;
  level_order : int array;
  gate_level_off : int array;
  gate_level_order : int array;
  max_level_width : int;
}

(* Counting sort of a node subset by level: one pass to count, prefix sum
   into offsets, one pass to place. Nodes are visited in ascending id
   order, so within a level the permutation is sorted by id — the
   deterministic order every level-parallel kernel relies on. *)
let level_partition ~n ~depth ~levels ~keep =
  let off = Array.make (depth + 2) 0 in
  for id = 0 to n - 1 do
    if keep id then off.(levels.(id) + 1) <- off.(levels.(id) + 1) + 1
  done;
  for l = 0 to depth do
    off.(l + 1) <- off.(l) + off.(l + 1)
  done;
  let order = Array.make off.(depth + 1) 0 in
  let cursor = Array.make (depth + 1) 0 in
  for id = 0 to n - 1 do
    if keep id then begin
      let l = levels.(id) in
      order.(off.(l) + cursor.(l)) <- id;
      cursor.(l) <- cursor.(l) + 1
    end
  done;
  (off, order)

let of_circuit circuit =
  let n = Circuit.size circuit in
  let node_array = Circuit.nodes circuit in
  let is_gate =
    Array.map
      (fun nd ->
        match nd.Circuit.kind with Gate.Input | Gate.Dff -> false | _ -> true)
      node_array
  in
  let fanin_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    fanin_off.(id + 1) <-
      fanin_off.(id) + Array.length node_array.(id).Circuit.fanins
  done;
  let fanin_edges = Array.make fanin_off.(n) 0 in
  for id = 0 to n - 1 do
    let fi = node_array.(id).Circuit.fanins in
    let base = fanin_off.(id) in
    Array.iteri (fun p f -> fanin_edges.(base + p) <- f) fi
  done;
  let fanout_off, fanout_edges = Circuit.unsafe_fanout_csr circuit in
  let output_ids = Circuit.outputs circuit in
  let levels = Circuit.unsafe_levels circuit in
  let depth = Circuit.depth circuit in
  let level_off, level_order =
    level_partition ~n ~depth ~levels ~keep:(fun _ -> true)
  in
  let gate_level_off, gate_level_order =
    level_partition ~n ~depth ~levels ~keep:(fun id -> is_gate.(id))
  in
  let max_level_width = ref 0 in
  for l = 0 to depth do
    max_level_width :=
      max !max_level_width (gate_level_off.(l + 1) - gate_level_off.(l))
  done;
  {
    circuit;
    n;
    is_gate;
    fanin_off;
    fanin_edges;
    fanout_off;
    fanout_edges;
    output_ids;
    levels;
    depth;
    level_off;
    level_order;
    gate_level_off;
    gate_level_order;
    max_level_width = !max_level_width;
  }

let circuit t = t.circuit
let size t = t.n
let depth t = t.depth
let max_level_width t = t.max_level_width

let level_gates t l =
  (t.gate_level_off.(l), t.gate_level_off.(l + 1))

(* Working-set size of the view in bytes: every column counts, including
   the arrays shared with the circuit (they are part of what a kernel
   touches). OCaml boxes each array with a one-word header; bool arrays
   still store one word per element. *)
let alloc_bytes t =
  let word_bytes = Sys.word_size / 8 in
  let arr len = (len + 1) * word_bytes in
  arr (Array.length t.is_gate)
  + arr (Array.length t.fanin_off)
  + arr (Array.length t.fanin_edges)
  + arr (Array.length t.fanout_off)
  + arr (Array.length t.fanout_edges)
  + arr (Array.length t.output_ids)
  + arr (Array.length t.levels)
  + arr (Array.length t.level_off)
  + arr (Array.length t.level_order)
  + arr (Array.length t.gate_level_off)
  + arr (Array.length t.gate_level_order)
