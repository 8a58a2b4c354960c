(** Struct-of-arrays circuit view for cache-friendly whole-network sweeps.

    Every per-node attribute is a dense column indexed by node id and both
    adjacency directions are compressed-sparse-row: the fanins of node [i]
    are [fanin_edges.(fanin_off.(i)) .. fanin_edges.(fanin_off.(i+1)-1)]
    in pin order, and symmetrically for [fanout_*] (ascending consumer id,
    one entry per pin — the same orders {!Circuit.node} and
    {!Circuit.fanouts} report, which is what keeps flat kernels
    bit-identical to a record-walking reference).

    [level_order]/[level_off] give a level-sorted permutation of all node
    ids: the nodes at level [l] occupy
    [level_order.(level_off.(l)) .. level_order.(level_off.(l+1)-1)],
    sorted by id within the level. [gate_level_*] is the same partition
    restricted to logic gates. Since every fanin of a gate sits at a
    strictly lower level, the gates inside one level slice never depend on
    each other — a level-by-level sweep visits every gate after its
    fanins and produces exactly the values any topological sweep
    produces.

    The record is exposed for direct indexing in kernels; treat every
    array as read-only. *)

type t = private {
  circuit : Circuit.t;
  n : int;                      (** node count *)
  is_gate : bool array;         (** neither [Input] nor [Dff] *)
  fanin_off : int array;        (** length [n+1] *)
  fanin_edges : int array;      (** pin order *)
  fanout_off : int array;       (** length [n+1]; shared with the circuit *)
  fanout_edges : int array;     (** ascending consumer id *)
  output_ids : int array;
  levels : int array;           (** shared with the circuit *)
  depth : int;
  level_off : int array;        (** length [depth+2] *)
  level_order : int array;
  gate_level_off : int array;   (** length [depth+2] *)
  gate_level_order : int array;
  max_level_width : int;        (** widest gate level *)
}

val of_circuit : Circuit.t -> t
(** Build the view in O(n + e). The fanout CSR, level and topo arrays are
    shared with the circuit, not copied. *)

val circuit : t -> Circuit.t
val size : t -> int
val depth : t -> int
val max_level_width : t -> int

val level_gates : t -> int -> int * int
(** [(lo, hi)]: the gates at level [l] are
    [gate_level_order.(lo) .. gate_level_order.(hi - 1)]. *)

val alloc_bytes : t -> int
(** Approximate working-set size of all columns in bytes, including the
    arrays shared with the circuit. *)
