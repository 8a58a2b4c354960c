(** Gate-level circuit graphs.

    A circuit is a named DAG of {!Gate.kind} nodes. Sequential circuits
    (containing DFFs) are supported at the IR level; all analyses in this
    library (activity, timing, optimization) run on the {!combinational_core},
    in which every DFF output is a pseudo primary input and every DFF data
    pin a pseudo primary output — the standard treatment for the ISCAS-89
    suite and the one the paper uses. *)

type node = {
  id : int;            (** dense index, [0 .. size-1] *)
  name : string;       (** unique net name *)
  kind : Gate.kind;
  fanins : int array;  (** driving node ids, in pin order *)
}

type t

exception Invalid of string
(** Raised by {!create} on malformed netlists (duplicate names, undefined
    fanins, bad arity, combinational cycles). *)

val create :
  name:string ->
  nodes:(string * Gate.kind * string list) list ->
  outputs:string list ->
  t
(** [create ~name ~nodes ~outputs] builds and validates a circuit. [nodes]
    lists every node as [(net_name, kind, fanin_names)] in any order;
    [outputs] names the primary-output nets. Combinational cycles (cycles
    not passing through a DFF) raise {!Invalid}. *)

val create_checked :
  name:string ->
  nodes:(string * Gate.kind * string list) list ->
  outputs:string list ->
  (t, string list) result
(** Like {!create}, but collects {e every} validation problem (duplicate
    nets, undefined fanin/output references, bad arity, empty circuit,
    combinational cycles) instead of raising on the first — the entry
    point recovering parsers build on. [Error] lists the problems in
    source order and is never empty. *)

val create_direct :
  name:string ->
  names:string array ->
  kinds:Gate.kind array ->
  fanins:int array array ->
  output_ids:int array ->
  t
(** Array-native constructor for generated netlists: fanins are given as
    already-resolved node ids, so no per-node lists or name resolution is
    paid on the million-gate path. The fanin arrays are adopted, not
    copied. Raises {!Invalid} on duplicate names, out-of-range ids, bad
    arity, or combinational cycles. *)

val name : t -> string
val size : t -> int
(** Total node count, including inputs and DFFs. *)

val node : t -> int -> node
val nodes : t -> node array
(** The backing array, indexed by id. Treat as read-only. *)

val find : t -> string -> int
(** Node id by net name; raises [Not_found]. *)

val inputs : t -> int array
(** Primary-input node ids, in declaration order. *)

val outputs : t -> int array
(** Primary-output node ids, in declaration order (may repeat a node that
    feeds several outputs only once per declaration). *)

val dffs : t -> int array
(** DFF node ids. *)

val fanouts : t -> int -> int array
(** Ids of the nodes this node drives (including DFF data pins). *)

val fanout_count : t -> int -> int
(** [Array.length (fanouts t i)] plus 1 if node [i] is a primary output:
    a PO pin is a real load. Cached at build time, O(1). *)

val is_output : t -> int -> bool

val gate_count : t -> int
(** Number of combinational logic gates (excludes [Input] and [Dff]). *)

val is_combinational : t -> bool

val topo_order : t -> int array
(** Node ids in combinational topological order: every non-DFF node appears
    after all its fanins; [Input] and [Dff] nodes come first. The order is
    deterministic. *)

val iter_topo : t -> (int -> unit) -> unit
(** Apply to every node id in topological order, without allocating a copy
    of the order — the traversal the analysis hot paths use. *)

val level : t -> int -> int
(** Combinational depth of a node: 0 for [Input]/[Dff], else
    [1 + max (level fanins)]. *)

val depth : t -> int
(** Maximum node level = logic depth of the circuit. *)

val unsafe_fanout_csr : t -> int array * int array
(** [(off, edges)]: the fanout adjacency in compressed-sparse-row form.
    The consumers of node [i] are [edges.(off.(i)) .. edges.(off.(i+1)-1)],
    in ascending consumer-id order with one entry per pin (the same order
    {!fanouts} reports). Returns the backing arrays without copying —
    treat as read-only. The PO pseudo-load counted by {!fanout_count} is
    {e not} an edge. *)

val unsafe_levels : t -> int array
(** The per-node {!level} array, by id, without copying. Read-only. *)

val unsafe_order : t -> int array
(** The {!topo_order} array without the defensive copy. Read-only. *)

val combinational_core : t -> t
(** Rewrites every DFF into a pseudo primary input and appends its data pin
    to the outputs; the result satisfies {!is_combinational}. Names are
    preserved. The identity on already-combinational circuits. *)

val eval : t -> bool array -> bool array
(** [eval t input_values] simulates a combinational circuit: input values
    are given in {!inputs} order and the result holds every node's value by
    id. Raises [Invalid_argument] on sequential circuits or a length
    mismatch. *)

val output_values : t -> bool array -> bool array
(** Convenience: the {!eval} results restricted to {!outputs} order. *)
