(** K-most-critical-path enumeration by fanout-sum criticality.

    The paper (§4.2) defines the criticality of a PI-to-PO path as the sum
    of the fanout counts of its gates, [N_cj = sum f_oij], and consumes
    paths in decreasing criticality during delay budgeting. Enumerating
    them lazily in order follows Ju & Saleh's incremental technique
    (ref [6]) adapted to this weight: a best-first search over partial
    paths whose priority is an exact upper bound (prefix criticality plus
    the precomputed best completion), which makes emission order exact.

    The search runs over {!Dcopt_netlist.Flat} columns without allocating
    per path: a partial path is an arena slot (one int packing its last
    gate and the slot of its prefix), and the frontier is a binary
    max-heap of ints packing [priority] above [slot] and a complete-path
    tag. The heap compares
    priorities only and sifts exactly as {!Dcopt_util.Heap} does (up while
    the parent is strictly smaller; down to the strictly larger child,
    left first), and pushes in the same order (a partial's completion
    before its extensions, extensions in fanout order), so ties leave in
    the same order and the emitted sequence is the record-walking
    enumerator's, path for path. *)

type path = {
  gate_ids : int array;  (** gates of the path, source to output *)
  criticality : int;     (** sum of effective fanouts of the gates *)
}

val effective_fanouts : Dcopt_netlist.Flat.t -> int array
(** The paper's f_oi per node id: {!Dcopt_netlist.Circuit.fanout_count}
    floored at 1, so output gates still receive a delay share. *)

type cursor
(** One enumeration in progress. Owns its arena and heap; share nothing
    across domains. *)

val cursor : ?max_paths:int -> Dcopt_netlist.Flat.t -> eff:int array -> cursor
(** Start enumerating complete PI-to-PO paths of a combinational view in
    non-increasing criticality under the weights [eff] (normally
    {!effective_fanouts}), at most [max_paths] (default
    [64 * gate_count]) of them. The cap counts every path {!next}
    writes. A path starts at a gate with at least one
    primary-input fanin and ends at a primary-output gate. *)

val next : cursor -> int array -> int
(** [next c buf] advances to the next path, writes its gates into [buf]
    output to source and returns how many it wrote; [0] once the cap is
    reached or the paths are exhausted. A path holds at most one gate
    per level, so [buf] needs [Flat.depth] ints. *)

val enumerate : ?max_paths:int -> Dcopt_netlist.Circuit.t -> path Seq.t
(** {!cursor} over [Flat.of_circuit] with {!effective_fanouts}, as a lazy
    sequence of paths. Requires a combinational circuit. *)
