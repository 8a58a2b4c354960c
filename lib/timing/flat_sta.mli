(** Static timing analysis over per-gate delay numbers, levelized over
    the {!Dcopt_netlist.Flat} view.

    Delay values are supplied externally (budgets from Procedure 1, or
    achieved delays from the device model); this module only propagates
    them through the combinational graph. Inputs arrive at 0 (or at their
    [arrival_offsets] seed), a gate's arrival is its delay plus the max
    fanin arrival, and a node's required time is the min over its
    consumers of their required time minus their delay. The sweeps walk
    the level-sorted permutation with CSR adjacency, one C kernel call
    per level slice, on the calling domain. The results match a
    record-walking topological reference (kept as the test oracle) bit
    for bit.

    Metrics: bumps the [sta.level.passes] counter (any domain) and, from
    the main domain only, sets the [sta.level.depth] /
    [sta.level.max_width] / [flat.alloc_bytes] gauges. *)

type result = {
  arrival : float array;   (** output arrival time per node id *)
  critical_delay : float;  (** max arrival over primary outputs *)
  required : float array;  (** latest allowed arrival per node id *)
  slack : float array;     (** required - arrival *)
}

val analyze :
  ?required_time:float ->
  ?required_times:float array ->
  ?arrival_offsets:float array ->
  Dcopt_netlist.Flat.t ->
  delays:float array ->
  result
(** Levelized forward + backward pass. [required_time] defaults to the
    computed critical delay (so the critical path has zero slack).
    [delays] is indexed by node id; entries for [Input] nodes are
    ignored.

    [required_times] supersedes the scalar target with per-node required
    seeds (from {!Constraints.required_times}): [infinity] entries are
    unconstrained, and a uniform seed of [t] at every output is
    bit-identical to [~required_time:t] (both run the same seeded
    kernel). [arrival_offsets] seeds the forward pass with per-node input
    delays (from {!Constraints.arrival_offsets}); [None] is the zero
    seed. Requires a combinational circuit. *)

val forward :
  Dcopt_netlist.Flat.t ->
  delays:float array ->
  float array * float
(** Forward pass only: (arrival by node id, critical delay) — half the
    work of {!analyze}, for callers that read only the critical delay or
    a critical path. *)

val slack_of_endpoint : result -> int -> float
(** The slack of one node id, straight from the analysis — the accessor
    callers use instead of recomputing [target -. arrival] by hand
    (which silently diverges from the backward pass on reconvergent
    fanout). *)

val critical_path_of_arrival :
  Dcopt_netlist.Flat.t -> arrival:float array -> delays:float array -> int list
(** Gate ids of one maximal-arrival path, source to output, walked back
    from the first primary output of maximal arrival over arrival times
    from {!forward} or maintained elsewhere (e.g. {!Incr_sta}'s). At each
    node the walk follows the first fanin, in pin order, whose arrival
    plus the node's delay reaches the node's arrival; [[]] for a circuit
    without outputs. *)
