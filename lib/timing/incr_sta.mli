(** Incremental arrival-time maintenance for single-gate moves.

    Both gate-sizing optimizers (TILOS and the annealing comparator) change
    one gate per move and previously re-propagated the whole circuit. This
    module keeps the per-gate delays and arrival times of a circuit as
    mutable state and re-propagates only the affected cone: the caller
    marks the gates whose delay inputs changed, and {!propagate} drains
    per-level buckets in ascending level order (a valid topological order
    in which a processed level can never be re-dirtied, since every fanout
    sits at a strictly higher level), recomputing each dirty gate through a
    caller-supplied [recompute] callback (which owns the device model) and
    enqueueing a gate's fanouts only when its delay or arrival actually
    changed. Because the recomputation uses the same folds in the same
    order as the full evaluation sweep, an untouched gate reproduces its
    values bit for bit and the wavefront dies out exactly where the full
    recomputation would have produced identical numbers.

    Every value overwritten since the last {!commit}/{!rollback} is
    journaled once, so a speculative move (an optimizer probe, a rejected
    annealing move) is undone in O(touched gates) by {!rollback}.

    The module knows nothing about devices or energy: delay recomputation
    and any side effects (energy bookkeeping, metrics) live in the
    [recompute] callback — see [Power_model.Incr] for the full engine. *)

type t

val create : Dcopt_netlist.Flat.t -> t
(** Fresh state with all delays and arrivals zero; populate with
    {!refresh} (then {!commit}) before the first move. Gate flags,
    levels and both adjacency directions are read from the flat view,
    which the engine shares, not copies. Requires a combinational
    circuit. *)

val delays : t -> float array
(** The live per-node delay array (0 for input nodes). Treat as
    read-only; it aliases the engine's state, so it is always current. *)

val arrivals : t -> float array
(** The live per-node arrival-time array. Treat as read-only. *)

val is_gate : t -> int -> bool

val mark_dirty : t -> int -> unit
(** Enqueue a gate for recomputation (no-op on non-gate ids and on gates
    already queued). Call for every gate whose delay inputs changed
    directly — the resized gate itself, plus its fanin drivers when the
    change affects their load. *)

val propagate :
  t -> recompute:(id:int -> max_fanin_delay:float -> float) -> int
(** Drain the level buckets in ascending level order. For each dirty gate the
    engine recomputes the max fanin delay, asks [recompute] for the new
    gate delay (the callback sees the current design state and may update
    its own per-gate bookkeeping), updates the arrival time, and marks the
    fanouts dirty iff delay or arrival changed. Returns the number of
    gates recomputed — the move's cone size. *)

val refresh :
  t -> recompute:(id:int -> max_fanin_delay:float -> float) -> unit
(** Full sweep over every gate in {!Dcopt_netlist.Circuit.iter_topo}
    order (journaled like any other update): the fallback for global
    moves (vdd, uniform vt) and the initializer after {!create}.
    Discards any queued dirty marks. *)

val commit : t -> unit
(** Accept every update since the last commit/rollback and clear the
    journal. *)

val rollback : t -> unit
(** Restore every delay and arrival overwritten since the last
    commit/rollback, and drop any still-queued dirty marks. *)
