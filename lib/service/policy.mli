(** Pure retry/backoff/quarantine policy math for the fleet.

    Kept free of I/O and global state so the policies are property-
    testable in isolation: the fleet and the worker apply these numbers,
    they don't invent them. *)

val backoff_delay_s : prng:Dcopt_util.Prng.t -> attempt:int -> float
(** Capped exponential backoff with seeded jitter: attempt [k] (1-based)
    waits [min 5 (0.1 * 2^(k-1))] seconds, shrunk by a uniform jitter
    draw of up to half of itself from [prng]. The result is always in
    [\[envelope/2, envelope\]], so in [(0, 5]], and — because the jitter
    comes from the caller's PRNG, seeded e.g. from the worker id — the
    whole delay sequence is deterministic per worker. *)

type quarantine
(** Per-identity failure budget: after [after] recorded losses an
    identity is quarantined and must not be offered work again. *)

val quarantine : ?after:int -> unit -> quarantine
(** [after] defaults to 2 losses; raises [Invalid_argument] below 1. *)

val note_loss : quarantine -> string -> int
(** Record one loss; returns the identity's new loss total. *)

val losses : quarantine -> string -> int

val quarantined : quarantine -> string -> bool
(** True once {!losses} reaches the [after] threshold. *)
