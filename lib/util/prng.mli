(** Deterministic pseudo-random number generation.

    All stochastic parts of the library (random-logic generation, simulated
    annealing, Monte-Carlo checks) draw from this splittable SplitMix64
    generator so that every experiment is reproducible from a named seed.
    The state is opaque: a stream is reproduced by re-seeding, never by
    saving a generator. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val of_string : string -> t
(** [of_string name] seeds a generator from an arbitrary string (FNV-1a
    hash), so circuits can be generated deterministically from their name. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in \[0, n); requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in \[0, x). *)

val bool : t -> bool

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in \[lo, hi). *)

val gaussian : t -> mean:float -> sigma:float -> float
(** Box-Muller normal variate. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val choose_weighted : t -> ('a * float) array -> 'a
(** Choice proportional to non-negative weights; requires a positive total. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
