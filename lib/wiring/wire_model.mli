(** Stochastic wire-length estimation from Rent's rule.

    The paper (§2, refs [4][5]) uses a complete a-priori wire-length
    distribution derived by recursive application of Rent's rule and
    conservation of I/O (the Davis/De/Meindl model) to estimate the
    interconnect load of every net without a placement. This module
    implements that distribution for a square array of [gate_count] cells:

    - region I  (1 <= l <= sqrt N):
      [i(l) = (k/2) (l^3/3 - 2 sqrt(N) l^2 + 2 N l) l^(2p-4)]
    - region II (sqrt N <= l <= 2 sqrt N):
      [i(l) = (k/6) (2 sqrt(N) - l)^3 l^(2p-4)]

    with [p] the Rent exponent. Lengths are in gate pitches; electrical
    quantities convert through the technology's per-metre wire constants.
    Multi-terminal nets are costed as the point-to-point expectation scaled
    by [fanout^0.70] (a Steiner-tree growth law), on a gate pitch of 12
    feature sizes. *)

type t

val create :
  ?rent_p:float ->         (* Rent exponent, default 0.60 (random logic) *)
  tech:Dcopt_device.Tech.t ->
  gate_count:int ->
  unit ->
  t
(** A wiring model for a block of [gate_count >= 1] gates. *)

val gate_count : t -> int
val rent_p : t -> float

val density : t -> float -> float
(** Unnormalized wire-length density [i(l)], [l] in pitches; zero outside
    \[1, 2 sqrt N\]. *)

val max_length_pitches : t -> float
(** [2 sqrt N]. *)

val mean_point_to_point_pitches : t -> float
(** Expected point-to-point interconnect length, in pitches (computed once
    by numeric integration of the distribution). *)

val net_length : t -> fanout:int -> float
(** Expected routed length of a net with [fanout >= 1] sinks, in metres. *)

val net_capacitance : t -> fanout:int -> float
(** Total interconnect capacitance of the net, F. *)

val net_resistance : t -> fanout:int -> float
(** End-to-end interconnect resistance of the net, ohm. *)

val flight_time : t -> fanout:int -> float
(** Time-of-flight of a signal along the net, s. *)

val distributed_rc_delay : t -> fanout:int -> sink_cap:float -> float
(** The per-fanout interconnect term of eq. A3:
    [R_INT * (sink_cap + C_INT/2)] with the distributed-RC half factor, s. *)
