(** Cycle-accurate simulation of sequential circuits.

    The paper assumes the activity of every primary input — including the
    state bits exposed when DFFs become pseudo-inputs — is "supplied",
    obtained "from activity profiling of the architecture in which the
    circuit is embedded". This module is that profiler: it runs the
    sequential circuit for many clock cycles against a random input
    process, tracks the actual state trajectory, and returns measured
    per-node signal probabilities and transition densities for the
    combinational core — state-bit statistics included, correlations and
    reachable-state structure respected. *)

type result = {
  core : Dcopt_netlist.Circuit.t;   (** the combinational core simulated *)
  probabilities : float array;      (** per core node id: fraction of
                                        cycles at logic 1 *)
  densities : float array;          (** per core node id: toggles/cycle *)
  cycles : int;                     (** measured cycles (after warm-up) *)
  state_bits : int;
}

val simulate :
  ?seed:int64 ->        (* default 0xFACEL *)
  cycles:int ->
  input_probability:float ->
  input_density:float ->
  Dcopt_netlist.Circuit.t ->
  result
(** Simulates [cycles] clock cycles (after 64 discarded settle cycles)
    of the given circuit (sequential or combinational). True primary
    inputs follow the Markov process with the requested stationary
    probability and toggle rate;
    flip-flops start at 0 and follow the logic. Node statistics use
    per-cycle zero-delay semantics (matching the energy model's activity
    convention). *)

val profile : result -> Dcopt_activity.Activity.profile
(** The measured statistics as an activity profile for {!result.core},
    directly usable by {!Dcopt_opt.Power_model.make_env}. *)
