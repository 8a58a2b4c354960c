(** First-class optimizer descriptors and the registry behind every
    dispatch surface ([minpower --optimizer], the batch service's job
    specs, {!Experiments} drivers).

    A descriptor wraps one optimization engine behind the uniform
    signature [?observer -> Scenario.t -> Solution.t option]: the
    engine searches on the scenario's worst-corner prepared view and
    the result is booked across every corner by {!Scenario.finalize}.
    The per-optimizer [Flow.run_*] wrappers are gone — this registry is
    the only dispatch path; callers that need engine-specific options
    (a search strategy, [n_vt], annealing schedules) compose
    {!Flow.run_with_budgets} with the {!Dcopt_opt} engines directly.

    Every builtin hands [?observer] to its engine — multi-vt and
    multi-vdd to their inner single-threshold search and then their own
    trials — so service timeouts, which ride the observer stream
    ({!Dcopt_service.Service}), interrupt any of them mid-search. *)

type t = {
  name : string;  (** unique registry key, e.g. "joint" *)
  doc : string;   (** one-line description for listings *)
  run :
    ?observer:Dcopt_obs.Telemetry.observer ->
    Scenario.t ->
    Dcopt_opt.Solution.t option;
}

val builtins : t list
(** The seven built-in optimizers, in presentation order: [baseline],
    [joint] (Procedure 2, paper binary search), [joint-grid] (grid-refine
    strategy), [annealing], [multi-vt], [multi-vdd] (reports the
    clustered-voltage-scaling solution), [tilos]. *)

val register : t -> unit
(** Add (or replace, by name) a descriptor — used by tests to inject
    faulty optimizers and by embedders to expose custom engines through
    the same CLI/service surfaces. Raises [Invalid_argument] on an empty
    name. *)

val all : unit -> t list
(** {!builtins} followed by registered descriptors, registration order;
    a registered descriptor shadowing a builtin replaces it in place. *)

val find : string -> t option
val get : string -> t
(** [get name] raises [Invalid_argument] with the known names when the
    optimizer does not exist. *)

val names : unit -> string list
(** Names of {!all}, in the same order. *)
