(** Multi-corner optimization scenarios — the unit of work every
    registered {!Optimizer} runs on.

    A scenario binds one prepared circuit to a non-empty list of process
    corners, each a named threshold-voltage stress factor in
    {!Dcopt_opt.Variation} semantics (slow corner = [1 + tolerance] for
    timing closure, leaky corner = [1 - tolerance] for energy booking).
    Optimization happens once, at the worst (highest-stress) corner — so
    a feasible result is feasible at every slower-or-equal corner by
    construction — and {!finalize} then re-evaluates the chosen design
    at every corner in parallel: the scenario is feasible only when all
    corners are, while the energy objective is booked at the {e first}
    corner of the list (conventionally the leaky or nominal one).

    The single-nominal-corner scenario ({!of_prepared}) is the legacy
    path: it bypasses both the corner re-housing and the finalize
    re-evaluation, so pre-scenario callers remain bit-identical. *)

type corner = {
  corner_name : string;
  vt_factor : float;  (** multiplier on every gate threshold, > 0 *)
}

type t = {
  prepared : Flow.prepared;
  corners : corner list;  (** non-empty; first = objective corner *)
}

val of_prepared : Flow.prepared -> t
(** The legacy single-corner scenario: one corner ["nominal"] at factor
    1.0, the bit-exact identity corner. {!prepared_view} returns
    [prepared] unchanged and {!finalize} is the identity on solutions. *)

val make :
  ?corners:corner list -> Flow.prepared -> t
(** [corners] defaults to the one {!of_prepared} corner. Raises
    [Invalid_argument] on an empty list, a non-positive/non-finite
    factor, or a duplicate corner name. *)

val worst_corner : t -> corner
(** The corner with the highest [vt_factor] — where optimization runs. *)

val is_legacy : t -> bool
(** True for the single-corner scenario at factor exactly 1.0 — the
    bit-exact compatibility path that bypasses corner re-housing and
    finalize re-evaluation. *)

val prepared_view : t -> Flow.prepared
(** The prepared circuit an optimizer should search on: the underlying
    [prepared] re-housed at the worst corner's stress factor
    ({!Dcopt_opt.Power_model.with_vt_stress}). When the worst factor is
    exactly 1.0 the original record is returned untouched (bit-exact
    legacy path). *)

val finalize :
  ?jobs:int -> t -> Dcopt_opt.Solution.t option ->
  Dcopt_opt.Solution.t option
(** Re-evaluates the optimizer's design at every corner (fanned out on
    the {!Dcopt_par.Par} pool, site ["scenario.corners"]): the returned
    solution's evaluation is the first corner's, with [feasible]
    replaced by the conjunction over all corners. Identity on [None]
    and on single-nominal-corner scenarios. *)

val corners_of_spec : string -> (corner list, Dcopt_util.Diag.t list) result
(** Parses a [--corners] specification: comma-separated entries, each a
    preset name ([nominal] = 1.0, [slow] = 1.1, [leaky] or [fast] = 0.9)
    or an explicit [name:factor] pair. Problems are located
    [config.corners] diagnostics against ["<command-line>"]. *)

val corners_of_json :
  Dcopt_util.Json.t -> (corner list, string) result
(** Reads the ["corners"] list of the batch job [scenarios] field, a
    list of [{"name": string, "vt_factor": number}] objects (the
    enclosing object carries the schema version); same validation as
    {!make}. *)

val corners_digest_string : corner list -> string
(** Canonical one-line rendering folded into the result-store digest —
    stable across processes and job counts. *)
