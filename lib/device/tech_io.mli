(** Technology-file parsing and serialization.

    A plain `key = value` format (one parameter per line, [#] comments) so
    users can describe their own process instead of patching
    {!Tech.default} in code:

    {v
    # my 0.25um low-power process
    name        = lp025
    feature_size = 0.25e-6
    alpha       = 1.1
    k_drive     = 1.8e-5
    ...
    v}

    Unknown keys are rejected (typos should not silently become defaults);
    omitted keys inherit from a base technology (default {!Tech.default}).
    [to_string] then {!parse} round-trips exactly. A malformed file comes
    back as located diagnostics, never as an exception. *)

val parse :
  ?file:string ->
  ?base:Tech.t ->
  string ->
  (Tech.t, Dcopt_util.Diag.t list) result
(** Recovering parser: collects a located diagnostic per bad line (codes
    [tech.syntax], [tech.key], [tech.number]) and then runs
    {!Tech.validate_all} on whatever survived ([tech.validate], no line),
    so every problem in a file is reported at once. [Error] is never
    empty. *)

val parse_file_checked :
  ?base:Tech.t -> string -> (Tech.t, Dcopt_util.Diag.t list) result
(** {!parse} on a file's contents (unreadable file = one [tech.io]
    diagnostic), with the path stamped into every diagnostic. *)

val to_string : Tech.t -> string
(** Every field, one per line, parseable by {!parse}. *)

val to_json : Tech.t -> Dcopt_util.Json.t
(** Versioned JSON object (schema version 1, every field explicit, exact
    float round-trip). [to_json] then {!of_json} reproduces the record
    bit-for-bit. *)

val of_json : ?base:Tech.t -> Dcopt_util.Json.t -> (Tech.t, string) result
(** Reads a (possibly partial) tech object over [base] (default
    {!Tech.default}); unknown keys and {!Tech.validate} failures are
    typed errors, never silent defaults. *)
