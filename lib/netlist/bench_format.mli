(** ISCAS-89 `.bench` netlist reader and writer.

    The format: one declaration per line, [#] comments,
    [INPUT(n)] / [OUTPUT(n)] pin declarations and
    [n = KIND(a, b, ...)] gate definitions.

    {!parse} and {!parse_file_checked} are the only readers: a malformed
    netlist comes back as located diagnostics, never as an exception. *)

val parse :
  ?file:string ->
  name:string ->
  string ->
  (Circuit.t, Dcopt_util.Diag.t list) result
(** Recovering parser: scans the whole text and reports {e every} problem
    it finds — syntax errors, unknown gates, duplicate nets, undefined
    references, bad arity — each located by line number (codes
    [bench.syntax], [bench.gate], [bench.duplicate], [bench.undefined],
    [bench.arity]; line-less residuals such as combinational cycles come
    back as [bench.cycle]/[bench.semantic]/[bench.empty]). [?file] is
    stamped into the diagnostics' locations. [Error] is never empty. *)

val parse_file_checked : string -> (Circuit.t, Dcopt_util.Diag.t list) result
(** {!parse} on a file's contents (unreadable file = one [bench.io]
    diagnostic); the circuit takes the file's basename (without
    extension) as its name, and the path is stamped into every
    diagnostic. *)

val to_string : Circuit.t -> string
(** Renders a circuit back to `.bench` text (header comment, INPUT/OUTPUT
    declarations, then gate definitions in id order). {!parse} of the
    result reconstructs an identical circuit. *)

val write_file : string -> Circuit.t -> unit
