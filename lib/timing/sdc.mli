(** SDC-lite constraint file reader — the recovering front door for
    {!Constraints}.

    Supported commands (one per line, [\ ] continuations, [#] comments):

    - [create_clock -period P [-name N] [-waveform {R F}] [ports]]
    - [set_max_delay D [-from spec] [-to spec]]
    - [set_false_path [-from spec] [-to spec]]
    - [set_input_delay D [-clock C] spec]
    - [set_output_delay D [-clock C] spec]

    where [spec] is [\[get_ports {a b}\]], [\[get_ports a\]],
    [\[get_pins ...\]] or a bare port name. Times follow the SDC
    convention of {e nanoseconds} and are converted to seconds.

    [set_min_delay D [-from spec] [-to spec]] is checked like
    [set_max_delay] (syntax, ports, a finite bound) and then ignored
    with an [sdc.unsupported] warning: hold-style lower bounds are not
    modelled.

    The parser scans the whole file and reports {e every} problem it
    finds, each located by line (codes [sdc.syntax], [sdc.command],
    [sdc.range], [sdc.duplicate], [sdc.clock], [sdc.port]; recognised
    but ignored SDC commands and options come back as [sdc.unsupported]
    {e warnings}). [sdc.port] diagnostics require the circuit — pass
    [?circuit] to cross-check port references. *)

val parse :
  ?file:string ->
  ?circuit:Dcopt_netlist.Circuit.t ->
  string ->
  (Constraints.t * Dcopt_util.Diag.t list, Dcopt_util.Diag.t list) result
(** [Ok (constraints, warnings)] when the file has no error, with every
    warning in file order; otherwise [Error] with every diagnostic,
    warnings included, never empty. *)

val parse_file_checked :
  ?circuit:Dcopt_netlist.Circuit.t ->
  string ->
  (Constraints.t * Dcopt_util.Diag.t list, Dcopt_util.Diag.t list) result
(** {!parse} on a file's contents (unreadable file = one [sdc.io]
    diagnostic); the path is stamped into every diagnostic. *)
