(* SDC-lite recovering parser. One command per line ([\ ] continuations
   joined first, [#] comments stripped), every problem reported as a
   located [sdc.*] diagnostic, parsing always continues to the end of
   the file. Times are SDC-conventional nanoseconds, stored as
   seconds. *)

module Diag = Dcopt_util.Diag
module Circuit = Dcopt_netlist.Circuit

let ns = 1e-9

(* Recognised SDC commands we deliberately do not model: flagged as
   warnings (the file still parses), unlike unknown commands, which are
   errors. *)
let ignored_commands =
  [
    "set_units";
    "set_load";
    "set_driving_cell";
    "set_clock_uncertainty";
    "set_clock_latency";
    "set_clock_transition";
    "set_clock_groups";
    "set_operating_conditions";
    "set_wire_load_model";
    "set_multicycle_path";
    "set_dont_touch";
    "create_generated_clock";
    "current_design";
  ]

(* Whitespace-split with [ ] { } as standalone tokens, so object specs
   tokenize uniformly whether or not they are space-separated. *)
let tokenize s =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\r' -> flush ()
      | '[' | ']' | '{' | '}' ->
          flush ();
          out := String.make 1 c :: !out
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !out

type state = {
  file : string option;
  circuit : Circuit.t option;
  mutable diags : Diag.t list; (* reverse order *)
  mutable clocks : Constraints.clock list;
  mutable max_delays : Constraints.path_rule list;
  mutable false_paths : Constraints.exception_path list;
  mutable input_delays : Constraints.io_delay list;
  mutable output_delays : Constraints.io_delay list;
  mutable clock_refs : (int * string) list; (* (line, clock name) to check *)
}

let error st ~line ~code fmt =
  Printf.ksprintf
    (fun msg -> st.diags <- Diag.error ?file:st.file ~line ~code msg :: st.diags)
    fmt

let warning st ~line ~code fmt =
  Printf.ksprintf
    (fun msg ->
      st.diags <- Diag.warning ?file:st.file ~line ~code msg :: st.diags)
    fmt

let check_port st ~line name =
  match st.circuit with
  | None -> ()
  | Some c -> (
      match Circuit.find c name with
      | _ -> ()
      | exception Not_found ->
          error st ~line ~code:"sdc.port" "unknown port %S" name)

(* An object spec: [get_ports {a b}], [get_ports a], [get_pins ...] or a
   bare name. Returns the names and the remaining tokens; [None] means a
   diagnostic was already emitted. *)
let parse_spec st ~line ~ctx tokens =
  let collect_until_close rest =
    let rec go acc = function
      | "]" :: rest -> Some (List.rev acc, rest)
      | ("{" | "}") :: rest -> go acc rest
      | "[" :: _ | [] ->
          error st ~line ~code:"sdc.syntax" "%s: unterminated object spec" ctx;
          None
      | name :: rest -> go (name :: acc) rest
    in
    go [] rest
  in
  match tokens with
  | "[" :: func :: rest when func = "get_ports" || func = "get_pins" -> (
      match collect_until_close rest with
      | Some ([], _) ->
          error st ~line ~code:"sdc.syntax" "%s: empty %s" ctx func;
          None
      | Some (names, rest) ->
          List.iter (check_port st ~line) names;
          Some (names, rest)
      | None -> None)
  | "[" :: func :: _ ->
      error st ~line ~code:"sdc.syntax" "%s: unsupported object query %S" ctx
        func;
      None
  | "[" :: [] | "]" :: _ | "{" :: _ | "}" :: _ | [] ->
      error st ~line ~code:"sdc.syntax" "%s: expected a port or object spec"
        ctx;
      None
  | name :: rest ->
      check_port st ~line name;
      Some ([ name ], rest)

(* [float_of_string_opt] also reads nan, inf and -inf. No constraint
   time may be non-finite — a NaN seed would reach the STA kernels, whose
   results are only defined on NaN-free input — so every parsed number
   also passes a located [sdc.range] finiteness check at its use. *)
let number tok = float_of_string_opt tok

(* create_clock -period P [-name N] [-waveform {R F}] [ports] *)
let parse_create_clock st ~line tokens =
  let period = ref None in
  let cname = ref None in
  let waveform = ref None in
  let sources = ref [] in
  let ok = ref true in
  let fail code fmt =
    ok := false;
    error st ~line ~code fmt
  in
  let rec go = function
    | [] -> ()
    | "-period" :: v :: rest -> (
        match number v with
        | Some p when not (Float.is_finite p) ->
            fail "sdc.range" "create_clock: period must be finite (got %g)" p
        | Some p when p > 0.0 ->
            period := Some (p *. ns);
            go rest
        | Some p -> fail "sdc.range" "create_clock: period must be > 0 (got %g)" p
        | None -> fail "sdc.syntax" "create_clock: bad period %S" v)
    | [ "-period" ] -> fail "sdc.syntax" "create_clock: -period expects a value"
    | "-name" :: v :: rest when v <> "[" && v <> "{" ->
        cname := Some v;
        go rest
    | "-name" :: _ -> fail "sdc.syntax" "create_clock: -name expects a name"
    | "-waveform" :: "{" :: r :: f :: "}" :: rest -> (
        match (number r, number f) with
        | Some r, Some f when Float.is_finite r && Float.is_finite f ->
            waveform := Some (r *. ns, f *. ns);
            go rest
        | Some _, Some _ ->
            fail "sdc.range" "create_clock: -waveform edges must be finite"
        | _ -> fail "sdc.syntax" "create_clock: bad -waveform edges")
    | "-waveform" :: _ ->
        fail "sdc.syntax" "create_clock: -waveform expects {rise fall}"
    | tokens -> (
        match parse_spec st ~line ~ctx:"create_clock" tokens with
        | Some (names, rest) ->
            sources := !sources @ names;
            go rest
        | None -> ok := false)
  in
  go tokens;
  if !ok then
    match !period with
    | None -> error st ~line ~code:"sdc.syntax" "create_clock: missing -period"
    | Some period -> (
        let name =
          match (!cname, !sources) with
          | Some n, _ -> Some n
          | None, s :: _ -> Some s
          | None, [] -> None
        in
        match name with
        | None ->
            error st ~line ~code:"sdc.syntax"
              "create_clock: needs -name or a source port"
        | Some name ->
            if
              List.exists
                (fun c -> String.equal c.Constraints.clock_name name)
                st.clocks
            then error st ~line ~code:"sdc.duplicate" "duplicate clock %S" name
            else
              st.clocks <-
                {
                  Constraints.clock_name = name;
                  period;
                  waveform = !waveform;
                  sources = !sources;
                }
                :: st.clocks)

(* set_max_delay / set_min_delay: value plus optional -from/-to specs.
   A set_min_delay is validated like set_max_delay, then reported as
   ignored: hold-style lower bounds are not modelled. *)
let parse_path_delay st ~line ~cmd ~min_delay tokens =
  let value = ref None in
  let from_ = ref [] in
  let to_ = ref [] in
  let ok = ref true in
  let fail code fmt =
    ok := false;
    error st ~line ~code fmt
  in
  let rec go = function
    | [] -> ()
    | "-from" :: rest -> spec rest (fun names -> from_ := !from_ @ names)
    | "-to" :: rest -> spec rest (fun names -> to_ := !to_ @ names)
    | ("-rise" | "-fall" | "-datapath_only") :: rest -> go rest
    | tok :: rest -> (
        match number tok with
        | Some v when not (Float.is_finite v) ->
            fail "sdc.range" "%s: bound must be finite (got %g)" cmd v
        | Some v -> (
            match !value with
            | None ->
                if (not min_delay) && v < 0.0 then
                  fail "sdc.range" "%s: negative bound %g" cmd v
                else begin
                  value := Some (v *. ns);
                  go rest
                end
            | Some _ -> fail "sdc.syntax" "%s: duplicate delay value" cmd)
        | None -> fail "sdc.syntax" "%s: unexpected token %S" cmd tok)
  and spec tokens k =
    match parse_spec st ~line ~ctx:cmd tokens with
    | Some (names, rest) ->
        k names;
        go rest
    | None -> ok := false
  in
  go tokens;
  if !ok then
    match !value with
    | None -> error st ~line ~code:"sdc.syntax" "%s: missing delay value" cmd
    | Some bound ->
        if min_delay then
          warning st ~line ~code:"sdc.unsupported" "command %S is ignored" cmd
        else
          st.max_delays <-
            { Constraints.rule_from = !from_; rule_to = !to_; bound }
            :: st.max_delays

let parse_false_path st ~line tokens =
  let from_ = ref [] in
  let to_ = ref [] in
  let ok = ref true in
  let rec go = function
    | [] -> ()
    | "-from" :: rest -> spec rest (fun names -> from_ := !from_ @ names)
    | "-to" :: rest -> spec rest (fun names -> to_ := !to_ @ names)
    | "-through" :: rest -> (
        warning st ~line ~code:"sdc.unsupported"
          "set_false_path: -through is ignored";
        match parse_spec st ~line ~ctx:"set_false_path" rest with
        | Some (_, rest) -> go rest
        | None -> ok := false)
    | ("-setup" | "-hold") :: rest -> go rest
    | tok :: _ ->
        ok := false;
        error st ~line ~code:"sdc.syntax" "set_false_path: unexpected token %S"
          tok
  and spec tokens k =
    match parse_spec st ~line ~ctx:"set_false_path" tokens with
    | Some (names, rest) ->
        k names;
        go rest
    | None -> ok := false
  in
  go tokens;
  if !ok then begin
    if !from_ = [] && !to_ = [] then
      warning st ~line ~code:"sdc.unsupported"
        "set_false_path without -from/-to disables every endpoint"
    ;
    st.false_paths <-
      { Constraints.exc_from = !from_; exc_to = !to_ } :: st.false_paths
  end

(* set_input_delay / set_output_delay: value, optional -clock, port spec. *)
let parse_io_delay st ~line ~cmd ~input tokens =
  let value = ref None in
  let clock = ref None in
  let ports = ref [] in
  let ok = ref true in
  let fail code fmt =
    ok := false;
    error st ~line ~code fmt
  in
  let rec go = function
    | [] -> ()
    | "-clock" :: c :: rest when c <> "[" && c <> "{" ->
        clock := Some c;
        st.clock_refs <- (line, c) :: st.clock_refs;
        go rest
    | "-clock" :: _ -> fail "sdc.syntax" "%s: -clock expects a clock name" cmd
    | ("-max" | "-min" | "-add_delay" | "-rise" | "-fall") :: rest -> go rest
    | tok :: rest when number tok <> None && !value = None -> (
        match number tok with
        | Some v when not (Float.is_finite v) ->
            fail "sdc.range" "%s: delay must be finite (got %g)" cmd v
        | Some v ->
            value := Some (v *. ns);
            go rest
        | None -> assert false)
    | tokens -> (
        match parse_spec st ~line ~ctx:cmd tokens with
        | Some (names, rest) ->
            ports := !ports @ names;
            go rest
        | None -> ok := false)
  in
  go tokens;
  if !ok then
    match (!value, !ports) with
    | None, _ -> error st ~line ~code:"sdc.syntax" "%s: missing delay value" cmd
    | Some _, [] -> error st ~line ~code:"sdc.syntax" "%s: missing port spec" cmd
    | Some v, ports ->
        List.iter
          (fun port ->
            let d =
              { Constraints.port; io_clock = !clock; io_delay = v }
            in
            if input then st.input_delays <- d :: st.input_delays
            else st.output_delays <- d :: st.output_delays)
          ports

let parse_line st ~line tokens =
  match tokens with
  | [] -> ()
  | "create_clock" :: rest -> parse_create_clock st ~line rest
  | "set_max_delay" :: rest ->
      parse_path_delay st ~line ~cmd:"set_max_delay" ~min_delay:false rest
  | "set_min_delay" :: rest ->
      parse_path_delay st ~line ~cmd:"set_min_delay" ~min_delay:true rest
  | "set_false_path" :: rest -> parse_false_path st ~line rest
  | "set_input_delay" :: rest ->
      parse_io_delay st ~line ~cmd:"set_input_delay" ~input:true rest
  | "set_output_delay" :: rest ->
      parse_io_delay st ~line ~cmd:"set_output_delay" ~input:false rest
  | cmd :: _ when List.mem cmd ignored_commands ->
      warning st ~line ~code:"sdc.unsupported" "command %S is ignored" cmd
  | cmd :: _ -> error st ~line ~code:"sdc.command" "unknown command %S" cmd

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Physical lines -> logical lines: trailing [\ ] joins the next line;
   the logical line keeps the number of its first physical line. *)
let logical_lines text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> List.rev acc
    | l :: rest ->
        let l = strip_comment l in
        let rec absorb lineno_span l rest =
          let trimmed = String.trim l in
          if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = '\\'
          then
            match rest with
            | next :: rest ->
                let body = String.sub trimmed 0 (String.length trimmed - 1) in
                absorb (lineno_span + 1)
                  (body ^ " " ^ strip_comment next)
                  rest
            | [] -> (lineno_span, l, rest)
          else (lineno_span, l, rest)
        in
        let span, joined, rest = absorb 1 l rest in
        go (lineno + span) ((lineno, joined) :: acc) rest
  in
  go 1 [] lines

let parse ?file ?circuit text =
  let st =
    {
      file;
      circuit;
      diags = [];
      clocks = [];
      max_delays = [];
      false_paths = [];
      input_delays = [];
      output_delays = [];
      clock_refs = [];
    }
  in
  List.iter
    (fun (line, l) -> parse_line st ~line (tokenize l))
    (logical_lines text);
  (* -clock references are resolved once the whole file is read, so
     declaration order never matters. *)
  List.iter
    (fun (line, name) ->
      if
        not
          (List.exists
             (fun c -> String.equal c.Constraints.clock_name name)
             st.clocks)
      then error st ~line ~code:"sdc.clock" "unknown clock %S" name)
    (List.rev st.clock_refs);
  let diags = List.rev st.diags in
  if Diag.has_errors diags then Error diags
  else
    Ok
      ( {
          Constraints.clocks = List.rev st.clocks;
          max_delays = List.rev st.max_delays;
          false_paths = List.rev st.false_paths;
          input_delays = List.rev st.input_delays;
          output_delays = List.rev st.output_delays;
        },
        diags )

let parse_file_checked ?circuit path =
  match Dcopt_util.File.read path with
  | Ok text -> parse ~file:path ?circuit text
  | Error msg -> Error [ Diag.error ~file:path ~code:"sdc.io" msg ]
