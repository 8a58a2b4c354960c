module Diag = Dcopt_util.Diag

let strip s =
  let is_space c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_space s.[!i] do incr i done;
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

(* Accepts "HEAD(arg1, arg2, ...)" and returns (HEAD, args); [None] means
   the shape is wrong and a diagnostic has already been recorded. *)
let parse_call diag line s =
  match String.index_opt s '(' with
  | None ->
    diag ~line ~code:"bench.syntax" (Printf.sprintf "expected '(' in %S" s);
    None
  | Some open_paren ->
    if s.[String.length s - 1] <> ')' then (
      diag ~line ~code:"bench.syntax" (Printf.sprintf "expected ')' in %S" s);
      None)
    else
      let head = strip (String.sub s 0 open_paren) in
      let inner =
        String.sub s (open_paren + 1) (String.length s - open_paren - 2)
      in
      let args =
        if strip inner = "" then []
        else String.split_on_char ',' inner |> List.map strip
      in
      Some (head, args)

(* The recovering front end: scan every line, record a diagnostic for each
   problem, and keep going so one bad line never hides the rest. Semantic
   checks (duplicates, undefined references, arity) are re-done here with
   the declaration's line number attached; [Circuit.create_checked] then
   catches whatever has no natural line (combinational cycles). *)
let parse ?file ~name text =
  let diags = ref [] in
  let diag ~line ~code message =
    diags := Diag.error ?file ~line ~code message :: !diags
  in
  let diagf ~line ~code fmt = Printf.ksprintf (diag ~line ~code) fmt in
  let nodes = ref [] and outputs = ref [] in
  let declared_inputs = ref [] in
  let handle_line lineno raw =
    let line =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = strip line in
    if line <> "" then
      match String.index_opt line '=' with
      | Some eq ->
        let net = strip (String.sub line 0 eq) in
        let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
        if net = "" then
          diagf ~line:lineno ~code:"bench.syntax" "missing net name before '='"
        else (
          match parse_call diag lineno rhs with
          | None -> ()
          | Some (head, args) -> (
            match Gate.of_string head with
            | None ->
              diagf ~line:lineno ~code:"bench.gate" "unknown gate kind %S" head
            | Some Gate.Input ->
              diagf ~line:lineno ~code:"bench.gate"
                "INPUT is not a gate definition"
            | Some kind ->
              if args = [] then
                diagf ~line:lineno ~code:"bench.gate" "gate %S has no fanins"
                  net
              else nodes := (net, kind, args, lineno) :: !nodes))
      | None -> (
        match parse_call diag lineno line with
        | None -> ()
        | Some (head, args) -> (
          match (String.uppercase_ascii head, args) with
          | "INPUT", [ net ] ->
            declared_inputs := (net, lineno) :: !declared_inputs
          | "OUTPUT", [ net ] -> outputs := (net, lineno) :: !outputs
          | ("INPUT" | "OUTPUT"), _ ->
            diagf ~line:lineno ~code:"bench.syntax" "%s takes exactly one net"
              head
          | _ ->
            diagf ~line:lineno ~code:"bench.syntax"
              "unrecognized declaration %S" line))
  in
  String.split_on_char '\n' text |> List.iteri (fun i l -> handle_line (i + 1) l);
  let inputs = List.rev !declared_inputs in
  let gates = List.rev !nodes in
  let outputs = List.rev !outputs in
  (* line-located semantic scan, mirroring Circuit.create_checked *)
  let defined = Hashtbl.create 64 in
  let declare net line =
    if Hashtbl.mem defined net then
      diagf ~line ~code:"bench.duplicate" "duplicate net name %S" net
    else Hashtbl.add defined net ()
  in
  List.iter (fun (net, line) -> declare net line) inputs;
  List.iter (fun (net, _, _, line) -> declare net line) gates;
  List.iter
    (fun (net, kind, args, line) ->
      List.iter
        (fun a ->
          if not (Hashtbl.mem defined a) then
            diagf ~line ~code:"bench.undefined"
              "%s references undefined net %S" net a)
        args;
      if not (Gate.arity_ok kind (List.length args)) then
        diagf ~line ~code:"bench.arity" "gate %S: %s cannot have %d fanin(s)"
          net (Gate.to_string kind) (List.length args))
    gates;
  List.iter
    (fun (net, line) ->
      if not (Hashtbl.mem defined net) then
        diagf ~line ~code:"bench.undefined"
          "outputs references undefined net %S" net)
    outputs;
  if inputs = [] && gates = [] then
    diags := Diag.error ?file ~code:"bench.empty" "empty circuit" :: !diags;
  match List.rev !diags with
  | _ :: _ as ds -> Error ds
  | [] -> (
    let node_list =
      List.map (fun (net, _) -> (net, Gate.Input, [])) inputs
      @ List.map (fun (net, kind, args, _) -> (net, kind, args)) gates
    in
    match
      Circuit.create_checked ~name ~nodes:node_list
        ~outputs:(List.map fst outputs)
    with
    | Ok c -> Ok c
    | Error problems ->
      Error
        (List.map
           (fun p ->
             let code =
               if p = "circuit contains a combinational cycle" then
                 "bench.cycle"
               else "bench.semantic"
             in
             Diag.error ?file ~code p)
           problems))

let parse_file_checked path =
  match Dcopt_util.File.read path with
  | Error msg -> Error [ Diag.error ~file:path ~code:"bench.io" msg ]
  | Ok text ->
    let base = Filename.remove_extension (Filename.basename path) in
    parse ~file:path ~name:base text

let to_string circuit =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Circuit.name circuit));
  Array.iter
    (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "INPUT(%s)\n" (Circuit.node circuit id).Circuit.name))
    (Circuit.inputs circuit);
  Array.iter
    (fun id ->
      Buffer.add_string buf
        (Printf.sprintf "OUTPUT(%s)\n" (Circuit.node circuit id).Circuit.name))
    (Circuit.outputs circuit);
  Array.iter
    (fun nd ->
      match nd.Circuit.kind with
      | Gate.Input -> ()
      | kind ->
        let fanin_names =
          Array.to_list nd.Circuit.fanins
          |> List.map (fun f -> (Circuit.node circuit f).Circuit.name)
        in
        Buffer.add_string buf
          (Printf.sprintf "%s = %s(%s)\n" nd.Circuit.name (Gate.to_string kind)
             (String.concat ", " fanin_names)))
    (Circuit.nodes circuit);
  Buffer.contents buf

let write_file path circuit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string circuit))
