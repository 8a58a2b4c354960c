(* Timing-constraint model: clocks, per-endpoint max-delay bounds,
   false-path exceptions and I/O delays, projected onto per-node
   required-time / arrival-offset arrays for the STA engines. See
   constraints.mli for the contract; the scalar compatibility story
   pivots on [of_cycle_time]/[scalar_cycle_time]. *)

module Json = Dcopt_util.Json
module Circuit = Dcopt_netlist.Circuit

type clock = {
  clock_name : string;
  period : float;
  waveform : (float * float) option;
  sources : string list;
}

type path_rule = {
  rule_from : string list;
  rule_to : string list;
  bound : float;
}

type exception_path = { exc_from : string list; exc_to : string list }
type io_delay = { port : string; io_clock : string option; io_delay : float }

type t = {
  clocks : clock list;
  max_delays : path_rule list;
  false_paths : exception_path list;
  input_delays : io_delay list;
  output_delays : io_delay list;
}

let empty =
  {
    clocks = [];
    max_delays = [];
    false_paths = [];
    input_delays = [];
    output_delays = [];
  }

(* The canonical name [of_cycle_time] stamps, and [scalar_cycle_time]
   recognises. Deliberately not a legal net name in `.bench` files. *)
let scalar_clock_name = "clk"

let of_cycle_time ct =
  {
    empty with
    clocks =
      [ { clock_name = scalar_clock_name; period = ct; waveform = None; sources = [] } ];
  }

let scalar_cycle_time t =
  match t with
  | {
   clocks = [ { clock_name; period; waveform = None; sources = [] } ];
   max_delays = [];
   false_paths = [];
   input_delays = [];
   output_delays = [];
  }
    when String.equal clock_name scalar_clock_name ->
      Some period
  | _ -> None

let default_period t =
  match t.clocks with
  | [] -> None
  | c :: rest ->
      Some (List.fold_left (fun acc c -> Float.min acc c.period) c.period rest)

let tightest_cycle_time t ~default =
  let base = match default_period t with Some p -> p | None -> default in
  (* Only endpoint-blind max-delay rules bound the whole budget; a rule
     naming specific endpoints tightens those endpoints, not the clock. *)
  List.fold_left
    (fun acc r -> if r.rule_to = [] then Float.min acc r.bound else acc)
    base t.max_delays

(* Port-name resolution. Constraint files survive ports that vanished
   from the netlist (the parser flags unknown ports when it has the
   circuit in hand); here they silently match nothing. *)
let find_opt circuit name =
  match Circuit.find circuit name with
  | id -> Some id
  | exception Not_found -> None

let clock_period t name =
  List.find_opt (fun c -> String.equal c.clock_name name) t.clocks
  |> Option.map (fun c -> c.period)

let required_times t ~default circuit =
  let n = Circuit.size circuit in
  let req = Array.make n infinity in
  let base = match default_period t with Some p -> p | None -> default in
  let tighten id v = if v < req.(id) then req.(id) <- v in
  (* Capture budget per output: clock period (via set_output_delay's
     clock when one names this port) minus the output delay. *)
  let outputs = Circuit.outputs circuit in
  Array.iter
    (fun id ->
      let name = (Circuit.node circuit id).Circuit.name in
      let budget =
        match
          List.find_opt (fun d -> String.equal d.port name) t.output_delays
        with
        | Some d ->
            let p =
              match d.io_clock with
              | Some c -> Option.value (clock_period t c) ~default:base
              | None -> base
            in
            p -. d.io_delay
        | None -> base
      in
      tighten id budget)
    outputs;
  (* set_max_delay rules: endpoint-blind rules tighten every output;
     named endpoints are tightened directly (conservatively, whatever
     the -from spec says — the per-endpoint projection). *)
  List.iter
    (fun r ->
      match r.rule_to with
      | [] -> Array.iter (fun id -> tighten id r.bound) outputs
      | names ->
          List.iter
            (fun nm ->
              match find_opt circuit nm with
              | Some id -> tighten id r.bound
              | None -> ())
            names)
    t.max_delays;
  (* Any-startpoint false paths release their endpoints entirely. *)
  List.iter
    (fun e ->
      if e.exc_from = [] then
        match e.exc_to with
        | [] -> Array.iter (fun id -> req.(id) <- infinity) outputs
        | names ->
            List.iter
              (fun nm ->
                match find_opt circuit nm with
                | Some id -> req.(id) <- infinity
                | None -> ())
              names)
    t.false_paths;
  req

let arrival_offsets t circuit =
  match t.input_delays with
  | [] -> None
  | delays ->
      let n = Circuit.size circuit in
      let seed = Array.make n 0.0 in
      List.iter
        (fun d ->
          match find_opt circuit d.port with
          | Some id -> seed.(id) <- Float.max seed.(id) d.io_delay
          | None -> ())
        delays;
      Some seed

(* JSON (version 1). Canonical member order; folded into store digests
   for scenario jobs, so any change here invalidates exactly the rows it
   should. *)

let names_json ns = Json.List (List.map (fun s -> Json.String s) ns)

let clock_to_json c =
  Json.Obj
    ([ ("name", Json.String c.clock_name); ("period", Json.Float c.period) ]
    @ (match c.waveform with
      | Some (r, f) -> [ ("waveform", Json.List [ Json.Float r; Json.Float f ]) ]
      | None -> [])
    @ if c.sources = [] then [] else [ ("sources", names_json c.sources) ])

let rule_to_json r =
  Json.Obj
    [
      ("from", names_json r.rule_from);
      ("to", names_json r.rule_to);
      ("bound", Json.Float r.bound);
    ]

let exc_to_json e =
  Json.Obj [ ("from", names_json e.exc_from); ("to", names_json e.exc_to) ]

let io_to_json d =
  Json.Obj
    ([ ("port", Json.String d.port); ("delay", Json.Float d.io_delay) ]
    @
    match d.io_clock with
    | Some c -> [ ("clock", Json.String c) ]
    | None -> [])

let to_json t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("clocks", Json.List (List.map clock_to_json t.clocks));
      ("max_delays", Json.List (List.map rule_to_json t.max_delays));
      ("false_paths", Json.List (List.map exc_to_json t.false_paths));
      ("input_delays", Json.List (List.map io_to_json t.input_delays));
      ("output_delays", Json.List (List.map io_to_json t.output_delays));
    ]
