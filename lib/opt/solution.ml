type t = {
  label : string;
  design : Power_model.design;
  evaluation : Power_model.evaluation;
  meets_budgets : bool;
}

let make ~label ~meets_budgets env design =
  { label; design; evaluation = Power_model.evaluate env design; meets_budgets }

let of_evaluation ~label ~meets_budgets design evaluation =
  { label; design; evaluation; meets_budgets }

let vdd t = t.design.Power_model.vdd

let vt_values t env =
  let seen = Hashtbl.create 4 in
  Array.iter
    (fun id -> Hashtbl.replace seen t.design.Power_model.vt.(id) ())
    (Power_model.unsafe_gate_ids env);
  Hashtbl.fold (fun v () acc -> v :: acc) seen []
  |> List.sort_uniq Float.compare

let gate_widths t env =
  Array.map
    (fun id -> t.design.Power_model.widths.(id))
    (Power_model.unsafe_gate_ids env)

let mean_width t env = Dcopt_util.Stats.mean (gate_widths t env)

let active_area t env =
  let tech = Power_model.tech env in
  let f = tech.Dcopt_device.Tech.feature_size in
  Array.fold_left
    (fun acc w -> acc +. (w *. (1.0 +. tech.Dcopt_device.Tech.beta_ratio) *. f *. f))
    0.0 (gate_widths t env)
let max_width t env = snd (Dcopt_util.Stats.min_max (gate_widths t env))

let total_energy t = t.evaluation.Power_model.total_energy
let static_energy t = t.evaluation.Power_model.static_energy
let dynamic_energy t = t.evaluation.Power_model.dynamic_energy
let critical_delay t = t.evaluation.Power_model.critical_delay
let feasible t = t.evaluation.Power_model.feasible

type score = {
  static_energy : float;
  dynamic_energy : float;
  total_energy : float;
}

let score t =
  {
    static_energy = static_energy t;
    dynamic_energy = dynamic_energy t;
    total_energy = total_energy t;
  }

type emit = vdd:float -> vt:float -> feasible:bool -> score option -> unit

let trials ?observer optimizer =
  match observer with
  | None -> (None, fun ~vdd:_ ~vt:_ ~feasible:_ _ -> ())
  | Some obs ->
    let sent = ref 0 in
    let send (it : Dcopt_obs.Telemetry.iteration) =
      incr sent;
      obs { it with optimizer }
    in
    let emit ~vdd ~vt ~feasible score =
      let static_energy, dynamic_energy, total_energy =
        match score with
        | Some s -> (s.static_energy, s.dynamic_energy, s.total_energy)
        | None -> (infinity, infinity, infinity)
      in
      send
        {
          Dcopt_obs.Telemetry.optimizer;
          index = !sent;
          vdd;
          vt;
          static_energy;
          dynamic_energy;
          total_energy;
          feasible;
        }
    in
    (Some send, emit)

let savings ~baseline t = total_energy baseline /. total_energy t

let better best candidate =
  match best with
  | None -> if feasible candidate then Some candidate else None
  | Some current ->
    if feasible candidate && total_energy candidate < total_energy current then
      Some candidate
    else best

(* ------------------------------------------------------------------ *)
(* JSON (schema version 1). The design and evaluation arrays are
   serialized in full (indexed by node id), so a decoded solution is
   field-for-field and bit-for-bit the one that was encoded — the service
   result cache depends on this to replay cached rows byte-identically. *)

module Json = Dcopt_util.Json

let json_schema_version = 1

let float_array_json a =
  Json.List (List.map (fun f -> Json.Float f) (Array.to_list a))

(* One-rail designs write no [rail] member, so their rows stay
   byte-identical to rows written before the member existed. *)
let rail_json = function
  | None -> []
  | Some r ->
    [
      ( "rail",
        Json.Obj
          [
            ("vdd_low", Json.Float r.Power_model.vdd_low);
            ( "low",
              Json.List
                (List.map (fun b -> Json.Bool b) (Array.to_list r.Power_model.low))
            );
          ] );
    ]

let to_json t =
  let d = t.design and e = t.evaluation in
  Json.Obj
    [
      ("version", Json.Int json_schema_version);
      ("label", Json.String t.label);
      ("meets_budgets", Json.Bool t.meets_budgets);
      ( "design",
        Json.Obj
          ([
             ("vdd", Json.Float d.Power_model.vdd);
             ("vt", float_array_json d.Power_model.vt);
             ("widths", float_array_json d.Power_model.widths);
           ]
          @ rail_json d.Power_model.rail) );
      ( "evaluation",
        Json.Obj
          [
            ("static_energy", Json.Float e.Power_model.static_energy);
            ("dynamic_energy", Json.Float e.Power_model.dynamic_energy);
            ( "short_circuit_energy",
              Json.Float e.Power_model.short_circuit_energy );
            ("total_energy", Json.Float e.Power_model.total_energy);
            ("static_power", Json.Float e.Power_model.static_power);
            ("dynamic_power", Json.Float e.Power_model.dynamic_power);
            ("delays", float_array_json e.Power_model.delays);
            ("critical_delay", Json.Float e.Power_model.critical_delay);
            ("feasible", Json.Bool e.Power_model.feasible);
          ] );
    ]

let ( let* ) = Result.bind

let req json name conv =
  match Json.field name json with
  | None -> Error (Printf.sprintf "solution: missing field %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "solution: field %S has the wrong type" name))

let float_array_of json name =
  let* items = req json name Json.get_list in
  let rec convert acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | v :: rest -> (
      match Json.get_float v with
      | Some f -> convert (f :: acc) rest
      | None ->
        Error (Printf.sprintf "solution: %S must be an array of numbers" name))
  in
  convert [] items

let rail_of d ~n =
  match Json.field "rail" d with
  | None -> Ok None
  | Some r ->
    let* vdd_low = req r "vdd_low" Json.get_float in
    let* items = req r "low" Json.get_list in
    let low = List.filter_map Json.get_bool items in
    if List.length low <> List.length items then
      Error "solution: \"low\" must be an array of booleans"
    else if List.length low <> n then
      Error "solution: \"low\" and \"vt\" differ in length"
    else Ok (Some { Power_model.vdd_low; low = Array.of_list low })

let of_json json =
  let* version = req json "version" Json.get_int in
  if version <> json_schema_version then
    Error (Printf.sprintf "solution: unsupported version %d" version)
  else
    let* label = req json "label" Json.get_string in
    let* meets_budgets = req json "meets_budgets" Json.get_bool in
    let* d = req json "design" Option.some in
    let* vdd = req d "vdd" Json.get_float in
    let* vt = float_array_of d "vt" in
    let* widths = float_array_of d "widths" in
    let* rail = rail_of d ~n:(Array.length vt) in
    let* e = req json "evaluation" Option.some in
    let* static_energy = req e "static_energy" Json.get_float in
    let* dynamic_energy = req e "dynamic_energy" Json.get_float in
    let* short_circuit_energy = req e "short_circuit_energy" Json.get_float in
    let* total_energy = req e "total_energy" Json.get_float in
    let* static_power = req e "static_power" Json.get_float in
    let* dynamic_power = req e "dynamic_power" Json.get_float in
    let* delays = float_array_of e "delays" in
    let* critical_delay = req e "critical_delay" Json.get_float in
    let* feasible = req e "feasible" Json.get_bool in
    Ok
      {
        label;
        meets_budgets;
        design = { Power_model.vdd; vt; widths; rail };
        evaluation =
          {
            Power_model.static_energy;
            dynamic_energy;
            short_circuit_energy;
            total_energy;
            static_power;
            dynamic_power;
            delays;
            critical_delay;
            feasible;
          };
      }

let slack_profile env t =
  let cycle = Power_model.cycle_time env in
  let sta =
    Dcopt_timing.Flat_sta.analyze ~required_time:cycle
      ?required_times:(Power_model.required_times env)
      ?arrival_offsets:(Power_model.arrival_offsets env)
      (Power_model.flat env)
      ~delays:t.evaluation.Power_model.delays
  in
  let worst = ref infinity and near = ref 0 in
  Array.iter
    (fun s ->
      if s < !worst then worst := s;
      if s <= 0.05 *. cycle then incr near)
    sta.Dcopt_timing.Flat_sta.slack;
  (!worst, !near)

let describe env t =
  let vts =
    vt_values t env
    |> List.map (fun v -> Printf.sprintf "%.0f mV" (v *. 1000.0))
    |> String.concat ", "
  in
  let worst_slack, near_critical = slack_profile env t in
  let module Si = Dcopt_util.Si in
  Printf.sprintf
    "%s: Vdd = %.3f V, Vt = {%s}, widths mean %.1f max %.0f, area %s\n\
    \  static %s  dynamic %s  total %s per cycle\n\
    \  critical delay %s (cycle %s)  feasible = %b, budgets met = %b\n\
    \  worst slack %s, %d nodes within 5%% of the cycle time"
    t.label (vdd t) vts (mean_width t env) (max_width t env)
    (Printf.sprintf "%.1f um^2" (active_area t env *. 1e12))
    (Si.format ~unit:"J" (static_energy t))
    (Si.format ~unit:"J" (dynamic_energy t))
    (Si.format ~unit:"J" (total_energy t))
    (Si.format ~unit:"s" (critical_delay t))
    (Si.format ~unit:"s" (Power_model.cycle_time env))
    (feasible t) t.meets_budgets
    (Si.format ~unit:"s" worst_slack)
    near_critical
