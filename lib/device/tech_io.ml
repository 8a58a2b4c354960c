(* Field table: name, getter (for serialization), setter (for parsing).
   Keeping both directions side by side makes it impossible to add a field
   to one and forget the other. *)
let float_fields :
    (string * (Tech.t -> float) * (Tech.t -> float -> Tech.t)) list =
  [
    ("feature_size", (fun t -> t.Tech.feature_size),
     fun t v -> { t with Tech.feature_size = v });
    ("alpha", (fun t -> t.Tech.alpha), fun t v -> { t with Tech.alpha = v });
    ("k_drive", (fun t -> t.Tech.k_drive), fun t v -> { t with Tech.k_drive = v });
    ("s_swing", (fun t -> t.Tech.s_swing), fun t v -> { t with Tech.s_swing = v });
    ("thermal_voltage", (fun t -> t.Tech.thermal_voltage),
     fun t v -> { t with Tech.thermal_voltage = v });
    ("i_junction", (fun t -> t.Tech.i_junction),
     fun t v -> { t with Tech.i_junction = v });
    ("beta_ratio", (fun t -> t.Tech.beta_ratio),
     fun t v -> { t with Tech.beta_ratio = v });
    ("c_gate", (fun t -> t.Tech.c_gate), fun t v -> { t with Tech.c_gate = v });
    ("c_parasitic", (fun t -> t.Tech.c_parasitic),
     fun t v -> { t with Tech.c_parasitic = v });
    ("c_intermediate", (fun t -> t.Tech.c_intermediate),
     fun t v -> { t with Tech.c_intermediate = v });
    ("wire_cap_per_m", (fun t -> t.Tech.wire_cap_per_m),
     fun t v -> { t with Tech.wire_cap_per_m = v });
    ("wire_res_per_m", (fun t -> t.Tech.wire_res_per_m),
     fun t v -> { t with Tech.wire_res_per_m = v });
    ("wire_velocity", (fun t -> t.Tech.wire_velocity),
     fun t v -> { t with Tech.wire_velocity = v });
    ("vdd_min", (fun t -> t.Tech.vdd_min), fun t v -> { t with Tech.vdd_min = v });
    ("vdd_max", (fun t -> t.Tech.vdd_max), fun t v -> { t with Tech.vdd_max = v });
    ("vt_min", (fun t -> t.Tech.vt_min), fun t v -> { t with Tech.vt_min = v });
    ("vt_max", (fun t -> t.Tech.vt_max), fun t v -> { t with Tech.vt_max = v });
    ("w_min", (fun t -> t.Tech.w_min), fun t v -> { t with Tech.w_min = v });
    ("w_max", (fun t -> t.Tech.w_max), fun t v -> { t with Tech.w_max = v });
    ("body_gamma", (fun t -> t.Tech.body_gamma),
     fun t v -> { t with Tech.body_gamma = v });
    ("body_phi", (fun t -> t.Tech.body_phi),
     fun t v -> { t with Tech.body_phi = v });
    ("vt_natural", (fun t -> t.Tech.vt_natural),
     fun t v -> { t with Tech.vt_natural = v });
  ]

let known_keys = "name" :: List.map (fun (k, _, _) -> k) float_fields

let strip s =
  let is_space c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_space s.[!i] do incr i done;
  while !j >= !i && is_space s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

module Diag = Dcopt_util.Diag

(* Recovering scan: every bad line gets its own located diagnostic, and
   the physics validation runs on whatever survived so an unknown key and
   an empty vt range are reported together, not one per invocation. *)
let parse ?file ?(base = Tech.default) text =
  let diags = ref [] in
  let diagf ~line ~code fmt =
    Printf.ksprintf
      (fun message -> diags := Diag.error ?file ~line ~code message :: !diags)
      fmt
  in
  let tech = ref base in
  let handle lineno raw =
    let line =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = strip line in
    if line <> "" then
      match String.index_opt line '=' with
      | None ->
        diagf ~line:lineno ~code:"tech.syntax" "expected `key = value', got %S"
          line
      | Some eq ->
        let key = strip (String.sub line 0 eq) in
        let value = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
        if key = "name" then tech := { !tech with Tech.tech_name = value }
        else (
          match List.find_opt (fun (k, _, _) -> k = key) float_fields with
          | None ->
            diagf ~line:lineno ~code:"tech.key"
              "unknown parameter %S (known: %s)" key
              (String.concat ", " known_keys)
          | Some (_, _, set) -> (
            match float_of_string_opt value with
            | Some v -> tech := set !tech v
            | None ->
              diagf ~line:lineno ~code:"tech.number"
                "parameter %S: %S is not a number" key value))
  in
  String.split_on_char '\n' text |> List.iteri (fun i l -> handle (i + 1) l);
  let validation =
    List.map
      (fun msg -> Diag.error ?file ~code:"tech.validate" msg)
      (Tech.validate_all !tech)
  in
  match List.rev !diags @ validation with
  | [] -> Ok !tech
  | ds -> Error ds

let parse_file_checked ?base path =
  match Dcopt_util.File.read path with
  | Error msg -> Error [ Diag.error ~file:path ~code:"tech.io" msg ]
  | Ok text -> parse ~file:path ?base text

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "name = %s\n" t.Tech.tech_name);
  List.iter
    (fun (k, get, _) ->
      Buffer.add_string buf (Printf.sprintf "%s = %.17g\n" k (get t)))
    float_fields;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON (schema version 1): {"version":1,"name":...,<float fields>}    *)

module Json = Dcopt_util.Json

let json_schema_version = 1

let to_json t =
  Json.Obj
    (("version", Json.Int json_schema_version)
    :: ("name", Json.String t.Tech.tech_name)
    :: List.map (fun (k, get, _) -> (k, Json.Float (get t))) float_fields)

let of_json ?(base = Tech.default) json =
  match Json.get_obj json with
  | None -> Error "tech: expected a JSON object"
  | Some members -> (
    let rec apply tech = function
      | [] -> Ok tech
      | ("version", v) :: rest -> (
        match Json.get_int v with
        | Some n when n = json_schema_version -> apply tech rest
        | Some n -> Error (Printf.sprintf "tech: unsupported version %d" n)
        | None -> Error "tech: version must be an integer")
      | ("name", v) :: rest -> (
        match Json.get_string v with
        | Some name -> apply { tech with Tech.tech_name = name } rest
        | None -> Error "tech: name must be a string")
      | (key, v) :: rest -> (
        match List.find_opt (fun (k, _, _) -> k = key) float_fields with
        | None ->
          Error
            (Printf.sprintf "tech: unknown parameter %S (known: %s)" key
               (String.concat ", " known_keys))
        | Some (_, _, set) -> (
          match Json.get_float v with
          | Some f -> apply (set tech f) rest
          | None -> Error (Printf.sprintf "tech: %S is not a number" key)))
    in
    match apply base members with
    | Error _ as e -> e
    | Ok tech -> (
      match Tech.validate tech with
      | Ok () -> Ok tech
      | Error msg -> Error ("tech: " ^ msg)))
