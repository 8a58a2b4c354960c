module Circuit = Dcopt_netlist.Circuit
module Activity = Dcopt_activity.Activity
module Delay_assign = Dcopt_timing.Delay_assign
module Constraints = Dcopt_timing.Constraints
module Power_model = Dcopt_opt.Power_model
module Solution = Dcopt_opt.Solution
module Budget_repair = Dcopt_opt.Budget_repair
module Tech = Dcopt_device.Tech
module Span = Dcopt_obs.Span

let log_src = Logs.Src.create "dcopt.flow" ~doc:"end-to-end optimization flow"

module Log = (val Logs.src_log log_src : Logs.LOG)

type activity_engine =
  | First_order
  | Exact_when_small
  | Windowed of int
  | Monte_carlo of { vectors : int; seed : int64 }
  | Sequential_trace of { cycles : int; seed : int64 }

type config = {
  tech : Dcopt_device.Tech.t;
  clock_frequency : float;
  input_probability : float;
  input_density : float;
  engine : activity_engine;
  skew_factor : float;
  m_steps : int;
  include_short_circuit : bool;
}

let default_config =
  {
    tech = Dcopt_device.Tech.default;
    clock_frequency = 300.0e6;
    input_probability = 0.5;
    input_density = 0.1;
    engine = First_order;
    skew_factor = 0.95;
    m_steps = 16;
    include_short_circuit = false;
  }

(* Reject ill-posed physics before any optimizer touches the config: a
   vt at or above vdd, a zero/negative cycle target or an empty width
   range would otherwise surface only as NaN deep inside Power_model. *)
let validate_config c =
  let module Diag = Dcopt_util.Diag in
  let diags = ref [] in
  let diagf ~code fmt =
    Printf.ksprintf (fun m -> diags := Diag.error ~code m :: !diags) fmt
  in
  if not (Float.is_finite c.clock_frequency && c.clock_frequency > 0.0) then
    diagf ~code:"config.physics"
      "clock_frequency must be a positive finite frequency (got %g; the \
       cycle target 1/fc would be zero, negative or undefined)"
      c.clock_frequency;
  if
    not
      (Float.is_finite c.input_probability
      && c.input_probability >= 0.0
      && c.input_probability <= 1.0)
  then
    diagf ~code:"config.range" "input_probability must lie in [0, 1] (got %g)"
      c.input_probability;
  if not (Float.is_finite c.input_density && c.input_density >= 0.0) then
    diagf ~code:"config.range"
      "input_density must be a non-negative finite transition count (got %g)"
      c.input_density;
  if
    not
      (Float.is_finite c.skew_factor
      && c.skew_factor > 0.0
      && c.skew_factor <= 1.0)
  then
    diagf ~code:"config.range" "skew_factor must lie in (0, 1] (got %g)"
      c.skew_factor;
  if c.m_steps < 1 then
    diagf ~code:"config.range" "m_steps must be >= 1 (got %d)" c.m_steps;
  (match c.engine with
  | First_order | Exact_when_small -> ()
  | Windowed window ->
    if window < 1 then
      diagf ~code:"config.range" "engine window must be >= 1 (got %d)" window
  | Monte_carlo { vectors; _ } ->
    if vectors < 1 then
      diagf ~code:"config.range" "engine vectors must be >= 1 (got %d)" vectors
  | Sequential_trace { cycles; _ } ->
    if cycles < 1 then
      diagf ~code:"config.range" "engine cycles must be >= 1 (got %d)" cycles);
  List.iter
    (fun msg -> diags := Diag.error ~code:"config.tech" msg :: !diags)
    (Dcopt_device.Tech.validate_all c.tech);
  List.rev !diags

type prepared = {
  config : config;
  core : Circuit.t;
  profile : Activity.profile;
  used_exact_activity : bool;
  env : Power_model.env;
  budget : Delay_assign.t;
}

let engine_name = function
  | First_order -> "first-order"
  | Exact_when_small -> "exact-when-small"
  | Windowed _ -> "windowed"
  | Monte_carlo _ -> "monte-carlo"
  | Sequential_trace _ -> "sequential-trace"

let prepare ?(config = default_config) ?constraints circuit =
  (match Dcopt_util.Diag.errors (validate_config config) with
  | [] -> ()
  | errors ->
    invalid_arg
      ("Flow.prepare: ill-posed configuration\n"
      ^ Dcopt_util.Diag.render errors));
  (* The legacy scalar cycle target becomes a one-clock constraint set
     here — every caller migrates through this compatibility
     constructor, and the scalar shape keeps the downstream fast paths
     bit-identical. *)
  let constraints =
    match constraints with
    | Some c -> c
    | None -> Constraints.of_cycle_time (1.0 /. config.clock_frequency)
  in
  Span.with_ "flow.prepare" ~args:[ ("circuit", Circuit.name circuit) ]
  @@ fun () ->
  let core =
    Span.with_ "core-extraction" (fun () -> Circuit.combinational_core circuit)
  in
  let sequential_profile cycles seed =
    let r =
      Dcopt_sim.Seq_sim.simulate ~seed ~cycles
        ~input_probability:config.input_probability
        ~input_density:config.input_density circuit
    in
    Dcopt_sim.Seq_sim.profile r
  in
  let specs =
    Activity.uniform_inputs core ~probability:config.input_probability
      ~density:config.input_density
  in
  let profile, used_exact_activity =
    Span.with_ "activity" ~args:[ ("engine", engine_name config.engine) ]
    @@ fun () ->
    match config.engine with
    | First_order -> (Activity.local_profile core specs, false)
    | Exact_when_small ->
      (match Activity.exact_profile core specs with
      | Some p -> (p, true)
      | None -> (Activity.local_profile core specs, false))
    | Windowed window ->
      (Activity.windowed_profile ~window core specs, false)
    | Monte_carlo { vectors; seed } ->
      let local = Activity.local_profile core specs in
      let measured =
        Dcopt_sim.Event_sim.monte_carlo_activity core
          ~rng:(Dcopt_util.Prng.create seed) ~vectors
          ~input_probability:config.input_probability
          ~input_density:config.input_density
      in
      ( { local with
          Activity.densities = measured.Dcopt_sim.Event_sim.densities },
        false )
    | Sequential_trace { cycles; seed } ->
      (sequential_profile cycles seed, false)
  in
  let env =
    Span.with_ "wire-load" (fun () ->
        Power_model.make_env
          ~include_short_circuit:config.include_short_circuit ~constraints
          ~tech:config.tech ~fc:config.clock_frequency core profile)
  in
  let budget =
    Span.with_ "budgeting" (fun () ->
        Delay_assign.assign ~skew_factor:config.skew_factor ~constraints core
          ~cycle_time:(1.0 /. config.clock_frequency))
  in
  Log.info (fun m ->
      m "prepared %s: %d gates, depth %d, fc %.0f MHz, %d paths budgeted, %d dead gates on the fallback, %d slope-lifted"
        (Circuit.name core) (Circuit.gate_count core) (Circuit.depth core)
        (config.clock_frequency /. 1e6)
        budget.Delay_assign.paths_used budget.Delay_assign.fallback_gates
        budget.Delay_assign.slope_adjusted);
  { config; core; profile; used_exact_activity; env; budget }

let budgets p = p.budget.Delay_assign.t_max

let repaired_budgets p ~vt =
  let tech = p.config.tech in
  match
    Budget_repair.repair p.env ~budgets:(budgets p) ~vdd:tech.Tech.vdd_max ~vt
  with
  | Budget_repair.Repaired { budgets; lifted; iterations } ->
    Log.debug (fun m ->
        m "budget repair at vt=%.0f mV: %d gates lifted in %d iterations"
          (vt *. 1000.0) lifted iterations);
    Some budgets
  | Budget_repair.Infeasible { limiting_gate } ->
    Log.warn (fun m ->
        m "cycle time unreachable at vt=%.0f mV (limiting gate %s)"
          (vt *. 1000.0)
          (Circuit.node p.core limiting_gate).Circuit.name);
    None

let fast_budgets p = repaired_budgets p ~vt:p.config.tech.Tech.vt_min

(* Every budget-constrained optimizer is the same pipeline: an
   "optimize" span around Budget_repair at the right corner and the
   search itself. The per-optimizer run_* wrappers this module used to
   export are gone — dispatch goes through the {!Optimizer} registry,
   whose builtins are built on this helper. *)
let run_with_budgets ~name ?vt p search =
  Span.with_ "optimize" ~args:[ ("optimizer", name) ] @@ fun () ->
  let budgets =
    Span.with_ "budget-repair" (fun () ->
        match vt with Some vt -> repaired_budgets p ~vt | None -> fast_budgets p)
  in
  match budgets with
  | None -> None
  | Some budgets -> Span.with_ "search" (fun () -> search budgets)

let constraints p = Power_model.constraints p.env

(* ------------------------------------------------------------------ *)
(* Config JSON (schema version 1). [config_of_json] reads a partial
   object over a base configuration, so service job specs can override
   only the fields they care about; unknown keys are typed errors. *)

module Json = Dcopt_util.Json

let json_schema_version = 1

let engine_to_json = function
  | First_order -> Json.Obj [ ("kind", Json.String "first-order") ]
  | Exact_when_small -> Json.Obj [ ("kind", Json.String "exact-when-small") ]
  | Windowed window ->
    Json.Obj [ ("kind", Json.String "windowed"); ("window", Json.Int window) ]
  | Monte_carlo { vectors; seed } ->
    Json.Obj
      [
        ("kind", Json.String "monte-carlo");
        ("vectors", Json.Int vectors);
        ("seed", Json.String (Int64.to_string seed));
      ]
  | Sequential_trace { cycles; seed } ->
    Json.Obj
      [
        ("kind", Json.String "sequential-trace");
        ("cycles", Json.Int cycles);
        ("seed", Json.String (Int64.to_string seed));
      ]

let config_to_json c =
  Json.Obj
    [
      ("version", Json.Int json_schema_version);
      ("tech", Dcopt_device.Tech_io.to_json c.tech);
      ("clock_frequency", Json.Float c.clock_frequency);
      ("input_probability", Json.Float c.input_probability);
      ("input_density", Json.Float c.input_density);
      ("engine", engine_to_json c.engine);
      ("skew_factor", Json.Float c.skew_factor);
      ("m_steps", Json.Int c.m_steps);
      ("include_short_circuit", Json.Bool c.include_short_circuit);
    ]

let ( let* ) = Result.bind

let engine_of_json json =
  let int_field name =
    match Json.field name json with
    | Some v -> (
      match Json.get_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "engine: %S must be an integer" name))
    | None -> Error (Printf.sprintf "engine: missing field %S" name)
  in
  let seed_field () =
    match Json.field "seed" json with
    | Some (Json.String s) -> (
      match Int64.of_string_opt s with
      | Some v -> Ok v
      | None -> Error "engine: seed is not an integer")
    | Some (Json.Int i) -> Ok (Int64.of_int i)
    | Some _ -> Error "engine: seed must be an integer or string"
    | None -> Error "engine: missing field \"seed\""
  in
  match Option.bind (Json.field "kind" json) Json.get_string with
  | None -> Error "engine: expected an object with a \"kind\" string"
  | Some "first-order" -> Ok First_order
  | Some "exact-when-small" -> Ok Exact_when_small
  | Some "windowed" ->
    let* window = int_field "window" in
    Ok (Windowed window)
  | Some "monte-carlo" ->
    let* vectors = int_field "vectors" in
    let* seed = seed_field () in
    Ok (Monte_carlo { vectors; seed })
  | Some "sequential-trace" ->
    let* cycles = int_field "cycles" in
    let* seed = seed_field () in
    Ok (Sequential_trace { cycles; seed })
  | Some kind -> Error (Printf.sprintf "engine: unknown kind %S" kind)

let config_of_json ?(base = default_config) json =
  match Json.get_obj json with
  | None -> Error "config: expected a JSON object"
  | Some members ->
    let float_of name v =
      match Json.get_float v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "config: %S must be a number" name)
    in
    let rec apply config = function
      | [] -> Ok config
      | (key, v) :: rest ->
        let* config =
          match key with
          | "version" -> (
            match Json.get_int v with
            | Some n when n = json_schema_version -> Ok config
            | Some n ->
              Error (Printf.sprintf "config: unsupported version %d" n)
            | None -> Error "config: version must be an integer")
          | "tech" ->
            let* tech =
              Result.map_error (( ^ ) "config: ")
                (Dcopt_device.Tech_io.of_json ~base:config.tech v)
            in
            Ok { config with tech }
          | "clock_frequency" ->
            let* f = float_of key v in
            Ok { config with clock_frequency = f }
          | "input_probability" ->
            let* f = float_of key v in
            Ok { config with input_probability = f }
          | "input_density" ->
            let* f = float_of key v in
            Ok { config with input_density = f }
          | "engine" ->
            let* engine =
              Result.map_error (( ^ ) "config: ") (engine_of_json v)
            in
            Ok { config with engine }
          | "skew_factor" ->
            let* f = float_of key v in
            Ok { config with skew_factor = f }
          | "m_steps" -> (
            match Json.get_int v with
            | Some m when m >= 1 -> Ok { config with m_steps = m }
            | Some _ -> Error "config: m_steps must be >= 1"
            | None -> Error "config: m_steps must be an integer")
          | "include_short_circuit" -> (
            match Json.get_bool v with
            | Some b -> Ok { config with include_short_circuit = b }
            | None -> Error "config: include_short_circuit must be a boolean")
          | key -> Error (Printf.sprintf "config: unknown field %S" key)
        in
        apply config rest
    in
    let* config = apply base members in
    (match Dcopt_util.Diag.errors (validate_config config) with
    | [] -> Ok config
    | errors ->
      Error
        ("config: "
        ^ String.concat "; "
            (List.map (fun d -> d.Dcopt_util.Diag.message) errors)))

let report p sol =
  Printf.sprintf "circuit %s (%d gates, depth %d)\n%s"
    (Circuit.name p.core) (Circuit.gate_count p.core) (Circuit.depth p.core)
    (Solution.describe p.env sol)
