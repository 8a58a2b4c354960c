module Diag = Dcopt_util.Diag
module Json = Dcopt_util.Json
module Par = Dcopt_par.Par
module Power_model = Dcopt_opt.Power_model
module Solution = Dcopt_opt.Solution

type corner = { corner_name : string; vt_factor : float }

let nominal_corner = { corner_name = "nominal"; vt_factor = 1.0 }

type t = { prepared : Flow.prepared; corners : corner list }

let validate_corners corners =
  if corners = [] then invalid_arg "Scenario.make: empty corner list";
  List.iter
    (fun c ->
      if c.corner_name = "" then invalid_arg "Scenario.make: empty corner name";
      if (not (Float.is_finite c.vt_factor)) || c.vt_factor <= 0.0 then
        invalid_arg
          (Printf.sprintf "Scenario.make: corner %S has bad vt factor %g"
             c.corner_name c.vt_factor))
    corners;
  let names = List.map (fun c -> c.corner_name) corners in
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Scenario.make: duplicate corner name"

let of_prepared prepared = { prepared; corners = [ nominal_corner ] }

let make ?(corners = [ nominal_corner ]) prepared =
  validate_corners corners;
  { prepared; corners }

let worst_corner s =
  List.fold_left
    (fun worst c -> if c.vt_factor > worst.vt_factor then c else worst)
    (List.hd s.corners) (List.tl s.corners)

(* The legacy path must return the original record untouched: a 1.0
   stress factor is the multiplicative identity, but re-housing the env
   would still allocate, and identity-by-construction is easier to
   audit than identity-by-arithmetic. *)
let is_legacy s =
  match s.corners with [ c ] -> c.vt_factor = 1.0 | _ -> false

let prepared_view s =
  let worst = worst_corner s in
  if worst.vt_factor = 1.0 then s.prepared
  else
    { s.prepared with
      Flow.env = Power_model.with_vt_stress s.prepared.Flow.env worst.vt_factor
    }

let finalize ?jobs s sol =
  match sol with
  | None -> None
  | Some _ when is_legacy s -> sol
  | Some sol ->
    let base_env = s.prepared.Flow.env in
    let corners = Array.of_list s.corners in
    let evals =
      Par.map ?jobs ~site:"scenario.corners"
        (fun corner ->
          let env = Power_model.with_vt_stress base_env corner.vt_factor in
          Power_model.evaluate env sol.Solution.design)
        corners
    in
    let feasible =
      Array.for_all (fun e -> e.Power_model.feasible) evals
    in
    let objective = evals.(0) in
    let evaluation = { objective with Power_model.feasible } in
    Some
      (Solution.of_evaluation ~label:sol.Solution.label
         ~meets_budgets:sol.Solution.meets_budgets sol.Solution.design
         evaluation)

(* ------------------------------------------------------------------ *)
(* --corners specification *)

let preset_factor = function
  | "nominal" -> Some 1.0
  | "slow" -> Some 1.1
  | "leaky" | "fast" -> Some 0.9
  | _ -> None

let corners_of_spec spec =
  let file = "<command-line>" in
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if entries = [] then
    Error
      [
        Diag.error ~file ~code:"config.corners"
          "--corners: empty specification (expected e.g. \
           \"leaky,slow\" or \"hot:1.2\")";
      ]
  else
    let diags = ref [] in
    let parse entry =
      match String.index_opt entry ':' with
      | None -> (
        match preset_factor entry with
        | Some vt_factor -> Some { corner_name = entry; vt_factor }
        | None ->
          diags :=
            Diag.errorf ~file ~code:"config.corners"
              "--corners: unknown corner preset %S (known: nominal, slow, \
               leaky, fast; or name:factor)"
              entry
            :: !diags;
          None)
      | Some i ->
        let name = String.trim (String.sub entry 0 i) in
        let factor_s =
          String.trim (String.sub entry (i + 1) (String.length entry - i - 1))
        in
        let factor = Float.of_string_opt factor_s in
        (match factor with
        | Some f when Float.is_finite f && f > 0.0 && name <> "" ->
          Some { corner_name = name; vt_factor = f }
        | _ ->
          diags :=
            Diag.errorf ~file ~code:"config.corners"
              "--corners: bad entry %S (expected name:factor with factor > 0)"
              entry
            :: !diags;
          None)
    in
    let corners = List.filter_map parse entries in
    let names = List.map (fun c -> c.corner_name) corners in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then
      diags :=
        Diag.error ~file ~code:"config.corners"
          "--corners: duplicate corner name"
        :: !diags;
    match !diags with [] -> Ok corners | ds -> Error (List.rev ds)

(* ------------------------------------------------------------------ *)
(* The batch job [scenarios] field's corner list (the enclosing
   scenarios object carries the schema version). *)

let corners_of_json json =
  let ( let* ) = Result.bind in
  let* items =
    match json with
    | Json.List items -> Ok items
    | _ -> Error "scenario corners: expected a list"
  in
  let* corners =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let name =
          Option.bind (Json.field "name" item) Json.get_string
        in
        let factor =
          Option.bind (Json.field "vt_factor" item) Json.get_float
        in
        match (name, factor) with
        | Some corner_name, Some vt_factor
          when Float.is_finite vt_factor && vt_factor > 0.0 ->
          Ok ({ corner_name; vt_factor } :: acc)
        | _ -> Error "scenario corners: bad corner entry")
      (Ok []) items
  in
  let corners = List.rev corners in
  match validate_corners corners with
  | () -> Ok corners
  | exception Invalid_argument msg -> Error msg

let corners_digest_string corners =
  corners
  |> List.map (fun c ->
         Printf.sprintf "%s:%h" c.corner_name c.vt_factor)
  |> String.concat ","
