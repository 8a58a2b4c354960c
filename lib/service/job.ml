module Json = Dcopt_util.Json
module Solution = Dcopt_opt.Solution
module Text_table = Dcopt_util.Text_table
module Si = Dcopt_util.Si

type t = {
  id : string option;
  circuit : string;
  optimizer : string;
  config : Json.t option;
  scenarios : Json.t option;
  timeout_s : float option;
  retries : int;
}

let make ?id ?(optimizer = "joint") ?config ?scenarios ?timeout_s
    ?(retries = 0) circuit =
  { id; circuit; optimizer; config; scenarios; timeout_s; retries }

let to_json j =
  Json.Obj
    ((match j.id with Some id -> [ ("id", Json.String id) ] | None -> [])
    @ [ ("circuit", Json.String j.circuit);
        ("optimizer", Json.String j.optimizer) ]
    @ (match j.config with Some c -> [ ("config", c) ] | None -> [])
    @ (match j.scenarios with Some s -> [ ("scenarios", s) ] | None -> [])
    @ (match j.timeout_s with
      | Some s -> [ ("timeout_s", Json.Float s) ]
      | None -> [])
    @ if j.retries <> 0 then [ ("retries", Json.Int j.retries) ] else [])

let ( let* ) = Result.bind

let of_json json =
  match Json.get_obj json with
  | None -> Error "job spec must be a JSON object"
  | Some members ->
    let* () =
      List.fold_left
        (fun acc (name, _) ->
          let* () = acc in
          match name with
          | "id" | "circuit" | "optimizer" | "config" | "scenarios"
          | "timeout_s" | "retries" ->
            Ok ()
          | other -> Error (Printf.sprintf "unknown job field %S" other))
        (Ok ()) members
    in
    let str name =
      match Json.field name json with
      | None -> Ok None
      | Some v -> (
        match Json.get_string v with
        | Some s -> Ok (Some s)
        | None -> Error (Printf.sprintf "job field %S must be a string" name))
    in
    let* id = str "id" in
    let* circuit = str "circuit" in
    let* circuit =
      match circuit with
      | Some c -> Ok c
      | None -> Error "job spec is missing \"circuit\""
    in
    let* optimizer = str "optimizer" in
    let optimizer = Option.value optimizer ~default:"joint" in
    let* timeout_s =
      match Json.field "timeout_s" json with
      | None -> Ok None
      | Some v -> (
        match Json.get_float v with
        | Some s when s > 0.0 -> Ok (Some s)
        | Some _ -> Error "job field \"timeout_s\" must be positive"
        | None -> Error "job field \"timeout_s\" must be a number")
    in
    let* retries =
      match Json.field "retries" json with
      | None -> Ok 0
      | Some v -> (
        match Json.get_int v with
        | Some n when n >= 0 -> Ok n
        | _ -> Error "job field \"retries\" must be a non-negative integer")
    in
    let config = Json.field "config" json in
    let* scenarios =
      match Json.field "scenarios" json with
      | None -> Ok None
      | Some v -> (
        match Json.get_obj v with
        | Some _ -> Ok (Some v)
        | None -> Error "job field \"scenarios\" must be an object")
    in
    Ok { id; circuit; optimizer; config; scenarios; timeout_s; retries }

type outcome =
  | Solved of Solution.t
  | Infeasible
  | Failed of { error : string; attempts : int }

(* The store/checkpoint value format (Failed outcomes are never written):
   shared by the result cache and the batch checkpoint so a resumed batch
   replays exactly what the interrupted one computed. *)
let outcome_to_store_json = function
  | Solved sol ->
    Some
      (Json.Obj
         [
           ("version", Json.Int 1);
           ("status", Json.String "solved");
           ("solution", Solution.to_json sol);
         ])
  | Infeasible ->
    Some
      (Json.Obj
         [ ("version", Json.Int 1); ("status", Json.String "infeasible") ])
  | Failed _ -> None

let outcome_of_store_json doc =
  match Option.bind (Json.field "status" doc) Json.get_string with
  | Some "infeasible" -> Some Infeasible
  | Some "solved" -> (
    match Json.field "solution" doc with
    | None -> None
    | Some s -> (
      match Solution.of_json s with
      | Ok sol -> Some (Solved sol)
      | Error _ -> None))
  | _ -> None

type row = {
  job_id : string;
  row_circuit : string;
  row_optimizer : string;
  digest : string;
  cache_hit : bool;
  outcome : outcome;
}

let row ?job ?(digest = "") ?(cache_hit = false) ~job_id outcome =
  let row_circuit, row_optimizer =
    match job with Some j -> (j.circuit, j.optimizer) | None -> ("", "")
  in
  { job_id; row_circuit; row_optimizer; digest; cache_hit; outcome }

let row_to_json r =
  Json.Obj
    ([
       ("id", Json.String r.job_id);
       ("circuit", Json.String r.row_circuit);
       ("optimizer", Json.String r.row_optimizer);
       ("digest", Json.String r.digest);
       ("cache_hit", Json.Bool r.cache_hit);
     ]
    @
    match r.outcome with
    | Solved sol ->
      [ ("status", Json.String "solved"); ("solution", Solution.to_json sol) ]
    | Infeasible -> [ ("status", Json.String "infeasible") ]
    | Failed { error; attempts } ->
      [
        ("status", Json.String "failed");
        ("error", Json.String error);
        ("attempts", Json.Int attempts);
      ])

let row_of_json json =
  let req_str name =
    match Option.bind (Json.field name json) Json.get_string with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "result row: missing string %S" name)
  in
  let* job_id = req_str "id" in
  let* row_circuit = req_str "circuit" in
  let* row_optimizer = req_str "optimizer" in
  let* digest = req_str "digest" in
  let* cache_hit =
    match Option.bind (Json.field "cache_hit" json) Json.get_bool with
    | Some b -> Ok b
    | None -> Error "result row: missing bool \"cache_hit\""
  in
  let* status = req_str "status" in
  let* outcome =
    match status with
    | "solved" -> (
      match Json.field "solution" json with
      | None -> Error "result row: solved without \"solution\""
      | Some s ->
        let* sol = Solution.of_json s in
        Ok (Solved sol))
    | "infeasible" -> Ok Infeasible
    | "failed" ->
      let* error = req_str "error" in
      let attempts =
        Option.bind (Json.field "attempts" json) Json.get_int
        |> Option.value ~default:1
      in
      Ok (Failed { error; attempts })
    | other -> Error (Printf.sprintf "result row: unknown status %S" other)
  in
  Ok { job_id; row_circuit; row_optimizer; digest; cache_hit; outcome }

let render_rows rows =
  let table =
    Text_table.create
      ~headers:
        [ "Job"; "Circuit"; "Optimizer"; "Status"; "Cache"; "Energy/cycle";
          "Vdd (V)" ]
  in
  List.iter
    (fun r ->
      let status, energy, vdd =
        match r.outcome with
        | Solved sol ->
          ( "solved",
            Si.format ~unit:"J" (Solution.total_energy sol),
            Printf.sprintf "%.2f" (Solution.vdd sol) )
        | Infeasible -> ("infeasible", "-", "-")
        | Failed { attempts; _ } ->
          (Printf.sprintf "failed (%d attempts)" attempts, "-", "-")
      in
      Text_table.add_row table
        [
          r.job_id; r.row_circuit; r.row_optimizer; status;
          (if r.cache_hit then "hit" else "miss");
          energy; vdd;
        ])
    rows;
  Text_table.render table
