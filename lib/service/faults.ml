module Json = Dcopt_util.Json
module Metrics = Dcopt_obs.Metrics
module Events = Dcopt_obs.Events

let fired_c =
  Metrics.counter ~help:"Injected faults fired (all sites)" "faults.fired"

let wire_c =
  Metrics.counter ~help:"Injected faults fired at wire.* sites" "faults.wire"

let store_c =
  Metrics.counter ~help:"Injected faults fired at store.* sites" "faults.store"

let worker_c =
  Metrics.counter ~help:"Injected faults fired at worker.* sites"
    "faults.worker"

let clock_c =
  Metrics.counter ~help:"Injected faults fired at clock.* sites" "faults.clock"

type action =
  | Drop
  | Delay of float
  | Truncate of int
  | Corrupt
  | Stall of float
  | Exit
  | Kill
  | Enospc
  | Eio
  | Short of int
  | Jump of float

type which = Nth of int | Every

type entry = {
  e_role : string option;
  e_site : string;
  e_which : which;
  e_action : action;
}

type plan = { seed : int64; entries : entry list }

let action_to_string = function
  | Drop -> "drop"
  | Delay s -> Printf.sprintf "delay=%g" s
  | Truncate n -> Printf.sprintf "truncate=%d" n
  | Corrupt -> "corrupt"
  | Stall s -> Printf.sprintf "stall=%g" s
  | Exit -> "exit"
  | Kill -> "kill"
  | Enospc -> "enospc"
  | Eio -> "eio"
  | Short n -> Printf.sprintf "short=%d" n
  | Jump s -> Printf.sprintf "jump=%g" s

(* The sites the injection seams publish. Parsing validates against this
   list so a typo in a plan is a loud error, not a fault that never
   fires. *)
let sites =
  [
    "wire.send.hello";
    "wire.send.heartbeat";
    "wire.send.result";
    "wire.send.job";
    "wire.send.shutdown";
    "wire.send.refused";
    "worker.job";
    "worker.result";
    "store.put";
    "store.find";
    "clock.tick";
  ]

let ( let* ) = Result.bind

let parse_action s =
  let name, arg =
    match String.index_opt s '=' with
    | None -> (s, None)
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  let no_arg a =
    match arg with
    | None -> Ok a
    | Some _ -> Error (Printf.sprintf "action %S takes no argument" name)
  in
  let float_arg mk what =
    match Option.map float_of_string_opt arg with
    | Some (Some f) when f >= 0.0 -> Ok (mk f)
    | _ -> Error (Printf.sprintf "action %S needs =%s (seconds >= 0)" name what)
  in
  let int_arg mk =
    match Option.map int_of_string_opt arg with
    | Some (Some n) when n >= 0 -> Ok (mk n)
    | _ -> Error (Printf.sprintf "action %S needs =N (bytes >= 0)" name)
  in
  match name with
  | "drop" -> no_arg Drop
  | "delay" -> float_arg (fun f -> Delay f) "SECONDS"
  | "truncate" -> int_arg (fun n -> Truncate n)
  | "corrupt" -> no_arg Corrupt
  | "stall" -> float_arg (fun f -> Stall f) "SECONDS"
  | "exit" -> no_arg Exit
  | "kill" -> no_arg Kill
  | "enospc" -> no_arg Enospc
  | "eio" -> no_arg Eio
  | "short" -> int_arg (fun n -> Short n)
  | "jump" ->
    (* the one action whose argument may be negative: jump backwards *)
    (match Option.map float_of_string_opt arg with
    | Some (Some f) -> Ok (Jump f)
    | _ -> Error "action \"jump\" needs =SECONDS")
  | other -> Error (Printf.sprintf "unknown action %S" other)

let parse_entry s =
  let role, rest =
    match String.index_opt s '/' with
    | Some i ->
      (Some (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))
    | None -> (None, s)
  in
  let* site, occ_action =
    match String.index_opt rest '@' with
    | Some i ->
      Ok
        ( String.sub rest 0 i,
          String.sub rest (i + 1) (String.length rest - i - 1) )
    | None -> Error (Printf.sprintf "%S: expected site@occurrence:action" s)
  in
  let* () =
    if List.mem site sites then Ok ()
    else
      Error
        (Printf.sprintf "unknown site %S (sites: %s)" site
           (String.concat ", " sites))
  in
  let* occ, action_s =
    match String.index_opt occ_action ':' with
    | Some i ->
      Ok
        ( String.sub occ_action 0 i,
          String.sub occ_action (i + 1) (String.length occ_action - i - 1) )
    | None -> Error (Printf.sprintf "%S: expected site@occurrence:action" s)
  in
  let* which =
    if occ = "*" then Ok Every
    else
      match int_of_string_opt occ with
      | Some n when n >= 1 -> Ok (Nth n)
      | _ ->
        Error
          (Printf.sprintf "occurrence %S must be a 1-based integer or '*'" occ)
  in
  let* action = parse_action action_s in
  (match role with
  | Some "" -> Error (Printf.sprintf "%S: empty role guard" s)
  | _ -> Ok ())
  |> Result.map (fun () ->
         { e_role = role; e_site = site; e_which = which; e_action = action })

let parse spec =
  let parts =
    List.filter
      (fun p -> String.trim p <> "")
      (String.split_on_char ';' spec)
  in
  if parts = [] then Error "empty fault plan"
  else
    let rec go seed entries = function
      | [] -> Ok { seed; entries = List.rev entries }
      | p :: tl -> (
        let p = String.trim p in
        match
          if String.length p > 5 && String.sub p 0 5 = "seed=" then
            match
              Int64.of_string_opt (String.sub p 5 (String.length p - 5))
            with
            | Some s -> Ok (`Seed s)
            | None -> Error (Printf.sprintf "%S: seed must be an integer" p)
          else Result.map (fun e -> `Entry e) (parse_entry p)
        with
        | Ok (`Seed s) -> go s entries tl
        | Ok (`Entry e) -> go seed (e :: entries) tl
        | Error _ as e -> e)
    in
    go 0L [] parts

(* --- runtime ----------------------------------------------------------- *)

(* One armed plan per process. Occurrence counters are per (process,
   site): a worker's heartbeat thread and its main loop hit different
   sites, but the mutex keeps the counters safe regardless of which
   thread fires. *)
let lock = Mutex.create ()
let armed : plan option ref = ref None
let counts : (string, int) Hashtbl.t = Hashtbl.create 16
let role = ref "coord"

let arm plan =
  Mutex.lock lock;
  armed := Some plan;
  Hashtbl.reset counts;
  Mutex.unlock lock

let disarm () =
  Mutex.lock lock;
  armed := None;
  Hashtbl.reset counts;
  Mutex.unlock lock

let set_role r = role := r

let arm_from_env () =
  match Sys.getenv_opt "DCOPT_FAULT_PLAN" with
  | None -> ()
  | Some spec -> (
    match parse spec with
    | Ok plan -> arm plan
    | Error msg ->
      Events.warn "fault.plan_invalid"
        ~fields:
          [ ("plan", Json.String spec); ("error", Json.String msg) ])

let class_counter site =
  if String.length site >= 5 && String.sub site 0 5 = "wire." then Some wire_c
  else if String.length site >= 6 && String.sub site 0 6 = "store." then
    Some store_c
  else if String.length site >= 7 && String.sub site 0 7 = "worker." then
    Some worker_c
  else if String.length site >= 6 && String.sub site 0 6 = "clock." then
    Some clock_c
  else None

let fire site =
  match !armed with
  | None -> []
  | Some plan ->
    Mutex.lock lock;
    let occ = 1 + Option.value ~default:0 (Hashtbl.find_opt counts site) in
    Hashtbl.replace counts site occ;
    Mutex.unlock lock;
    let hits =
      List.filter
        (fun e ->
          e.e_site = site
          && (match e.e_role with None -> true | Some r -> r = !role)
          && match e.e_which with Every -> true | Nth n -> n = occ)
        plan.entries
    in
    List.iter
      (fun e ->
        Metrics.incr fired_c;
        (match class_counter site with
        | Some c -> Metrics.incr c
        | None -> ());
        Events.warn "fault.fired"
          ~fields:
            [
              ("site", Json.String site);
              ("occurrence", Json.Int occ);
              ("action", Json.String (action_to_string e.e_action));
            ])
      hits;
    List.map (fun e -> e.e_action) hits

(* Deterministic single-byte corruption: the flipped position depends
   only on the plan seed and the bytes themselves, so the same plan over
   the same frames corrupts identically, run after run. The final byte
   (the frame newline) is never touched — corruption must damage the
   frame, not split it. *)
let corrupt_string s =
  let n = String.length s in
  if n < 2 then s
  else begin
    let seed = match !armed with Some p -> p.seed | None -> 0L in
    let i = Hashtbl.hash (seed, s) mod (n - 1) in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
    Bytes.to_string b
  end
