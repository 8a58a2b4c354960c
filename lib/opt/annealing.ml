module Tech = Dcopt_device.Tech
module Prng = Dcopt_util.Prng
module Numeric = Dcopt_util.Numeric

type options = {
  passes : int;
  moves_per_pass : int;
  initial_temperature : float;
  cooling : float;
  seed : int64;
  warm_start : bool;
  checkpoint : string option;
}

let default_options =
  {
    passes = 3;
    moves_per_pass = 4000;
    initial_temperature = 0.5;
    cooling = 0.0; (* 0 = derive from moves_per_pass at run time *)
    seed = 0x5EEDL;
    warm_start = false;
    checkpoint = None;
  }

(* Log-energy cost with a steep timing penalty, so the walk can cross
   mildly-infeasible territory but cannot settle there. *)
let incr_cost env inc =
  let tc = Power_model.cycle_time env in
  let overshoot =
    Float.max 0.0 ((Power_model.Incr.critical_delay inc -. tc) /. tc)
  in
  log (Power_model.Incr.total_energy inc) +. (50.0 *. overshoot)

let copy_design d =
  {
    d with
    Power_model.vt = Array.copy d.Power_model.vt;
    widths = Array.copy d.Power_model.widths;
  }

(* Apply one random move to the incremental state (commit/rollback decide
   its fate). Width moves — the bulk of the walk — re-evaluate only the
   touched cone; the two global moves fall back to a full sweep inside the
   engine. [gates] is the env's gate-id array, hoisted out of the move
   loop (no per-move copy). *)
let perturb inc gates rng temperature =
  let env = Power_model.Incr.env inc in
  let design = Power_model.Incr.design inc in
  let tech = Power_model.tech env in
  let scale = Float.max 0.05 temperature in
  let choice = Prng.float rng 1.0 in
  if choice < 0.2 then
    let span = (tech.Tech.vdd_max -. tech.Tech.vdd_min) *. 0.2 *. scale in
    Power_model.Incr.set_vdd inc
      (Numeric.clamp ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max
         (Prng.gaussian rng ~mean:design.Power_model.vdd ~sigma:span))
  else if choice < 0.4 then begin
    let span = (tech.Tech.vt_max -. tech.Tech.vt_min) *. 0.2 *. scale in
    let vt0 = design.Power_model.vt.(gates.(0)) in
    Power_model.Incr.set_vt_uniform inc
      (Numeric.clamp ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max
         (Prng.gaussian rng ~mean:vt0 ~sigma:span))
  end
  else begin
    let id = gates.(Prng.int rng (Array.length gates)) in
    let factor = exp (Prng.gaussian rng ~mean:0.0 ~sigma:(0.4 *. scale)) in
    Power_model.Incr.set_width inc id
      (Numeric.clamp ~lo:tech.Tech.w_min ~hi:tech.Tech.w_max
         (design.Power_model.widths.(id) *. factor))
  end

(* [record] buffers one pass's telemetry (indexed 0..moves-1 within the
   pass); optimize renumbers and forwards the buffers to the observer in
   pass order, so the stream is identical whether passes ran sequentially
   or on the Par pool. *)
let run_pass ?record env ~budgets ~options rng =
  let tech = Power_model.tech env in
  let gates = Power_model.unsafe_gate_ids env in
  let n = Dcopt_netlist.Circuit.size (Power_model.circuit env) in
  let vt0 = 0.5 *. (tech.Tech.vt_min +. tech.Tech.vt_max) in
  let start =
    if options.warm_start then
      (* extension: start from a feasible sized design *)
      fst
        (Power_model.size_all env ~vdd:tech.Tech.vdd_max
           ~vt:(Array.make n vt0) ~budgets)
    else
      (* the paper's setting: a cold mid-range start the walk must shape *)
      Power_model.uniform_design env ~vdd:(0.6 *. tech.Tech.vdd_max) ~vt:vt0
        ~w:(sqrt (tech.Tech.w_min *. tech.Tech.w_max))
  in
  let cooling =
    if options.cooling > 0.0 then options.cooling
    else exp (log 1e-3 /. float_of_int options.moves_per_pass)
  in
  (* The walk lives in one incremental state: a move mutates it in place,
     an acceptance commits, a rejection rolls back — width moves (60% of
     the mix) cost O(affected cone) instead of a full evaluation. *)
  (* A degenerate start (vt at or above vdd) cannot even be evaluated:
     Incr.create raises Guard.Non_finite, and the surrounding
     Guard.protect turns the whole pass into None instead of a crash. *)
  Guard.protect ~site:"annealing.pass" @@ fun () ->
  let inc = Power_model.Incr.create env (copy_design start) in
  let current_cost = ref (incr_cost env inc) in
  let best = ref None in
  let temperature = ref options.initial_temperature in
  for move = 1 to options.moves_per_pass do
    match perturb inc gates rng !temperature with
    | exception Guard.Non_finite _ ->
      (* the move walked into non-finite territory: abandon it (state
         rolls back to the pre-move design) and keep cooling — the walk
         degrades gracefully instead of propagating NaN *)
      Guard.abort_trial ();
      Power_model.Incr.rollback inc;
      temperature := !temperature *. cooling
    | () ->
    let c = incr_cost env inc in
    (match record with
    | None -> ()
    | Some record ->
      let design = Power_model.Incr.design inc in
      record
        {
          Dcopt_obs.Telemetry.optimizer = "annealing";
          index = move - 1;
          vdd = design.Power_model.vdd;
          vt =
            (if Array.length gates = 0 then nan
             else design.Power_model.vt.(gates.(0)));
          static_energy = Power_model.Incr.static_energy inc;
          dynamic_energy = Power_model.Incr.dynamic_energy inc;
          total_energy = Power_model.Incr.total_energy inc;
          feasible = Power_model.Incr.feasible inc;
        });
    let accept =
      c <= !current_cost
      || Prng.float rng 1.0 < exp ((!current_cost -. c) /. !temperature)
    in
    if accept then begin
      Power_model.Incr.commit inc;
      current_cost := c;
      if Power_model.Incr.feasible inc then begin
        let improves =
          match !best with
          | None -> true
          | Some b ->
            Power_model.Incr.total_energy inc < Solution.total_energy b
        in
        (* same keep-the-best rule as [Solution.better], but the copies
           are only paid when the candidate actually wins *)
        if improves then
          best :=
            Some
              (Solution.of_evaluation ~label:"annealing" ~meets_budgets:false
                 (copy_design (Power_model.Incr.design inc))
                 (Power_model.Incr.snapshot inc))
      end
    end
    else Power_model.Incr.rollback inc;
    temperature := !temperature *. cooling
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Per-pass crash-safe checkpoints                                      *)

module Json = Dcopt_util.Json
module Metrics = Dcopt_obs.Metrics

let ckpt_hits_c =
  Metrics.counter ~help:"annealing passes resumed from a checkpoint"
    "anneal.checkpoint.hits"

let ckpt_writes_c =
  Metrics.counter ~help:"annealing pass checkpoints written"
    "anneal.checkpoint.writes"

let checkpoint_version = 1

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.is_directory path -> ()
  end

let pass_path dir i = Filename.concat dir (Printf.sprintf "pass%d.json" i)

(* The file carries the run's full identity — seed, every option that
   shapes the walk, and the pass's pre-split PRNG state — so a stale
   checkpoint (different options or seed) can never leak into a run. *)
let pass_doc ~options ~rng_state result =
  Json.Obj
    [
      ("version", Json.Int checkpoint_version);
      ("seed", Json.String (Int64.to_string options.seed));
      ("passes", Json.Int options.passes);
      ("moves_per_pass", Json.Int options.moves_per_pass);
      ("initial_temperature", Json.Float options.initial_temperature);
      ("cooling", Json.Float options.cooling);
      ("warm_start", Json.Bool options.warm_start);
      ("rng_state", Json.String (Int64.to_string rng_state));
      ( "result",
        match result with Some s -> Solution.to_json s | None -> Json.Null );
    ]

(* [Some result] when the file is present, parses, and matches the run's
   identity exactly; anything else — missing, corrupt, stale — means the
   pass must rerun. Identity is compared structurally on the rendered
   members (Json floats round-trip exactly, so this is bit-precise). *)
let pass_of_file ~options ~rng_state path =
  match Json.read_file path with
  | Error _ -> None
  | Ok doc -> (
    let expected = pass_doc ~options ~rng_state None in
    let identity j =
      match Json.get_obj j with
      | Some members -> List.filter (fun (k, _) -> k <> "result") members
      | None -> []
    in
    match identity doc = identity expected && identity doc <> [] with
    | false -> None
    | true -> (
      match Json.field "result" doc with
      | Some Json.Null -> Some None
      | Some s -> (
        match Solution.of_json s with
        | Ok sol -> Some (Some sol)
        | Error _ -> None)
      | None -> None))

let optimize ?observer ?(options = default_options) env ~budgets =
  let rng = Prng.create options.seed in
  let passes = max 0 options.passes in
  (* Split one rng per pass up front, in pass order — the same streams a
     sequential loop would hand each pass — so the restarts are
     independent and can run on the Par pool. *)
  let rngs = Array.make passes rng in
  for i = 0 to passes - 1 do
    rngs.(i) <- Prng.split rng
  done;
  (* pre-run states: the checkpoint identity of each pass *)
  let rng_states = Array.map Prng.state rngs in
  let resume =
    match options.checkpoint with
    | None -> Array.make passes None
    | Some dir ->
      mkdir_p dir;
      Array.init passes (fun i ->
          let r =
            pass_of_file ~options ~rng_state:rng_states.(i) (pass_path dir i)
          in
          if r <> None then Metrics.incr ckpt_hits_c;
          r)
  in
  let buffers = Array.init passes (fun _ -> ref []) in
  let results =
    Dcopt_par.Par.map ~site:"annealing.passes"
      (fun i ->
        match resume.(i) with
        | Some result -> result
        | None ->
          let record =
            match observer with
            | None -> None
            | Some _ -> Some (fun it -> buffers.(i) := it :: !(buffers.(i)))
          in
          let result = run_pass ?record env ~budgets ~options rngs.(i) in
          (match options.checkpoint with
          | None -> ()
          | Some dir ->
            (* written from the worker right as the pass completes (the
               pool barrier would lose end-of-batch writes to a SIGKILL);
               atomic tmp+rename, so a crash never leaves a torn file *)
            Json.write_file (pass_path dir i)
              (pass_doc ~options ~rng_state:rng_states.(i) result);
            Metrics.incr ckpt_writes_c);
          result)
      (Array.init passes Fun.id)
  in
  (* Sequential emission in pass order, move indices renumbered to the
     global stream a sequential run produces. *)
  (match observer with
  | None -> ()
  | Some obs ->
    Array.iteri
      (fun p buffer ->
        List.iter
          (fun it ->
            obs
              {
                it with
                Dcopt_obs.Telemetry.index =
                  (p * options.moves_per_pass) + it.Dcopt_obs.Telemetry.index;
              })
          (List.rev !buffer))
      buffers);
  Array.fold_left
    (fun best -> function
      | Some sol -> Solution.better best sol
      | None -> best)
    None results
