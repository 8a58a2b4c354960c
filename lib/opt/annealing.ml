module Tech = Dcopt_device.Tech
module Prng = Dcopt_util.Prng
module Numeric = Dcopt_util.Numeric

type options = { passes : int; moves_per_pass : int }

let default_options = { passes = 3; moves_per_pass = 4000 }

(* The paper's one fixed setting: every run starts from this seed and
   temperature, and the geometric cooling reaches 1e-3 of it at the end of
   each pass. *)
let seed = 0x5EEDL
let initial_temperature = 0.5

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
let run_pass ?record env ~options rng =
  let tech = Power_model.tech env in
  let gates = Power_model.unsafe_gate_ids env in
  let vt0 = 0.5 *. (tech.Tech.vt_min +. tech.Tech.vt_max) in
  (* the paper's setting: a cold mid-range start the walk must shape *)
  let start =
    Power_model.uniform_design env ~vdd:(0.6 *. tech.Tech.vdd_max) ~vt:vt0
      ~w:(sqrt (tech.Tech.w_min *. tech.Tech.w_max))
  in
  let cooling = exp (log 1e-3 /. float_of_int options.moves_per_pass) in
  (* The walk lives in one incremental state: a move mutates it in place,
     an acceptance commits, a rejection rolls back — width moves (60% of
     the mix) cost O(affected cone) instead of a full evaluation. *)
  (* A degenerate start (vt at or above vdd) cannot even be evaluated:
     Incr.create raises Guard.Non_finite, and the surrounding
     Guard.protect turns the whole pass into None instead of a crash. *)
  Guard.protect @@ fun () ->
  let inc = Power_model.Incr.create env (copy_design start) in
  let current_cost = ref (incr_cost env inc) in
  let best = ref None in
  let temperature = ref initial_temperature in
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

let optimize ?observer ?(options = default_options) env =
  let rng = Prng.create seed in
  let passes = max 0 options.passes in
  (* Split one rng per pass up front, in pass order — the same streams a
     sequential loop would hand each pass — so the restarts are
     independent and can run on the Par pool. *)
  let rngs = Array.make passes rng in
  for i = 0 to passes - 1 do
    rngs.(i) <- Prng.split rng
  done;
  let buffers = Array.init passes (fun _ -> ref []) in
  let results =
    Dcopt_par.Par.map ~site:"annealing.passes"
      (fun i ->
        let record =
          match observer with
          | None -> None
          | Some _ -> Some (fun it -> buffers.(i) := it :: !(buffers.(i)))
        in
        run_pass ?record env ~options rngs.(i))
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
