module Tech = Dcopt_device.Tech
module Telemetry = Dcopt_obs.Telemetry
module Metrics = Dcopt_obs.Metrics

let log_src = Logs.Src.create "dcopt.heuristic" ~doc:"Procedure-2 search"

module Log = (val Logs.src_log log_src : Logs.LOG)

type strategy = Paper_binary | Grid_refine

type options = {
  m_steps : int;
  strategy : strategy;
  vt_fixed : float option;
}

let default_options = { m_steps = 16; strategy = Paper_binary; vt_fixed = None }

let m_evaluations =
  Metrics.counter ~help:"full evaluations paid by Procedure-2 searches"
    "search.evaluations"

let evaluate env design =
  Metrics.incr m_evaluations;
  Power_model.evaluate env design

type trial = {
  design : Power_model.design;
  meets_budgets : bool;
  score : Solution.score;
  ok : bool;
  evaluation : Power_model.evaluation Lazy.t;
}

(* One trial at (vdd, vt). With [one_pass] (the search's certificate
   holds) the sweep scores the design, its verdict and energies are the
   evaluation's, and the evaluation waits until someone asks for it;
   otherwise the design is sized only and evaluated now. Pure, so grid
   scans run trials on the Par pool and emit sequentially afterwards. *)
let trial ~one_pass env ~budgets ~vdd ~vt =
  if one_pass then
    let s = Power_model.size_all env ~vdd ~vt ~budgets in
    let design = s.Power_model.design in
    let meets_budgets = s.Power_model.meets_budgets in
    {
      design;
      meets_budgets;
      score =
        {
          Solution.static_energy = s.Power_model.static_sum;
          dynamic_energy = s.Power_model.dynamic_sum;
          (* [evaluate] adds a short-circuit sum, 0.0 here *)
          total_energy =
            s.Power_model.static_sum +. s.Power_model.dynamic_sum +. 0.0;
        };
      ok = meets_budgets && s.Power_model.unclamped;
      evaluation = lazy (evaluate env design);
    }
  else
    let design, meets_budgets = Power_model.size_widths env ~vdd ~vt ~budgets in
    let e = evaluate env design in
    {
      design;
      meets_budgets;
      score =
        {
          Solution.static_energy = e.Power_model.static_energy;
          dynamic_energy = e.Power_model.dynamic_energy;
          total_energy = e.Power_model.total_energy;
        };
      ok = meets_budgets && e.Power_model.feasible;
      evaluation = Lazy.from_val e;
    }

let trials env ~budgets =
  let one_pass =
    match Power_model.certify_sweep env ~budgets with
    | Ok () -> true
    | Error reason ->
      Log.info (fun f -> f "evaluating every trial: %s" reason);
      false
  in
  trial ~one_pass env ~budgets

let solution ~label t =
  Solution.of_evaluation ~label ~meets_budgets:t.meets_budgets t.design
    (Lazy.force t.evaluation)

(* [evaluate]'s verdict: [ok] settles it for a trial that met its budgets
   (see [Power_model.certify_sweep]); only a budget-missing trial asks for
   the evaluation. *)
let feasible t =
  t.ok
  || ((not t.meets_budgets) && (Lazy.force t.evaluation).Power_model.feasible)

(* [Solution.better] on trials, asking for the verdict last. *)
let better best t =
  match best with
  | None -> if feasible t then Some t else None
  | Some current ->
    if t.score.Solution.total_energy < current.score.Solution.total_energy
       && feasible t
    then Some t
    else best

let vt_search ~run env ~vdd ~m ~vt_fixed =
  match vt_fixed with
  | Some vt -> Some (run ~vdd ~vt)
  | None ->
    let tech = Power_model.tech env in
    let best = ref None in
    let lo = ref tech.Tech.vt_min and hi = ref tech.Tech.vt_max in
    let prev_energy = ref infinity in
    for _ = 1 to m do
      let vt = 0.5 *. (!lo +. !hi) in
      let t = run ~vdd ~vt in
      let energy = t.score.Solution.total_energy in
      if t.ok then best := better !best t;
      (* Procedure 2: feasible and improving -> raise the threshold to cut
         leakage further; otherwise retreat to faster, lower thresholds. *)
      if t.ok && energy < !prev_energy then begin
        prev_energy := energy;
        lo := vt
      end
      else hi := vt
    done;
    !best

let paper_binary ~run env ~m ~vt_fixed =
  let tech = Power_model.tech env in
  let best = ref None in
  let lo = ref tech.Tech.vdd_min and hi = ref tech.Tech.vdd_max in
  let prev_energy = ref infinity in
  for _ = 1 to m do
    let vdd = 0.5 *. (!lo +. !hi) in
    let inner = vt_search ~run env ~vdd ~m ~vt_fixed in
    let ok, energy =
      match inner with
      | Some t ->
        best := better !best t;
        (t.ok, t.score.Solution.total_energy)
      | None -> (false, infinity)
    in
    if ok && energy < !prev_energy then begin
      prev_energy := energy;
      hi := vdd (* feasible and improving: push the supply lower *)
    end
    else lo := vdd
  done;
  !best

let grid_refine ~site ~n ~vt_max ~vt_fixed ~emit ~score ~make env =
  let tech = Power_model.tech env in
  (* The incumbent: the first trial of lowest admitted score, with its
     grid point. *)
  let best = ref None in
  let vt_points lo hi =
    match vt_fixed with
    | Some vt -> [| vt |]
    | None -> Dcopt_util.Numeric.linspace ~lo ~hi ~n
  in
  (* Grid points are independent trials: run them on the Par pool, then
     emit and fold the incumbent in scan order, so the trial stream and
     the chosen optimum are identical at any --jobs. *)
  let scan vdd_lo vdd_hi vt_lo vt_hi =
    let vdds = Dcopt_util.Numeric.log_interp_points ~lo:vdd_lo ~hi:vdd_hi ~n in
    let vts = vt_points vt_lo vt_hi in
    let points =
      Array.concat
        (Array.to_list
           (Array.map (fun vdd -> Array.map (fun vt -> (vdd, vt)) vts) vdds))
    in
    let results =
      Dcopt_par.Par.map ~site (fun (vdd, vt) -> make ~vdd ~vt) points
    in
    Array.iteri
      (fun i t ->
        let vdd, vt = points.(i) in
        emit ~vdd ~vt t;
        match (score t, !best) with
        | None, _ -> ()
        | Some e, Some (_, _, e0) when not (e < e0) -> ()
        | Some e, _ -> best := Some ((vdd, vt), t, e))
      results
  in
  scan tech.Tech.vdd_min tech.Tech.vdd_max tech.Tech.vt_min vt_max;
  (match !best with
  | None -> ()
  | Some ((vdd0, vt0), _, _) ->
    (* refine around the incumbent with a window one coarse step wide *)
    let span_vdd = (tech.Tech.vdd_max -. tech.Tech.vdd_min) /. float_of_int n in
    let span_vt = (vt_max -. tech.Tech.vt_min) /. float_of_int n in
    let clampv = Dcopt_util.Numeric.clamp in
    scan
      (clampv ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max (vdd0 -. span_vdd))
      (clampv ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max (vdd0 +. span_vdd))
      (clampv ~lo:tech.Tech.vt_min ~hi:vt_max (vt0 -. span_vt))
      (clampv ~lo:tech.Tech.vt_min ~hi:vt_max (vt0 +. span_vt)));
  Option.map (fun (_, t, _) -> t) !best

let optimize ?observer ?(options = default_options) env ~budgets =
  let m = max 4 options.m_steps in
  let trial = trials env ~budgets in
  let n = Dcopt_netlist.Circuit.size (Power_model.circuit env) in
  let make ~vdd ~vt = trial ~vdd ~vt:(Array.make n vt) in
  let trials = ref 0 in
  let emit ~vdd ~vt t =
    let index = !trials in
    incr trials;
    match observer with
    | None -> ()
    | Some obs ->
      obs
        {
          Telemetry.optimizer = "heuristic";
          index;
          vdd;
          vt;
          static_energy = t.score.Solution.static_energy;
          dynamic_energy = t.score.Solution.dynamic_energy;
          total_energy = t.score.Solution.total_energy;
          feasible = t.ok;
        }
  in
  let run ~vdd ~vt =
    let t = make ~vdd ~vt in
    emit ~vdd ~vt t;
    t
  in
  let vt_fixed = options.vt_fixed in
  (* Capped at m so the two coarse^2 scans keep the whole optimizer within
     its documented O(M^3)-sizings bound even when this runs as the
     fallback after a failed M^2-trial binary search (for every m >= 8 the
     cap is inactive and the grid is exactly the historical max 8 (m/2)). *)
  let grid () =
    grid_refine ~site:"heuristic.grid" ~n:(min m (max 8 (m / 2)))
      ~vt_max:(Power_model.tech env).Tech.vt_max ~vt_fixed ~emit
      ~score:(fun t -> if t.ok then Some t.score.Solution.total_energy else None)
      ~make env
  in
  let result =
    match options.strategy with
    | Paper_binary -> paper_binary ~run env ~m ~vt_fixed
    | Grid_refine -> grid ()
  in
  (* The binary search can start in an infeasible half-space and converge
     to nothing; fall back on the exhaustive scan before giving up. *)
  let result =
    match (result, options.strategy) with
    | None, Paper_binary -> grid ()
    | r, _ -> r
  in
  (* Procedure 2's complexity claim: M vdd steps x M vt steps around an
     M-step per-gate width search = O(M^3) sizings, i.e. at most M^2
     (vdd, vt) trials for the binary strategy and 3 M^2 with the capped
     grid fallback on top — never more than M^3 trials total. *)
  assert (!trials <= m * m * m);
  Option.map (solution ~label:"joint") result
