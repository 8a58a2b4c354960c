module Tech = Dcopt_device.Tech
module Numeric = Dcopt_util.Numeric
module Flat_sta = Dcopt_timing.Flat_sta

let classify env ~budgets ~classes =
  assert (classes >= 1);
  let circuit = Power_model.circuit env in
  let n = Dcopt_netlist.Circuit.size circuit in
  let tech = Power_model.tech env in
  let gates = Power_model.gate_ids env in
  (* Tightness: fast-corner delay relative to the budget, with a nominal
     width so loads are realistic. *)
  let vdd = tech.Tech.vdd_max and vt = tech.Tech.vt_min in
  let probe = Power_model.uniform_design env ~vdd ~vt ~w:4.0 in
  let ctx = Power_model.drive env ~vdd ~vt in
  let tightness =
    Array.map
      (fun id ->
        let mfd = Power_model.budget_fanin_delay env ~budgets id in
        let d = Power_model.gate_delay env ctx probe ~max_fanin_delay:mfd id in
        (id, d /. Float.max 1e-15 budgets.(id)))
      gates
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) tightness;
  let assignment = Array.make n 0 in
  let total = Array.length tightness in
  Array.iteri
    (fun rank (id, _) ->
      assignment.(id) <- min (classes - 1) (rank * classes / max 1 total))
    tightness;
  assignment

let vt_of_classes assignment class_vts n =
  Array.init n (fun id -> class_vts.(assignment.(id)))

(* Slack-driven promotion: gates are visited in decreasing achieved slack
   (computed once from the input design); each promotion is accepted only
   if the whole design still meets the cycle time, so shared-path
   interactions cannot break timing. The incremental engine re-times only
   the promoted gate's cone, with the bits a full evaluation gives. *)
let greedy ~(emit : Solution.emit) env solution =
  let tech = Power_model.tech env in
  let base = solution.Solution.design in
  let vt_low =
    match Solution.vt_values solution env with
    | v :: _ -> v
    | [] -> tech.Tech.vt_min
  in
  (* five high-threshold candidates, from 50 mV above the base to vt_max *)
  let candidates =
    Numeric.linspace
      ~lo:(Numeric.clamp ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max
             (vt_low +. 0.05))
      ~hi:tech.Tech.vt_max ~n:5
  in
  let tc = Power_model.cycle_time env in
  let best = ref solution in
  Array.iter
    (fun vt_high ->
      if vt_high > vt_low then begin
        let design =
          {
            base with
            Power_model.vt = Array.copy base.Power_model.vt;
            widths = base.Power_model.widths;
          }
        in
        (* slack per gate from the base design's achieved timing,
           against the env's per-endpoint constraints when it has any *)
        let eval = solution.Solution.evaluation in
        let sta =
          Flat_sta.analyze ~required_time:tc
            ?required_times:(Power_model.required_times env)
            ?arrival_offsets:(Power_model.arrival_offsets env)
            (Power_model.flat env) ~delays:eval.Power_model.delays
        in
        let order =
          Array.to_list (Power_model.gate_ids env)
          |> List.sort (fun a b ->
                 Float.compare
                   (Flat_sta.slack_of_endpoint sta b)
                   (Flat_sta.slack_of_endpoint sta a))
        in
        let promoted = ref 0 in
        (* a move that trips the guard would have evaluated infeasible *)
        (match Power_model.Incr.create env design with
         | exception Guard.Non_finite _ -> ()
         | inc ->
           List.iter
             (fun id ->
               match Power_model.Incr.set_vt inc id vt_high with
               | () when Power_model.Incr.feasible inc ->
                 Power_model.Incr.commit inc;
                 incr promoted
               | () | (exception Guard.Non_finite _) ->
                 Power_model.Incr.rollback inc)
             order);
        if !promoted > 0 then begin
          let sol =
            Solution.make ~label:"multi-vt"
              ~meets_budgets:solution.Solution.meets_budgets env design
          in
          emit ~vdd:design.Power_model.vdd ~vt:vt_low
            ~feasible:(Solution.feasible sol) (Some (Solution.score sol));
          match Solution.better (Some !best) sol with
          | Some b -> best := b
          | None -> ()
        end
      end)
    candidates;
  !best

let greedy_dual_vt env solution =
  greedy ~emit:(fun ~vdd:_ ~vt:_ ~feasible:_ _ -> ()) env solution

let optimize ?observer ?(m_steps = 12) ?(n_vt = 2) env ~budgets =
  assert (n_vt >= 1);
  let tech = Power_model.tech env in
  let circuit = Power_model.circuit env in
  let n = Dcopt_netlist.Circuit.size circuit in
  let inner, emit = Solution.trials ?observer "multi-vt" in
  let single =
    Heuristic.optimize ?observer:inner
      ~options:{ Heuristic.default_options with m_steps;
                 strategy = Heuristic.Grid_refine }
      env ~budgets
  in
  match single with
  | None -> None
  | Some incumbent when n_vt = 1 -> Some incumbent
  | Some incumbent ->
    let assignment = classify env ~budgets ~classes:n_vt in
    let vdd0 = Solution.vdd incumbent in
    let vt0 =
      match Solution.vt_values incumbent env with
      | v :: _ -> v
      | [] -> tech.Tech.vt_min
    in
    let class_vts = Array.make n_vt vt0 in
    let trial = Heuristic.trials env ~budgets in
    (* a trial incumbent is evaluated only if it is returned *)
    let best = ref (Either.Left { incumbent with Solution.label = "multi-vt" }) in
    let best_energy () =
      match !best with
      | Either.Left sol -> Solution.total_energy sol
      | Either.Right t -> t.Heuristic.score.Solution.total_energy
    in
    let try_design vdd =
      let vt = vt_of_classes assignment class_vts n in
      let t = trial ~vdd ~vt in
      emit ~vdd
        ~vt:(Array.fold_left Float.min infinity class_vts)
        ~feasible:t.Heuristic.ok (Some t.Heuristic.score);
      if t.Heuristic.ok && t.Heuristic.score.Solution.total_energy < best_energy ()
      then best := Either.Right t;
      t
    in
    (* Coordinate descent on the class thresholds at the incumbent supply:
       critical classes explore downward from vt0, slack classes upward. *)
    let rounds = 2 in
    for _ = 1 to rounds do
      for c = 0 to n_vt - 1 do
        let candidates =
          Numeric.linspace ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max ~n:9
        in
        let keep = class_vts.(c) in
        let best_for_class = ref (keep, infinity) in
        Array.iter
          (fun vt ->
            class_vts.(c) <- vt;
            let t = try_design vdd0 in
            let e = t.Heuristic.score.Solution.total_energy in
            if t.Heuristic.meets_budgets && e < snd !best_for_class then
              best_for_class := (vt, e))
          candidates;
        class_vts.(c) <- fst !best_for_class
      done
    done;
    (* Local supply refinement around the incumbent. *)
    Array.iter
      (fun vdd -> ignore (try_design vdd))
      (Numeric.linspace
         ~lo:(Numeric.clamp ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max
                (vdd0 *. 0.85))
         ~hi:(Numeric.clamp ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max
                (vdd0 *. 1.15))
         ~n:5);
    (* The slack-driven greedy is a different search bias; for n_vt = 2 try
       it from the single-Vt incumbent and keep whichever wins. *)
    (if n_vt = 2 then
       let greedy = greedy ~emit env incumbent in
       if Solution.feasible greedy && Solution.total_energy greedy < best_energy ()
       then best := Either.Left { greedy with Solution.label = "multi-vt" });
    match !best with
    | Either.Left sol -> Some sol
    | Either.Right t -> Some (Heuristic.solution ~label:"multi-vt" t)
