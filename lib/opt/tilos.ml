module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Tech = Dcopt_device.Tech
module Drive = Dcopt_device.Drive
module Numeric = Dcopt_util.Numeric

(* Each upsizing multiplies one gate's width by [step]; the loop gives up
   after 50 upsizings per gate. *)
let step = 1.15

let size_for_cycle env ~vdd ~vt =
  let tech = Power_model.tech env in
  let circuit = Power_model.circuit env in
  let limit = 50 * max 1 (Circuit.gate_count circuit) in
  let design = Power_model.uniform_design env ~vdd ~vt ~w:tech.Tech.w_min in
  (* Vdd and Vt are uniform here, so one context serves every probe. *)
  let ctx = Power_model.drive env ~vdd ~vt in
  let fc = Power_model.clock_frequency env in
  let flat = Power_model.flat env in
  let is_gate = flat.Flat.is_gate in
  let fanin_off = flat.Flat.fanin_off in
  let fanin_edges = flat.Flat.fanin_edges in
  let mfd_of delays id =
    let acc = ref 0.0 in
    for p = fanin_off.(id) to fanin_off.(id + 1) - 1 do
      let f = fanin_edges.(p) in
      if is_gate.(f) then acc := Float.max !acc delays.(f)
    done;
    !acc
  in
  (* The gate's delay and its energy (leakage plus own switching, the
     sensitivity denominator) from one gate record. *)
  let delay_energy ~max_fanin_delay id =
    let g = Power_model.gate env ctx design ~max_fanin_delay id in
    let w = design.Power_model.widths.(id) in
    ( Drive.gate_delay g ~w,
      Drive.static_energy ctx ~fc ~w
      +. Drive.dynamic_energy g ~w ~activity:(Power_model.activity env id) )
  in
  (* The on-path driver: the slowest gate fanin, the first in pin order
     on a tie. *)
  let driver_of delays id =
    let best = ref (-1) in
    for p = fanin_off.(id) to fanin_off.(id + 1) - 1 do
      let f = fanin_edges.(p) in
      if is_gate.(f) && (!best < 0 || delays.(f) > delays.(!best)) then
        best := f
    done;
    !best
  in
  (* Sensitivity of upsizing gate [id]: path-delay change (own speed-up
     minus the slowdown of the on-path driver that now sees a bigger load)
     per unit of added energy. *)
  let try_upsize delays id =
    let w = design.Power_model.widths.(id) in
    let w' = Float.min tech.Tech.w_max (w *. step) in
    if w' <= w *. (1.0 +. 1e-9) then None
    else begin
      let mfd = mfd_of delays id in
      let d_before, e_before = delay_energy ~max_fanin_delay:mfd id in
      let driver = driver_of delays id in
      let driver_delay () =
        if driver < 0 then 0.0
        else
          Power_model.gate_delay env ctx design
            ~max_fanin_delay:(mfd_of delays driver) driver
      in
      let driver_before = driver_delay () in
      design.Power_model.widths.(id) <- w';
      let d_after, e_after = delay_energy ~max_fanin_delay:mfd id in
      let driver_after = driver_delay () in
      design.Power_model.widths.(id) <- w;
      let delay_gain =
        d_before -. d_after -. (driver_after -. driver_before)
      in
      let energy_cost = Float.max 1e-24 (e_after -. e_before) in
      if delay_gain <= 0.0 then None
      else Some (delay_gain /. energy_cost, id, w')
    end
  in
  (* One incremental state for the whole greedy loop: an accepted upsize
     re-evaluates only its cone, and the critical path is walked from the
     maintained arrival times — no full evaluate/STA pass per iteration.
     The sensitivity probes in [try_upsize] stay as local probe-and-restore
     reads against the engine's live design and delays. A (vdd, vt) corner
     with non-finite physics (vt >= vdd) makes Incr raise Guard.Non_finite;
     the protect turns that trial point into None — infeasible, skipped —
     instead of a crash. *)
  Guard.protect @@ fun () ->
  let inc = Power_model.Incr.create env design in
  let rec loop iteration =
    if Power_model.Incr.feasible inc then Some design
    else if iteration >= limit then None
    else begin
      let path = Power_model.Incr.critical_path inc in
      let delays = Power_model.Incr.delays inc in
      let best =
        List.fold_left
          (fun best id ->
            if not is_gate.(id) then best
            else
              match try_upsize delays id with
              | None -> best
              | Some (s, _, _) as cand -> (
                match best with
                | Some (sb, _, _) when sb >= s -> best
                | _ -> cand))
          None path
      in
      match best with
      | None -> None (* every critical gate saturated: unreachable *)
      | Some (_, id, w') ->
        Power_model.Incr.set_width inc id w';
        Power_model.Incr.commit inc;
        loop (iteration + 1)
    end
  in
  loop 0

let optimize ?observer ?(m_steps = 8) env =
  let tech = Power_model.tech env in
  let best = ref None in
  let _, emit = Solution.trials ?observer "tilos" in
  let try_point vdd vt =
    match size_for_cycle env ~vdd ~vt with
    | None -> emit ~vdd ~vt ~feasible:false None
    | Some design ->
      let sol = Solution.make ~label:"tilos" ~meets_budgets:false env design in
      emit ~vdd ~vt ~feasible:(Solution.feasible sol) (Some (Solution.score sol));
      if Solution.feasible sol then best := Solution.better !best sol
  in
  let scan vdd_lo vdd_hi vt_lo vt_hi n =
    let vdds = Numeric.log_interp_points ~lo:vdd_lo ~hi:vdd_hi ~n in
    let vts = Numeric.linspace ~lo:vt_lo ~hi:vt_hi ~n in
    Array.iter (fun vdd -> Array.iter (fun vt -> try_point vdd vt) vts) vdds
  in
  let coarse = max 6 m_steps in
  scan tech.Tech.vdd_min tech.Tech.vdd_max tech.Tech.vt_min tech.Tech.vt_max
    coarse;
  (match !best with
  | None -> ()
  | Some sol ->
    let vdd0 = Solution.vdd sol in
    let vt0 =
      match Solution.vt_values sol env with v :: _ -> v | [] -> tech.Tech.vt_min
    in
    let span_vdd = (tech.Tech.vdd_max -. tech.Tech.vdd_min) /. float_of_int coarse in
    let span_vt = (tech.Tech.vt_max -. tech.Tech.vt_min) /. float_of_int coarse in
    let c = Numeric.clamp in
    scan
      (c ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max (vdd0 -. span_vdd))
      (c ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max (vdd0 +. span_vdd))
      (c ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max (vt0 -. span_vt))
      (c ~lo:tech.Tech.vt_min ~hi:tech.Tech.vt_max (vt0 +. span_vt))
      coarse);
  !best
