module Circuit = Dcopt_netlist.Circuit
module Tech = Dcopt_device.Tech
module Drive = Dcopt_device.Drive
module Numeric = Dcopt_util.Numeric

type assignment = { uses_low : bool array; low_count : int }

let classify env ~budgets ~slack_threshold =
  let circuit = Power_model.circuit env in
  let tech = Power_model.tech env in
  let n = Circuit.size circuit in
  let vdd = tech.Tech.vdd_max and vt = tech.Tech.vt_min in
  let probe = Power_model.uniform_design env ~vdd ~vt ~w:4.0 in
  let ctx = Power_model.drive env ~vdd ~vt in
  let uses_low = Array.make n false in
  let gates = Power_model.gate_ids env in
  Array.iter
    (fun id ->
      let mfd = Power_model.budget_fanin_delay env ~budgets id in
      let floor = Power_model.gate_delay env ctx probe ~max_fanin_delay:mfd id in
      if budgets.(id) > slack_threshold *. floor then uses_low.(id) <- true)
    gates;
  (* Legalize (clustered voltage scaling): a low gate driving a high gate
     is promoted. Reverse topological sweeps converge because promotions
     only propagate toward the inputs. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = Array.length gates - 1 downto 0 do
      let id = gates.(i) in
      if uses_low.(id) then begin
        let drives_high =
          Array.exists
            (fun g -> not uses_low.(g))
            (Circuit.fanouts circuit id)
        in
        if drives_high then begin
          uses_low.(id) <- false;
          changed := true
        end
      end
    done
  done;
  let low_count =
    Array.fold_left (fun k id -> if uses_low.(id) then k + 1 else k) 0 gates
  in
  { uses_low; low_count }

let evaluate env assignment ~vdd_high ~vdd_low ~vt ~budgets =
  if vdd_low > vdd_high then invalid_arg "Multi_vdd.evaluate: vdd_low > vdd_high";
  let circuit = Power_model.circuit env in
  let tech = Power_model.tech env in
  let n = Circuit.size circuit in
  (* Work on a private copy of the assignment: gates that cannot meet
     their budget on the low rail (or whose converter would not fit) are
     demoted to the high rail on the fly. Reverse topological order means
     consumers settle before producers, so a producer can check its final
     fanout rails for legality. *)
  let low = Array.copy assignment.uses_low in
  let design =
    {
      Power_model.vdd = vdd_high;
      vt = Array.make n vt;
      widths = Array.make n tech.Tech.w_min;
      rail = Some { Power_model.vdd_low; low };
    }
  in
  (* one context per rail sizes every gate on it *)
  let ctx_high = Power_model.drive env ~vdd:vdd_high ~vt in
  let ctx_low = Power_model.drive env ~vdd:vdd_low ~vt in
  let ctx_of id = if low.(id) then ctx_low else ctx_high in
  let t_conv = Power_model.converter_delay env ctx_low in
  let sizer = Drive.sizer tech in
  let budgets_adj = Array.copy budgets in
  let gates = Power_model.unsafe_gate_ids env in
  let set_adjusted id =
    budgets_adj.(id) <-
      (if low.(id) && Circuit.is_output circuit id then
         Float.max 1e-15 (budgets.(id) -. t_conv)
       else budgets.(id))
  in
  Array.iter set_adjusted gates;
  let all_met = ref true in
  for i = Array.length gates - 1 downto 0 do
    let id = gates.(i) in
    (* legality: a low gate must not drive a high gate *)
    if low.(id) && Array.exists (fun g -> not low.(g)) (Circuit.fanouts circuit id)
    then begin
      low.(id) <- false;
      set_adjusted id
    end;
    let size () =
      Power_model.size_gate_with sizer (ctx_of id) env design
        ~budgets:budgets_adj id
    in
    match size () with
    | Some w -> design.widths.(id) <- w
    | None ->
      if low.(id) then begin
        (* demote and retry at the high rail *)
        low.(id) <- false;
        set_adjusted id;
        match size () with
        | Some w -> design.widths.(id) <- w
        | None ->
          design.widths.(id) <- tech.Tech.w_max;
          all_met := false
      end
      else begin
        design.widths.(id) <- tech.Tech.w_max;
        all_met := false
      end
  done;
  Power_model.record_sizing sizer;
  if not !all_met then None
  else Some (Solution.make ~label:"multi-vdd" ~meets_budgets:true env design)

let optimize ?observer ?(m_steps = 12) ?vt_fixed env ~budgets =
  let tech = Power_model.tech env in
  let inner, emit = Solution.trials ?observer "multi-vdd" in
  let single =
    Heuristic.optimize ?observer:inner
      ~options:{ Heuristic.m_steps; strategy = Heuristic.Grid_refine;
                 vt_fixed }
      env ~budgets
  in
  match single with
  | None -> None
  | Some incumbent ->
    let vdd0 = Solution.vdd incumbent in
    let vt0 =
      match Solution.vt_values incumbent env with
      | v :: _ -> v
      | [] -> tech.Tech.vt_min
    in
    let assignment = classify env ~budgets ~slack_threshold:1.5 in
    let baseline = { incumbent with Solution.label = "multi-vdd" } in
    if assignment.low_count = 0 then Some baseline
    else begin
      let best = ref baseline in
      let consider r =
        if
          Solution.feasible r
          && Solution.total_energy r < Solution.total_energy !best
        then best := r
      in
      let c = Numeric.clamp ~lo:tech.Tech.vdd_min ~hi:tech.Tech.vdd_max in
      Array.iter
        (fun vdd_high ->
          Array.iter
            (fun frac ->
              let vdd_low = c (frac *. vdd_high) in
              Array.iter
                (fun vt ->
                  match
                    evaluate env assignment ~vdd_high ~vdd_low ~vt ~budgets
                  with
                  | Some r ->
                    emit ~vdd:vdd_high ~vt ~feasible:(Solution.feasible r)
                      (Some (Solution.score r));
                    consider r
                  | None -> emit ~vdd:vdd_high ~vt ~feasible:false None)
                (match vt_fixed with
                | Some vt -> [| vt |]
                | None ->
                  Numeric.linspace
                    ~lo:(Numeric.clamp ~lo:tech.Tech.vt_min
                           ~hi:tech.Tech.vt_max (vt0 *. 0.8))
                    ~hi:(Numeric.clamp ~lo:tech.Tech.vt_min
                           ~hi:tech.Tech.vt_max (vt0 *. 1.25))
                    ~n:4))
            [| 0.5; 0.65; 0.8; 1.0 |])
        (Numeric.linspace ~lo:(c (vdd0 *. 0.9)) ~hi:(c (vdd0 *. 1.3)) ~n:4);
      Some !best
    end
