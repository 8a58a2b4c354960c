module Circuit = Dcopt_netlist.Circuit
module Tech = Dcopt_device.Tech
module Delay = Dcopt_device.Delay
module Drive = Dcopt_device.Drive
module Energy = Dcopt_device.Energy
module Numeric = Dcopt_util.Numeric

type assignment = {
  uses_low : bool array;
  low_count : int;
  converter_count : int;
}

(* Level-converter model: a small dual-rail stage. Its delay is two
   inverter-ish delays driven at the low supply; its switching energy is a
   6-w-unit gate load at the high supply. *)
let converter_load tech =
  { Delay.no_load with Delay.cap_wire = 4.0 *. tech.Tech.c_gate }

let converter_delay tech ~vdd_low ~vt =
  2.0 *. Delay.gate_delay tech ~vdd:vdd_low ~vt ~w:2.0 (converter_load tech)

let converter_energy tech ~vdd_high ~activity =
  0.5 *. activity *. vdd_high *. vdd_high *. (6.0 *. tech.Tech.c_gate)

type result = {
  solution : Solution.t;
  vdd_high : float;
  vdd_low : float;
  supply_assignment : assignment;
}

let classify env ~budgets ~slack_threshold =
  let circuit = Power_model.circuit env in
  let tech = Power_model.tech env in
  let n = Circuit.size circuit in
  let probe =
    Power_model.uniform_design env ~vdd:tech.Tech.vdd_max ~vt:tech.Tech.vt_min
      ~w:4.0
  in
  let uses_low = Array.make n false in
  let gates = Power_model.gate_ids env in
  Array.iter
    (fun id ->
      let mfd = Power_model.budget_fanin_delay env ~budgets id in
      let floor = Power_model.gate_delay env probe ~max_fanin_delay:mfd id in
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
  let low_count = ref 0 and converter_count = ref 0 in
  Array.iter
    (fun id ->
      if uses_low.(id) then begin
        incr low_count;
        if Circuit.is_output circuit id then incr converter_count
      end)
    gates;
  { uses_low; low_count = !low_count; converter_count = !converter_count }

let evaluate env assignment ~vdd_high ~vdd_low ~vt ~budgets =
  if vdd_low > vdd_high then invalid_arg "Multi_vdd.evaluate: vdd_low > vdd_high";
  let circuit = Power_model.circuit env in
  let tech = Power_model.tech env in
  let n = Circuit.size circuit in
  let fc = Power_model.clock_frequency env in
  let tc = Power_model.cycle_time env in
  let vt_array = Array.make n vt in
  let widths = Array.make n tech.Tech.w_min in
  let design_high = { Power_model.vdd = vdd_high; vt = vt_array; widths } in
  let design_low = { Power_model.vdd = vdd_low; vt = vt_array; widths } in
  (* Work on a private copy of the assignment: gates that cannot meet
     their budget on the low rail (or whose converter would not fit) are
     demoted to the high rail on the fly. Reverse topological order means
     consumers settle before producers, so a producer can check its final
     fanout rails for legality. *)
  let uses_low = Array.copy assignment.uses_low in
  let design_of id = if uses_low.(id) then design_low else design_high in
  let t_conv = converter_delay tech ~vdd_low ~vt in
  (* one drive context per rail: Drive.make is pure, so these are the
     contexts a per-gate size_gate would rebuild *)
  let sizer = Drive.sizer tech in
  let vt_device = vt *. Power_model.vt_stress env in
  let ctx_high = Drive.make tech ~vdd:vdd_high ~vt:vt_device in
  let ctx_low = Drive.make tech ~vdd:vdd_low ~vt:vt_device in
  let budgets_adj = Array.copy budgets in
  let gates = Power_model.gate_ids env in
  let set_adjusted id =
    budgets_adj.(id) <-
      (if uses_low.(id) && Circuit.is_output circuit id then
         Float.max 1e-15 (budgets.(id) -. t_conv)
       else budgets.(id))
  in
  Array.iter set_adjusted gates;
  let all_met = ref true in
  for i = Array.length gates - 1 downto 0 do
    let id = gates.(i) in
    (* legality: a low gate must not drive a high gate *)
    if
      uses_low.(id)
      && Array.exists (fun g -> not uses_low.(g)) (Circuit.fanouts circuit id)
    then begin
      uses_low.(id) <- false;
      set_adjusted id
    end;
    let size () =
      Power_model.size_gate_with sizer
        (if uses_low.(id) then ctx_low else ctx_high)
        env (design_of id) ~budgets:budgets_adj id
    in
    match size () with
    | Some w -> widths.(id) <- w
    | None ->
      if uses_low.(id) then begin
        (* demote and retry at the high rail *)
        uses_low.(id) <- false;
        set_adjusted id;
        match size () with
        | Some w -> widths.(id) <- w
        | None ->
          widths.(id) <- tech.Tech.w_max;
          all_met := false
      end
      else begin
        widths.(id) <- tech.Tech.w_max;
        all_met := false
      end
  done;
  Power_model.record_sizing sizer;
  let assignment =
    let low_count = ref 0 and converter_count = ref 0 in
    Array.iter
      (fun id ->
        if uses_low.(id) then begin
          incr low_count;
          if Circuit.is_output circuit id then incr converter_count
        end)
      gates;
    { uses_low; low_count = !low_count; converter_count = !converter_count }
  in
  (* Evaluate with per-gate supplies and converter overheads. *)
  let delays = Array.make n 0.0 in
  let arrival = Array.make n 0.0 in
  let static_e = ref 0.0 and dynamic_e = ref 0.0 in
  Array.iter
    (fun id ->
      let nd = Circuit.node circuit id in
      let max_fanin_delay =
        Array.fold_left (fun acc f -> Float.max acc delays.(f)) 0.0
          nd.Circuit.fanins
      in
      let design = design_of id in
      let d = Power_model.gate_delay env design ~max_fanin_delay id in
      let d =
        if assignment.uses_low.(id) && Circuit.is_output circuit id then
          d +. t_conv
        else d
      in
      delays.(id) <- d;
      let worst =
        Array.fold_left (fun acc f -> Float.max acc arrival.(f)) 0.0
          nd.Circuit.fanins
      in
      arrival.(id) <- worst +. d;
      let vdd = design.Power_model.vdd in
      let load = Power_model.gate_load env design ~max_fanin_delay id in
      let activity = Power_model.activity env id in
      static_e :=
        !static_e +. Energy.static_energy tech ~fc ~vdd ~vt ~w:widths.(id);
      dynamic_e :=
        !dynamic_e
        +. Energy.dynamic_energy tech ~vdd ~w:widths.(id) ~activity ~load;
      if assignment.uses_low.(id) && Circuit.is_output circuit id then
        dynamic_e :=
          !dynamic_e +. converter_energy tech ~vdd_high ~activity)
    gates;
  let critical_delay =
    Array.fold_left (fun acc id -> Float.max acc arrival.(id)) 0.0
      (Circuit.outputs circuit)
  in
  if not !all_met then None
  else
    let evaluation =
      {
        Power_model.static_energy = !static_e;
        dynamic_energy = !dynamic_e;
        short_circuit_energy = 0.0;
        total_energy = !static_e +. !dynamic_e;
        static_power = !static_e *. fc;
        dynamic_power = !dynamic_e *. fc;
        delays;
        critical_delay;
        feasible = critical_delay <= tc *. (1.0 +. 1e-6);
      }
    in
    Some
      {
        solution =
          {
            Solution.label = "multi-vdd";
            design = design_high;
            evaluation;
            meets_budgets = true;
          };
        vdd_high;
        vdd_low;
        supply_assignment = assignment;
      }

let optimize ?(m_steps = 12) ?vt_fixed env ~budgets =
  let tech = Power_model.tech env in
  let single =
    Heuristic.optimize
      ~options:{ Heuristic.m_steps; strategy = Heuristic.Grid_refine;
                 vt_fixed }
      env ~budgets
  in
  match single with
  | None -> None
  | Some incumbent ->
    let vdd0 = Solution.vdd incumbent in
    let vt0 =
      match Solution.vt_values incumbent with
      | v :: _ -> v
      | [] -> tech.Tech.vt_min
    in
    let assignment = classify env ~budgets ~slack_threshold:1.5 in
    let baseline =
      {
        solution = { incumbent with Solution.label = "multi-vdd" };
        vdd_high = vdd0;
        vdd_low = vdd0;
        supply_assignment =
          {
            uses_low = Array.make (Circuit.size (Power_model.circuit env)) false;
            low_count = 0;
            converter_count = 0;
          };
      }
    in
    if assignment.low_count = 0 then Some baseline
    else begin
      let best = ref baseline in
      let consider r =
        if
          Solution.feasible r.solution
          && Solution.total_energy r.solution
             < Solution.total_energy !best.solution
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
                  | Some r -> consider r
                  | None -> ())
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
