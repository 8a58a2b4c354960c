module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Tech = Dcopt_device.Tech
module Delay = Dcopt_device.Delay
module Drive = Dcopt_device.Drive
module Numeric = Dcopt_util.Numeric

type assignment = {
  uses_low : bool array;
  low_count : int;
  converter_count : int;
}

(* Level-converter model: a small dual-rail stage. Its delay is two
   inverter-ish delays driven at the low supply (in the low rail's
   context); its switching energy is a 6-w-unit gate load at the high
   supply. *)
let converter_load tech =
  { Delay.no_load with Delay.cap_wire = 4.0 *. tech.Tech.c_gate }

let converter_delay tech ctx_low =
  2.0 *. Drive.gate_delay tech ctx_low ~w:2.0 (converter_load tech)

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
  (* one context per rail sizes and scores every gate on it *)
  let ctx_high = Power_model.drive env ~vdd:vdd_high ~vt in
  let ctx_low = Power_model.drive env ~vdd:vdd_low ~vt in
  let ctx_of id = if uses_low.(id) then ctx_low else ctx_high in
  let t_conv = converter_delay tech ctx_low in
  let sizer = Drive.sizer tech in
  let budgets_adj = Array.copy budgets in
  let gates = Power_model.unsafe_gate_ids env in
  let converts id = uses_low.(id) && Circuit.is_output circuit id in
  let set_adjusted id =
    budgets_adj.(id) <-
      (if converts id then Float.max 1e-15 (budgets.(id) -. t_conv)
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
      Power_model.size_gate_with sizer (ctx_of id) env (design_of id)
        ~budgets:budgets_adj id
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
  if not !all_met then None
  else begin
    (* Score with per-gate supplies and converter overheads: evaluate's
       sweep (fanin CSR, constraint input delays seeding the arrivals,
       feasibility per endpoint) with each gate in its rail's context. *)
    let flat = Power_model.flat env in
    let fanin_off = flat.Flat.fanin_off and fanin_edges = flat.Flat.fanin_edges in
    let fc = Power_model.clock_frequency env in
    let delays = Array.make n 0.0 in
    let arrival =
      match Power_model.arrival_offsets env with
      | None -> Array.make n 0.0
      | Some seed -> Array.copy seed
    in
    let static_e = ref 0.0 and dynamic_e = ref 0.0 in
    let low_count = ref 0 and converter_count = ref 0 in
    Array.iter
      (fun id ->
        let max_fanin_delay = ref 0.0 and worst = ref 0.0 in
        for p = fanin_off.(id) to fanin_off.(id + 1) - 1 do
          let f = fanin_edges.(p) in
          max_fanin_delay := Float.max !max_fanin_delay delays.(f);
          worst := Float.max !worst arrival.(f)
        done;
        let ctx = ctx_of id and w = widths.(id) in
        let load =
          Power_model.gate_load env (design_of id)
            ~max_fanin_delay:!max_fanin_delay id
        in
        let d = Drive.gate_delay tech ctx ~w load in
        let d = if converts id then d +. t_conv else d in
        delays.(id) <- d;
        arrival.(id) <- !worst +. d;
        let activity = Power_model.activity env id in
        static_e := !static_e +. Drive.static_energy ctx ~fc ~w;
        dynamic_e :=
          !dynamic_e +. Drive.dynamic_energy tech ctx ~w ~activity ~load;
        if uses_low.(id) then incr low_count;
        if converts id then begin
          incr converter_count;
          dynamic_e := !dynamic_e +. converter_energy tech ~vdd_high ~activity
        end)
      gates;
    let critical_delay =
      Array.fold_left (fun acc id -> Float.max acc arrival.(id)) 0.0
        (Circuit.outputs circuit)
    in
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
        feasible = Power_model.arrivals_feasible env ~critical_delay arrival;
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
        supply_assignment =
          {
            uses_low;
            low_count = !low_count;
            converter_count = !converter_count;
          };
      }
  end

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
                  | Some r ->
                    emit ~vdd:vdd_high ~vt
                      ~feasible:(Solution.feasible r.solution)
                      (Some r.solution);
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
