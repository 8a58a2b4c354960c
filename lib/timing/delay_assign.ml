module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Metrics = Dcopt_obs.Metrics

let assign_counter =
  Metrics.counter ~help:"Procedure-1 budget assignments performed"
    "timing.assignments"

let paths_counter =
  Metrics.counter ~help:"critical paths consumed by Procedure-1 budgeting"
    "timing.paths_used"

let fallback_counter =
  Metrics.counter ~help:"gates budgeted by the chain-criticality fallback"
    "timing.fallback_gates"

let slope_counter =
  Metrics.counter ~help:"budgets lifted for slope feasibility"
    "timing.slope_adjusted"

let fallback_share_hist =
  Metrics.histogram
    ~help:"share of gates budgeted by the chain-criticality fallback, per \
           assignment"
    "timing.fallback_share"

type t = {
  t_max : float array;
  cycle_budget : float;
  paths_used : int;
  fallback_gates : int;
  slope_adjusted : int;
}

(* Max of [col] over the gate neighbours of [id] in one CSR direction,
   folded in adjacency order from 0. *)
let max_over_gates f ~off ~edges col id =
  let acc = ref 0.0 in
  for p = off.(id) to off.(id + 1) - 1 do
    let g = edges.(p) in
    if f.Flat.is_gate.(g) then acc := Float.max !acc col.(g)
  done;
  !acc

(* Largest fanout-sum over chains from this gate downward / from sources to
   this gate, allowing chains to stop anywhere (used only by the fallback,
   where dead-end logic is exactly the case at hand). *)
let chain_criticalities circuit f ~w =
  let n = Flat.size f in
  let order = Circuit.topo_order circuit in
  let down = Array.make n 0.0 in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    if f.Flat.is_gate.(id) then
      down.(id) <-
        w.(id)
        +. max_over_gates f ~off:f.Flat.fanout_off ~edges:f.Flat.fanout_edges
             down id
  done;
  let up = Array.make n 0.0 in
  Array.iter
    (fun id ->
      if f.Flat.is_gate.(id) then
        up.(id) <-
          w.(id)
          +. max_over_gates f ~off:f.Flat.fanin_off ~edges:f.Flat.fanin_edges
               up id)
    order;
  (up, down)

let assign ?(skew_factor = 0.95) ?max_paths ?(slope_guard = 0.3) ?constraints
    circuit ~cycle_time =
  Dcopt_obs.Span.with_ "procedure1.assign"
    ~args:[ ("circuit", Circuit.name circuit) ]
  @@ fun () ->
  (* A constraint set collapses to the single scalar Procedure 1
     distributes: its tightest clock period / global max-delay bound.
     (Per-endpoint bounds are enforced by the STA feasibility check, not
     by the budget split.) The scalar compatibility set [of_cycle_time
     ct] yields exactly [ct], so legacy runs are bit-identical. *)
  let cycle_time =
    match constraints with
    | None -> cycle_time
    | Some c -> Constraints.tightest_cycle_time c ~default:cycle_time
  in
  if not (Circuit.is_combinational circuit) then
    invalid_arg "Delay_assign.assign: circuit is sequential";
  if cycle_time <= 0.0 then invalid_arg "Delay_assign.assign: cycle_time <= 0";
  if not (skew_factor > 0.0 && skew_factor <= 1.0) then
    invalid_arg "Delay_assign.assign: skew_factor out of (0, 1]";
  let f = Flat.of_circuit circuit in
  let n = Flat.size f in
  let is_gate = f.Flat.is_gate in
  let available = skew_factor *. cycle_time in
  let t_max = Array.make n 0.0 in
  let assigned = Array.make n false in
  let gate_total = Circuit.gate_count circuit in
  let remaining = ref gate_total in
  let paths_used = ref 0 in
  let eff = Kpaths.effective_fanouts f in
  let w = Array.map float_of_int eff in
  let paths = Kpaths.cursor ?max_paths f ~eff in
  let path = Array.make (Flat.depth f) 0 in
  (* eq. (3) on the [len] gates in [path], stored output to source and
     folded source to output, the order the sums have always been taken
     in. *)
  let consume_path len =
    let fresh = ref false in
    for i = 0 to len - 1 do
      if not assigned.(path.(i)) then fresh := true
    done;
    if !fresh then begin
      incr paths_used;
      let already = ref 0.0 and denom = ref 0.0 in
      for i = len - 1 downto 0 do
        let g = path.(i) in
        if assigned.(g) then already := !already +. t_max.(g)
        else denom := !denom +. w.(g)
      done;
      (* if more critical paths already ate the whole budget, give the
         stragglers a tiny positive share and let the final scaling pass
         restore the guarantee. *)
      let share =
        Float.max (0.01 *. available) (available -. !already) /. !denom
      in
      for i = len - 1 downto 0 do
        let g = path.(i) in
        if not assigned.(g) then begin
          t_max.(g) <- w.(g) *. share;
          assigned.(g) <- true;
          decr remaining
        end
      done
    end
  in
  let rec drain () =
    if !remaining > 0 then begin
      let len = Kpaths.next paths path in
      if len > 0 then begin
        consume_path len;
        drain ()
      end
    end
  in
  drain ();
  (* Fallback for gates on no enumerated PI-to-PO path. *)
  let fallback_gates = ref 0 in
  if !remaining > 0 then begin
    let up, down = chain_criticalities circuit f ~w in
    for id = 0 to n - 1 do
      if is_gate.(id) && not assigned.(id) then begin
        let crit = up.(id) +. down.(id) -. w.(id) in
        t_max.(id) <- available *. w.(id) /. Float.max w.(id) crit;
        assigned.(id) <- true;
        incr fallback_gates;
        decr remaining
      end
    done
  end;
  (* Slope-feasibility lift (paper: post processing so the driven gate's
     budget is achievable given its drivers' budgets). *)
  let slope_adjusted = ref 0 in
  Circuit.iter_topo circuit (fun id ->
      if is_gate.(id) then begin
        let worst_fanin =
          max_over_gates f ~off:f.Flat.fanin_off ~edges:f.Flat.fanin_edges
            t_max id
        in
        let floor_needed = slope_guard *. worst_fanin in
        if t_max.(id) < floor_needed then begin
          t_max.(id) <- floor_needed;
          incr slope_adjusted
        end
      end);
  (* Final guarantee: scale so no path exceeds the distributed budget. *)
  let _, critical_delay = Flat_sta.forward f ~delays:t_max in
  if critical_delay > available && critical_delay > 0.0 then begin
    let scale = available /. critical_delay in
    Array.iteri (fun id v -> t_max.(id) <- v *. scale) t_max
  end;
  Metrics.incr assign_counter;
  Metrics.incr ~by:!paths_used paths_counter;
  Metrics.incr ~by:!fallback_gates fallback_counter;
  Metrics.incr ~by:!slope_adjusted slope_counter;
  (* histograms are main-domain-only; assignments on pool domains skip it *)
  if gate_total > 0 && Domain.is_main_domain () then
    Metrics.observe fallback_share_hist
      (float_of_int !fallback_gates /. float_of_int gate_total);
  {
    t_max;
    cycle_budget = available;
    paths_used = !paths_used;
    fallback_gates = !fallback_gates;
    slope_adjusted = !slope_adjusted;
  }

let verify circuit budget ~cycle_time =
  let _, critical_delay =
    Flat_sta.forward (Flat.of_circuit circuit) ~delays:budget.t_max
  in
  critical_delay <= cycle_time *. (1.0 +. 1e-6)
