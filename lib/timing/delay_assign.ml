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
  Metrics.counter
    ~help:"dead gates (no path to a primary output) budgeted by the \
           chain-criticality fallback"
    "timing.fallback_gates"

let slope_counter =
  Metrics.counter ~help:"budgets lifted for slope feasibility"
    "timing.slope_adjusted"

let fallback_share_hist =
  Metrics.histogram
    ~help:"share of gates that reach no primary output (budgeted by the \
           chain-criticality fallback), per assignment"
    "timing.fallback_share"

type t = {
  t_max : float array;
  cycle_budget : float;
  paths_used : int;
  fallback_gates : int;
  slope_adjusted : int;
}

(* Max of [col] over the gate fanins of [id], folded in pin order from 0. *)
let max_over_fanin_gates f col id =
  let acc = ref 0.0 in
  for p = f.Flat.fanin_off.(id) to f.Flat.fanin_off.(id + 1) - 1 do
    let g = f.Flat.fanin_edges.(p) in
    if f.Flat.is_gate.(g) then acc := Float.max !acc col.(g)
  done;
  !acc

(* The slope-feasibility floor: a gate's budget is at least this fraction
   of its slowest fanin gate's budget. *)
let slope_guard = 0.3

let assign ?(skew_factor = 0.95) ?constraints circuit ~cycle_time =
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
  let gates = f.Flat.gate_level_order in
  let available = skew_factor *. cycle_time in
  let is_output = Array.make n false in
  Array.iter (fun id -> is_output.(id) <- true) f.Flat.output_ids;
  (* The paper's f_oi: Circuit.fanout_count (one per consuming pin, plus
     one for a primary output) floored at 1, so output gates still
     receive a delay share. *)
  let eff =
    Array.init n (fun id ->
        Int.max 1
          (f.Flat.fanout_off.(id + 1) - f.Flat.fanout_off.(id)
          + Bool.to_int is_output.(id)))
  in
  let w = Array.map float_of_int eff in
  (* Backward pass: [down] is the largest criticality of a path from the
     gate (inclusive) to a primary output, -1 when none is reachable, and
     [next] the fanout that continues it (-1: the gate ends it). [chain]
     is the same sum over chains that may stop at any gate. Fanouts come
     in ascending id, so a strict [>] keeps the lowest-id maximum. *)
  let down = Array.make n (-1) and next = Array.make n (-1) in
  let chain = Array.make n 0 in
  for k = Array.length gates - 1 downto 0 do
    let g = gates.(k) in
    let tail = ref (if is_output.(g) then 0 else -1) in
    let best = ref 0 in
    for p = f.Flat.fanout_off.(g) to f.Flat.fanout_off.(g + 1) - 1 do
      let h = f.Flat.fanout_edges.(p) in
      if down.(h) > !tail then begin
        tail := down.(h);
        next.(g) <- h
      end;
      best := Int.max !best chain.(h)
    done;
    if !tail >= 0 then down.(g) <- eff.(g) + !tail;
    chain.(g) <- eff.(g) + !best
  done;
  (* Forward pass: [up] is the largest criticality of a path from a
     primary input to the gate (inclusive), and [prev] the gate fanin
     that leads it, the lowest id among equals (-1: every fanin is a
     primary input). *)
  let up = Array.make n 0 and prev = Array.make n (-1) in
  Array.iter
    (fun g ->
      let head = ref 0 in
      for p = f.Flat.fanin_off.(g) to f.Flat.fanin_off.(g + 1) - 1 do
        let h = f.Flat.fanin_edges.(p) in
        if f.Flat.is_gate.(h)
           && (up.(h) > !head || (up.(h) = !head && h < prev.(g)))
        then begin
          head := up.(h);
          prev.(g) <- h
        end
      done;
      up.(g) <- eff.(g) + !head)
    gates;
  let through g = up.(g) + down.(g) - eff.(g) in
  let live =
    Array.of_seq (Seq.filter (fun g -> down.(g) >= 0) (Array.to_seq gates))
  in
  Array.sort
    (fun a b ->
      match Int.compare (through b) (through a) with
      | 0 -> Int.compare a b
      | c -> c)
    live;
  let t_max = Array.make n 0.0 in
  let assigned = Array.make n false in
  let prefix = Array.make (Flat.depth f) 0 in
  (* The path through [g]: its [prev] chain, read back source first, then
     [g] and its [next] chain to the output. *)
  let iter_path g fn =
    let len = ref 0 and h = ref prev.(g) in
    while !h >= 0 do
      prefix.(!len) <- !h;
      incr len;
      h := prev.(!h)
    done;
    for i = !len - 1 downto 0 do
      fn prefix.(i)
    done;
    h := g;
    while !h >= 0 do
      fn !h;
      h := next.(!h)
    done
  in
  (* The drain: the first unassigned gate in [live] has the largest
     through-criticality of any unassigned gate, so its path is a most
     critical path that still holds an unassigned gate. Eq. (3) splits
     what the path's assigned gates left of the budget over its
     unassigned ones, in proportion to their fanouts, sums folded source
     to output. *)
  let paths_used = ref 0 in
  let already = ref 0.0 and denom = ref 0.0 in
  let tally h =
    if assigned.(h) then already := !already +. t_max.(h)
    else denom := !denom +. w.(h)
  in
  Array.iter
    (fun g ->
      if not assigned.(g) then begin
        incr paths_used;
        already := 0.0;
        denom := 0.0;
        iter_path g tally;
        (* if more critical paths already ate the whole budget, give the
           stragglers a tiny positive share and let the final scaling pass
           restore the guarantee. *)
        let share =
          Float.max (0.01 *. available) (available -. !already) /. !denom
        in
        iter_path g (fun h ->
            if not assigned.(h) then begin
              t_max.(h) <- w.(h) *. share;
              assigned.(h) <- true
            end)
      end)
    live;
  (* Fallback for the dead gates, which reach no primary output: the
     analogous share of the most critical chain through them. *)
  let fallback_gates = ref 0 in
  Array.iter
    (fun g ->
      if down.(g) < 0 then begin
        let crit = up.(g) + chain.(g) - eff.(g) in
        t_max.(g) <- available *. w.(g) /. float_of_int crit;
        incr fallback_gates
      end)
    gates;
  (* Slope-feasibility lift (paper: post processing so the driven gate's
     budget is achievable given its drivers' budgets). *)
  let slope_adjusted = ref 0 in
  Array.iter
    (fun g ->
      let floor_needed = slope_guard *. max_over_fanin_gates f t_max g in
      if t_max.(g) < floor_needed then begin
        t_max.(g) <- floor_needed;
        incr slope_adjusted
      end)
    gates;
  (* Final guarantee: scale so no path exceeds the distributed budget. *)
  let _, critical_delay = Flat_sta.forward f ~delays:t_max in
  if critical_delay > available && critical_delay > 0.0 then begin
    let scale = available /. critical_delay in
    Array.iteri (fun id v -> t_max.(id) <- v *. scale) t_max
  end;
  let gate_total = Array.length gates in
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
