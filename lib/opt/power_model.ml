module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Gate = Dcopt_netlist.Gate
module Tech = Dcopt_device.Tech
module Drive = Dcopt_device.Drive
module Wire = Dcopt_wiring.Wire_model
module Activity = Dcopt_activity.Activity

type rail = { vdd_low : float; low : bool array }

type design = {
  mutable vdd : float;
  vt : float array;
  widths : float array;
  rail : rail option;
}

(* Per-node structural attributes live in flat columns indexed by node id
   (struct-of-arrays): the evaluation sweeps read contiguous float arrays
   instead of chasing a per-gate record, which is what keeps the
   million-gate path cache-friendly. Non-gate entries are zero and never
   read (guarded by [is_gate]). *)
type env = {
  env_tech : Tech.t;
  env_circuit : Circuit.t;
  env_flat : Flat.t;
  fc : float;
  tc : float;
  is_gate : bool array;
  fanin_counts : int array;
  stacks : int array;
  pin_caps : float array;  (* fixed load of output pins driven by this net, F *)
  wire_caps : float array;
  wire_ress : float array;
  flights : float array;
  acts : float array;
  gates_topo : int array;  (* gate ids in topological order *)
  short_circuit : bool;
  env_constraints : Dcopt_timing.Constraints.t;
  (* Constraint projections; [None] on the scalar path, which then takes
     the verbatim legacy feasibility/seed expressions (bit-identity). *)
  req_times : float array option;
  arr_seed : float array option;
  (* Corner multiplier applied to every threshold the device model sees
     (Variation semantics: slow = vt*(1+tol)). 1.0 is the nominal
     corner and the bit-exact identity. *)
  vt_stress : float;
}

type evaluation = {
  static_energy : float;
  dynamic_energy : float;
  short_circuit_energy : float;
  total_energy : float;
  static_power : float;
  dynamic_power : float;
  delays : float array;
  critical_delay : float;
  feasible : bool;
}

(* The load of a primary-output pin, in w-units. *)
let po_pin_width = 4.0

let make_env ?(include_short_circuit = false) ?constraints ~tech ~fc circuit
    profile =
  if not (Circuit.is_combinational circuit) then
    invalid_arg "Power_model.make_env: circuit is sequential";
  if fc <= 0.0 then invalid_arg "Power_model.make_env: fc <= 0";
  let wiring =
    Wire.create ~tech ~gate_count:(max 1 (Circuit.gate_count circuit)) ()
  in
  let flat = Flat.of_circuit circuit in
  let n = Circuit.size circuit in
  let is_gate = flat.Flat.is_gate in
  let fanin_counts = Array.make n 0 in
  let stacks = Array.make n 0 in
  let pin_caps = Array.make n 0.0 in
  let wire_caps = Array.make n 0.0 in
  let wire_ress = Array.make n 0.0 in
  let flights = Array.make n 0.0 in
  let acts = Array.make n 0.0 in
  (* The wire model depends only on the net's fanout count, and a large
     random network has a handful of distinct counts, so the three wire
     terms are memoized per count — O(distinct fanouts) model calls
     instead of O(n). *)
  let wire_terms = Hashtbl.create 64 in
  let wire_term fanout =
    match Hashtbl.find_opt wire_terms fanout with
    | Some t -> t
    | None ->
      let t =
        ( Wire.net_capacitance wiring ~fanout,
          Wire.net_resistance wiring ~fanout,
          Wire.flight_time wiring ~fanout )
      in
      Hashtbl.add wire_terms fanout t;
      t
  in
  Array.iter
    (fun nd ->
      match nd.Circuit.kind with
      | Gate.Input -> ()
      | Gate.Dff -> assert false
      | kind ->
        let id = nd.Circuit.id in
        let fanin_count = Array.length nd.Circuit.fanins in
        let pin_count = if Circuit.is_output circuit id then 1 else 0 in
        let net_fanout =
          max 1 (Array.length (Circuit.fanouts circuit id) + pin_count)
        in
        let wc, wr, fl = wire_term net_fanout in
        fanin_counts.(id) <- fanin_count;
        stacks.(id) <- Gate.series_stack_depth kind fanin_count;
        pin_caps.(id) <- float_of_int pin_count *. po_pin_width *. tech.Tech.c_gate;
        wire_caps.(id) <- wc;
        wire_ress.(id) <- wr;
        flights.(id) <- fl;
        acts.(id) <- profile.Activity.densities.(id))
    (Circuit.nodes circuit);
  let gates_topo =
    let order = Circuit.unsafe_order circuit in
    let count = ref 0 in
    Array.iter (fun id -> if is_gate.(id) then incr count) order;
    let out = Array.make !count 0 in
    let next = ref 0 in
    Array.iter
      (fun id ->
        if is_gate.(id) then begin
          out.(!next) <- id;
          incr next
        end)
      order;
    out
  in
  let tc = 1.0 /. fc in
  let module C = Dcopt_timing.Constraints in
  let env_constraints =
    match constraints with Some c -> c | None -> C.of_cycle_time tc
  in
  (* Scalar sets project to [None] so the legacy seed/feasibility
     expressions run verbatim; only genuinely per-endpoint sets pay the
     constraint path. *)
  let req_times, arr_seed =
    match C.scalar_cycle_time env_constraints with
    | Some _ -> (None, None)
    | None ->
      ( Some (C.required_times env_constraints ~default:tc circuit),
        C.arrival_offsets env_constraints circuit )
  in
  {
    env_tech = tech;
    env_circuit = circuit;
    env_flat = flat;
    fc;
    tc;
    is_gate;
    fanin_counts;
    stacks;
    pin_caps;
    wire_caps;
    wire_ress;
    flights;
    acts;
    gates_topo;
    short_circuit = include_short_circuit;
    env_constraints;
    req_times;
    arr_seed;
    vt_stress = 1.0;
  }

let tech env = env.env_tech
let circuit env = env.env_circuit
let flat env = env.env_flat
let cycle_time env = env.tc
let clock_frequency env = env.fc
let gate_ids env = Array.copy env.gates_topo
let unsafe_gate_ids env = env.gates_topo
let constraints env = env.env_constraints
let required_times env = env.req_times
let arrival_offsets env = env.arr_seed
let vt_stress env = env.vt_stress

(* Re-house an env at another process corner: same structural columns
   (shared, all read-only), different threshold stress. The cheap pivot
   the scenario layer fans corners out over. *)
let with_vt_stress env vt_stress =
  if not (vt_stress > 0.0) then
    invalid_arg "Power_model.with_vt_stress: vt_stress <= 0";
  { env with vt_stress }

let require_gate_id env id =
  if not env.is_gate.(id) then invalid_arg "Power_model: node is not a gate"

let activity env id =
  require_gate_id env id;
  env.acts.(id)

let uniform_design env ~vdd ~vt ~w =
  let n = Circuit.size env.env_circuit in
  { vdd; vt = Array.make n vt; widths = Array.make n w; rail = None }

(* Fanout gate capacitance straight off the fanout CSR, folded in the
   same (ascending consumer id) order as Circuit.fanouts reports. *)
let fanout_gate_cap env design id =
  let f = env.env_flat in
  let off = f.Flat.fanout_off in
  let edges = f.Flat.fanout_edges in
  let widths = design.widths in
  let c_gate = env.env_tech.Tech.c_gate in
  let acc = ref env.pin_caps.(id) in
  for p = off.(id) to off.(id + 1) - 1 do
    acc := !acc +. (widths.(edges.(p)) *. c_gate)
  done;
  !acc

(* The one place the corner multiplier meets the device model: every
   context in this library comes from here, directly or through a
   [drive_cache]. *)
let drive env ~vdd ~vt = Drive.make env.env_tech ~vdd ~vt:(vt *. env.vt_stress)

let gate env ctx design ~max_fanin_delay id =
  let cap_fanout = fanout_gate_cap env design id in
  let cap_wire = env.wire_caps.(id) in
  Drive.gate env.env_tech ctx ~fanin:env.fanin_counts.(id)
    ~stack:env.stacks.(id) ~cap_fanout ~cap_wire
    ~res_wire:(env.wire_ress.(id) *. (cap_fanout +. (cap_wire /. 2.0)))
    ~flight:env.flights.(id) ~max_fanin_delay

let gate_delay env ctx design ~max_fanin_delay id =
  Drive.gate_delay
    (gate env ctx design ~max_fanin_delay id)
    ~w:design.widths.(id)

let budget_fanin_delay env ~budgets id =
  let f = env.env_flat in
  let off = f.Flat.fanin_off in
  let edges = f.Flat.fanin_edges in
  let acc = ref 0.0 in
  for p = off.(id) to off.(id + 1) - 1 do
    let fi = edges.(p) in
    (* primary inputs arrive at cycle start and carry no budget *)
    if env.is_gate.(fi) then acc := Float.max !acc budgets.(fi)
  done;
  !acc

(* Trial-scoped cache of drive contexts. A trial fixes vdd, and almost
   all designs carry one (multi-vt: a few) distinct thresholds, so a tiny
   assoc list amortizes the transcendental device model over all N gates
   of the trial. *)
type drive_cache = {
  cache_env : env;
  cache_vdd : float;
  mutable cache_entries : (float * Drive.ctx) list;
}

let drive_cache env ~vdd = { cache_env = env; cache_vdd = vdd; cache_entries = [] }

(* Keyed by the nominal threshold a design records. *)
let drive_ctx cache ~vt =
  let rec find = function
    | (v, ctx) :: rest -> if v = vt then ctx else find rest
    | [] ->
      let ctx = drive cache.cache_env ~vdd:cache.cache_vdd ~vt in
      cache.cache_entries <- (vt, ctx) :: cache.cache_entries;
      ctx
  in
  find cache.cache_entries

(* The caches of one sweep: the supply's, and the low rail's (on a
   one-rail design the same cache, never asked). *)
let rail_caches env design =
  let high = drive_cache env ~vdd:design.vdd in
  match design.rail with
  | None -> (high, high)
  | Some r -> (high, drive_cache env ~vdd:r.vdd_low)

(* Level-converter model: a small dual-rail stage behind each low-rail
   primary output. Its delay is two inverter-ish delays driven at the
   low supply (in the gate's low-rail context); its switching energy is
   a 6-w-unit gate load at the high supply. *)
let converter_delay env ctx_low =
  let tech = env.env_tech in
  let stage =
    Drive.gate tech ctx_low ~fanin:1 ~stack:1 ~cap_fanout:0.0
      ~cap_wire:(4.0 *. tech.Tech.c_gate) ~res_wire:0.0 ~flight:0.0
      ~max_fanin_delay:0.0
  in
  2.0 *. Drive.gate_delay stage ~w:2.0

let converter_energy tech ~vdd ~activity =
  0.5 *. activity *. vdd *. vdd *. (6.0 *. tech.Tech.c_gate)

let sc_energy env ctx design ~max_fanin_delay id =
  Drive.short_circuit_energy ctx ~w:design.widths.(id) ~activity:env.acts.(id)
    ~input_transition_time:(Drive.transition_time_of_delay max_fanin_delay)

(* Constraint-aware feasibility: every endpoint on time against its own
   required seed ([infinity] = released). [None] runs the verbatim legacy
   scalar comparison. *)
let arrivals_feasible env ~critical_delay arrival =
  match env.req_times with
  | None -> critical_delay <= env.tc *. (1.0 +. 1e-6)
  | Some req ->
    Array.for_all
      (fun id -> arrival.(id) <= req.(id) *. (1.0 +. 1e-6))
      (Circuit.outputs env.env_circuit)

(* One sweep over the level-sorted gate permutation: per-gate delay,
   arrival and the energy terms, written into per-node columns. Each
   gate folds its fanins in pin order and shares one [Drive.gate]
   between its delay and its dynamic term. The level order visits every
   gate after its fanins, and walks the columns in ascending id within a
   level, which keeps a large circuit's sweep cache-friendly; the totals
   are then folded in topological gate order.

   Poison safety: a non-finite term is clamped to +infinity in place, so
   the result is an infinite (never NaN) objective that loses every
   comparison, and the evaluation is marked infeasible. The guard is the
   identity on finite values, so well-conditioned designs are evaluated
   bit-identically.

   A low-rail gate takes its context from the low rail's cache; at a
   primary output it also drives a level converter, whose delay joins
   the gate's and whose energy gets a column of its own, [cv_terms]. *)
let evaluate env design =
  let n = Circuit.size env.env_circuit in
  let delays = Array.make n 0.0 in
  let arrival =
    match env.arr_seed with
    | None -> Array.make n 0.0
    | Some seed -> Array.copy seed (* gate slots overwritten by the sweep *)
  in
  let st_terms = Array.make n 0.0 in
  let dy_terms = Array.make n 0.0 in
  (* read and written only when the short-circuit term is on *)
  let sc_terms = if env.short_circuit then Array.make n 0.0 else [||] in
  let two_rail = Option.is_some design.rail in
  let cv_terms = if two_rail then Array.make n 0.0 else [||] in
  let f = env.env_flat in
  let order = f.Flat.gate_level_order in
  let fanin_off = f.Flat.fanin_off in
  let fanin_edges = f.Flat.fanin_edges in
  let is_gate = env.is_gate in
  let tech = env.env_tech in
  let cache, low_cache = rail_caches env design in
  let tripped = ref false in
  let guarded site v =
    if Float.is_finite v then v
    else begin
      tripped := true;
      Guard.clamp ~site v
    end
  in
  for k = 0 to Array.length order - 1 do
    let id = Array.unsafe_get order k in
    let s = Array.unsafe_get fanin_off id in
    let e = Array.unsafe_get fanin_off (id + 1) in
    let max_fanin_delay = ref 0.0 in
    let worst_arrival = ref 0.0 in
    for p = s to e - 1 do
      let fi = Array.unsafe_get fanin_edges p in
      if Array.unsafe_get is_gate fi then
        max_fanin_delay :=
          Float.max !max_fanin_delay (Array.unsafe_get delays fi);
      worst_arrival := Float.max !worst_arrival (Array.unsafe_get arrival fi)
    done;
    let max_fanin_delay = !max_fanin_delay in
    let low = match design.rail with Some r -> r.low.(id) | None -> false in
    let ctx = drive_ctx (if low then low_cache else cache) ~vt:design.vt.(id) in
    let converts = low && Circuit.is_output env.env_circuit id in
    let w = design.widths.(id) in
    let g = gate env ctx design ~max_fanin_delay id in
    let d = Drive.gate_delay g ~w in
    let d =
      guarded "evaluate.delay"
        (if converts then d +. converter_delay env ctx else d)
    in
    Array.unsafe_set delays id d;
    Array.unsafe_set arrival id (!worst_arrival +. d);
    Array.unsafe_set st_terms id
      (guarded "evaluate.static" (Drive.static_energy ctx ~fc:env.fc ~w));
    Array.unsafe_set dy_terms id
      (guarded "evaluate.dynamic"
         (Drive.dynamic_energy g ~w ~activity:env.acts.(id)));
    if converts then
      cv_terms.(id) <-
        guarded "evaluate.dynamic"
          (converter_energy tech ~vdd:design.vdd ~activity:env.acts.(id));
    if env.short_circuit then
      Array.unsafe_set sc_terms id
        (guarded "evaluate.short_circuit"
           (sc_energy env ctx design ~max_fanin_delay id))
  done;
  let static_e = ref 0.0 and dynamic_e = ref 0.0 and short_e = ref 0.0 in
  Array.iter
    (fun id ->
      static_e := !static_e +. st_terms.(id);
      dynamic_e := !dynamic_e +. dy_terms.(id);
      (* a converter's energy is a term of its own, right after its
         gate's: summing the two first would round the total differently *)
      if two_rail then dynamic_e := !dynamic_e +. cv_terms.(id);
      if env.short_circuit then short_e := !short_e +. sc_terms.(id))
    env.gates_topo;
  let critical_delay =
    Array.fold_left
      (fun acc id -> Float.max acc arrival.(id))
      0.0 (Circuit.outputs env.env_circuit)
  in
  {
    static_energy = !static_e;
    dynamic_energy = !dynamic_e;
    short_circuit_energy = !short_e;
    total_energy = !static_e +. !dynamic_e +. !short_e;
    static_power = !static_e *. env.fc;
    dynamic_power = (!dynamic_e +. !short_e) *. env.fc;
    delays;
    critical_delay;
    feasible = (not !tripped) && arrivals_feasible env ~critical_delay arrival;
  }

let m_sized =
  Dcopt_obs.Metrics.counter ~help:"gates sized by the minimal-width kernel"
    "sizing.gates"

let m_bisected =
  Dcopt_obs.Metrics.counter
    ~help:"sized gates whose width came from the 40-step bisection"
    "sizing.bisections"

(* Once per sizing pass, never per gate: the counters are shared atomics. *)
let record_sizing sizer =
  Dcopt_obs.Metrics.incr ~by:(Drive.sized_gates sizer) m_sized;
  Dcopt_obs.Metrics.incr ~by:(Drive.bisections sizer) m_bisected

(* The load depends only on the gate's *fanout* widths, which are final
   (combinational circuits have no self-loops, and size_all finalizes
   fanouts before their drivers). [nan]: even w_max misses the budget. *)
let min_width sizer ctx env design ~budgets id =
  let max_fanin_delay = budget_fanin_delay env ~budgets id in
  Drive.min_width sizer
    (gate env ctx design ~max_fanin_delay id)
    ~target:budgets.(id)

let size_gate_with sizer ctx env design ~budgets id =
  let w = min_width sizer ctx env design ~budgets id in
  if Float.is_nan w then None else Some w

type sized = {
  design : design;
  meets_budgets : bool;
  static_sum : float;
  dynamic_sum : float;
  unclamped : bool;
}

(* [score] is off for callers that read no energy, which would pay for
   the terms and their folds without reading them. *)
let sweep ~score env ~vdd ~vt ~budgets =
  let n = Circuit.size env.env_circuit in
  let tech = env.env_tech in
  let design = { vdd; vt; widths = Array.make n tech.Tech.w_min; rail = None } in
  let cache = drive_cache env ~vdd in
  let sizer = Drive.sizer tech in
  let gates = env.gates_topo in
  let count = Array.length gates in
  (* energy terms by topological position, folded forward below *)
  let st_terms = Array.make (if score then count else 0) 0.0 in
  let dy_terms = Array.make (if score then count else 0) 0.0 in
  let all_met = ref true in
  let unclamped = ref true in
  (* Reverse topological order: every gate's fanout widths (its load) are
     final before the gate itself is sized, so the output capacitance
     that sizes it is the one [evaluate] prices its dynamic term on. *)
  for i = count - 1 downto 0 do
    let id = gates.(i) in
    let ctx = drive_ctx cache ~vt:vt.(id) in
    let max_fanin_delay = budget_fanin_delay env ~budgets id in
    let g = gate env ctx design ~max_fanin_delay id in
    let w = Drive.min_width sizer g ~target:budgets.(id) in
    let w =
      if Float.is_nan w then begin
        all_met := false;
        tech.Tech.w_max
      end
      else w
    in
    design.widths.(id) <- w;
    if score then begin
      (* [evaluate]'s terms and guard, on the same context, width and load *)
      let st = Drive.static_energy ctx ~fc:env.fc ~w in
      let dy = Drive.dynamic_energy g ~w ~activity:env.acts.(id) in
      if Float.is_finite st && Float.is_finite dy then begin
        st_terms.(i) <- st;
        dy_terms.(i) <- dy
      end
      else begin
        unclamped := false;
        st_terms.(i) <- Guard.clamp ~site:"size_all.static" st;
        dy_terms.(i) <- Guard.clamp ~site:"size_all.dynamic" dy
      end
    end
  done;
  record_sizing sizer;
  (* [evaluate]'s folds, in the same topological order *)
  let static_sum = ref 0.0 and dynamic_sum = ref 0.0 in
  for i = 0 to Array.length st_terms - 1 do
    static_sum := !static_sum +. st_terms.(i);
    dynamic_sum := !dynamic_sum +. dy_terms.(i)
  done;
  {
    design;
    meets_budgets = !all_met;
    static_sum = !static_sum;
    dynamic_sum = !dynamic_sum;
    unclamped = !unclamped;
  }

let size_all env ~vdd ~vt ~budgets = sweep ~score:true env ~vdd ~vt ~budgets

let size_widths env ~vdd ~vt ~budgets =
  let s = sweep ~score:false env ~vdd ~vt ~budgets in
  (s.design, s.meets_budgets)

(* Once per search; the interface states the proof it rests on. *)
let certify_sweep env ~budgets =
  let gates = env.gates_topo in
  if env.short_circuit then
    Error "the short-circuit term reads actual input transitions"
  else
    match Array.find_opt (fun id -> not (Float.is_finite budgets.(id))) gates with
    | Some id ->
      Error
        (Printf.sprintf "gate %s has a non-finite budget"
           (Circuit.node env.env_circuit id).Circuit.name)
    | None ->
      (* [evaluate]'s seeds, with budgets for delays: the same max-plus
         fold, since the budgets are finite and the seeds never NaN *)
      let { Dcopt_timing.Flat_sta.arrival; critical_delay; _ } =
        Dcopt_timing.Flat_sta.analyze ?arrival_offsets:env.arr_seed
          env.env_flat ~delays:budgets
      in
      if arrivals_feasible env ~critical_delay arrival then Ok ()
      else Error "the budgets' own arrival times miss the timing constraints"

(* ------------------------------------------------------------------ *)
(* Incremental evaluation                                              *)

module Incr = struct
  module Metrics = Dcopt_obs.Metrics

  let m_moves = Metrics.counter ~help:"incremental-evaluation moves" "incr.moves"

  let m_dirty =
    Metrics.counter ~help:"gates recomputed by incremental moves"
      "incr.dirty_gates"

  let m_fallbacks =
    Metrics.counter ~help:"incremental moves that re-swept every gate"
      "incr.full_fallbacks"

  let h_cone =
    Metrics.histogram ~help:"gates recomputed per incremental move"
      "incr.cone_size"

  (* A journal entry's floats, one per column of [columns]. *)
  let stride = 7

  (* The worklist is a set of per-level buckets, swept in ascending level
     order. Every fanout of a level-l gate sits at a strictly higher
     level, so the bucket being processed never grows under the sweep
     and one ascending pass drains everything. Each bucket is
     preallocated to the number of gates at its level.

     The journal holds one entry per gate a transaction touched, written
     before the gate's first change: its id in [journal_ids] and its
     [columns] at [stride * slot] in [journal_vals]. [journaled] keeps it
     to one entry per gate, so the node count bounds it. *)
  type t = {
    ienv : env;
    idesign : design;
    mutable icache : drive_cache;
    delays : float array;
    arrival : float array;
    st_terms : float array;
    dy_terms : float array;
    sc_terms : float array;
    mutable st_total : float;
    mutable dy_total : float;
    mutable sc_total : float;
    mutable crit : float;
    buckets : int array array;   (* one per level, capacity = gates there *)
    bucket_len : int array;
    mutable min_dirty : int;     (* lowest queued level; depth+1 = none *)
    mutable dirty : int;         (* total queued gates *)
    queued : bool array;
    columns : float array array;
        (* widths, thresholds, delays, arrivals and the three terms *)
    journaled : bool array;
    journal_ids : int array;
    journal_vals : float array;
    mutable journal_len : int;
    (* totals, critical delay, supply and its drive cache at the
       transaction's first move, restored verbatim on rollback so a
       rejected move leaves no floating-point residue *)
    mutable saved :
      (float * float * float * float * float * drive_cache) option;
  }

  let env t = t.ienv
  let design t = t.idesign
  let delays t = t.delays

  let record t id =
    if not t.journaled.(id) then begin
      t.journaled.(id) <- true;
      let k = t.journal_len in
      t.journal_ids.(k) <- id;
      for c = 0 to stride - 1 do
        t.journal_vals.((stride * k) + c) <- t.columns.(c).(id)
      done;
      t.journal_len <- k + 1
    end

  let mark_dirty t id =
    if t.ienv.is_gate.(id) && not t.queued.(id) then begin
      t.queued.(id) <- true;
      let l = t.ienv.env_flat.Flat.levels.(id) in
      t.buckets.(l).(t.bucket_len.(l)) <- id;
      t.bucket_len.(l) <- t.bucket_len.(l) + 1;
      t.dirty <- t.dirty + 1;
      if l < t.min_dirty then t.min_dirty <- l
    end

  (* Drop every queued mark, e.g. those a raising move left behind. *)
  let drain t =
    let depth = t.ienv.env_flat.Flat.depth in
    if t.dirty > 0 then
      for l = t.min_dirty to depth do
        for i = 0 to t.bucket_len.(l) - 1 do
          t.queued.(t.buckets.(l).(i)) <- false
        done;
        t.bucket_len.(l) <- 0
      done;
    t.dirty <- 0;
    t.min_dirty <- depth + 1

  (* One gate's re-evaluation, with [evaluate]'s fanin fold (pin order),
     context, gate record and formulas, so a gate whose inputs are
     unchanged reproduces its delay and arrival bit for bit — that
     equality is the worklist's stop test. Energy terms are swapped into
     the running totals (subtract the stored term, add the new one).
     Returns whether the delay or arrival changed. *)
  let step t id =
    let env = t.ienv and design = t.idesign in
    let f = env.env_flat in
    let max_fanin_delay = ref 0.0 and worst_arrival = ref 0.0 in
    for p = f.Flat.fanin_off.(id) to f.Flat.fanin_off.(id + 1) - 1 do
      let fi = f.Flat.fanin_edges.(p) in
      if env.is_gate.(fi) then
        max_fanin_delay := Float.max !max_fanin_delay t.delays.(fi);
      worst_arrival := Float.max !worst_arrival t.arrival.(fi)
    done;
    let max_fanin_delay = !max_fanin_delay in
    let ctx = drive_ctx t.icache ~vt:design.vt.(id) in
    let w = design.widths.(id) in
    let g = gate env ctx design ~max_fanin_delay id in
    (* Clamping would poison the subtract-then-add totals (inf -. inf =
       nan), so every term is checked before anything mutates: the raise
       aborts the move, and the caller's rollback restores the journal. *)
    let d = Guard.check ~site:"incr.delay" (Drive.gate_delay g ~w) in
    let st = Guard.check ~site:"incr.static" (Drive.static_energy ctx ~fc:env.fc ~w) in
    let dy =
      Guard.check ~site:"incr.dynamic"
        (Drive.dynamic_energy g ~w ~activity:env.acts.(id))
    in
    let sc =
      if env.short_circuit then
        Guard.check ~site:"incr.short_circuit"
          (sc_energy env ctx design ~max_fanin_delay id)
      else 0.0
    in
    record t id;
    t.st_total <- t.st_total -. t.st_terms.(id) +. st;
    t.dy_total <- t.dy_total -. t.dy_terms.(id) +. dy;
    t.sc_total <- t.sc_total -. t.sc_terms.(id) +. sc;
    t.st_terms.(id) <- st;
    t.dy_terms.(id) <- dy;
    t.sc_terms.(id) <- sc;
    let a = !worst_arrival +. d in
    let changed =
      not (Float.equal d t.delays.(id) && Float.equal a t.arrival.(id))
    in
    t.delays.(id) <- d;
    t.arrival.(id) <- a;
    changed

  (* Drain the buckets in ascending level order, queueing a gate's
     fanouts when its delay or arrival changed; returns the number of
     gates stepped, the move's cone size. *)
  let propagate t =
    let f = t.ienv.env_flat in
    let depth = f.Flat.depth in
    let fanout_off = f.Flat.fanout_off in
    let fanout_edges = f.Flat.fanout_edges in
    let processed = ref 0 in
    let l = ref t.min_dirty in
    (* Marks raised while processing level l land strictly above l, so the
       ascending sweep visits them; [dirty] short-circuits the tail once the
       wavefront has died out. *)
    while !l <= depth && t.dirty > 0 do
      let len = t.bucket_len.(!l) in
      if len > 0 then begin
        let bucket = t.buckets.(!l) in
        (* Retire the whole bucket before stepping any of it: [step] may
           raise Guard.Non_finite mid-bucket, and an id left queued with
           no bucket slot could never be marked dirty again. Clearing up
           front is safe — fanouts sit at strictly higher levels, so no
           step below can re-queue an id from this bucket. *)
        for i = 0 to len - 1 do
          t.queued.(bucket.(i)) <- false
        done;
        t.bucket_len.(!l) <- 0;
        t.dirty <- t.dirty - len;
        for i = 0 to len - 1 do
          let id = bucket.(i) in
          incr processed;
          if step t id then
            for p = fanout_off.(id) to fanout_off.(id + 1) - 1 do
              mark_dirty t fanout_edges.(p)
            done
        done
      end;
      incr l
    done;
    t.min_dirty <- depth + 1;
    !processed

  (* Every gate, in topological order: the initializer and the fallback
     for global moves. The totals are a left fold in visiting order, and
     only this order makes [create]'s totals [evaluate]'s. *)
  let sweep t =
    drain t;
    let gates = t.ienv.gates_topo in
    for i = 0 to Array.length gates - 1 do
      ignore (step t gates.(i))
    done

  let recompute_critical t =
    t.crit <-
      Array.fold_left
        (fun acc id -> Float.max acc t.arrival.(id))
        0.0
        (Circuit.outputs t.ienv.env_circuit)

  let commit t =
    drain t;
    for k = 0 to t.journal_len - 1 do
      t.journaled.(t.journal_ids.(k)) <- false
    done;
    t.journal_len <- 0;
    t.saved <- None

  let rollback t =
    drain t;
    for k = 0 to t.journal_len - 1 do
      let id = t.journal_ids.(k) in
      t.journaled.(id) <- false;
      for c = 0 to stride - 1 do
        t.columns.(c).(id) <- t.journal_vals.((stride * k) + c)
      done
    done;
    t.journal_len <- 0;
    (match t.saved with
    | Some (st, dy, sc, crit, vdd, cache) ->
      t.st_total <- st;
      t.dy_total <- dy;
      t.sc_total <- sc;
      t.crit <- crit;
      t.idesign.vdd <- vdd;
      t.icache <- cache
    | None -> ());
    t.saved <- None

  let create env design =
    let n = Circuit.size env.env_circuit in
    if Array.length design.vt <> n || Array.length design.widths <> n then
      invalid_arg "Power_model.Incr.create: design size mismatch";
    if Option.is_some design.rail then
      invalid_arg "Power_model.Incr.create: two-rail design";
    let f = env.env_flat in
    let depth = f.Flat.depth in
    let column () = Array.make n 0.0 in
    let delays = column () and st_terms = column () in
    let dy_terms = column () and sc_terms = column () in
    (* Constraint input delays seed the primary inputs' arrivals; inputs
       are never stepped, so the seeds survive every move. *)
    let arrival =
      match env.arr_seed with
      | None -> column ()
      | Some seed -> Array.copy seed (* gate slots overwritten below *)
    in
    let t =
      {
        ienv = env;
        idesign = design;
        icache = drive_cache env ~vdd:design.vdd;
        delays;
        arrival;
        st_terms;
        dy_terms;
        sc_terms;
        st_total = 0.0;
        dy_total = 0.0;
        sc_total = 0.0;
        crit = 0.0;
        buckets =
          Array.init (depth + 1) (fun l ->
              let lo, hi = Flat.level_gates f l in
              Array.make (hi - lo) 0);
        bucket_len = Array.make (depth + 1) 0;
        min_dirty = depth + 1;
        dirty = 0;
        queued = Array.make n false;
        columns =
          [| design.widths; design.vt; delays; arrival; st_terms; dy_terms;
             sc_terms |];
        journaled = Array.make n false;
        journal_ids = Array.make n 0;
        journal_vals = Array.make (stride * n) 0.0;
        journal_len = 0;
        saved = None;
      }
    in
    (* Populate by a full sweep: the sub-then-add updates against zeroed
       terms reduce to the exact left-to-right sums [evaluate] computes. *)
    sweep t;
    recompute_critical t;
    commit t;
    t

  let begin_move t =
    Metrics.incr m_moves;
    if Option.is_none t.saved then
      t.saved <-
        Some
          (t.st_total, t.dy_total, t.sc_total, t.crit, t.idesign.vdd, t.icache)

  let finish_move t ~cone =
    Metrics.incr ~by:cone m_dirty;
    if Domain.is_main_domain () then
      Metrics.observe h_cone (float_of_int cone);
    recompute_critical t

  let require_gate t id =
    if not t.ienv.is_gate.(id) then
      invalid_arg "Power_model.Incr: node is not a gate"

  let set_width t id w =
    require_gate t id;
    begin_move t;
    record t id;
    t.idesign.widths.(id) <- w;
    (* the gate's own delay/energy change, and so do its fanin drivers':
       their load includes this gate's input capacitance *)
    mark_dirty t id;
    let f = t.ienv.env_flat in
    for p = f.Flat.fanin_off.(id) to f.Flat.fanin_off.(id + 1) - 1 do
      mark_dirty t f.Flat.fanin_edges.(p)
    done;
    finish_move t ~cone:(propagate t)

  let set_vt t id vt =
    require_gate t id;
    begin_move t;
    record t id;
    t.idesign.vt.(id) <- vt;
    (* a threshold change is local: no other gate's load or context moves *)
    mark_dirty t id;
    finish_move t ~cone:(propagate t)

  let full_refresh t =
    Metrics.incr m_fallbacks;
    sweep t;
    finish_move t ~cone:(Array.length t.ienv.gates_topo)

  (* [saved] holds the supply and its cache, so a rollback needs no entry *)
  let set_vdd t vdd =
    begin_move t;
    t.idesign.vdd <- vdd;
    t.icache <- drive_cache t.ienv ~vdd;
    full_refresh t

  let set_vt_uniform t vt =
    begin_move t;
    let gates = t.ienv.gates_topo in
    for i = 0 to Array.length gates - 1 do
      record t gates.(i);
      t.idesign.vt.(gates.(i)) <- vt
    done;
    full_refresh t

  let static_energy t = t.st_total
  let dynamic_energy t = t.dy_total
  let short_circuit_energy t = t.sc_total
  let total_energy t = t.st_total +. t.dy_total +. t.sc_total
  let critical_delay t = t.crit

  let feasible t = arrivals_feasible t.ienv ~critical_delay:t.crit t.arrival

  let critical_path t =
    Dcopt_timing.Flat_sta.critical_path_of_arrival t.ienv.env_flat
      ~arrival:t.arrival ~delays:t.delays

  let snapshot t =
    {
      static_energy = t.st_total;
      dynamic_energy = t.dy_total;
      short_circuit_energy = t.sc_total;
      total_energy = total_energy t;
      static_power = t.st_total *. t.ienv.fc;
      dynamic_power = (t.dy_total +. t.sc_total) *. t.ienv.fc;
      delays = Array.copy t.delays;
      critical_delay = t.crit;
      feasible = feasible t;
    }
end
