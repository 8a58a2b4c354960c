module Circuit = Dcopt_netlist.Circuit
module Flat = Dcopt_netlist.Flat
module Metrics = Dcopt_obs.Metrics

type result = {
  arrival : float array;
  critical_delay : float;
  required : float array;
  slack : float array;
}

let m_passes = Metrics.counter "sta.level.passes"
    ~help:"Levelized STA sweeps (one forward or backward pass each)"
let g_depth = Metrics.gauge "sta.level.depth"
    ~help:"Logic depth of the last circuit analyzed by the flat STA"
let g_max_width = Metrics.gauge "sta.level.max_width"
    ~help:"Widest gate level of the last circuit analyzed by the flat STA"
let g_alloc = Metrics.gauge "flat.alloc_bytes"
    ~help:"Working-set bytes of the last flat circuit view analyzed"

(* Gauges are main-domain-only instruments; the counter is atomic and
   safe from pool workers (an optimizer running under Par.map may reach
   this module off the main domain). *)
let set_gauges f =
  if Domain.is_main_domain () then begin
    Metrics.set g_depth (float_of_int (Flat.depth f));
    Metrics.set g_max_width (float_of_int (Flat.max_level_width f));
    Metrics.set g_alloc (float_of_int (Flat.alloc_bytes f))
  end

let validate name f ~delays =
  if not (Circuit.is_combinational (Flat.circuit f)) then
    invalid_arg (name ^ ": circuit is sequential");
  if Array.length delays <> Flat.size f then
    invalid_arg (name ^ ": delay array size mismatch")

(* The per-slice sweep kernels live in flat_sta_stubs.c: the per-edge
   work is three loads, a compare and a branch, and the C loops run ~2x
   faster than their best OCaml renditions (see the stub file for the
   bit-identity argument — they reproduce the reference record-walking
   analyzer's IEEE operations exactly, for every NaN-free delay array).
   Both are [@@noalloc] and runtime-free; each call sweeps one level
   slice. *)

external forward_range :
  float array (* arrival *) ->
  float array (* delays *) ->
  int array (* gate level order *) ->
  int array (* fanin_off *) ->
  int array (* fanin_edges *) ->
  (int[@untagged]) (* lo *) ->
  (int[@untagged]) (* hi *) ->
  unit
  = "dcopt_flat_sta_forward_range_bytecode" "dcopt_flat_sta_forward_range_native"
[@@noalloc]

external backward_req_range :
  float array (* required *) ->
  float array (* slack *) ->
  float array (* arrival *) ->
  float array (* delays *) ->
  int array (* level order *) ->
  int array (* fanout_off *) ->
  int array (* fanout_edges *) ->
  float array (* required seeds *) ->
  (int[@untagged]) (* lo *) ->
  (int[@untagged]) (* hi *) ->
  unit
  = "dcopt_flat_sta_backward_req_range_bytecode"
    "dcopt_flat_sta_backward_req_range_native"
[@@noalloc]

let forward_sweep f ~delays ~arrival =
  Metrics.incr m_passes;
  let off = f.Flat.gate_level_off in
  let order = f.Flat.gate_level_order in
  let fanin_off = f.Flat.fanin_off in
  let fanin_edges = f.Flat.fanin_edges in
  for l = 0 to f.Flat.depth do
    forward_range arrival delays order fanin_off fanin_edges off.(l)
      off.(l + 1)
  done;
  Array.fold_left
    (fun acc id -> Float.max acc arrival.(id))
    0.0 f.Flat.output_ids

(* Fresh arrival columns skip the full zero fill: the forward sweep
   writes every gate entry, so only the non-gate (primary input) slots of
   level 0 need an explicit 0. *)
let fresh_arrival f =
  let arrival = Array.create_float (Flat.size f) in
  let order = f.Flat.level_order in
  let is_gate = f.Flat.is_gate in
  for k = f.Flat.level_off.(0) to f.Flat.level_off.(1) - 1 do
    let id = Array.unsafe_get order k in
    if not (Array.unsafe_get is_gate id) then Array.unsafe_set arrival id 0.0
  done;
  arrival

let forward f ~delays =
  validate "Flat_sta.forward" f ~delays;
  set_gauges f;
  let arrival = fresh_arrival f in
  (arrival, forward_sweep f ~delays ~arrival)

let analyze ?required_time ?required_times ?arrival_offsets f ~delays =
  validate "Flat_sta.analyze" f ~delays;
  set_gauges f;
  let n = Flat.size f in
  let check_seeds what = function
    | Some seeds when Array.length seeds <> n ->
      invalid_arg ("Flat_sta.analyze: " ^ what ^ " size mismatch")
    | _ -> ()
  in
  check_seeds "required_times" required_times;
  check_seeds "arrival_offsets" arrival_offsets;
  let arrival =
    match arrival_offsets with
    | None -> fresh_arrival f
    | Some seeds -> Array.copy seeds (* gate slots overwritten by the sweep *)
  in
  let critical_delay = forward_sweep f ~delays ~arrival in
  (* The backward sweep writes every node's slack exactly once (every
     node appears in the level order), so that column starts
     uninitialized. The scalar target becomes a seed column — [target]
     at every output, [infinity] elsewhere — built in [required] itself:
     the kernel reads a node's seed just before writing that same cell
     and no other, so the column can serve as its own seed. *)
  let slack = Array.create_float n in
  let seeds, required =
    match required_times with
    | Some seeds -> (seeds, Array.create_float n)
    | None ->
      let target = Option.value required_time ~default:critical_delay in
      let required = Array.make n infinity in
      Array.iter (fun id -> required.(id) <- target) f.Flat.output_ids;
      (required, required)
  in
  Metrics.incr m_passes;
  let off = f.Flat.level_off in
  let order = f.Flat.level_order in
  for l = f.Flat.depth downto 0 do
    backward_req_range required slack arrival delays order f.Flat.fanout_off
      f.Flat.fanout_edges seeds off.(l) off.(l + 1)
  done;
  { arrival; critical_delay; required; slack }

let slack_of_endpoint r id = r.slack.(id)

let critical_path_of_arrival f ~arrival ~delays =
  let outputs = f.Flat.output_ids in
  if Array.length outputs = 0 then []
  else begin
    (* the first output of maximal arrival *)
    let last =
      Array.fold_left
        (fun best id -> if arrival.(id) > arrival.(best) then id else best)
        outputs.(0) outputs
    in
    let is_gate = f.Flat.is_gate in
    let fanin_off = f.Flat.fanin_off in
    let fanin_edges = f.Flat.fanin_edges in
    let rec walk id acc =
      if not is_gate.(id) then acc
      else begin
        let acc = id :: acc in
        let lo = fanin_off.(id) and hi = fanin_off.(id + 1) in
        if lo = hi then acc
        else begin
          (* The worst fanin satisfies arrival(f) + delay(id) = arrival(id)
             exactly (that sum is how arrival(id) was computed), and any
             fanin reaching it under rounding ties the maximum, so the scan
             stops at the first hit in pin order. *)
          let found = ref (-1) in
          let p = ref lo in
          while !found < 0 && !p < hi do
            let fi = fanin_edges.(!p) in
            if arrival.(fi) +. delays.(id) >= arrival.(id) then found := fi;
            incr p
          done;
          let next =
            if !found >= 0 then !found
            else begin
              let best = ref fanin_edges.(lo) in
              for q = lo to hi - 1 do
                let fi = fanin_edges.(q) in
                if arrival.(fi) > arrival.(!best) then best := fi
              done;
              !best
            end
          in
          walk next acc
        end
      end
    in
    walk last []
  end
