(* List-and-heap reference for Kpaths and Procedure 1: the bitwise oracle
   for the array-backed enumerator and the budget drain built on it.

   Partial paths are reversed OCaml lists held in a Dcopt_util.Heap keyed
   on float priorities; fanouts are read from Circuit.t node records. The
   budget split is the list-folding drain of eq. (3) followed by the same
   fallback, slope lift and final scaling as Delay_assign. The
   differential suite holds the production engine to these results bit
   for bit. *)

module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate
module Heap = Dcopt_util.Heap

let effective_fanout circuit id = max 1 (Circuit.fanout_count circuit id)

let is_logic circuit id =
  match (Circuit.node circuit id).Circuit.kind with
  | Gate.Input | Gate.Dff -> false
  | _ -> true

(* best.(n) = largest criticality obtainable from gate n (inclusive) to any
   primary output; neg_infinity marks dead ends. *)
let best_completion circuit =
  let best = Array.make (Circuit.size circuit) neg_infinity in
  let order = Circuit.topo_order circuit in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    if is_logic circuit id then begin
      let continuation =
        Array.fold_left
          (fun acc g ->
            if is_logic circuit g then Float.max acc best.(g) else acc)
          neg_infinity (Circuit.fanouts circuit id)
      in
      let here = if Circuit.is_output circuit id then 0.0 else neg_infinity in
      let tail = Float.max here continuation in
      if tail > neg_infinity then
        best.(id) <- float_of_int (effective_fanout circuit id) +. tail
    end
  done;
  best

type item =
  | Partial of int list * int  (* gates so far (reversed), criticality *)
  | Complete of int list * int

(* (gate ids source to output, criticality), most critical first. *)
let enumerate ?max_paths circuit =
  let limit =
    Option.value max_paths ~default:(64 * max 1 (Circuit.gate_count circuit))
  in
  let best = best_completion circuit in
  let heap = Heap.create () in
  Array.iter
    (fun nd ->
      let id = nd.Circuit.id in
      let has_pi_fanin =
        Array.exists (fun f -> not (is_logic circuit f)) nd.Circuit.fanins
      in
      if is_logic circuit id && has_pi_fanin && best.(id) > neg_infinity then
        Heap.push heap ~priority:best.(id)
          (Partial ([ id ], effective_fanout circuit id)))
    (Circuit.nodes circuit);
  let rec go emitted acc =
    if emitted >= limit then List.rev acc
    else
      match Heap.pop heap with
      | None -> List.rev acc
      | Some (_, Complete (rev_gates, crit)) ->
        go (emitted + 1) ((List.rev rev_gates, crit) :: acc)
      | Some (_, Partial (rev_gates, crit)) ->
        let head = List.hd rev_gates in
        if Circuit.is_output circuit head then
          Heap.push heap ~priority:(float_of_int crit)
            (Complete (rev_gates, crit));
        Array.iter
          (fun g ->
            if is_logic circuit g && best.(g) > neg_infinity then
              Heap.push heap
                ~priority:(float_of_int crit +. best.(g))
                (Partial (g :: rev_gates, crit + effective_fanout circuit g)))
          (Circuit.fanouts circuit head);
        go emitted acc
  in
  go 0 []

(* Procedure 1 over [enumerate]: (t_max, paths_used, fallback_gates,
   slope_adjusted) with the default skew factor and slope guard. *)
let assign ?max_paths circuit ~cycle_time =
  let n = Circuit.size circuit in
  let available = 0.95 *. cycle_time in
  let w id = float_of_int (effective_fanout circuit id) in
  let t_max = Array.make n 0.0 and assigned = Array.make n false in
  let remaining = ref (Circuit.gate_count circuit) and paths_used = ref 0 in
  let consume (gate_ids, _) =
    if !remaining > 0 then begin
      let unassigned = List.filter (fun id -> not assigned.(id)) gate_ids in
      if unassigned <> [] then begin
        incr paths_used;
        let already =
          List.fold_left
            (fun acc id -> if assigned.(id) then acc +. t_max.(id) else acc)
            0.0 gate_ids
        in
        let denom = List.fold_left (fun acc id -> acc +. w id) 0.0 unassigned in
        let share =
          Float.max (0.01 *. available) (available -. already) /. denom
        in
        List.iter
          (fun id ->
            t_max.(id) <- w id *. share;
            assigned.(id) <- true;
            decr remaining)
          unassigned
      end
    end
  in
  List.iter consume (enumerate ?max_paths circuit);
  let worst col nbrs =
    Array.fold_left
      (fun acc g -> if is_logic circuit g then Float.max acc col.(g) else acc)
      0.0 nbrs
  in
  let order = Circuit.topo_order circuit in
  let fallback_gates = ref 0 in
  if !remaining > 0 then begin
    let down = Array.make n 0.0 and up = Array.make n 0.0 in
    for i = n - 1 downto 0 do
      let id = order.(i) in
      if is_logic circuit id then
        down.(id) <- w id +. worst down (Circuit.fanouts circuit id)
    done;
    Array.iter
      (fun id ->
        if is_logic circuit id then
          up.(id) <- w id +. worst up (Circuit.node circuit id).Circuit.fanins)
      order;
    for id = 0 to n - 1 do
      if is_logic circuit id && not assigned.(id) then begin
        let crit = up.(id) +. down.(id) -. w id in
        t_max.(id) <- available *. w id /. Float.max (w id) crit;
        incr fallback_gates
      end
    done
  end;
  let slope_adjusted = ref 0 in
  Array.iter
    (fun id ->
      if is_logic circuit id then begin
        let floor_needed =
          0.3 *. worst t_max (Circuit.node circuit id).Circuit.fanins
        in
        if t_max.(id) < floor_needed then begin
          t_max.(id) <- floor_needed;
          incr slope_adjusted
        end
      end)
    order;
  let _, critical = Sta_ref.forward circuit ~delays:t_max in
  if critical > available && critical > 0.0 then begin
    let scale = available /. critical in
    Array.iteri (fun id v -> t_max.(id) <- v *. scale) t_max
  end;
  (t_max, !paths_used, !fallback_gates, !slope_adjusted)
