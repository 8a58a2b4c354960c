(* Brute-force reference for Procedure 1: the bitwise oracle for
   Delay_assign.assign on circuits small enough to list every path.

   It enumerates every PI-to-PO path over Circuit.t node records (a gate
   with a primary-input fanin, then fanouts, ending at a primary-output
   gate) and states the tie rule in path terms: each step takes the
   lowest-id unassigned gate of highest through-criticality (the largest
   criticality of a path through it), and among the most critical paths
   through that gate the one whose gates, read away from the gate toward
   the outputs and then toward the inputs, are lexicographically
   smallest by id. The budget split is the eq. (3) fold source to
   output, followed by the dead-gate fallback, slope lift and final
   scaling, with the default skew factor and slope guard. *)

module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate

let is_logic circuit id =
  match (Circuit.node circuit id).Circuit.kind with
  | Gate.Input | Gate.Dff -> false
  | _ -> true

let effective_fanout circuit id = max 1 (Circuit.fanout_count circuit id)

type path = { gates : int array; (* source to output *) criticality : int }

(* Every PI-to-PO path, each once. *)
let paths circuit =
  let fanouts id =
    List.sort_uniq compare
      (List.filter (is_logic circuit)
         (Array.to_list (Circuit.fanouts circuit id)))
  in
  let rec extend rev id acc =
    let rev = id :: rev in
    let acc =
      if Circuit.is_output circuit id then
        let gates = Array.of_list (List.rev rev) in
        let criticality =
          Array.fold_left (fun s g -> s + effective_fanout circuit g) 0 gates
        in
        { gates; criticality } :: acc
      else acc
    in
    List.fold_left (fun acc h -> extend rev h acc) acc (fanouts id)
  in
  Array.fold_left
    (fun acc nd ->
      let id = nd.Circuit.id in
      if is_logic circuit id
         && Array.exists (fun f -> not (is_logic circuit f)) nd.Circuit.fanins
      then extend [] id acc
      else acc)
    [] (Circuit.nodes circuit)
  |> List.rev |> Array.of_list

(* The order key of a path through [g]: its gates after [g], then its
   gates before [g] nearest first. *)
let key p g =
  let gates = Array.to_list p.gates in
  let rec split before = function
    | h :: after when h = g -> after @ before
    | h :: rest -> split (h :: before) rest
    | [] -> assert false
  in
  split [] gates

type result = {
  t_max : float array;
  paths_used : int;
  fallback_gates : int;
  slope_adjusted : int;
  consumed : path list;  (** in consumption order *)
}

let assign circuit ~cycle_time =
  let n = Circuit.size circuit in
  let available = 0.95 *. cycle_time in
  let w id = float_of_int (effective_fanout circuit id) in
  let all = paths circuit in
  let through = Array.make n (-1) and via = Array.make n [] in
  Array.iter
    (fun p ->
      Array.iter
        (fun g ->
          through.(g) <- max through.(g) p.criticality;
          via.(g) <- p :: via.(g))
        p.gates)
    all;
  let t_max = Array.make n 0.0 and assigned = Array.make n false in
  let rec drain consumed =
    let g = ref (-1) in
    for id = n - 1 downto 0 do
      if through.(id) >= 0 && (not assigned.(id))
         && (!g < 0 || through.(id) >= through.(!g))
      then g := id
    done;
    if !g < 0 then List.rev consumed
    else begin
      let g = !g in
      let p =
        List.filter (fun p -> p.criticality = through.(g)) via.(g)
        |> List.map (fun p -> (key p g, p))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.hd |> snd
      in
      let already =
        Array.fold_left
          (fun acc id -> if assigned.(id) then acc +. t_max.(id) else acc)
          0.0 p.gates
      in
      let denom =
        Array.fold_left
          (fun acc id -> if assigned.(id) then acc else acc +. w id)
          0.0 p.gates
      in
      let share =
        Float.max (0.01 *. available) (available -. already) /. denom
      in
      Array.iter
        (fun id ->
          if not assigned.(id) then begin
            t_max.(id) <- w id *. share;
            assigned.(id) <- true
          end)
        p.gates;
      drain (p :: consumed)
    end
  in
  let consumed = drain [] in
  let worst col nbrs =
    Array.fold_left
      (fun acc g -> if is_logic circuit g then Float.max acc col.(g) else acc)
      0.0 nbrs
  in
  let order = Circuit.topo_order circuit in
  (* Dead gates: the largest chain through them, chains free to start and
     stop at any gate. *)
  let down = Array.make n 0.0 and up = Array.make n 0.0 in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    if is_logic circuit id then
      down.(id) <- w id +. worst down (Circuit.fanouts circuit id)
  done;
  Array.iter
    (fun id ->
      if is_logic circuit id then
        up.(id) <- w id +. worst up (Circuit.node circuit id).Circuit.fanins)
    order;
  let fallback_gates = ref 0 in
  for id = 0 to n - 1 do
    if is_logic circuit id && through.(id) < 0 then begin
      let crit = up.(id) +. down.(id) -. w id in
      t_max.(id) <- available *. w id /. Float.max (w id) crit;
      incr fallback_gates
    end
  done;
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
  {
    t_max;
    paths_used = List.length consumed;
    fallback_gates = !fallback_gates;
    slope_adjusted = !slope_adjusted;
    consumed;
  }
