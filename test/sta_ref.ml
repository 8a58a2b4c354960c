(* Record-walking reference STA: the bitwise oracle for Flat_sta.

   Arrival, required and slack follow the plain definitions over
   Circuit.t node records, in topological order forward and reversed
   topological order backward, with the same IEEE operations in the
   same per-node order as the levelized C kernels. The differential
   suites hold the flat engine to these results bit for bit. *)

module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate

(* Forward pass: input arrivals from [offsets] (0 when absent), each gate
   its delay plus the max fanin arrival. *)
let forward ?offsets circuit ~delays =
  let arrival = Array.make (Circuit.size circuit) 0.0 in
  Circuit.iter_topo circuit (fun id ->
      let nd = Circuit.node circuit id in
      match nd.Circuit.kind with
      | Gate.Input ->
        arrival.(id) <- (match offsets with None -> 0.0 | Some s -> s.(id))
      | _ ->
        let worst =
          Array.fold_left (fun acc f -> Float.max acc arrival.(f)) 0.0
            nd.Circuit.fanins
        in
        arrival.(id) <- worst +. delays.(id));
  let critical_delay =
    Array.fold_left
      (fun acc id -> Float.max acc arrival.(id))
      0.0 (Circuit.outputs circuit)
  in
  (arrival, critical_delay)

let analyze ?required_time ?required_times ?arrival_offsets circuit ~delays =
  let n = Circuit.size circuit in
  let arrival, critical_delay =
    forward ?offsets:arrival_offsets circuit ~delays
  in
  let required = Array.make n infinity in
  (match required_times with
   | Some seeds ->
     for id = 0 to n - 1 do
       if seeds.(id) < required.(id) then required.(id) <- seeds.(id)
     done
   | None ->
     let target = Option.value required_time ~default:critical_delay in
     Array.iter
       (fun id -> required.(id) <- Float.min required.(id) target)
       (Circuit.outputs circuit));
  let order = Circuit.topo_order circuit in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    (* a consumer has fanins, so it is a gate with a delay of its own *)
    Array.iter
      (fun consumer ->
        let need = required.(consumer) -. delays.(consumer) in
        if need < required.(id) then required.(id) <- need)
      (Circuit.fanouts circuit id)
  done;
  let slack = Array.init n (fun id -> required.(id) -. arrival.(id)) in
  { Dcopt_timing.Flat_sta.arrival; critical_delay; required; slack }

(* The record walk: from the first output of maximal arrival back
   through the first fanin (pin order) whose arrival plus the node's
   delay reaches the node's arrival, else the latest fanin. *)
let critical_path_of_arrival circuit ~arrival ~delays =
  let worst_output =
    Array.fold_left
      (fun best id ->
        match best with
        | None -> Some id
        | Some b -> if arrival.(id) > arrival.(b) then Some id else best)
      None (Circuit.outputs circuit)
  in
  let rec walk id acc =
    let nd = Circuit.node circuit id in
    match nd.Circuit.kind with
    | Gate.Input -> acc
    | _ ->
      let acc = id :: acc in
      let fanins = nd.Circuit.fanins in
      if Array.length fanins = 0 then acc
      else
        let next =
          match
            Array.find_opt
              (fun f -> arrival.(f) +. delays.(id) >= arrival.(id))
              fanins
          with
          | Some f -> f
          | None ->
            Array.fold_left
              (fun best f -> if arrival.(f) > arrival.(best) then f else best)
              fanins.(0) fanins
        in
        walk next acc
  in
  match worst_output with None -> [] | Some last -> walk last []

(* True when the critical delay is at most [cycle_time], with a 0.01%
   tolerance for float accumulation. *)
let meets circuit ~delays ~cycle_time =
  let _, critical_delay = forward circuit ~delays in
  critical_delay <= cycle_time *. (1.0 +. 1e-4)

(* Every primary output arrives no later than its required seed (same
   tolerance; [infinity] seeds always pass). *)
let meets_constraints ?arrival_offsets circuit ~delays ~required_times =
  let arrival, _ = forward ?offsets:arrival_offsets circuit ~delays in
  Array.for_all
    (fun id -> arrival.(id) <= required_times.(id) *. (1.0 +. 1e-4))
    (Circuit.outputs circuit)
