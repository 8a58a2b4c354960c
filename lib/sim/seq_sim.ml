module Circuit = Dcopt_netlist.Circuit
module Gate = Dcopt_netlist.Gate
module Prng = Dcopt_util.Prng

type result = {
  core : Circuit.t;
  probabilities : float array;
  densities : float array;
  cycles : int;
  state_bits : int;
}

(* Settle cycles run and discarded before the measured ones. *)
let warmup = 64

let simulate ?(seed = 0xFACEL) ~cycles ~input_probability ~input_density
    circuit =
  if cycles < 1 then invalid_arg "Seq_sim.simulate: cycles < 1";
  if not (input_probability >= 0.0 && input_probability <= 1.0) then
    invalid_arg "Seq_sim.simulate: input_probability out of range";
  if not (input_density >= 0.0 && input_density <= 1.0) then
    invalid_arg "Seq_sim.simulate: input_density out of [0, 1]";
  let rng = Prng.create seed in
  let core = Circuit.combinational_core circuit in
  let n = Circuit.size core in
  (* Map each state bit (pseudo input of the core) to the pseudo output
     carrying its next value; true primary inputs are driven externally. *)
  let dff_next =
    Array.to_list (Circuit.dffs circuit)
    |> List.map (fun id ->
           let nd = Circuit.node circuit id in
           let d_pin = (Circuit.node circuit nd.Circuit.fanins.(0)).Circuit.name in
           (Circuit.find core nd.Circuit.name, Circuit.find core d_pin))
  in
  let state_input = Hashtbl.create 16 in
  List.iter (fun (input_id, d_id) -> Hashtbl.add state_input input_id d_id)
    dff_next;
  let core_inputs = Circuit.inputs core in
  let true_inputs =
    Array.to_list core_inputs
    |> List.filter (fun id -> not (Hashtbl.mem state_input id))
    |> Array.of_list
  in
  (* Markov input process matching probability and toggle rate. *)
  let p_up =
    if input_probability >= 1.0 then 0.0
    else input_density /. (2.0 *. (1.0 -. input_probability))
  in
  let p_down =
    if input_probability <= 0.0 then 0.0
    else input_density /. (2.0 *. input_probability)
  in
  let input_values = Array.make n false in
  Array.iter
    (fun id -> input_values.(id) <- Prng.float rng 1.0 < input_probability)
    true_inputs;
  (* state starts at all-zero (the conventional reset state) *)
  List.iter (fun (input_id, _) -> input_values.(input_id) <- false) dff_next;
  let ones = Array.make n 0 in
  let toggles = Array.make n 0 in
  let previous = ref None in
  let step measure =
    let vector =
      Array.map (fun id -> input_values.(id)) core_inputs
    in
    let values = Circuit.eval core vector in
    if measure then begin
      for id = 0 to n - 1 do
        if values.(id) then ones.(id) <- ones.(id) + 1
      done;
      match !previous with
      | Some prev ->
        for id = 0 to n - 1 do
          if values.(id) <> prev.(id) then toggles.(id) <- toggles.(id) + 1
        done
      | None -> ()
    end;
    (* keep the reference values across the warm-up boundary so the first
       measured cycle contributes its toggle too *)
    previous := Some (Array.copy values);
    (* advance the state and the input process *)
    List.iter
      (fun (input_id, d_id) -> input_values.(input_id) <- values.(d_id))
      dff_next;
    Array.iter
      (fun id ->
        let toggle_p = if input_values.(id) then p_down else p_up in
        if Prng.float rng 1.0 < Float.min 1.0 toggle_p then
          input_values.(id) <- not input_values.(id))
      true_inputs
  in
  for _ = 1 to warmup do
    step false
  done;
  for _ = 1 to cycles do
    step true
  done;
  let fcycles = float_of_int cycles in
  {
    core;
    probabilities = Array.map (fun c -> float_of_int c /. fcycles) ones;
    densities = Array.map (fun c -> float_of_int c /. fcycles) toggles;
    cycles;
    state_bits = List.length dff_next;
  }

let profile r =
  {
    Dcopt_activity.Activity.probabilities = Array.copy r.probabilities;
    densities = Array.copy r.densities;
  }
