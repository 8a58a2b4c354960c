module Circuit = Dcopt_netlist.Circuit
module Flat_sta = Dcopt_timing.Flat_sta

type outcome =
  | Repaired of { budgets : float array; lifted : int; iterations : int }
  | Infeasible of { limiting_gate : int }

(* At most 24 lift-and-rebalance rounds; a lifted budget sits 1e-3 above
   the floor it was lifted to. *)
let max_iterations = 24
let margin = 1e-3

(* The repair loop drives the *actual* sizing operator: size the whole
   circuit at the corner, lift the budget of every gate that missed to the
   delay it achieved at maximum width (its true floor under the sized
   fanout loads), then claw the overflow back from non-floored gates along
   each violating path. Lifts only grow and shrinks only shrink the
   complementary set, so the loop either reaches a sized fixpoint or proves
   a floored-end-to-end path. *)
let repair env ~budgets ~vdd ~vt =
  let flat = Power_model.flat env in
  let n = Circuit.size (Power_model.circuit env) in
  let budgets = Array.copy budgets in
  let floored = Array.make (Array.length budgets) false in
  (* Forward sweeps only: the loop reads the critical delay and one
     critical path, never required times or slacks. *)
  let forward () = Flat_sta.forward flat ~delays:budgets in
  let path_of arrival =
    Flat_sta.critical_path_of_arrival flat ~arrival ~delays:budgets
  in
  let critical_path () = path_of (fst (forward ())) in
  let available = snd (forward ()) in
  let gates = Power_model.gate_ids env in
  let vt_array = Array.make n vt in
  (* Vdd and Vt hold for the whole loop: one context reads every floor *)
  let ctx = Power_model.drive env ~vdd ~vt in
  let lifted = ref 0 in
  let infeasible_at path =
    let limiting =
      match List.find_opt (fun id -> floored.(id)) path with
      | Some id -> id
      | None -> (match path with id :: _ -> id | [] -> 0)
    in
    Infeasible { limiting_gate = limiting }
  in
  let rec loop iteration =
    if iteration > max_iterations then
      infeasible_at (critical_path ())
    else
      let design, ok = Power_model.size_widths env ~vdd ~vt:vt_array ~budgets in
      if ok then Repaired { budgets; lifted = !lifted; iterations = iteration }
      else begin
        (* Lift every missing gate to its achieved max-width delay. *)
        Array.iter
          (fun id ->
            let mfd = Power_model.budget_fanin_delay env ~budgets id in
            let d =
              Power_model.gate_delay env ctx design ~max_fanin_delay:mfd id
            in
            if d > budgets.(id) && Float.is_finite d then begin
              budgets.(id) <- d *. (1.0 +. margin);
              if not floored.(id) then begin
                floored.(id) <- true;
                incr lifted
              end
            end
            else if d > budgets.(id) then budgets.(id) <- infinity)
          gates;
        if Array.exists (fun id -> budgets.(id) = infinity) gates then
          infeasible_at (critical_path ())
        else begin
          (* Rebalance every violating path, worst first. *)
          let rec rebalance guard =
            if guard = 0 then false
            else
              let arrival, critical_delay = forward () in
              if critical_delay <= available *. (1.0 +. 1e-9) then true
              else
                let path = path_of arrival in
                let floored_sum, free_sum =
                  List.fold_left
                    (fun (f, fr) id ->
                      if floored.(id) then (f +. budgets.(id), fr)
                      else (f, fr +. budgets.(id)))
                    (0.0, 0.0) path
                in
                let room = available -. floored_sum in
                if free_sum <= 0.0 || room <= 0.0 then false
                else begin
                  let scale = room /. free_sum in
                  List.iter
                    (fun id ->
                      if not floored.(id) then
                        budgets.(id) <- budgets.(id) *. scale)
                    path;
                  rebalance (guard - 1)
                end
          in
          if rebalance (4 * max 1 (Array.length gates)) then loop (iteration + 1)
          else infeasible_at (critical_path ())
        end
      end
  in
  loop 1
