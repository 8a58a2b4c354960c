module Solution = Dcopt_opt.Solution
module Baseline = Dcopt_opt.Baseline
module Heuristic = Dcopt_opt.Heuristic
module Annealing = Dcopt_opt.Annealing
module Multi_vt = Dcopt_opt.Multi_vt
module Multi_vdd = Dcopt_opt.Multi_vdd
module Tilos = Dcopt_opt.Tilos
module Span = Dcopt_obs.Span

let log_src =
  Logs.Src.create "dcopt.optimizer" ~doc:"optimizer registry dispatch"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  name : string;
  doc : string;
  run :
    ?observer:Dcopt_obs.Telemetry.observer ->
    Scenario.t ->
    Solution.t option;
}

(* Every builtin is the same shape: search on the scenario's
   worst-corner view, then book the result across all corners. [core]
   gets the prepared circuit the legacy Flow.run_* wrappers used to
   take, so their bodies moved here unchanged. *)
let scenario_run core =
 fun ?observer s ->
  let p = Scenario.prepared_view s in
  Scenario.finalize s (core ?observer p)

let run_joint ?observer ?(strategy = Heuristic.Paper_binary) p =
  let sol =
    Flow.run_with_budgets ~name:"heuristic" p (fun budgets ->
        Heuristic.optimize ?observer
          ~options:
            {
              Heuristic.m_steps = p.Flow.config.Flow.m_steps;
              strategy;
              vt_fixed = None;
            }
          p.Flow.env ~budgets)
  in
  (match sol with
  | Some sol ->
    Log.info (fun m ->
        m "joint optimum: Vdd %.2f V, Vt %s mV, %s per cycle"
          (Solution.vdd sol)
          (Solution.vt_values sol p.Flow.env
          |> List.map (fun v -> Printf.sprintf "%.0f" (v *. 1000.0))
          |> String.concat "/")
          (Dcopt_util.Si.format ~unit:"J" (Solution.total_energy sol)))
  | None -> Log.warn (fun m -> m "joint optimization found no feasible design"));
  sol

let builtins =
  [
    {
      name = "baseline";
      doc = "fixed 700 mV threshold, Vdd and widths optimized (Table 1)";
      run =
        scenario_run (fun ?observer p ->
            let vt = Baseline.default_vt in
            Flow.run_with_budgets ~name:"baseline" ~vt p (fun budgets ->
                Baseline.optimize ?observer ~vt
                  ~m_steps:p.Flow.config.Flow.m_steps p.Flow.env ~budgets));
    };
    {
      name = "joint";
      doc = "Procedure 2: nested binary search over (Vdd, Vt, widths)";
      run = scenario_run (fun ?observer p -> run_joint ?observer p);
    };
    {
      name = "joint-grid";
      doc = "Procedure 2 with the grid-refine search strategy";
      run =
        scenario_run (fun ?observer p ->
            run_joint ?observer ~strategy:Heuristic.Grid_refine p);
    };
    {
      name = "annealing";
      doc = "multi-pass simulated annealing over the same variables";
      run =
        scenario_run (fun ?observer p ->
            (* the walk ignores budgets; an unrepairable budget set still
               reports the job infeasible, as for every other optimizer *)
            Flow.run_with_budgets ~name:"annealing" p (fun _budgets ->
                Annealing.optimize ?observer p.Flow.env));
    };
    {
      name = "multi-vt";
      doc = "dual threshold voltages (n_v = 2)";
      run =
        scenario_run (fun ?observer p ->
            Flow.run_with_budgets ~name:"multi-vt" p (fun budgets ->
                Multi_vt.optimize ?observer ~m_steps:p.Flow.config.Flow.m_steps
                  ~n_vt:2 p.Flow.env ~budgets));
    };
    {
      name = "multi-vdd";
      doc = "dual supplies via clustered voltage scaling";
      run =
        scenario_run (fun ?observer p ->
            Flow.run_with_budgets ~name:"multi-vdd" p (fun budgets ->
                Multi_vdd.optimize ?observer ~m_steps:p.Flow.config.Flow.m_steps
                  p.Flow.env ~budgets));
    };
    {
      name = "tilos";
      doc = "budget-free TILOS sensitivity sizing";
      run =
        scenario_run (fun ?observer p ->
            Span.with_ "optimize" ~args:[ ("optimizer", "tilos") ]
            @@ fun () ->
            Span.with_ "search" (fun () ->
                Tilos.optimize ?observer ~m_steps:p.Flow.config.Flow.m_steps
                  p.Flow.env));
    };
  ]

let registered : t list ref = ref []

let register opt =
  if opt.name = "" then invalid_arg "Optimizer.register: empty name";
  registered := List.filter (fun o -> o.name <> opt.name) !registered @ [ opt ]

let all () =
  let extra =
    List.filter
      (fun o -> not (List.exists (fun b -> b.name = o.name) builtins))
      !registered
  in
  List.map
    (fun b ->
      match List.find_opt (fun o -> o.name = b.name) !registered with
      | Some o -> o
      | None -> b)
    builtins
  @ extra

let find name = List.find_opt (fun o -> o.name = name) (all ())
let names () = List.map (fun o -> o.name) (all ())

let get name =
  match find name with
  | Some o -> o
  | None ->
    invalid_arg
      (Printf.sprintf "Optimizer.get: unknown optimizer %S (known: %s)" name
         (String.concat ", " (names ())))
