(** Cycle-time-slack study (paper Fig. 2(b)): how the power savings of the
    joint optimization grow as the available cycle time is relaxed beyond
    the nominal 1/fc. Each slack factor re-runs Procedure 1 and both
    optimizers at the stretched cycle time (energy per cycle integrates
    leakage over the longer cycle, so the comparison stays fair). *)

type point = {
  slack_factor : float;      (** cycle time / nominal cycle time, >= 1 *)
  baseline_energy : float;   (** fixed-Vt optimum at this cycle time, J *)
  joint_energy : float;      (** joint optimum at this cycle time, J *)
  savings : float;
    (** nominal (factor-1) baseline energy / joint energy — the paper
        measures savings against the fixed Table-1 design, so the curve
        grows with slack and reaches the headline ~25x *)
  savings_same_slack : float; (** baseline at this slack / joint *)
  joint_vdd : float;
  joint_vt : float;
}

val sweep :
  ?m_steps:int ->
  tech:Dcopt_device.Tech.t ->
  fc:float ->
  Dcopt_netlist.Circuit.t ->
  Dcopt_activity.Activity.profile ->
  factors:float array ->
  point array
(** One {!point} per slack factor (requires each factor >= 1); factors
    where either optimizer fails are skipped. The fixed-Vt baseline runs
    at {!Baseline.default_vt}. The circuit must be combinational. *)
