(** Numerical transient simulation of a switching gate.

    Our stand-in for the paper's HSPICE validation (DESIGN.md,
    substitution 1): the output node of a gate is integrated as a nonlinear
    ODE [C dv/dt = -I_pull(v) + I_leak(v)] with RK4, where [I_pull] is a
    Sakurai-Newton current — saturation current from the same transregional
    model as {!Dcopt_device.Drive}, with the standard linear-region rolloff
    below the saturation drain voltage. Comparing the simulated 50%%
    crossing against the closed-form eq. A3 delay validates the analytic
    model across the operating space (super- and subthreshold). *)

type waveform = {
  times : float array;     (** s *)
  voltages : float array;  (** output node voltage, V *)
}

val drain_current :
  Dcopt_device.Tech.t ->
  vdd:float -> vt:float -> w:float -> stack:int -> vds:float -> float
(** Instantaneous pull current at output voltage [vds]: saturation value
    from {!Dcopt_device.Mosfet.i_drive} (stack-degraded), with the
    Sakurai-Newton triode rolloff [ (2 - x) x ] below the saturation drain
    voltage and the subthreshold [1 - exp(-vds/vT)] drain factor. *)

val simulate_discharge :
  ?steps_per_estimate:int ->
  Dcopt_device.Tech.t ->
  vdd:float -> vt:float -> w:float -> stack:int -> fanin:int ->
  c_load:float ->
  waveform
(** Full high-to-low output transition with the opposing network leaking
    [fanin * I_off * w] upward; starts at [vdd], ends below [0.05 vdd] or
    after a step cap. *)

val discharge_delay :
  ?steps_per_estimate:int ->
  Dcopt_device.Tech.t ->
  vdd:float -> vt:float -> w:float -> stack:int -> fanin:int ->
  c_load:float ->
  float
(** Simulated 50%% crossing time; [infinity] when the node never crosses
    (leakage balances drive). *)

type comparison = {
  analytic : float;   (** eq. A3 switching component, s *)
  simulated : float;  (** RK4 50%% crossing, s *)
  ratio : float;      (** simulated / analytic *)
}

val compare_switching :
  Dcopt_device.Tech.t ->
  vdd:float -> vt:float -> w:float -> stack:int -> fanin:int ->
  c_load:float ->
  comparison
(** Validation point: the analytic model is a first-order estimate, so the
    ratio should sit in a narrow band around 1 across operating points
    (asserted by the test suite). *)
