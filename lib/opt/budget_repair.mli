(** Device-aware repair of Procedure-1 delay budgets.

    Procedure 1 budgets purely by fanout structure, so a budget can fall
    below what any (Vdd, Vt, w) point can achieve — eq. A3's input-slope
    term plus the width-independent intrinsic floor. The paper notes that
    "some post processing of delay assignments (typically for a very small
    fraction of the total number of logic gates) is done in order for the
    heuristic algorithm to be able to find a solution without violating the
    overall delay constraint" (§4.2); this module is that post-processing:

    + lift every budget to the gate's achievable floor at a reference
      corner (max width, minimum-load fanouts, driver delays at their own
      budgets);
    + when lifting overflows the cycle budget on some path, shrink the
      non-floored budgets along each violating path proportionally;
    + iterate to a fixpoint.

    A circuit whose critical path is floored end-to-end genuinely cannot
    make the cycle time at that corner and is reported {!Infeasible}. *)

type outcome =
  | Repaired of { budgets : float array; lifted : int; iterations : int }
  | Infeasible of { limiting_gate : int }
    (** [limiting_gate]: a gate on an unshrinkable violating path. *)

val repair :
  Power_model.env -> budgets:float array -> vdd:float -> vt:float -> outcome
(** Returns budgets whose STA critical delay still fits the original
    distributed cycle budget (max path sum of the input budgets) and whose
    every entry is at or above the gate's floor — a lifted budget sits a
    relative 1e-3 above it — or [Infeasible] when 24 rounds do not reach
    a fixpoint. The input array is not mutated. *)
