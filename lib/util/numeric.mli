(** Small numerical toolbox used throughout the optimizer. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] bounds [x] into \[lo, hi\]. Requires [lo <= hi]. *)

val binary_search_min :
  feasible:(float -> bool) -> lo:float -> hi:float -> ?iters:int -> unit ->
  float option
(** Smallest [x] in \[lo, hi\] with [feasible x], assuming [feasible] is
    monotone (false then true as [x] grows). [None] when even [hi] fails. *)

val integrate_trapezoid : f:(float -> float) -> lo:float -> hi:float -> n:int -> float
(** Composite trapezoid rule with [n >= 1] panels. *)

val log_interp_points : lo:float -> hi:float -> n:int -> float array
(** [n >= 2] points geometrically spaced on \[lo, hi\]; requires
    [0 < lo <= hi]. *)

val linspace : lo:float -> hi:float -> n:int -> float array
(** [n >= 2] points linearly spaced on \[lo, hi\] inclusive. *)
