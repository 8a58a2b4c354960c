(** Descriptive statistics over float arrays. *)

val mean : float array -> float
(** Arithmetic mean; requires a non-empty array. *)

val min_max : float array -> float * float
(** Smallest and largest element; requires a non-empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in \[0, 100\], linear interpolation between
    order statistics; requires a non-empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in \[0, 1\] — the \[0, 1\]-scaled counterpart
    of {!percentile} (same linear interpolation between order statistics);
    requires a non-empty array. *)

val geometric_mean : float array -> float
(** Geometric mean; requires every element positive. *)
