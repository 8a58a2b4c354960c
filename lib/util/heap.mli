(** Mutable binary max-heap keyed by float priority: the event queue of
    {!Dcopt_sim.Event_sim}. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> priority:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Removes and returns the entry with the largest priority; ties are
    broken arbitrarily. *)

val peek : 'a t -> (float * 'a) option
