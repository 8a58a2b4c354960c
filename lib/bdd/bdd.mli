(** Reduced ordered binary decision diagrams with hash-consing.

    Used as the exact reference for signal-probability and
    transition-density computation (Najm's method, paper §4.1 ref [8]).
    Variables are dense integers [0 .. var_count-1]; the variable order is
    the integer order. All nodes live in a {!manager}; nodes from different
    managers must not be mixed. *)

type manager
type node

exception Too_large of int
(** Raised when the node table would exceed the manager's node limit —
    callers fall back to the first-order (local) activity method. *)

val manager : ?node_limit:int -> var_count:int -> unit -> manager
(** Fresh manager for [var_count >= 0] variables. [node_limit] (default
    1_000_000) bounds the unique table. *)

val var_count : manager -> int

val bdd_true : manager -> node
val bdd_false : manager -> node
val of_bool : manager -> bool -> node
val var : manager -> int -> node
(** The literal x_i; requires [0 <= i < var_count]. *)

val bdd_not : manager -> node -> node
val bdd_and : manager -> node -> node -> node
val bdd_or : manager -> node -> node -> node
val bdd_xor : manager -> node -> node -> node
val bdd_xnor : manager -> node -> node -> node
val bdd_nand : manager -> node -> node -> node
val bdd_nor : manager -> node -> node -> node
val ite : manager -> node -> node -> node -> node
(** [ite m f g h] = if [f] then [g] else [h]. *)

val equal : node -> node -> bool
(** Structural equality, which by canonicity is semantic equivalence. *)

val is_true : manager -> node -> bool
val is_false : manager -> node -> bool

val restrict : manager -> node -> int -> bool -> node
(** Cofactor: [restrict m f i b] is f with x_i fixed to [b]. *)

val boolean_difference : manager -> node -> int -> node
(** [f|x_i=1 xor f|x_i=0]: true exactly when [f] is sensitive to x_i. *)

val support : manager -> node -> int list
(** Variables the function depends on, ascending. *)

val eval : manager -> node -> bool array -> bool
(** Evaluate under an assignment of all variables. *)

val probability : manager -> node -> float array -> float
(** [probability m f p] is Pr[f = 1] when variable [i] is independently 1
    with probability [p.(i)]. Linear in the DAG size via memoization. *)

val sat_count : manager -> node -> float
(** Number of satisfying assignments over all [var_count] variables. *)

val any_sat : manager -> node -> bool array option
(** Some satisfying assignment over all variables (unconstrained ones
    default to false), or [None] when the function is unsatisfiable. *)

val size : manager -> node -> int
(** Number of distinct internal nodes reachable from this root. *)
