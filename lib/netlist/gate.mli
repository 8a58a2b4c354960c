(** Logic-gate alphabet of the netlist IR.

    The alphabet is the ISCAS-89 `.bench` set: simple static CMOS gates plus
    D flip-flops. The paper's models assume "simple multi-input gates with
    symmetric series or parallel pull-up and pull-down MOSFET configurations"
    (Appendix A.1); XOR/XNOR are accepted in netlists and costed as two-level
    equivalents. *)

type kind =
  | Input  (** primary input (or DFF output in a combinational core) *)
  | And
  | Or
  | Nand
  | Nor
  | Not
  | Buf
  | Xor
  | Xnor
  | Dff    (** D flip-flop; its single fanin is the D pin *)

val to_string : kind -> string
(** Canonical upper-case `.bench` spelling, e.g. ["NAND"]. *)

val of_string : string -> kind option
(** Case-insensitive parse of the `.bench` spelling. *)

val arity_ok : kind -> int -> bool
(** [arity_ok kind n] holds when a gate of [kind] may have [n] fanins:
    0 for [Input]; exactly 1 for [Not]/[Buf]/[Dff]; at least 2 otherwise. *)

val eval : kind -> bool array -> bool
(** Boolean function of the gate on its fanin values. [Input] and [Dff] are
    not combinational and must not be evaluated. *)

val series_stack_depth : kind -> int -> int
(** [series_stack_depth kind fanin] is the worst-case number of
    series-connected MOSFETs conducting during a transition — [fanin] for
    NAND/NOR/AND/OR stacks, 1 for inverters/buffers, 2 per level for
    XOR-class gates. Used by the delay model. *)

val all : kind list
(** Every constructor, for exhaustive property tests. *)
