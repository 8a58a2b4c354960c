type kind = Input | And | Or | Nand | Nor | Not | Buf | Xor | Xnor | Dff

let to_string = function
  | Input -> "INPUT"
  | And -> "AND"
  | Or -> "OR"
  | Nand -> "NAND"
  | Nor -> "NOR"
  | Not -> "NOT"
  | Buf -> "BUF"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Dff -> "DFF"

let of_string s =
  match String.uppercase_ascii s with
  | "INPUT" -> Some Input
  | "AND" -> Some And
  | "OR" -> Some Or
  | "NAND" -> Some Nand
  | "NOR" -> Some Nor
  | "NOT" | "INV" -> Some Not
  | "BUF" | "BUFF" -> Some Buf
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | "DFF" -> Some Dff
  | _ -> None

let arity_ok kind n =
  match kind with
  | Input -> n = 0
  | Not | Buf | Dff -> n = 1
  | And | Or | Nand | Nor | Xor | Xnor -> n >= 2

let eval kind vs =
  let all_true () = Array.for_all Fun.id vs in
  let any_true () = Array.exists Fun.id vs in
  let parity () = Array.fold_left (fun acc v -> if v then not acc else acc) false vs in
  match kind with
  | And -> all_true ()
  | Nand -> not (all_true ())
  | Or -> any_true ()
  | Nor -> not (any_true ())
  | Not -> not vs.(0)
  | Buf -> vs.(0)
  | Xor -> parity ()
  | Xnor -> not (parity ())
  | Input | Dff -> invalid_arg "Gate.eval: not a combinational gate"

let series_stack_depth kind fanin =
  match kind with
  | Not | Buf | Input | Dff -> 1
  | And | Or | Nand | Nor -> max 1 fanin
  | Xor | Xnor -> 2

let all = [ Input; And; Or; Nand; Nor; Not; Buf; Xor; Xnor; Dff ]
