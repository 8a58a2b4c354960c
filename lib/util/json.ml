type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

(* Shortest decimal that reparses to the identical double: 15 digits
   suffice for most values, 17 always do. Integral values print with a
   trailing ".0" so they stay floats across a round trip. *)
let float_lit f =
  if f <> f then "\"nan\""
  else if f = infinity then "\"inf\""
  else if f = neg_infinity then "\"-inf\""
  else if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_lit f)
  | String s -> escape_to buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        emit buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let rec emit_hum buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> emit buf v
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List items ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        emit_hum buf (indent + 2) v)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj members ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        escape_to buf k;
        Buffer.add_string buf ": ";
        emit_hum buf (indent + 2) v)
      members;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'

let to_string_hum v =
  let buf = Buffer.create 256 in
  emit_hum buf 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Fail of int * string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub input !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = input.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = input.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let u = try hex4 () with _ -> fail "bad \\u escape" in
          let u =
            (* combine a high surrogate with a following \uXXXX low one *)
            if u >= 0xD800 && u <= 0xDBFF && !pos + 6 <= n
               && input.[!pos] = '\\' && input.[!pos + 1] = 'u'
            then begin
              pos := !pos + 2;
              let lo = try hex4 () with _ -> fail "bad \\u escape" in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
              else fail "unpaired surrogate"
            end
            else u
          in
          utf8_of_code buf u
        | _ -> fail "unknown escape");
        loop ())
      | c ->
        Buffer.add_char buf c;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char input.[!pos] do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
    in
    if is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else
        let member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec members acc =
          let m = member () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members (m :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev (m :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) ->
    Error (Printf.sprintf "at position %d: %s" pos msg)

let of_string_exn s =
  match of_string s with Ok v -> v | Error msg -> failwith ("Json: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let field name = function
  | Obj members -> List.assoc_opt name members
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_int = function Int i -> Some i | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | String "nan" -> Some nan
  | String "inf" -> Some infinity
  | String "-inf" -> Some neg_infinity
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_list = function List l -> Some l | _ -> None
let get_obj = function Obj m -> Some m | _ -> None

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let write_file path json =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string json));
  Sys.rename tmp path

let read_file path =
  match File.read path with
  | Error _ as e -> e
  | Ok text -> (
    match of_string text with
    | Ok _ as ok -> ok
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
