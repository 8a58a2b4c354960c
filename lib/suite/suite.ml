module Circuit = Dcopt_netlist.Circuit
module Generator = Dcopt_netlist.Generator
module Bench_format = Dcopt_netlist.Bench_format

(* The genuine ISCAS-89 s27 netlist. *)
let s27_bench =
  "# s27\n\
   INPUT(G0)\n\
   INPUT(G1)\n\
   INPUT(G2)\n\
   INPUT(G3)\n\
   OUTPUT(G17)\n\
   G5 = DFF(G10)\n\
   G6 = DFF(G11)\n\
   G7 = DFF(G13)\n\
   G14 = NOT(G0)\n\
   G17 = NOT(G11)\n\
   G8 = AND(G14, G6)\n\
   G15 = OR(G12, G8)\n\
   G16 = OR(G3, G8)\n\
   G9 = NAND(G16, G15)\n\
   G10 = NOR(G14, G11)\n\
   G11 = NOR(G5, G9)\n\
   G12 = NOR(G1, G7)\n\
   G13 = NOR(G2, G12)\n"

let s27 () =
  match Bench_format.parse ~name:"s27" s27_bench with
  | Ok c -> c
  | Error diags ->
    failwith ("embedded s27 netlist: " ^ Dcopt_util.Diag.render diags)

(* Published ISCAS-89 structural profiles:
   (name, PI, PO, DFF, combinational gates, logic depth). *)
let table_profiles =
  [
    ("s298", 3, 6, 14, 119, 9);
    ("s344", 9, 11, 15, 160, 14);
    ("s349", 9, 11, 15, 161, 14);
    ("s382", 3, 6, 21, 158, 9);
    ("s386", 7, 7, 6, 159, 11);
    ("s400", 3, 6, 21, 164, 9);
    ("s444", 3, 6, 21, 181, 11);
    ("s510", 19, 7, 6, 211, 12);
  ]

let extended_profiles =
  [
    ("s526", 3, 6, 21, 193, 9);
    ("s820", 18, 19, 5, 289, 10);
    ("s832", 18, 19, 5, 287, 10);
    ("s1488", 8, 19, 6, 653, 17);
  ]

let table_circuits = List.map (fun (n, _, _, _, _, _) -> n) table_profiles
let extended_circuits = List.map (fun (n, _, _, _, _, _) -> n) extended_profiles
let names = ("s27" :: table_circuits) @ extended_circuits

let profile name =
  List.find_opt (fun (n, _, _, _, _, _) -> n = name)
    (table_profiles @ extended_profiles)
  |> Option.map (fun (n, pi, po, ff, gates, depth) ->
         {
           Generator.profile_name = n;
           primary_inputs = pi;
           primary_outputs = po;
           flip_flops = ff;
           gates;
           logic_depth = depth;
           seed = None;
         })

(* Generated circuits by name. Pool domains resolve circuits too (the
   experiment tables fan rows out over Par), so the table is only read
   or filled under [cache_lock], and a name is generated once. *)
let cache : (string, Circuit.t) Hashtbl.t = Hashtbl.create 16
let cache_lock = Mutex.create ()

(* Levenshtein distance, capped: we only ever ask "is it within 1?", so
   the quadratic table on short benchmark names is nothing. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let row = Array.init (lb + 1) Fun.id in
  for i = 1 to la do
    let prev_diag = ref row.(0) in
    row.(0) <- i;
    for j = 1 to lb do
      let d = !prev_diag + if a.[i - 1] = b.[j - 1] then 0 else 1 in
      prev_diag := row.(j);
      row.(j) <- min d (1 + min row.(j) row.(j - 1))
    done
  done;
  row.(lb)

(* Near misses worth suggesting: a case difference ("S27"), or one typo
   (edit distance 1: "s269" for "s298"-adjacent slips like "s29"). *)
let suggestions name =
  let lower = String.lowercase_ascii name in
  List.filter
    (fun known ->
      String.lowercase_ascii known = lower || edit_distance name known <= 1)
    names

let cached name =
  Mutex.protect cache_lock @@ fun () ->
  match Hashtbl.find_opt cache name with
  | Some c -> Some c
  | None ->
    let circuit =
      if name = "s27" then Some (s27 ())
      else Option.map Generator.generate (profile name)
    in
    Option.iter (Hashtbl.add cache name) circuit;
    circuit

let find name =
  match cached name with
  | Some circuit -> Ok circuit
  | None ->
    let hint =
      match suggestions name with
      | [] -> ""
      | near ->
        Printf.sprintf " — did you mean %s?" (String.concat " or " near)
    in
    Error
      (Printf.sprintf "unknown circuit %S%s (known: %s)" name hint
         (String.concat " " names))

let find_exn name =
  match find name with Ok c -> c | Error _ -> raise Not_found

let all () = List.map (fun n -> (n, find_exn n)) names
