type node = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanins : int array;
}

type t = {
  circuit_name : string;
  node_array : node array;
  by_name : (string, int) Hashtbl.t;
  input_ids : int array;
  output_ids : int array;
  dff_ids : int array;
  (* Fanout adjacency in compressed-sparse-row form: the consumers of node
     [i] are [fanout_edges.(fanout_off.(i)) .. fanout_edges.(fanout_off.(i+1) - 1)],
     in ascending consumer-id order with one entry per pin. [fanout_ids]
     holds per-node sub-array views of the same data so the historical
     [fanouts] accessor stays allocation-free per call. *)
  fanout_off : int array;
  fanout_edges : int array;
  fanout_ids : int array array;
  fanout_counts : int array;
  output_flags : bool array;
  order : int array;       (* combinational topological order *)
  node_levels : int array;
}

exception Invalid of string

let invalidf fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* Two-pass counting construction of the fanout CSR: count pins per driver,
   prefix-sum into offsets, then fill edges with a per-driver cursor. No
   intermediate lists, two O(n + e) sweeps. Consumers land in ascending id
   order (the fill visits nodes by id), matching the order the historical
   list-accumulate-then-reverse build produced. *)
let build_fanout_csr node_array =
  let n = Array.length node_array in
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun nd -> Array.iter (fun f -> off.(f + 1) <- off.(f + 1) + 1) nd.fanins)
    node_array;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + off.(i + 1)
  done;
  let edges = Array.make off.(n) 0 in
  let cursor = Array.make n 0 in
  Array.iter
    (fun nd ->
      Array.iter
        (fun f ->
          edges.(off.(f) + cursor.(f)) <- nd.id;
          cursor.(f) <- cursor.(f) + 1)
        nd.fanins)
    node_array;
  (off, edges)

(* Kahn's algorithm on the combinational edge set: edges into DFF data pins
   are cut, so registered feedback loops are legal while combinational loops
   are rejected. The FIFO makes the order deterministic. *)
let compute_topo_order node_array fanout_off fanout_edges =
  let n = Array.length node_array in
  let indegree = Array.make n 0 in
  Array.iter
    (fun nd ->
      match nd.kind with
      | Gate.Dff | Gate.Input -> ()
      | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Not | Gate.Buf
      | Gate.Xor | Gate.Xnor -> indegree.(nd.id) <- Array.length nd.fanins)
    node_array;
  let queue = Queue.create () in
  Array.iter (fun nd -> if indegree.(nd.id) = 0 then Queue.add nd.id queue) node_array;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order.(!filled) <- u;
    incr filled;
    for p = fanout_off.(u) to fanout_off.(u + 1) - 1 do
      let v = fanout_edges.(p) in
      match node_array.(v).kind with
      | Gate.Dff -> ()
      | _ ->
        indegree.(v) <- indegree.(v) - 1;
        if indegree.(v) = 0 then Queue.add v queue
    done
  done;
  if !filled <> n then invalidf "circuit contains a combinational cycle";
  order

let compute_levels node_array order =
  let levels = Array.make (Array.length node_array) 0 in
  Array.iter
    (fun id ->
      let nd = node_array.(id) in
      match nd.kind with
      | Gate.Input | Gate.Dff -> levels.(id) <- 0
      | _ ->
        let m = Array.fold_left (fun acc f -> max acc levels.(f)) 0 nd.fanins in
        levels.(id) <- m + 1)
    order;
  levels

(* Assemble the derived structure once the node list has passed the
   semantic scan; [compute_topo_order] can still raise [Invalid] on a
   combinational cycle, which the checked entry point turns into a
   problem report. *)
let build ~name ~by_name ~node_array ~output_ids =
  let n = Array.length node_array in
  let fanout_off, fanout_edges = build_fanout_csr node_array in
  let fanout_ids =
    Array.init n (fun i ->
        Array.sub fanout_edges fanout_off.(i) (fanout_off.(i + 1) - fanout_off.(i)))
  in
  let output_flags = Array.make n false in
  Array.iter (fun id -> output_flags.(id) <- true) output_ids;
  let fanout_counts =
    Array.init n (fun i ->
        fanout_off.(i + 1) - fanout_off.(i) + if output_flags.(i) then 1 else 0)
  in
  let count_kind kind_pred =
    Array.fold_left
      (fun acc nd -> if kind_pred nd.kind then acc + 1 else acc)
      0 node_array
  in
  let collect kind_pred =
    let ids = Array.make (count_kind kind_pred) 0 in
    let k = ref 0 in
    Array.iter
      (fun nd ->
        if kind_pred nd.kind then begin
          ids.(!k) <- nd.id;
          incr k
        end)
      node_array;
    ids
  in
  let input_ids = collect (fun k -> k = Gate.Input) in
  let dff_ids = collect (fun k -> k = Gate.Dff) in
  let order = compute_topo_order node_array fanout_off fanout_edges in
  let node_levels = compute_levels node_array order in
  {
    circuit_name = name;
    node_array;
    by_name;
    input_ids;
    output_ids;
    dff_ids;
    fanout_off;
    fanout_edges;
    fanout_ids;
    fanout_counts;
    output_flags;
    order;
    node_levels;
  }

(* Collect every semantic problem instead of stopping at the first: a
   recovering front end (Bench_format.parse) wants the full list, while
   [create] keeps the historical raise-on-first-error contract on top. *)
let create_checked ~name ~nodes ~outputs =
  let problems = ref [] in
  let problemf fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let by_name = Hashtbl.create ((List.length nodes * 2) + 1) in
  List.iteri
    (fun i (net, _, _) ->
      if Hashtbl.mem by_name net then problemf "duplicate net name %S" net
      else Hashtbl.add by_name net i)
    nodes;
  (* undefined references resolve to a self-loop placeholder so the scan
     can keep going; any placeholder use is already a recorded error *)
  let resolve self context net =
    match Hashtbl.find_opt by_name net with
    | Some id -> id
    | None ->
      problemf "%s references undefined net %S" context net;
      self
  in
  let node_array =
    Array.of_list
      (List.mapi
         (fun i (net, kind, fanin_names) ->
           let fanins = Array.of_list (List.map (resolve i net) fanin_names) in
           if not (Gate.arity_ok kind (Array.length fanins)) then
             problemf "gate %S: %s cannot have %d fanin(s)" net
               (Gate.to_string kind) (Array.length fanins);
           { id = i; name = net; kind; fanins })
         nodes)
  in
  let n = Array.length node_array in
  if n = 0 then problemf "empty circuit";
  let output_problems =
    List.filter (fun net -> not (Hashtbl.mem by_name net)) outputs
  in
  List.iter
    (fun net -> problemf "outputs references undefined net %S" net)
    output_problems;
  match List.rev !problems with
  | _ :: _ as ps -> Error ps
  | [] -> (
    let output_ids =
      Array.of_list (List.map (fun net -> Hashtbl.find by_name net) outputs)
    in
    match build ~name ~by_name ~node_array ~output_ids with
    | t -> Ok t
    | exception Invalid msg -> Error [ msg ])

let create ~name ~nodes ~outputs =
  match create_checked ~name ~nodes ~outputs with
  | Ok t -> t
  | Error (p :: _) -> raise (Invalid p)
  | Error [] -> assert false

(* Array-native constructor for generated netlists: no per-node lists or
   tuples on the million-gate path. The caller supplies already-resolved
   fanin ids; arity and id-range problems still raise [Invalid] so a buggy
   generator cannot produce a silently malformed circuit. *)
let create_direct ~name ~names ~kinds ~fanins ~output_ids =
  let n = Array.length names in
  if Array.length kinds <> n || Array.length fanins <> n then
    invalidf "create_direct: column length mismatch";
  if n = 0 then invalidf "empty circuit";
  let by_name = Hashtbl.create ((n * 2) + 1) in
  for i = 0 to n - 1 do
    if Hashtbl.mem by_name names.(i) then
      invalidf "duplicate net name %S" names.(i)
    else Hashtbl.add by_name names.(i) i
  done;
  let node_array =
    Array.init n (fun i ->
        let fi = fanins.(i) in
        Array.iter
          (fun f ->
            if f < 0 || f >= n then
              invalidf "gate %S references out-of-range id %d" names.(i) f)
          fi;
        if not (Gate.arity_ok kinds.(i) (Array.length fi)) then
          invalidf "gate %S: %s cannot have %d fanin(s)" names.(i)
            (Gate.to_string kinds.(i)) (Array.length fi);
        { id = i; name = names.(i); kind = kinds.(i); fanins = fi })
  in
  Array.iter
    (fun id ->
      if id < 0 || id >= n then invalidf "output id %d out of range" id)
    output_ids;
  build ~name ~by_name ~node_array ~output_ids

let name t = t.circuit_name
let size t = Array.length t.node_array
let node t i = t.node_array.(i)
let nodes t = t.node_array

let find t net =
  match Hashtbl.find_opt t.by_name net with
  | Some id -> id
  | None -> raise Not_found

let inputs t = t.input_ids
let outputs t = t.output_ids
let dffs t = t.dff_ids
let fanouts t i = t.fanout_ids.(i)
let is_output t i = t.output_flags.(i)
let fanout_count t i = t.fanout_counts.(i)

let gate_count t =
  Array.fold_left
    (fun acc nd ->
      match nd.kind with
      | Gate.Input | Gate.Dff -> acc
      | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Not | Gate.Buf
      | Gate.Xor | Gate.Xnor -> acc + 1)
    0 t.node_array

let is_combinational t = Array.length t.dff_ids = 0
let topo_order t = Array.copy t.order
let iter_topo t f = Array.iter f t.order
let level t i = t.node_levels.(i)
let depth t = Array.fold_left max 0 t.node_levels

let unsafe_fanout_csr t = (t.fanout_off, t.fanout_edges)
let unsafe_levels t = t.node_levels
let unsafe_order t = t.order

let combinational_core t =
  if is_combinational t then t
  else
    let nodes =
      Array.to_list t.node_array
      |> List.map (fun nd ->
           match nd.kind with
           | Gate.Dff -> (nd.name, Gate.Input, [])
           | _ ->
             ( nd.name,
               nd.kind,
               Array.to_list nd.fanins
               |> List.map (fun f -> t.node_array.(f).name) ))
    in
    let pseudo_outputs =
      Array.to_list t.dff_ids
      |> List.map (fun id -> t.node_array.(t.node_array.(id).fanins.(0)).name)
    in
    let outputs =
      (Array.to_list t.output_ids |> List.map (fun id -> t.node_array.(id).name))
      @ pseudo_outputs
    in
    create ~name:t.circuit_name ~nodes ~outputs

let eval t input_values =
  if not (is_combinational t) then
    invalid_arg "Circuit.eval: circuit is sequential";
  if Array.length input_values <> Array.length t.input_ids then
    invalid_arg "Circuit.eval: input arity mismatch";
  let values = Array.make (size t) false in
  Array.iteri (fun i id -> values.(id) <- input_values.(i)) t.input_ids;
  Array.iter
    (fun id ->
      let nd = t.node_array.(id) in
      match nd.kind with
      | Gate.Input | Gate.Dff -> ()
      | kind ->
        let vs = Array.map (fun f -> values.(f)) nd.fanins in
        values.(id) <- Gate.eval kind vs)
    t.order;
  values

let output_values t input_values =
  let values = eval t input_values in
  Array.map (fun id -> values.(id)) t.output_ids
