module Json = Dcopt_util.Json

(* Bumped whenever a frame changes shape; a worker whose hello carries a
   different version is refused, so a mixed-version fleet fails loudly at
   connect time instead of corrupting a batch.
   v2: every frame carries an FNV-1a 64 checksum envelope. The [refused]
   frame needs no bump: it is the last frame of a connection the
   coordinator closes anyway, so a peer that cannot parse it loses
   nothing it had. *)
let protocol_version = 2

type to_worker =
  | Assign of { seq : int; batch_id : int; job : Job.t }
  | Shutdown
  | Refused of { why : string }

type from_worker =
  | Hello of { worker_id : string; pid : int; version : int }
  | Heartbeat
  | Result of { seq : int; row : Job.row }

let to_worker_to_json = function
  | Assign { seq; batch_id; job } ->
    Json.Obj
      [
        ("frame", Json.String "job");
        ("seq", Json.Int seq);
        ("batch_id", Json.Int batch_id);
        ("job", Job.to_json job);
      ]
  | Shutdown -> Json.Obj [ ("frame", Json.String "shutdown") ]
  | Refused { why } ->
    Json.Obj [ ("frame", Json.String "refused"); ("why", Json.String why) ]

let from_worker_to_json = function
  | Hello { worker_id; pid; version } ->
    Json.Obj
      [
        ("frame", Json.String "hello");
        ("worker_id", Json.String worker_id);
        ("pid", Json.Int pid);
        ("version", Json.Int version);
      ]
  | Heartbeat -> Json.Obj [ ("frame", Json.String "heartbeat") ]
  | Result { seq; row } ->
    Json.Obj
      [
        ("frame", Json.String "result");
        ("seq", Json.Int seq);
        ("row", Job.row_to_json row);
      ]

(* --- checksum envelope ------------------------------------------------- *)

(* A TCP fleet crosses real networks, and a corrupted-but-still-valid
   JSON frame would silently break byte-identity (a damaged result row
   would be recorded as the answer). Every frame line is therefore
   "!<hex16 fnv-1a-64 of payload>:<payload json>": a checksum mismatch
   is a parse error, which costs the peer the connection — the requeue
   path recomputes, so corruption can delay a batch but never change
   its rows. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  !h

let frame_line payload = Printf.sprintf "!%016Lx:%s" (fnv64 payload) payload
let encode json = frame_line (Json.to_string json)

let is_hex c =
  (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let decode line =
  let n = String.length line in
  if n < 18 || line.[0] <> '!' || line.[17] <> ':' then
    Error "frame is missing its checksum envelope"
  else
    let sum = String.sub line 1 16 in
    if not (String.for_all is_hex sum) then
      Error "frame checksum is not 16 hex digits"
    else
      let payload = String.sub line 18 (n - 18) in
      let want = Int64.of_string ("0x" ^ sum) in
      if Int64.equal want (fnv64 payload) then Ok payload
      else Error "frame checksum mismatch"

let ( let* ) = Result.bind

let parse_frame line =
  let* payload = decode line in
  match Json.of_string payload with
  | Error msg -> Error ("frame is not JSON: " ^ msg)
  | Ok json -> (
    match Option.bind (Json.field "frame" json) Json.get_string with
    | None -> Error "frame has no string \"frame\" member"
    | Some kind -> Ok (kind, json))

let int_field name json =
  match Option.bind (Json.field name json) Json.get_int with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "frame is missing integer %S" name)

let string_field name json =
  match Option.bind (Json.field name json) Json.get_string with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "frame is missing string %S" name)

let sub_field name json =
  match Json.field name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "frame is missing %S" name)

let to_worker_of_line line =
  let* kind, json = parse_frame line in
  match kind with
  | "job" ->
    let* seq = int_field "seq" json in
    let* batch_id = int_field "batch_id" json in
    let* spec = sub_field "job" json in
    let* job = Job.of_json spec in
    Ok (Assign { seq; batch_id; job })
  | "shutdown" -> Ok Shutdown
  | "refused" ->
    let* why = string_field "why" json in
    Ok (Refused { why })
  | other -> Error (Printf.sprintf "unknown coordinator frame %S" other)

let from_worker_of_line line =
  let* kind, json = parse_frame line in
  match kind with
  | "hello" ->
    let* worker_id = string_field "worker_id" json in
    let* pid = int_field "pid" json in
    let* version = int_field "version" json in
    Ok (Hello { worker_id; pid; version })
  | "heartbeat" -> Ok Heartbeat
  | "result" ->
    let* seq = int_field "seq" json in
    let* row = sub_field "row" json in
    let* row = Job.row_of_json row in
    Ok (Result { seq; row })
  | other -> Error (Printf.sprintf "unknown worker frame %S" other)

(* Frames are newline-delimited documents written whole. A frame never
   contains a raw newline (Json.to_string escapes them and the envelope
   is hex), so the reader can reassemble on '\n' alone. *)
let write_string fd line =
  let bytes = Bytes.of_string line in
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    let n =
      try Unix.write fd bytes !off (len - !off)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    off := !off + n
  done

(* The faultable writer: what every production send goes through. The
   fault actions model a misbehaving transport at the byte level —
   whatever they do to this frame, the receiving parser sees it as
   garbage at worst, and the fleet's loss/requeue machinery turns that
   into a recomputation, never into a wrong row. *)
let send ~site fd json =
  let line =
    List.fold_left
      (fun line action ->
        match (line, action) with
        | None, _ -> None
        | Some _, Faults.Drop -> None
        | Some l, Faults.Delay s ->
          (try Unix.sleepf s with Unix.Unix_error _ -> ());
          Some l
        | Some l, Faults.Truncate n ->
          Some (String.sub l 0 (min (max n 0) (String.length l)))
        | Some l, Faults.Corrupt -> Some (Faults.corrupt_string l)
        | Some l, _ -> Some l)
      (Some (encode json ^ "\n"))
      (Faults.fire site)
  in
  match line with None -> () | Some line -> write_string fd line

(* --- addresses --------------------------------------------------------- *)

type addr = Unix_path of string | Tcp of string * int

let string_of_addr = function
  | Unix_path p -> p
  | Tcp (h, p) ->
    if String.contains h ':' then Printf.sprintf "[%s]:%d" h p
    else Printf.sprintf "%s:%d" h p

let port_of s =
  match int_of_string_opt s with
  | None -> Error (Printf.sprintf "port %S is not an integer" s)
  | Some p when p < 0 || p > 65535 ->
    Error (Printf.sprintf "port %d is outside 0..65535" p)
  | Some p -> Ok p

let addr_of_string s =
  let n = String.length s in
  if n = 0 then Error "empty address"
  else if String.contains s '/' then Ok (Unix_path s)
  else if s.[0] = '[' then
    (* "[v6-literal]:port" *)
    match String.index_opt s ']' with
    | None -> Error (Printf.sprintf "%S: unterminated '[' (want [host]:port)" s)
    | Some i ->
      let host = String.sub s 1 (i - 1) in
      if i + 1 >= n || s.[i + 1] <> ':' then
        Error (Printf.sprintf "%S: expected :port after ']'" s)
      else
        Result.bind (port_of (String.sub s (i + 2) (n - i - 2))) (fun p ->
            if host = "" then Error (Printf.sprintf "%S: empty host" s)
            else Ok (Tcp (host, p)))
  else
    match String.rindex_opt s ':' with
    | None -> Ok (Unix_path s)
    | Some i ->
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (n - i - 1) in
      if host = "" then Error (Printf.sprintf "%S: empty host before ':'" s)
      else if String.contains host ':' then
        Error
          (Printf.sprintf
             "%S: bracket IPv6 literals as [host]:port (a unix socket path \
              needs a '/')"
             s)
      else
        Result.bind (port_of port) (fun p ->
            Ok (Tcp (host, p)))

let sockaddr_of = function
  | Unix_path path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
    match Unix.inet_addr_of_string host with
    | ip ->
      let sa = Unix.ADDR_INET (ip, port) in
      Ok (Unix.domain_of_sockaddr sa, sa)
    | exception Failure _ -> (
      (* not a literal: resolve, preferring whatever the resolver ranks
         first, streams only *)
      match
        Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | exception _ -> Error (Printf.sprintf "cannot resolve host %S" host)
      | infos -> (
        match
          List.find_opt
            (fun ai ->
              match ai.Unix.ai_addr with
              | Unix.ADDR_INET _ -> true
              | _ -> false)
            infos
        with
        | Some ai -> Ok (Unix.domain_of_sockaddr ai.Unix.ai_addr, ai.Unix.ai_addr)
        | None -> Error (Printf.sprintf "unknown host %S" host))))

let connect_sockaddr (domain, sockaddr) =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  fd

let connect addr =
  match addr with
  | Tcp (_, 0) ->
    Error
      (Printf.sprintf
         "%s: port 0 is the ephemeral listen port; nothing can connect to it"
         (string_of_addr addr))
  | _ -> Result.map connect_sockaddr (sockaddr_of addr)

(* Pending connections the kernel queues before the coordinator accepts:
   a fleet's workers dial once each at spawn. *)
let backlog = 16

let listen addr =
  (match addr with
  | Unix_path path -> if Sys.file_exists path then Sys.remove path
  | Tcp _ -> ());
  match sockaddr_of addr with
  | Error _ as e -> e
  | Ok (domain, sockaddr) ->
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd sockaddr;
       Unix.listen fd backlog
     with e ->
       Unix.close fd;
       raise e);
    Ok fd

let bound_addr fd addr =
  match addr with
  | Unix_path _ -> addr
  | Tcp (host, _) -> (
    (* port 0 asked the kernel to pick: read the real one back *)
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> Tcp (host, port)
    | _ | (exception Unix.Unix_error _) -> addr)
