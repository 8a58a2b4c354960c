(** Fleet protocol framing: newline-delimited, checksummed JSON frames
    between the coordinator ({!Fleet}) and worker processes ({!Worker}).

    Coordinator → worker:

    - [{"frame":"job","seq":N,"batch_id":B,"job":{…}}] — run this job
      spec; [seq] is the coordinator's dispatch sequence number, echoed
      back with the result so requeued jobs can never be double-counted.
    - [{"frame":"shutdown"}] — finish nothing further and exit cleanly.
    - [{"frame":"refused","why":…}] — the hello was refused for good (the
      worker id is quarantined, or its protocol version differs); the
      coordinator closes the connection after it, and the worker should
      not dial again.

    Worker → coordinator:

    - [{"frame":"hello","worker_id":…,"pid":…,"version":…}] — first
      frame after connecting; a version mismatch refuses the worker.
    - [{"frame":"heartbeat"}] — liveness while computing (an idle worker
      is silent; it is the {e absence} of both heartbeats and results
      from a worker with jobs in flight that signals death).
    - [{"frame":"result","seq":N,"row":{…}}] — the finished row for
      dispatch [seq].

    Since protocol version 2, each frame line is a checksum envelope
    ["!<16 hex digits>:<payload json>"]: the FNV-1a 64 digest of the
    payload travels with it, and a mismatch (a bit flipped in transit, a
    truncated write reassembled with the next frame) is a parse error.
    The peer that sent the damaged frame is counted lost and its
    in-flight work requeued — so transport corruption costs time, never
    row correctness. Rendered JSON and the envelope contain no raw
    newline, so readers reassemble on newlines alone. *)

val protocol_version : int

type to_worker =
  | Assign of { seq : int; batch_id : int; job : Job.t }
  | Shutdown
  | Refused of { why : string }

type from_worker =
  | Hello of { worker_id : string; pid : int; version : int }
  | Heartbeat
  | Result of { seq : int; row : Job.row }

val to_worker_to_json : to_worker -> Dcopt_util.Json.t
val from_worker_to_json : from_worker -> Dcopt_util.Json.t

val encode : Dcopt_util.Json.t -> string
(** One frame line (checksum envelope around the rendered document),
    without the trailing newline. *)

val frame_line : string -> string
(** Wrap an already-rendered payload in the checksum envelope (tests and
    tools that need to feed the parser hand-built payloads). *)

val to_worker_of_line : string -> (to_worker, string) result
val from_worker_of_line : string -> (from_worker, string) result
(** Parse one frame line; [Error] on a missing/forged checksum
    envelope, non-JSON payload, a missing/mistyped member, or an
    unknown ["frame"] kind. *)

val send : site:string -> Unix.file_descr -> Dcopt_util.Json.t -> unit
(** Write one frame (envelope + newline) whole, retrying short writes
    and [EINTR], through the fault-injection seam: {!Faults.fire}d wire
    actions ([drop]/[delay]/[truncate]/[corrupt]) are applied to the
    frame bytes first. Raises [Unix.Unix_error] on a dead peer ([EPIPE]
    when [SIGPIPE] is ignored, which {!Fleet} and {!Worker} both
    arrange). Every production send names its site and goes through
    here; [site] is e.g. ["wire.send.result"]. *)

(** {1 Addresses} *)

type addr = Unix_path of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["host:port"] and ["[v6-literal]:port"] are {!Tcp} (any port in
    0..65535 — port 0 is only meaningful to {!listen}); anything with a
    ['/'] or without a [':'] is a unix-domain socket path. A lone [':']
    with a malformed port is an error, not a silent fallback to a unix
    path. *)

val string_of_addr : addr -> string
(** Inverse of {!addr_of_string} (IPv6 hosts re-bracketed). *)

val sockaddr_of :
  addr -> (Unix.socket_domain * Unix.sockaddr, string) result
(** Resolve: unix paths verbatim; TCP hosts first as IPv4/IPv6 literals,
    then through [getaddrinfo] (stream sockets only). [Error] carries a
    human-readable reason (unknown host, malformed literal) for the
    caller to wrap in a located [config.addr] diagnostic. *)

val connect : addr -> (Unix.file_descr, string) result
(** Resolve then dial. [Error] for configuration problems (resolution
    failure, connecting to port 0) that no retry can fix; raises
    [Unix.Unix_error] for transient dial failures (e.g. [ECONNREFUSED]),
    the shape reconnect loops retry on. *)

val listen : addr -> (Unix.file_descr, string) result
(** Bind and listen, with a backlog of 16 pending connections. Unlinks a stale unix socket path first and sets
    [SO_REUSEADDR] for TCP; a TCP port of 0 binds an ephemeral port —
    read it back with {!bound_addr}. [Error] on resolution failure;
    raises [Unix.Unix_error] on bind/listen failure. *)

val bound_addr : Unix.file_descr -> addr -> addr
(** The address a {!listen} socket actually bound: for {!Tcp} the port
    is read back via [getsockname] (resolving port 0 to the kernel's
    pick); unix paths are returned unchanged. *)
