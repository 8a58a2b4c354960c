module Metrics = Dcopt_obs.Metrics
module Events = Dcopt_obs.Events
module Json = Dcopt_util.Json

let workers_g =
  Metrics.gauge ~help:"Fleet worker processes currently connected and healthy"
    "service.fleet.workers"

let in_flight_g =
  Metrics.gauge ~help:"Jobs dispatched to fleet workers and not yet answered"
    "service.fleet.in_flight"

let spawned_c =
  Metrics.counter ~help:"Fleet worker processes spawned" "service.fleet.spawned"

let dispatched_c =
  Metrics.counter ~help:"Job frames dispatched to fleet workers"
    "service.fleet.dispatched"

let results_c =
  Metrics.counter ~help:"Result frames received from fleet workers"
    "service.fleet.results"

let heartbeats_c =
  Metrics.counter ~help:"Heartbeat frames received from fleet workers"
    "service.fleet.heartbeats"

let worker_lost_c =
  Metrics.counter
    ~help:"Fleet workers declared dead (EOF, bad frame, heartbeat timeout, \
           exit)"
    "service.fleet.worker_lost"

let requeued_c =
  Metrics.counter
    ~help:"In-flight jobs requeued onto surviving workers after a loss"
    "service.fleet.requeued"

let fallback_c =
  Metrics.counter
    ~help:"Jobs the coordinator computed in-process (requeue budget \
           exhausted or no workers left)"
    "service.fleet.fallback"

let quarantined_c =
  Metrics.counter
    ~help:"Worker identities quarantined after exhausting their failure \
           budget (no longer respawned or accepted)"
    "service.fleet.quarantined"

(* Jobs outstanding per worker, requeues per job before the coordinator
   computes it itself, seconds a spawned worker has to say hello, and
   losses before an identity is quarantined. *)
let max_in_flight = 2
let max_requeues = 2
let spawn_timeout_s = 30.0
let quarantine_after = 2

type options = {
  workers : int;
  binary : string;
  worker_args : string list;
  heartbeat_timeout_s : float;
  listen : Wire.addr option;
}

let options ?(binary = Sys.executable_name) ?(worker_args = []) ?listen
    ~workers () =
  if workers < 1 then invalid_arg "Fleet.options: workers must be >= 1";
  let heartbeat_timeout_s =
    match
      Option.map float_of_string_opt (Sys.getenv_opt "DCOPT_FLEET_HEARTBEAT_S")
    with
    | Some (Some v) when v > 0.0 -> v
    | _ -> 5.0
  in
  { workers; binary; worker_args; heartbeat_timeout_s; listen }

type wstate = Spawning | Ready | Lost

type worker = {
  w_id : string;
  w_pid : int;  (** 0 for external workers (reported pid is advisory) *)
  w_external : bool;
  mutable w_fd : Unix.file_descr option;
  w_buf : Buffer.t;
  mutable w_state : wstate;
  (* (dispatch seq, task index, dispatch time) — echoing seq with the
     result makes a stale answer from a worker we already gave up on
     harmless: its seq is no longer in flight anywhere *)
  mutable w_inflight : (int * int * float) list;
  mutable w_last_seen : float;
  mutable w_reaped : bool;
}

(* An accepted connection that has not yet identified itself. *)
type pending = { p_fd : Unix.file_descr; p_buf : Buffer.t; p_since : float }

type t = {
  opts : options;
  sock_path : string option;  (** unix listen path, unlinked at shutdown *)
  connect_addr : Wire.addr;  (** what spawned workers dial *)
  listen_fd : Unix.file_descr;
  losses : Policy.quarantine;
  mutable workers : worker list;
  mutable pending : pending list;
  mutable next_seq : int;
  mutable closed : bool;
}

let sock_seq = Atomic.make 0

let fresh_sock_path () =
  let name =
    Printf.sprintf "dcopt-fleet-%d-%d.sock" (Unix.getpid ())
      (Atomic.fetch_and_add sock_seq 1)
  in
  let in_dir dir = Filename.concat dir name in
  let candidate = in_dir (Filename.get_temp_dir_name ()) in
  (* unix socket paths are capped around 108 bytes; a deep TMPDIR must
     not brick the fleet *)
  if String.length candidate < 100 then candidate else in_dir "/tmp"

(* The addr a locally-spawned worker should dial: a wildcard listen host
   binds every interface, but the child must dial a concrete one. *)
let connectable = function
  | Wire.Tcp (("0.0.0.0" | "::" | "*" | ""), port) ->
    Wire.Tcp ("127.0.0.1", port)
  | a -> a

let create opts =
  (* a worker dying with frames still buffered must surface as EPIPE on
     the next write, not kill the coordinator *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr =
    match opts.listen with
    | Some a -> a
    | None -> Wire.Unix_path (fresh_sock_path ())
  in
  let listen_fd =
    match Wire.listen addr with
    | Ok fd -> fd
    | Error msg -> invalid_arg ("Fleet.create: " ^ msg)
  in
  let bound = Wire.bound_addr listen_fd addr in
  {
    opts;
    sock_path = (match addr with Wire.Unix_path p -> Some p | Wire.Tcp _ -> None);
    connect_addr = connectable bound;
    listen_fd;
    losses = Policy.quarantine ~after:quarantine_after ();
    workers = [];
    pending = [];
    next_seq = 0;
    closed = false;
  }

let now () = Dcopt_util.Clock.monotonic_s ()

let spawn t ~w_id =
  let argv =
    Array.of_list
      (t.opts.binary :: "worker" :: "--connect"
      :: Wire.string_of_addr t.connect_addr
      :: "--worker-id" :: w_id :: t.opts.worker_args)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        (* stdout → stderr: the coordinator's stdout carries result
           rows; nothing a worker prints may land there *)
        Unix.create_process t.opts.binary argv devnull Unix.stderr Unix.stderr)
  in
  Metrics.incr spawned_c;
  Events.info "fleet.spawn"
    ~fields:
      [ ("worker_id", Json.String w_id); ("pid", Json.Int pid) ];
  t.workers <-
    t.workers
    @ [
        {
          w_id;
          w_pid = pid;
          w_external = false;
          w_fd = None;
          w_buf = Buffer.create 4096;
          w_state = Spawning;
          w_inflight = [];
          w_last_seen = now ();
          w_reaped = false;
        };
      ]

(* The spawned roster is the fixed id set w0..w(workers-1): a lost id is
   respawned under the same name (mid-batch too), so its failure budget
   accumulates across incarnations and quarantine is deterministic. *)
let ensure_workers t =
  for i = 0 to t.opts.workers - 1 do
    let w_id = Printf.sprintf "w%d" i in
    if
      (not (List.exists (fun w -> w.w_id = w_id && w.w_state <> Lost) t.workers))
      && not (Policy.quarantined t.losses w_id)
    then spawn t ~w_id
  done

let update_gauges t =
  let alive = List.filter (fun w -> w.w_state = Ready) t.workers in
  Metrics.set workers_g (float_of_int (List.length alive));
  Metrics.set in_flight_g
    (float_of_int
       (List.fold_left (fun acc w -> acc + List.length w.w_inflight) 0 alive))

let close_fd_opt w =
  match w.w_fd with
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    w.w_fd <- None
  | None -> ()

let reap ?(block = false) w =
  if not w.w_reaped then
    match Unix.waitpid (if block then [] else [ Unix.WNOHANG ]) w.w_pid with
    | 0, _ -> ()
    | _ -> w.w_reaped <- true
    | exception Unix.Unix_error _ -> w.w_reaped <- true

(* Dead workers whose process is collected carry no further state; drop
   them so a long serve session's roster doesn't grow without bound.
   Their loss history lives on in [t.losses]. *)
let prune t =
  t.workers <-
    List.filter (fun w -> not (w.w_state = Lost && w.w_reaped)) t.workers

(* Run the scheduling loop for one task array. This is the [execute]
   hook of {!Service.run_batch_via}: everything around it (dedup,
   store/checkpoint reads, row assembly) already happened or will
   happen on the coordinator, so all this loop owes is one outcome per
   task — whatever workers live or die in between. *)
let execute t ?checkpoint ~batch_id tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    prune t;
    ensure_workers t;
    let results : Service.computed option array = Array.make n None in
    let remaining = ref n in
    let queue = Queue.create () in
    Array.iteri (fun i _ -> Queue.add i queue) tasks;
    let requeues = Array.make n 0 in
    let record_result idx (c : Service.computed) =
      if Option.is_none results.(idx) then begin
        results.(idx) <- Some c;
        decr remaining;
        match checkpoint with
        | Some ck ->
          Checkpoint.record ck
            (Service.task_digest tasks.(idx))
            c.Service.comp_outcome
        | None -> ()
      end
    in
    let fallback idx ~why =
      Metrics.incr fallback_c;
      Events.warn "fleet.fallback"
        ~fields:
          [
            ("job_id", Json.String (Service.task_id tasks.(idx)));
            ("why", Json.String why);
          ];
      record_result idx (Service.compute_task ~batch_id tasks.(idx))
    in
    let lose_worker w ~why =
      if w.w_state <> Lost then begin
        w.w_state <- Lost;
        Metrics.incr worker_lost_c;
        let loss_count = Policy.note_loss t.losses w.w_id in
        Events.warn "fleet.worker_lost"
          ~fields:
            [
              ("worker_id", Json.String w.w_id);
              ("why", Json.String why);
              ("in_flight", Json.Int (List.length w.w_inflight));
              ("losses", Json.Int loss_count);
            ];
        if loss_count = quarantine_after then begin
          Metrics.incr quarantined_c;
          Events.warn "fleet.quarantine"
            ~fields:
              [
                ("worker_id", Json.String w.w_id);
                ("losses", Json.Int loss_count);
              ]
        end;
        close_fd_opt w;
        (* harmless on an already-dead pid; necessary for a hung one *)
        if not w.w_external then
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        let inflight = w.w_inflight in
        w.w_inflight <- [];
        List.iter
          (fun (_, idx, _) ->
            if Option.is_none results.(idx) then begin
              requeues.(idx) <- requeues.(idx) + 1;
              Metrics.incr requeued_c;
              Events.warn "fleet.requeue"
                ~fields:
                  [
                    ("job_id", Json.String (Service.task_id tasks.(idx)));
                    ("worker_id", Json.String w.w_id);
                    ("attempt", Json.Int (requeues.(idx) + 1));
                  ];
              if requeues.(idx) > max_requeues then
                fallback idx ~why:"requeue budget exhausted"
              else Queue.add idx queue
            end)
          inflight
      end
    in
    (* work stealing, worker-pull shape: nobody owns a shard — a ready
       worker with window room takes the next queued task, so a slow or
       dead worker's share drains to whoever is keeping up *)
    let dispatch w =
      let continue = ref true in
      while
        !continue && w.w_state = Ready
        && List.length w.w_inflight < max_in_flight
        && not (Queue.is_empty queue)
      do
        let idx = Queue.pop queue in
        if Option.is_none results.(idx) then begin
          let seq = t.next_seq in
          t.next_seq <- t.next_seq + 1;
          let frame =
            Wire.Assign { seq; batch_id; job = Service.task_job tasks.(idx) }
          in
          match w.w_fd with
          | None ->
            Queue.add idx queue;
            continue := false
          | Some fd -> (
            match
              Wire.send ~site:"wire.send.job" fd (Wire.to_worker_to_json frame)
            with
            | () ->
              w.w_inflight <- (seq, idx, now ()) :: w.w_inflight;
              Metrics.incr dispatched_c;
              Events.debug "fleet.dispatch"
                ~fields:
                  [
                    ("job_id", Json.String (Service.task_id tasks.(idx)));
                    ("worker_id", Json.String w.w_id);
                    ("seq", Json.Int seq);
                  ]
            | exception (Unix.Unix_error _ | Sys_error _) ->
              (* the job never reached the worker: back to the queue for
                 a sibling (not a requeue — nothing was lost mid-run) *)
              Queue.add idx queue;
              lose_worker w ~why:"write failed";
              continue := false)
        end
      done
    in
    let handle_frame w line =
      w.w_last_seen <- now ();
      match Wire.from_worker_of_line line with
      | Error msg -> lose_worker w ~why:("bad frame: " ^ msg)
      | Ok (Wire.Hello _) -> () (* duplicate hello: harmless *)
      | Ok Wire.Heartbeat -> Metrics.incr heartbeats_c
      | Ok (Wire.Result { seq; row }) -> (
        match List.find_opt (fun (s, _, _) -> s = seq) w.w_inflight with
        | None ->
          (* a dispatch this coordinator already wrote off; the requeued
             copy is authoritative, this answer is dropped *)
          ()
        | Some (_, idx, _) when row.Job.digest <> Service.task_digest tasks.(idx)
          ->
          (* the worker resolved the spec over other inputs (its own
             files under the job's names): the row solves another job,
             so the frame is as bad as a corrupt one *)
          lose_worker w
            ~why:
              (Printf.sprintf "result for another job: digest %S, want %S"
                 row.Job.digest
                 (Service.task_digest tasks.(idx)))
        | Some (_, idx, t0) ->
          w.w_inflight <- List.filter (fun (s, _, _) -> s <> seq) w.w_inflight;
          Metrics.incr results_c;
          let wall_s = now () -. t0 in
          record_result idx
            {
              Service.comp_outcome = row.Job.outcome;
              comp_attempts = 1 + requeues.(idx);
              comp_latency_s = wall_s;
              comp_wall_ns = Int64.of_float (wall_s *. 1e9);
              comp_alloc_bytes = 0.0;
            })
    in
    let drain_lines w =
      let continue = ref true in
      while !continue && w.w_state <> Lost do
        let contents = Buffer.contents w.w_buf in
        match String.index_opt contents '\n' with
        | None -> continue := false
        | Some nl ->
          let line = String.sub contents 0 nl in
          Buffer.clear w.w_buf;
          Buffer.add_substring w.w_buf contents (nl + 1)
            (String.length contents - nl - 1);
          handle_frame w line
      done
    in
    let read_buf = Bytes.create 65536 in
    let read_worker w =
      match w.w_fd with
      | None -> ()
      | Some fd -> (
        match Unix.read fd read_buf 0 (Bytes.length read_buf) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> lose_worker w ~why:"read error"
        | 0 -> lose_worker w ~why:"connection closed"
        | len ->
          Buffer.add_subbytes w.w_buf read_buf 0 len;
          drain_lines w)
    in
    let accept_worker p ~worker_id ~pid ~rest =
      let prepare fd =
        (* a wedged worker must stall its own window, not the
           coordinator: a send that cannot complete within the
           timeout errors out and counts the worker lost *)
        try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
        with Unix.Unix_error _ | Invalid_argument _ -> ()
      in
      match
        List.find_opt
          (fun w -> w.w_id = worker_id && w.w_state = Spawning)
          t.workers
      with
      | Some w ->
        w.w_fd <- Some p.p_fd;
        w.w_state <- Ready;
        w.w_last_seen <- now ();
        prepare p.p_fd;
        Buffer.add_string w.w_buf rest;
        Events.info "fleet.worker_ready"
          ~fields:[ ("worker_id", Json.String worker_id) ];
        drain_lines w
      | None ->
        (* an identity this coordinator never spawned: an external
           worker (multi-host fleets, `minpower worker --connect`) —
           welcome, as long as the id is free. No pid to reap or kill;
           its exit is just an EOF. *)
        prepare p.p_fd;
        let w =
          {
            w_id = worker_id;
            w_pid = 0;
            w_external = true;
            w_fd = Some p.p_fd;
            w_buf = Buffer.create 4096;
            w_state = Ready;
            w_inflight = [];
            w_last_seen = now ();
            w_reaped = true;
          }
        in
        Buffer.add_string w.w_buf rest;
        t.workers <- t.workers @ [ w ];
        Events.info "fleet.worker_ready"
          ~fields:
            [
              ("worker_id", Json.String worker_id);
              ("pid", Json.Int pid);
              ("external", Json.Bool true);
            ];
        drain_lines w
    in
    let attach_pending p =
      t.pending <- List.filter (fun q -> q != p) t.pending;
      let contents = Buffer.contents p.p_buf in
      match String.index_opt contents '\n' with
      | None -> assert false
      | Some nl -> (
        let line = String.sub contents 0 nl in
        let rest =
          String.sub contents (nl + 1) (String.length contents - nl - 1)
        in
        (* [final]: the refusal holds whenever this worker dials again,
           so it is told why before the close and stops retrying. A
           duplicate id is refused silently: its old session may still
           be draining, and the id may be free on the next dial. *)
        let refuse ?(final = false) why =
          Events.warn "fleet.connection_refused"
            ~fields:[ ("why", Json.String why) ];
          (if final then
             try
               Wire.send ~site:"wire.send.refused" p.p_fd
                 (Wire.to_worker_to_json (Wire.Refused { why }))
             with Unix.Unix_error _ -> ());
          try Unix.close p.p_fd with Unix.Unix_error _ -> ()
        in
        match Wire.from_worker_of_line line with
        | Ok (Wire.Hello { worker_id; pid; version })
          when version = Wire.protocol_version ->
          if Policy.quarantined t.losses worker_id then
            refuse ~final:true ("worker " ^ worker_id ^ " is quarantined")
          else if
            List.exists
              (fun w -> w.w_id = worker_id && w.w_state <> Lost && w.w_fd <> None)
              t.workers
          then refuse ("worker id " ^ worker_id ^ " is already connected")
          else accept_worker p ~worker_id ~pid ~rest
        | Ok (Wire.Hello { version; _ }) ->
          refuse ~final:true
            (Printf.sprintf "protocol version %d, want %d" version
               Wire.protocol_version)
        | Ok _ -> refuse "first frame was not hello"
        | Error msg -> refuse ("bad hello: " ^ msg))
    in
    let read_pending p =
      match Unix.read p.p_fd read_buf 0 (Bytes.length read_buf) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ | 0 ->
        t.pending <- List.filter (fun q -> q != p) t.pending;
        (try Unix.close p.p_fd with Unix.Unix_error _ -> ())
      | len ->
        Buffer.add_subbytes p.p_buf read_buf 0 len;
        if String.contains (Buffer.contents p.p_buf) '\n' then
          attach_pending p
    in
    while !remaining > 0 do
      (* the clock-jump injection seam: a jump displaces the wall clock
         the observability layer reads; loss detection below is
         monotonic and must not care (the regression test for the old
         gettimeofday-based deadlines) *)
      List.iter
        (function
          | Faults.Jump s ->
            Dcopt_util.Clock.jump_wall_ns (Int64.of_float (s *. 1e9))
          | _ -> ())
        (Faults.fire "clock.tick");
      (* a child that exited is lost even if its socket still lingers *)
      List.iter
        (fun w ->
          if not w.w_reaped then begin
            reap w;
            if w.w_reaped && w.w_state <> Lost then
              lose_worker w ~why:"process exited"
          end)
        t.workers;
      List.iter
        (fun w ->
          match w.w_state with
          | Ready
            when w.w_inflight <> []
                 && now () -. w.w_last_seen > t.opts.heartbeat_timeout_s ->
            lose_worker w ~why:"heartbeat timeout"
          | Spawning
            when now () -. w.w_last_seen > spawn_timeout_s ->
            lose_worker w ~why:"never connected"
          | _ -> ())
        t.workers;
      (* mid-batch respawn: while work is still queued, a lost spawned
         id comes back under the same name — unless its failure budget
         is spent (quarantine), in which case the remaining workers (or
         the fallback path) absorb its share *)
      if not (Queue.is_empty queue) then begin
        prune t;
        ensure_workers t
      end;
      let alive = List.filter (fun w -> w.w_state = Ready) t.workers in
      let joining = List.filter (fun w -> w.w_state = Spawning) t.workers in
      if alive = [] && joining = [] && t.pending = [] then begin
        (* the whole fleet is gone: the batch still completes — the
           coordinator drains what is left itself, one job at a time *)
        while not (Queue.is_empty queue) do
          let idx = Queue.pop queue in
          if Option.is_none results.(idx) then
            fallback idx ~why:"no workers left"
        done;
        Array.iteri
          (fun idx r ->
            if Option.is_none r then fallback idx ~why:"no workers left")
          results
      end
      else begin
        List.iter dispatch alive;
        update_gauges t;
        let fds =
          (t.listen_fd :: List.map (fun p -> p.p_fd) t.pending)
          @ List.filter_map (fun w -> w.w_fd) alive
        in
        match Unix.select fds [] [] 0.2 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = t.listen_fd then begin
                match Unix.accept t.listen_fd with
                | exception Unix.Unix_error _ -> ()
                | afd, _ ->
                  t.pending <-
                    { p_fd = afd; p_buf = Buffer.create 256; p_since = now () }
                    :: t.pending
              end
              else
                match List.find_opt (fun p -> p.p_fd = fd) t.pending with
                | Some p -> read_pending p
                | None -> (
                  match
                    List.find_opt (fun w -> w.w_fd = Some fd) t.workers
                  with
                  | Some w -> read_worker w
                  | None -> ()))
            readable
      end
    done;
    update_gauges t;
    Array.map
      (function Some c -> c | None -> assert false (* remaining = 0 *))
      results
  end

let run_batch t ?store ?checkpoint jobs =
  if t.closed then invalid_arg "Fleet.run_batch: fleet is shut down";
  Service.run_batch_via ?store ?checkpoint
    ~execute:(fun ~batch_id tasks -> execute t ?checkpoint ~batch_id tasks)
    jobs

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun w ->
        if w.w_state <> Lost then begin
          (match w.w_fd with
          | Some fd -> (
            try
              Wire.send ~site:"wire.send.shutdown" fd
                (Wire.to_worker_to_json Wire.Shutdown)
            with Unix.Unix_error _ | Sys_error _ -> ())
          | None -> ());
          close_fd_opt w
        end)
      t.workers;
    (* grace period for clean exits, then force the stragglers *)
    let deadline = now () +. 2.0 in
    let rec wait_all () =
      List.iter (fun w -> reap w) t.workers;
      if List.exists (fun w -> not w.w_reaped) t.workers then
        if now () < deadline then begin
          ignore (Unix.select [] [] [] 0.05);
          wait_all ()
        end
        else
          List.iter
            (fun w ->
              if not w.w_reaped then begin
                (try Unix.kill w.w_pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                reap ~block:true w
              end)
            t.workers
    in
    wait_all ();
    List.iter
      (fun p -> try Unix.close p.p_fd with Unix.Unix_error _ -> ())
      t.pending;
    t.pending <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.sock_path with
    | Some path -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ());
    Metrics.set workers_g 0.0;
    Metrics.set in_flight_g 0.0
  end
