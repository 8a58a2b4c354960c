module Metrics = Dcopt_obs.Metrics
module Events = Dcopt_obs.Events
module Json = Dcopt_util.Json
module Prng = Dcopt_util.Prng

let jobs_c =
  Metrics.counter ~help:"Jobs this worker process executed"
    "service.worker.jobs"

let reconnects_c =
  Metrics.counter ~help:"Reconnection attempts this worker process made"
    "service.worker.reconnects"

(* Worker-side fault seam: stall silences the heartbeat (these sites
   fire outside the computing window, so the coordinator sees dispatched
   work with no liveness — the stall it must detect), exit/kill die in
   place. *)
let apply_worker_faults site =
  List.iter
    (function
      | Faults.Stall s -> ( try Unix.sleepf s with Unix.Unix_error _ -> ())
      | Faults.Exit -> Stdlib.exit 70
      | Faults.Kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ())
    (Faults.fire site)

(* While a job computes, one heartbeat frame per interval. *)
let heartbeat_interval_s = 0.5

(* One connected session: hello, then the read-execute-reply loop until
   a shutdown frame (`Clean), a refused hello (`Refused), a
   dead/desynchronised coordinator (`Lost), or an injected death. *)
let session ~worker_id fd =
  let ic = Unix.in_channel_of_descr fd in
  (* results and heartbeats interleave from two threads; frames must hit
     the socket whole *)
  let write_mutex = Mutex.create () in
  let send ~site frame =
    Mutex.lock write_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock write_mutex)
      (fun () -> Wire.send ~site fd (Wire.from_worker_to_json frame))
  in
  send ~site:"wire.send.hello"
    (Wire.Hello
       { worker_id; pid = Unix.getpid (); version = Wire.protocol_version });
  (* Heartbeats flow only while a job is computing: an idle worker is
     silent (nothing in flight means nothing for the coordinator to
     requeue), and a worker stuck inside an optimizer keeps proving it
     is alive without touching the compute path. *)
  let computing = Atomic.make false in
  let stop = Atomic.make false in
  (* The heartbeat thread waits on this pipe, not in a plain sleep: the
     session writes to it as it ends, so the join below returns at once
     instead of after the rest of an interval. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let heartbeat =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (try ignore (Unix.select [ wake_r ] [] [] heartbeat_interval_s)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          if Atomic.get computing && not (Atomic.get stop) then
            try send ~site:"wire.send.heartbeat" Wire.Heartbeat
            with Unix.Unix_error _ | Sys_error _ -> Atomic.set stop true
        done)
      ()
  in
  let outcome =
    try
      let running = ref true in
      let ending = ref `Lost in
      while !running && not (Atomic.get stop) do
        match input_line ic with
        | exception End_of_file -> running := false
        | line -> (
          match Wire.to_worker_of_line line with
          | Error msg ->
            (* a coordinator speaking garbage means the stream is out of
               sync; there is no way to resynchronise a line protocol,
               so drop the connection and let the coordinator count us
               lost *)
            Events.error "worker.bad_frame"
              ~fields:[ ("error", Json.String msg) ];
            running := false
          | Ok Wire.Shutdown ->
            ending := `Clean;
            running := false
          | Ok (Wire.Refused { why }) ->
            Events.error "worker.refused" ~fields:[ ("why", Json.String why) ];
            Logs.err (fun m ->
                m "worker %s: refused by the coordinator: %s" worker_id why);
            ending := `Refused;
            running := false
          | Ok (Wire.Assign { seq; batch_id; job }) ->
            Metrics.incr jobs_c;
            apply_worker_faults "worker.job";
            Atomic.set computing true;
            (* compute only, under the coordinator's batch_id: the
               coordinator owns the store and the rows, and isolation
               guarantees a row comes back whatever the job does *)
            let row =
              Fun.protect
                ~finally:(fun () -> Atomic.set computing false)
                (fun () -> Service.run_assigned ~batch_id job)
            in
            apply_worker_faults "worker.result";
            send ~site:"wire.send.result" (Wire.Result { seq; row }))
      done;
      !ending
    with Unix.Unix_error _ | Sys_error _ ->
      (* coordinator went away mid-send/mid-read: nothing left to serve *)
      `Lost
  in
  Atomic.set stop true;
  (try ignore (Unix.write_substring wake_w "x" 0 1)
   with Unix.Unix_error _ -> ());
  (* joined before the close, so the thread's last write precedes it *)
  Thread.join heartbeat;
  Unix.close wake_r;
  Unix.close wake_w;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  outcome

let run ?(reconnect = 0) ~connect ~worker_id () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Events.set_worker_id worker_id;
  Faults.arm_from_env ();
  Faults.set_role worker_id;
  Events.info "worker.start" ~fields:[ ("pid", Json.Int (Unix.getpid ())) ];
  (* The reconnect schedule is a pure function of the worker id: capped
     exponential backoff, jitter drawn from an id-seeded PRNG. A budget
     of 0 (spawned workers — the coordinator respawns them itself)
     means one dial, and a dial error propagates to the caller. *)
  let prng = Prng.of_string worker_id in
  let attempts = ref 0 in
  let backoff why =
    incr attempts;
    Metrics.incr reconnects_c;
    let delay_s = Policy.backoff_delay_s ~prng ~attempt:!attempts in
    Events.warn "worker.reconnect"
      ~fields:
        [
          ("attempt", Json.Int !attempts);
          ("delay_s", Json.Float delay_s);
          ("why", Json.String why);
        ];
    (try Unix.sleepf delay_s with Unix.Unix_error _ -> ())
  in
  let rec dial () =
    match Wire.connect connect with
    | Ok fd -> Some fd
    | Error msg -> raise (Failure msg)
    | exception Unix.Unix_error (e, _, _) when !attempts < reconnect ->
      backoff (Unix.error_message e);
      dial ()
    | exception (Unix.Unix_error _ as e) ->
      if reconnect = 0 then raise e else None
  in
  let rec sessions () =
    match dial () with
    | None -> false
    | Some fd -> (
      match session ~worker_id fd with
      | `Clean -> true
      (* the coordinator will refuse this id again: no dial can help *)
      | `Refused -> false
      | `Lost ->
        if !attempts < reconnect then begin
          backoff "connection lost";
          sessions ()
        end
        else false)
  in
  let clean = sessions () in
  Events.info "worker.exit"
    ~fields:[ ("clean", if clean then Json.Bool true else Json.Bool false) ];
  clean
