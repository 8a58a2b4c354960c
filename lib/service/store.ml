module Json = Dcopt_util.Json
module Metrics = Dcopt_obs.Metrics
module Events = Dcopt_obs.Events

let corrupt_c =
  Metrics.counter
    ~help:"store/checkpoint entries that existed but could not be read back"
    "service.store.corrupt"

let write_failed_c =
  Metrics.counter
    ~help:"store writes abandoned on disk errors (the batch continues, \
           that result simply stays uncached)"
    "service.store.write_failed"

type t = { dir : string }

(* bump whenever device models, optimizers or the config/solution
   schemas change numerically observable behaviour *)
let code_model_version = "4"

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.is_directory path -> ()
  end

let open_ path =
  mkdir_p path;
  if not (Sys.is_directory path) then
    raise (Sys_error (path ^ ": not a directory"));
  { dir = path }

let dir t = t.dir

(* [scenario] is appended only when present, so every pre-scenario
   digest — and with it every cached single-corner row — is unchanged. *)
let digest ?scenario ~optimizer ~config circuit =
  let base =
    [
      code_model_version;
      optimizer;
      Json.to_string (Dcopt_core.Flow.config_to_json config);
      Dcopt_netlist.Bench_format.to_string circuit;
    ]
  in
  let payload =
    String.concat "\n"
      (match scenario with None -> base | Some s -> base @ [ s ])
  in
  Digest.to_hex (Digest.string payload)

let path_of t key = Filename.concat t.dir (key ^ ".json")

let note_corrupt () = Metrics.incr corrupt_c

(* A missing entry is a quiet miss; an entry that exists but cannot be
   read back whole — truncated, shrunk mid-read, bit-flipped,
   unparsable — is also a miss (a warm batch must never crash on a
   damaged cache) but is counted, so a rotting store shows up in the
   metrics instead of as silently slower runs. *)
let find t key =
  if List.exists (function Faults.Eio -> true | _ -> false)
       (Faults.fire "store.find")
  then begin
    note_corrupt ();
    None
  end
  else
    let path = path_of t key in
    if not (Sys.file_exists path) then None
    else
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error _ ->
        note_corrupt ();
        None
      | exception End_of_file ->
        (* the file shrank between the length check and the read: a
           partial/short write surfacing at read-back is corruption,
           same as a truncated document *)
        note_corrupt ();
        None
      | text -> (
        match Json.of_string text with
        | Ok v -> Some v
        | Error _ ->
          note_corrupt ();
          None)

(* Tmp names must be collision-safe across every concurrent writer of a
   shared store: the pid separates processes (fleet workers, parallel
   batches), the counter separates domains and repeated writes within
   one process. A colliding tmp name would let one writer rename the
   other's half-written file into place. *)
let tmp_seq = Atomic.make 0

let note_write_failed key error =
  Metrics.incr write_failed_c;
  Events.warn "store.write_failed"
    ~fields:[ ("digest", Json.String key); ("error", Json.String error) ]

(* Writes are best-effort: the store is a cache, so a full disk or a
   flaky device must never abort a batch that already holds the result
   in memory. Failures clean up their temp file, count, and return. *)
let put t key value =
  let faults = Faults.fire "store.put" in
  let injected =
    List.find_map
      (function
        | Faults.Enospc -> Some "ENOSPC (injected)"
        | Faults.Eio -> Some "EIO (injected)"
        | _ -> None)
      faults
  in
  match injected with
  | Some error -> note_write_failed key error
  | None -> (
    let doc = Json.to_string value in
    let doc =
      (* a short write that does reach the directory entry: the torn
         document is caught at read-back by [find] as corruption *)
      match
        List.find_map (function Faults.Short n -> Some n | _ -> None) faults
      with
      | Some n -> String.sub doc 0 (min n (String.length doc))
      | None -> doc
    in
    let path = path_of t key in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc doc)
    with
    | exception Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      note_write_failed key msg
    | () -> (
      (* Entries are content-addressed, so concurrent writers of one key
         are writing the same bytes: whoever renames last wins and nobody
         can tell the difference. A rename that fails while the
         destination now exists is therefore a benign race — another
         writer beat us — not a failure; only a rename that leaves no
         entry behind counts. *)
      try Sys.rename tmp path
      with Sys_error msg ->
        (try Sys.remove tmp with Sys_error _ -> ());
        if not (Sys.file_exists path) then note_write_failed key msg))
