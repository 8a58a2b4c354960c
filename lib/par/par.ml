module Metrics = Dcopt_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Job-count configuration                                             *)

let max_jobs = 64

let env_default () =
  match Sys.getenv_opt "DCOPT_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> min n max_jobs
    | Some _ | None -> 1)

let global_jobs = ref (env_default ())

let jobs () = !global_jobs

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: jobs < 1";
  global_jobs := min n max_jobs

(* A task spawned from inside a batch (a nested Par call) must not submit
   to the pool it is running on — that deadlocks a 1-worker pool and
   scrambles determinism everywhere else. The flag makes nested calls
   degenerate to the sequential path. *)
let in_batch_key = Domain.DLS.new_key (fun () -> false)

(* ------------------------------------------------------------------ *)
(* Pool metrics (registered lazily; updated from the main domain only)  *)

let tasks_counter =
  lazy (Metrics.counter ~help:"tasks executed by the Par pool" "par.tasks")

let batches_counter =
  lazy (Metrics.counter ~help:"batches submitted to the Par pool" "par.batches")

let domains_gauge =
  lazy
    (Metrics.gauge ~help:"domains used by the most recent Par batch"
       "par.domains")

let site_histogram site =
  Metrics.histogram
    ~help:"per-task wall-clock latency at this parallel site, s"
    ("par.latency." ^ site)

(* ------------------------------------------------------------------ *)
(* The domain pool                                                     *)

type batch = {
  b_count : int;
  b_run : int -> unit; (* never raises; exceptions are captured *)
  b_next : int Atomic.t;
  b_done : int Atomic.t;
}

type pool = {
  p_workers : int; (* worker domains; the caller participates too *)
  p_mutex : Mutex.t;
  p_work : Condition.t; (* new batch or shutdown *)
  p_finished : Condition.t; (* a batch completed its last task *)
  mutable p_batch : batch option;
  mutable p_generation : int;
  mutable p_shutdown : bool;
  mutable p_domains : unit Domain.t list;
}

let run_tasks pool batch =
  let rec claim () =
    let i = Atomic.fetch_and_add batch.b_next 1 in
    if i < batch.b_count then begin
      batch.b_run i;
      let completed = 1 + Atomic.fetch_and_add batch.b_done 1 in
      if completed = batch.b_count then begin
        Mutex.lock pool.p_mutex;
        Condition.broadcast pool.p_finished;
        Mutex.unlock pool.p_mutex
      end;
      claim ()
    end
  in
  claim ()

let worker pool =
  Domain.DLS.set in_batch_key true;
  let last_generation = ref 0 in
  let rec loop () =
    Mutex.lock pool.p_mutex;
    while (not pool.p_shutdown) && pool.p_generation = !last_generation do
      Condition.wait pool.p_work pool.p_mutex
    done;
    if pool.p_shutdown then Mutex.unlock pool.p_mutex
    else begin
      last_generation := pool.p_generation;
      let batch = pool.p_batch in
      Mutex.unlock pool.p_mutex;
      (match batch with Some b -> run_tasks pool b | None -> ());
      loop ()
    end
  in
  loop ()

let the_pool : pool option ref = ref None
let exit_hook_installed = ref false

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some pool ->
    Mutex.lock pool.p_mutex;
    pool.p_shutdown <- true;
    Condition.broadcast pool.p_work;
    Mutex.unlock pool.p_mutex;
    List.iter Domain.join pool.p_domains;
    the_pool := None

let ensure_pool workers =
  (match !the_pool with
  | Some pool when pool.p_workers <> workers -> shutdown ()
  | Some _ | None -> ());
  match !the_pool with
  | Some pool -> pool
  | None ->
    let pool =
      {
        p_workers = workers;
        p_mutex = Mutex.create ();
        p_work = Condition.create ();
        p_finished = Condition.create ();
        p_batch = None;
        p_generation = 0;
        p_shutdown = false;
        p_domains = [];
      }
    in
    pool.p_domains <-
      List.init workers (fun _ -> Domain.spawn (fun () -> worker pool));
    the_pool := Some pool;
    if not !exit_hook_installed then begin
      exit_hook_installed := true;
      at_exit shutdown
    end;
    pool

let run_batch ~workers ~count run =
  let pool = ensure_pool workers in
  let batch =
    { b_count = count; b_run = run; b_next = Atomic.make 0;
      b_done = Atomic.make 0 }
  in
  Mutex.lock pool.p_mutex;
  pool.p_batch <- Some batch;
  pool.p_generation <- pool.p_generation + 1;
  Condition.broadcast pool.p_work;
  Mutex.unlock pool.p_mutex;
  (* the caller is a full participant, flagged so nested Par calls inside
     its own tasks stay sequential *)
  Domain.DLS.set in_batch_key true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set in_batch_key false)
    (fun () -> run_tasks pool batch);
  Mutex.lock pool.p_mutex;
  while Atomic.get batch.b_done < count do
    Condition.wait pool.p_finished pool.p_mutex
  done;
  pool.p_batch <- None;
  Mutex.unlock pool.p_mutex

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(* Runs [f 0 .. f (n-1)] over [min jobs n] domains; [f] writes only its
   own index's state. *)
let parallel_for ?site ?jobs:requested ~n f =
  if n > 0 then begin
    let nested = Domain.DLS.get in_batch_key in
    let requested =
      match requested with Some j -> max 1 (min j max_jobs) | None -> jobs ()
    in
    let domains = if nested || n = 1 then 1 else min requested n in
    let latencies = Array.make n 0.0 in
    let failure = Atomic.make None in
    let run i =
      match Atomic.get failure with
      | Some _ -> () (* a task already failed: drain the rest cheaply *)
      | None -> (
        try
          let t0 = Dcopt_util.Clock.monotonic_s () in
          f i;
          latencies.(i) <- Dcopt_util.Clock.monotonic_s () -. t0
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt))))
    in
    if domains = 1 then
      for i = 0 to n - 1 do
        run i
      done
    else run_batch ~workers:(domains - 1) ~count:n run;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    (* metrics are not domain-safe beyond counters: record on the main
       domain only, after the batch barrier *)
    if Domain.is_main_domain () && not nested then begin
      Metrics.incr ~by:n (Lazy.force tasks_counter);
      Metrics.incr (Lazy.force batches_counter);
      Metrics.set (Lazy.force domains_gauge) (float_of_int domains);
      match site with
      | None -> ()
      | Some site ->
        let h = site_histogram site in
        Array.iter (fun l -> Metrics.observe h l) latencies
    end
  end

let map ?site ?jobs f input =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?site ?jobs ~n (fun i -> out.(i) <- Some (f input.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* barrier passed *))
      out
  end

let map_list ?site ?jobs f l =
  Array.to_list (map ?site ?jobs f (Array.of_list l))
