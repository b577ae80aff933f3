(* A minimal work-queue domain pool: one shared FIFO of thunks guarded
   by a mutex/condition pair.  Workers park on the condition when idle;
   the submitting domain helps drain the queue, so a pool of [jobs]
   uses exactly [jobs] domains including the caller and [jobs = 1]
   degenerates to plain serial execution with no queue traffic. *)

type pool = {
  n_jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Read on every call, so a malformed value fails the first caller that
   needs a pool size rather than module initialisation. *)
let default_jobs () =
  match Sys.getenv_opt "MIFO_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some v -> (
    match String.trim v with
    | "" -> Domain.recommended_domain_count ()
    | t -> (
      match int_of_string_opt t with
      | Some j when j >= 1 -> j
      | Some _ | None ->
        invalid_arg
          (Printf.sprintf "MIFO_JOBS: expected a positive integer, got %S" v)))

let jobs t = t.n_jobs

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.tasks && not pool.stop do
    Condition.wait pool.nonempty pool.mutex
  done;
  if Queue.is_empty pool.tasks then Mutex.unlock pool.mutex (* stop *)
  else begin
    let task = Queue.pop pool.tasks in
    Mutex.unlock pool.mutex;
    task ();
    worker_loop pool
  end

let create ?jobs () =
  let n_jobs = Stdlib.max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  let pool =
    {
      n_jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      tasks = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  pool.workers <- List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* Completion tracking for one batch of tasks. *)
type batch = {
  b_mutex : Mutex.t;
  b_drained : Condition.t;
  mutable b_pending : int;
  mutable b_exn : (exn * Printexc.raw_backtrace) option;
}

(* Run [make_task i] for [0 <= i < count] across the pool and wait. *)
let exec_batch pool count make_task =
  if count > 0 then begin
    let batch =
      {
        b_mutex = Mutex.create ();
        b_drained = Condition.create ();
        b_pending = count;
        b_exn = None;
      }
    in
    let wrapped i () =
      (try make_task i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock batch.b_mutex;
         if batch.b_exn = None then batch.b_exn <- Some (e, bt);
         Mutex.unlock batch.b_mutex);
      Mutex.lock batch.b_mutex;
      batch.b_pending <- batch.b_pending - 1;
      if batch.b_pending = 0 then Condition.broadcast batch.b_drained;
      Mutex.unlock batch.b_mutex
    in
    Mutex.lock pool.mutex;
    for i = 0 to count - 1 do
      Queue.add (wrapped i) pool.tasks
    done;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mutex;
    (* The caller helps: drain whatever is queued (tasks of this batch,
       in the common case) instead of blocking straight away. *)
    let continue = ref true in
    while !continue do
      Mutex.lock pool.mutex;
      match Queue.take_opt pool.tasks with
      | Some task ->
        Mutex.unlock pool.mutex;
        task ()
      | None ->
        Mutex.unlock pool.mutex;
        continue := false
    done;
    Mutex.lock batch.b_mutex;
    while batch.b_pending > 0 do
      Condition.wait batch.b_drained batch.b_mutex
    done;
    let failed = batch.b_exn in
    Mutex.unlock batch.b_mutex;
    match failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_for pool ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then
    if pool.n_jobs = 1 || n = 1 then
      for i = lo to hi - 1 do
        f i
      done
    else begin
      (* More chunks than domains so an uneven iteration cost cannot
         leave most of the pool idle behind one long chunk. *)
      let chunks = Stdlib.min n (4 * pool.n_jobs) in
      let base = n / chunks and rem = n mod chunks in
      let chunk_bounds c =
        (* chunk [c] covers [base] items, the first [rem] chunks one more *)
        let start = lo + (c * base) + Stdlib.min c rem in
        let len = base + if c < rem then 1 else 0 in
        (start, len)
      in
      exec_batch pool chunks (fun c ->
          let start, len = chunk_bounds c in
          for i = start to start + len - 1 do
            f i
          done)
    end

let parallel_map pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if pool.n_jobs = 1 || n = 1 then Array.map f arr
  else begin
    let first = f arr.(0) in
    let out = Array.make n first in
    parallel_for pool ~lo:1 ~hi:n (fun i -> out.(i) <- f arr.(i));
    out
  end

(* The shared pool.  Guarded by a mutex: the first caller builds it;
   [set_default_jobs] swaps it (tests only). *)
let default_mutex = Mutex.create ()
let default_pool : pool option ref = ref None

let get_default () =
  (* [protect]: a malformed MIFO_JOBS raises from [create] and must not
     leave the mutex held. *)
  Mutex.protect default_mutex (fun () ->
      match !default_pool with
      | Some p -> p
      | None ->
        let p = create () in
        default_pool := Some p;
        p)

let set_default_jobs jobs =
  if jobs <= 0 then
    invalid_arg
      (Printf.sprintf "Parallel.set_default_jobs: jobs must be >= 1 (got %d)" jobs);
  Mutex.lock default_mutex;
  (match !default_pool with Some p -> shutdown p | None -> ());
  default_pool := Some (create ~jobs ());
  Mutex.unlock default_mutex
