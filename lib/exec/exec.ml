(* Fixed worker pool over stdlib Domain.

   Work sharing, not stealing deques: a map call splits its input into
   contiguous chunks and pushes closures onto one mutex-protected
   queue; idle workers pull ("steal") chunks until the queue drains.
   Each chunk writes only its own slice of a preallocated result
   array, so result assembly needs no synchronization beyond batch
   completion — and submission order is trivially preserved. *)

let c_tasks = Probes.counter "exec.tasks"
let c_chunks = Probes.counter "exec.chunks"

type pool = {
  n_workers : int;
  mutable domains : unit Domain.t array;
  tasks : (unit -> unit) Queue.t;  (* closures never raise *)
  mu : Mutex.t;
  cond : Condition.t;  (* "queue non-empty or stopping" *)
  mutable stopped : bool;
  busy_timers : Probes.timer array;  (* exec.domain<i>.busy, one writer each *)
}

(* [Domain.recommended_domain_count] reports the cpuset the runtime
   sees, which inside CI containers is routinely clamped below the
   machine's real core count.  MIGRATE_JOBS lets the runner (or a
   developer) assert the true count; anything unparsable falls back to
   the runtime's view.

   The environment is read exactly once per process: distributed
   worker processes mutate the env mid-run (and putenv itself is not
   thread-safe), so re-reading on every call could hand two pool
   creations in one run different job counts.  0 means "not yet
   computed"; the first caller publishes via compare-and-set, racing
   domains all settle on the single published value. *)
let default_jobs_memo = Atomic.make 0

let default_jobs () =
  match Atomic.get default_jobs_memo with
  | 0 ->
      let j =
        match Sys.getenv_opt "MIGRATE_JOBS" with
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some j when j > 0 -> j
            | Some _ | None -> Domain.recommended_domain_count ())
        | None -> Domain.recommended_domain_count ()
      in
      ignore (Atomic.compare_and_set default_jobs_memo 0 j);
      Atomic.get default_jobs_memo
  | j -> j

let rec worker_loop p w =
  Mutex.lock p.mu;
  let rec next () =
    if not (Queue.is_empty p.tasks) then Some (Queue.pop p.tasks)
    else if p.stopped then None
    else begin
      Condition.wait p.cond p.mu;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock p.mu
  | Some task ->
      Mutex.unlock p.mu;
      let t0 = Probes.now_s () in
      task ();
      Probes.record p.busy_timers.(w) (Probes.now_s () -. t0);
      worker_loop p w

let create ~jobs =
  if jobs < 1 then invalid_arg "Exec.create: jobs must be >= 1";
  let workers = if jobs > 1 then jobs else 0 in
  let p =
    {
      n_workers = jobs;
      domains = [||];
      tasks = Queue.create ();
      mu = Mutex.create ();
      cond = Condition.create ();
      stopped = false;
      busy_timers =
        (* registered here, on the caller domain: workers only ever
           Probes.record into their own preexisting cell *)
        Array.init workers (fun w ->
            (Probes.timer
               (Printf.sprintf "exec.domain%d.busy" w)
            [@lint.allow
              "probes: per-domain cells are parameterized by worker index"]));
    }
  in
  if workers > 0 then
    p.domains <- Array.init workers (fun w -> Domain.spawn (fun () -> worker_loop p w));
  p

let shutdown p =
  Mutex.lock p.mu;
  if p.stopped then Mutex.unlock p.mu
  else begin
    p.stopped <- true;
    Condition.broadcast p.cond;
    Mutex.unlock p.mu;
    Array.iter Domain.join p.domains;
    p.domains <- [||]
  end

let with_pool ~jobs f =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* One parallel batch.  [results] slots are written exactly once, each
   by exactly one chunk; the batch mutex only guards the completion
   count. *)
let parallel_map p f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    Probes.bump ~by:n c_tasks;
    let results = Array.make n None in
    let chunk = max 1 (n / (p.n_workers * 4)) in
    let n_chunks = (n + chunk - 1) / chunk in
    Probes.bump ~by:n_chunks c_chunks;
    let bmu = Mutex.create () in
    let bcond = Condition.create () in
    let remaining = ref n_chunks in
    let run_chunk lo () =
      let hi = min n (lo + chunk) in
      for i = lo to hi - 1 do
        results.(i) <-
          Some
            (match f arr.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      done;
      Mutex.lock bmu;
      decr remaining;
      if !remaining = 0 then Condition.broadcast bcond;
      Mutex.unlock bmu
    in
    Mutex.lock p.mu;
    let lo = ref 0 in
    while !lo < n do
      Queue.add (run_chunk !lo) p.tasks;
      lo := !lo + chunk
    done;
    Condition.broadcast p.cond;
    Mutex.unlock p.mu;
    Mutex.lock bmu;
    while !remaining > 0 do
      Condition.wait bcond bmu
    done;
    Mutex.unlock bmu;
    (* deterministic failure choice: first failing element in
       submission order, regardless of which chunk ran first *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | _ -> ())
      results;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error _) | None -> assert false)
         results)
  end

let map ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some p ->
      let sequential =
        p.n_workers <= 1
        ||
        (Mutex.lock p.mu;
         let s = p.stopped in
         Mutex.unlock p.mu;
         s)
      in
      if sequential then List.map f xs else parallel_map p f xs
