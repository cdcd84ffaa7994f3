(* The repository benchmark.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perf.exe [--seed N] [--seconds S] [--trace 0|1]
     perf.exe --list

   With --workload it runs that workload in this process: set-up from
   the seed, one untimed warm-up repetition, then timed repetitions
   for S seconds, each after one more timed set-up (for setup_s),
   every output certified.  It prints a header, one line per metric (median,
   quartiles, sample count), and as its last line one JSON object:
   the end-to-end metrics with --trace 0; with --trace 1 the spans,
   one JSON object a line, then the per-layer metrics.  Without
   --workload it runs every workload, each in a
   child process of its own, so Instr counters and peak RSS never mix
   and dist-exec forks before any domain exists.  --list prints the
   manifest BENCHMARK.json must equal.  Exit status 1 means an output
   failed certification. *)

let command = [ "dune"; "exec"; "--"; "bench/perf/perf.exe" ]
let paths = [ "bench/perf" ]
let run_seconds = 20
let min_reps = 3

(* name, unit, better, regression bound *)
let end_to_end =
  [
    ("transfers_per_s", "1/s", "higher", 0.25);
    ("setup_s", "s", "lower", 0.25);
    ("peak_rss_mb", "MB", "lower", 0.25);
    ("rounds_ratio", "ratio", "lower", 0.02);
  ]

(* name, unit, better *)
let per_layer =
  [
    ("lower_bounds.lb1_s", "s", "lower");
    ("lower_bounds.lower_bound_s", "s", "lower");
    ("lower_bounds.gamma_gain", "rounds", "higher");
    ("pipeline.solve_s", "s", "lower");
    ("pipeline.decompose_s", "s", "lower");
    ("pipeline.components", "count", "lower");
    ("even_optimal.pad_orient_s", "s", "lower");
    ("even_optimal.decompose_s", "s", "lower");
    ("flow.augmenting_paths", "count", "lower");
    ("bmatch.components", "count", "lower");
    ("exec.tasks", "count", "lower");
    ("exec.parallel_gain", "ratio", "higher");
    ("alloc_bytes_per_item", "B/item", "lower");
    ("hetero_coloring.phase1_s", "s", "lower");
    ("hetero_coloring.phase2_s", "s", "lower");
    ("hetero_coloring.refine_s", "s", "lower");
    ("hetero_coloring.unattributed_s", "s", "lower");
    ("recolor.kempe_walks", "count", "lower");
    ("certify.check_s", "s", "lower");
    ("certify.service_s", "s", "lower");
    ("certify.execution_s", "s", "lower");
    ("certify.share", "ratio", "lower");
    ("engine.run_s", "s", "lower");
    ("engine.plan_s", "s", "lower");
    ("engine.exec_s", "s", "lower");
    ("engine.replans", "count", "lower");
    ("engine.retried_edges", "count", "lower");
    ("engine.inprocess_s", "s", "lower");
    ("layout.balance_s", "s", "lower");
    ("service.run_s", "s", "lower");
    ("service.self_s", "s", "lower");
    ("service.epochs", "count", "lower");
    ("service.absorbed", "count", "higher");
    ("service.rejected", "count", "lower");
    ("service.repairs", "count", "lower");
    ("dist.plan_s", "s", "lower");
    ("dist.round_s", "s", "lower");
    ("dist.round_ms", "ms", "lower");
    ("dist.other_s", "s", "lower");
    ("dist.messages", "count", "lower");
    ("dist.commits", "count", "lower");
    ("dist.overhead", "ratio", "lower");
    ("trace_overhead", "ratio", "lower");
  ]

let str s = Printf.sprintf "%S" s

(* Every float with all its digits.  JSON has no NaN or infinity; only
   a run whose repetitions failed produces them, and it reports
   [correct: false] anyway. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let manifest () =
  let field k v = Printf.sprintf "%s: %s" (str k) v in
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let rows xs = "[\n    " ^ String.concat ",\n    " xs ^ "\n  ]" in
  let strings xs = "[" ^ String.concat ", " (List.map str xs) ^ "]" in
  "{\n  "
  ^ String.concat ",\n  "
      [
        field "command" (strings command);
        field "paths" (strings paths);
        field "run_seconds" (string_of_int run_seconds);
        field "workloads"
          (rows
             (List.map
                (fun (w : Jobs.t) ->
                  obj [ field "name" (str w.name); field "why" (str w.why) ])
                Jobs.all));
        field "end_to_end"
          (rows
             (List.map
                (fun (n, u, b, bound) ->
                  obj
                    [
                      field "name" (str n); field "unit" (str u);
                      field "better" (str b);
                      field "bound" (Printf.sprintf "%g" bound);
                    ])
                end_to_end));
        field "per_layer"
          (rows
             (List.map
                (fun (n, u, b) ->
                  obj
                    [
                      field "name" (str n); field "unit" (str u);
                      field "better" (str b);
                    ])
                per_layer));
      ]
  ^ "\n}"

(* ---- run header ---- *)

let first_line file =
  match In_channel.with_open_text file In_channel.input_line with
  | line -> line
  | exception Sys_error _ -> None

let git_commit () =
  match first_line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      let name = String.sub head 5 (String.length head - 5) in
      Option.value ~default:"unknown" (first_line (Filename.concat ".git" name))
  | Some sha -> sha
  | None -> "none"

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      Option.value ~default:"?" line
  | exception Unix.Unix_error _ -> "?"

let header ~seed ~seconds ~trace name =
  Printf.printf
    "# perf workload=%s seed=%d seconds=%d min_reps=%d trace=%b nproc=%s \
     default_jobs=%d jobs=%d ocaml=%s commit=%s\n\
     %!"
    name seed seconds min_reps trace (nproc ()) (Exec.default_jobs ())
    Jobs.jobs Sys.ocaml_version (git_commit ())

(* Linux lowers VmHWM to the current RSS when "5" is written here;
   elsewhere the peak keeps counting from process start. *)
let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

(* VmHWM of this process; the major heap's peak where /proc is absent. *)
let peak_rss_mb () =
  let from_proc =
    match
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
    with
    | status ->
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] ->
                Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                    float_of_int kb /. 1024.0)
            | _ -> None)
          (String.split_on_char '\n' status)
    | exception Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1_048_576.0

(* ---- one workload, in this process ---- *)

let print_metric name unit xs =
  let q1, med, q3 = Stats.quartiles xs in
  Printf.printf "%-32s %-7s median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n" name
    unit med q1 q3 (List.length xs)

let run_workload (w : Jobs.t) ~seed ~seconds ~trace =
  header ~seed ~seconds ~trace w.name;
  let salted = Hashtbl.hash (w.salt, seed) in
  (* every set-up starts from a collected heap, so none pays for an
     earlier one's garbage *)
  let set_up () =
    Gc.compact ();
    Trace.call "setup" (fun () -> w.setup salted)
  in
  let p, first_setup_s = set_up () in
  let setup_times = ref [ first_setup_s ] in
  let attempt () =
    match p.rep () with
    | r -> r
    | exception e -> Jobs.failed ~wall_s:0.0 (Printexc.to_string e)
  in
  let warm = attempt () in
  if trace then Trace.enable ();
  let reps = ref [] and traced = ref [] and peaks = ref [] in
  let t0 = Unix.gettimeofday () in
  while
    List.length !reps < min_reps
    || Unix.gettimeofday () -. t0 < float_of_int seconds
  do
    (* one more set-up before each repetition, so setup_s samples the
       machine over the same stretch of time the repetitions do; its
       inputs are thrown away *)
    setup_times := snd (set_up ()) :: !setup_times;
    (* the repetition starts from a collected heap, and its peak RSS
       counts from here: the repetition's own peak, or what the set-ups
       left mapped (the major heap keeps freed chunks) where that is
       higher *)
    Gc.compact ();
    reset_peak_rss ();
    reps := attempt () :: !reps;
    peaks := peak_rss_mb () :: !peaks;
    if trace then begin
      Gc.compact ();
      Migration.Instr.reset ();
      let run = Printf.sprintf "%s/%d" w.name (List.length !reps) in
      let r = Trace.rep ~run "rep" attempt in
      traced := (r, Migration.Instr.snapshot ()) :: !traced
    end
  done;
  let reps = List.rev !reps and traced = List.rev !traced in
  let all = warm :: (reps @ List.map fst traced) in
  let call_s name =
    match
      List.filter_map (fun (r : Jobs.rep) -> List.assoc_opt name r.calls) reps
    with
    | [] -> 0.0
    | xs -> Stats.median xs
  in
  let extra, late_errors =
    if not trace then ([], [])
    else
      match
        Trace.rep ~run:(w.name ^ "/after") "after" (fun () -> p.after ~call_s)
      with
      | result -> result
      | exception e -> ([], [ Printexc.to_string e ])
  in
  (* the outputs are deterministic: a repetition that differs from the
     warm-up is wrong *)
  let key (r : Jobs.rep) = (r.transfers, r.rounds, r.requests) in
  let drifted = List.length (List.filter (fun r -> key r <> key warm) all) in
  let errors =
    List.concat_map (fun (r : Jobs.rep) -> r.errors) all
    @ late_errors
    @
    if drifted = 0 then []
    else
      [
        Printf.sprintf
          "%d repetitions differ from the warm-up in rounds, transfers or \
           requests"
          drifted;
      ]
  in
  List.iteri
    (fun i e -> if i < 10 then Printf.printf "ERROR %s: %s\n" w.name e)
    errors;
  if List.length errors > 10 then
    Printf.printf "ERROR %s: ... %d more\n" w.name (List.length errors - 10);
  (* every repetition, warm-up and traced ones included, plus the
     traced run's closing checks, so [failed] is 0 iff [errors] is
     empty *)
  let attempted = List.length all + if trace then 1 else 0 in
  let failed =
    List.length
      (List.filter
         (fun (r : Jobs.rep) -> r.errors <> [] || key r <> key warm)
         all)
    + if late_errors = [] then 0 else 1
  in
  let of_reps f = List.map f reps in
  let f = float_of_int in
  let metrics =
    if not trace then begin
      let values =
        [
          ("transfers_per_s", of_reps (fun r -> f r.transfers /. r.wall_s));
          ("setup_s", !setup_times);
          ("peak_rss_mb", !peaks);
          ("rounds_ratio", of_reps (fun r -> f r.rounds /. f r.floor));
        ]
      in
      List.iter
        (fun (name, unit, _, _) ->
          print_metric name unit (List.assoc name values))
        end_to_end;
      (* reported but not bounded: the repetition's wall time says what
         transfers_per_s says, and rounds and latency move with the
         seed's input more than a bound that must hold across seeds
         allows *)
      print_metric "wall_s" "s" (of_reps (fun r -> r.wall_s));
      print_metric "rounds" "rounds" (of_reps (fun r -> f r.rounds));
      let frac name k n what =
        Printf.printf "%-32s %-7s %-12.6g %d of %d %s\n" name "ratio"
          (f k /. f n) k n what
      in
      frac "failed_frac" failed attempted "repetitions";
      (* the same in every repetition, as [key] checks *)
      Option.iter
        (fun (q : Jobs.requests) ->
          Printf.printf "%-32s %-7s p50 %d p99 %d samples %d\n" "latency"
            "rounds" q.p50 q.p99 q.completed;
          frac "refused_frac" q.refused q.submitted "requests")
        warm.requests;
      List.map
        (fun (name, unit, _, _) ->
          (name, unit, Stats.median (List.assoc name values)))
        end_to_end
    end
    else begin
      let per_rep =
        List.map (fun ((r : Jobs.rep), snap) -> p.layers r snap) traced
      in
      let overhead =
        Stats.median (List.map (fun ((r : Jobs.rep), _) -> r.wall_s) traced)
        /. Stats.median (of_reps (fun r -> r.wall_s))
      in
      let values name =
        match List.assoc_opt name extra with
        | Some v -> [ v ]
        | None when name = "trace_overhead" -> [ overhead ]
        | None ->
            List.map
              (fun l -> Option.value ~default:0.0 (List.assoc_opt name l))
              per_rep
      in
      List.iter
        (fun (name, unit, _) -> print_metric name unit (values name))
        per_layer;
      List.iter
        (fun (name, total, self) ->
          Printf.printf "span %-36s median %-12.6g self %.6g\n" name total self)
        (Trace.self_times ());
      Trace.write stdout;
      List.map
        (fun (name, unit, _) -> (name, unit, Stats.median (values name)))
        per_layer
    end
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    (errors = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str name)
              (num v) (str unit))
          metrics));
  if errors = [] then 0 else 1

(* ---- every workload, one child process each ---- *)

let run_all ~seed ~seconds ~trace =
  List.fold_left
    (fun status (w : Jobs.t) ->
      let argv =
        [
          Sys.executable_name; "--workload"; w.name; "--seed";
          string_of_int seed; "--seconds"; string_of_int seconds; "--trace";
          (if trace then "1" else "0");
        ]
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
          Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> status
      | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 1)
    0 Jobs.all

let () =
  let workload = ref None and seed = ref 1 and seconds = ref run_seconds in
  let trace = ref false and list = ref false in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload in this process" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--seconds",
        Arg.Set_int seconds,
        Printf.sprintf "S timed seconds per workload (default %d)"
          run_seconds );
      ( "--trace",
        Arg.Int (fun t -> trace := t <> 0),
        "0|1 print the spans and per-layer metrics of traced repetitions" );
      ("--list", Arg.Set list, " print the manifest BENCHMARK.json must equal");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [options]";
  let seed = !seed and seconds = !seconds and trace = !trace in
  if !list then print_endline (manifest ())
  else
    match !workload with
    | None -> exit (run_all ~seed ~seconds ~trace)
    | Some name -> (
        match List.find_opt (fun (w : Jobs.t) -> w.name = name) Jobs.all with
        | Some w -> exit (run_workload w ~seed ~seconds ~trace)
        | None ->
            prerr_endline ("perf: unknown workload " ^ name);
            exit 2)
