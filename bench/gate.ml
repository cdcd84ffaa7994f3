(* gate — the CI perf-regression gate.

   Usage:  gate BASELINE.json CURRENT.json [--tolerance 0.25]

   Both files are outputs of `bench <experiments> --json` (see
   write_json in main.ml).  The gate fails (exit 1) when

     - an experiment present in both files got slower than
       (1 + tolerance) x its baseline wall time, or
     - any "identical_schedules" assertion in the current run is false
       (a planner produced a different schedule at some --jobs value —
       a determinism break, not a perf problem), or
     - the current run was taken on a machine with >= 4 recommended
       domains and E9's jobs=4 run of the multi-component pipeline
       fell below the hard speedup floor — parallelism that stops
       paying for itself is a regression even when single-job wall
       time holds, or
     - a solver in the current run's E11 "huge" section allocated more
       than its steady-state budget (bytes per edge over a ~1e5-edge
       instance; see doc/ALGORITHMS.md "Flat core & memory
       discipline").  Budgets are several times the measured values,
       so tripping one means a kernel re-grew a per-edge allocation
       path, not that the timer was noisy.

   Experiments with a baseline under [min_wall] seconds are reported
   but never gated: at that scale the numbers are timer noise.  The
   speedup floor and allocation budgets gate the CURRENT run only, so
   a baseline from an older bench format stays usable.

   The parser is a string scraper matched to our own writer's output —
   the tree has no JSON dependency and does not want one for this. *)

let tolerance = ref 0.25
let min_wall = 0.05
let speedup_floor = 1.6

(* bytes allocated per edge on the huge instance, with 3-6x headroom
   over the measured values (greedy ~200, hetero ~620, even-opt ~4950)
   so GC/runtime drift across OCaml versions cannot trip it but a
   rewritten kernel that allocates per edge per round will *)
let alloc_budgets =
  [ ("greedy", 1024.0); ("hetero", 4096.0); ("even-opt", 15000.0) ]

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg ->
    Printf.eprintf "gate: %s\n" msg;
    exit 2

(* next occurrence of [needle] in [hay] at or after [from] *)
let find_from hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go from

(* The top-level section ["key": open ... close] as a substring, e.g.
   the "experiments" array or the "huge" object.  Our writer indents
   top-level sections by two spaces, so the matching close delimiter is
   the first "\n  ]" / "\n  }" after the opener — nested arrays and
   records sit deeper and never match it. *)
let section hay ~key ~open_ ~close =
  let pat = Printf.sprintf "\"%s\": %c" key open_ in
  match find_from hay pat 0 with
  | None -> None
  | Some i -> (
      let start = i + String.length pat in
      match find_from hay (Printf.sprintf "\n  %c" close) start with
      | None -> None
      | Some stop -> Some (String.sub hay start (stop - start)))

let scrape_string hay ~key ~from =
  (* "key": "value" *)
  let pat = Printf.sprintf "\"%s\": \"" key in
  match find_from hay pat from with
  | None -> None
  | Some i ->
      let start = i + String.length pat in
      let stop = String.index_from hay start '"' in
      Some (String.sub hay start (stop - start), stop)

let scrape_float hay ~key ~from =
  let pat = Printf.sprintf "\"%s\": " key in
  match find_from hay pat from with
  | None -> None
  | Some i ->
      let start = i + String.length pat in
      let stop = ref start in
      let n = String.length hay in
      while
        !stop < n
        && (match hay.[!stop] with
           | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.sub hay start (!stop - start))

(* every { "name": ..., "wall_s": ... } record of the experiments
   array only — the huge section carries per-solver "name"/"wall_s"
   records of its own, which must not masquerade as experiments *)
let experiments text =
  match section text ~key:"experiments" ~open_:'[' ~close:']' with
  | None -> []
  | Some body ->
      let rec go from acc =
        match scrape_string body ~key:"name" ~from with
        | None -> List.rev acc
        | Some (name, after) -> (
            match scrape_float body ~key:"wall_s" ~from:after with
            | None -> List.rev acc
            | Some w -> go (after + 1) ((name, w) :: acc))
      in
      go 0 []

(* all "identical_schedules" assertions — one per parallel section *)
let identical_schedules text =
  let pat = "\"identical_schedules\": " in
  let rec go from acc =
    match find_from text pat from with
    | None -> List.rev acc
    | Some i ->
        let start = i + String.length pat in
        let v = String.length text >= start + 4 && String.sub text start 4 = "true" in
        go (start + 1) (v :: acc)
  in
  go 0 []

(* speedup of the jobs=[jobs] run inside a section's "runs" array *)
let speedup_at section_body ~jobs =
  match find_from section_body (Printf.sprintf "\"jobs\": %d" jobs) 0 with
  | None -> None
  | Some i -> scrape_float section_body ~key:"speedup" ~from:i

(* bytes_per_edge of the named solver inside the huge section *)
let bytes_per_edge huge_body ~solver =
  match find_from huge_body (Printf.sprintf "\"name\": %S" solver) 0 with
  | None -> None
  | Some i -> scrape_float huge_body ~key:"bytes_per_edge" ~from:i

let () =
  let positional = ref [] in
  let rec parse = function
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t > 0.0 -> tolerance := t
        | _ ->
            prerr_endline "gate: --tolerance needs a positive float";
            exit 2);
        parse rest
    | a :: rest ->
        positional := a :: !positional;
        parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let base_path, cur_path =
    match List.rev !positional with
    | [ b; c ] -> (b, c)
    | _ ->
        prerr_endline "usage: gate BASELINE.json CURRENT.json [--tolerance T]";
        exit 2
  in
  let base = read_file base_path and cur = read_file cur_path in
  let base_exps = experiments base and cur_exps = experiments cur in
  if base_exps = [] then begin
    Printf.eprintf "gate: no experiments found in %s\n" base_path;
    exit 2
  end;
  if cur_exps = [] then begin
    Printf.eprintf "gate: no experiments found in %s\n" cur_path;
    exit 2
  end;
  Printf.printf "perf gate: %s -> %s (tolerance %.0f%%)\n\n" base_path cur_path
    (100.0 *. !tolerance);
  Printf.printf "%-12s %10s %10s %8s  %s\n" "experiment" "base (s)" "cur (s)"
    "ratio" "verdict";
  let failed = ref false in
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name cur_exps with
      | None -> Printf.printf "%-12s %10.3f %10s %8s  missing from current\n" name b "-" "-"
      | Some c ->
          let ratio = if b > 0.0 then c /. b else 1.0 in
          let verdict =
            if b < min_wall then "ok (below noise floor, not gated)"
            else if ratio > 1.0 +. !tolerance then begin
              failed := true;
              "REGRESSION"
            end
            else "ok"
          in
          Printf.printf "%-12s %10.3f %10.3f %7.2fx  %s\n" name b c ratio
            verdict)
    base_exps;
  (match identical_schedules cur with
  | [] -> ()
  | flags when List.for_all Fun.id flags ->
      Printf.printf "\nidentical schedules across --jobs: yes (%d section%s)\n"
        (List.length flags)
        (if List.length flags = 1 then "" else "s")
  | _ ->
      Printf.printf
        "\nidentical schedules across --jobs: NO — determinism break\n";
      failed := true);
  (* hard speedup floor — only meaningful where 4 domains exist; a
     clamped-cpuset runner (recommended_domains < 4) reports instead
     of gating, so the floor cannot fail for want of hardware *)
  let domains =
    match scrape_float cur ~key:"recommended_domains" ~from:0 with
    | Some d -> int_of_float d
    | None -> 1
  in
  let check_floor label body =
    match speedup_at body ~jobs:4 with
    | None -> ()
    | Some s ->
        if domains >= 4 then
          if s >= speedup_floor then
            Printf.printf "%s speedup at 4 domains: %.2fx (floor %.1fx) ok\n"
              label s speedup_floor
          else begin
            Printf.printf
              "%s speedup at 4 domains: %.2fx — BELOW FLOOR %.1fx\n" label s
              speedup_floor;
            failed := true
          end
        else
          Printf.printf
            "%s speedup at 4 domains: %.2fx (floor not gated: %d domain%s \
             recommended here)\n"
            label s domains
            (if domains = 1 then "" else "s")
  in
  (match section cur ~key:"parallel" ~open_:'{' ~close:'}' with
  | None -> ()
  | Some body ->
      print_newline ();
      check_floor "e9 pipeline" body);
  (match section cur ~key:"huge" ~open_:'{' ~close:'}' with
  | None -> ()
  | Some body ->
      List.iter
        (fun (solver, budget) ->
          match bytes_per_edge body ~solver with
          | None -> ()
          | Some bpe ->
              if bpe <= budget then
                Printf.printf
                  "e11 %-8s allocation: %8.1f bytes/edge (budget %.0f) ok\n"
                  solver bpe budget
              else begin
                Printf.printf
                  "e11 %-8s allocation: %8.1f bytes/edge — OVER BUDGET %.0f\n"
                  solver bpe budget;
                failed := true
              end)
        alloc_budgets);
  (* E12 service throughput: items/sec at jobs=1, gated against the
     baseline's section with the same tolerance as wall time (inverse
     direction: fewer items per second is the regression) *)
  let service_tput text =
    match section text ~key:"service" ~open_:'{' ~close:'}' with
    | None -> None
    | Some body -> (
        match find_from body "\"jobs\": 1" 0 with
        | None -> None
        | Some i ->
            Option.map
              (fun t -> (body, t))
              (scrape_float body ~key:"items_per_sec" ~from:i))
  in
  (match (service_tput base, service_tput cur) with
  | None, None -> ()
  | None, Some (body, t) ->
      let p50 = scrape_float body ~key:"p50" ~from:0
      and p99 = scrape_float body ~key:"p99" ~from:0 in
      Printf.printf
        "\nserve throughput: %.0f items/sec (p50=%.0f p99=%.0f rounds; no \
         baseline section, not gated)\n"
        t
        (Option.value ~default:0.0 p50)
        (Option.value ~default:0.0 p99)
  | Some _, None ->
      Printf.printf
        "\nserve throughput: section missing from current — REGRESSION\n";
      failed := true
  | Some (_, tb), Some (body, tc) ->
      let p50 = scrape_float body ~key:"p50" ~from:0
      and p99 = scrape_float body ~key:"p99" ~from:0 in
      let floor = tb /. (1.0 +. !tolerance) in
      if tc >= floor then
        Printf.printf
          "\nserve throughput: %.0f items/sec vs baseline %.0f (floor %.0f) \
           ok; p50=%.0f p99=%.0f rounds\n"
          tc tb floor
          (Option.value ~default:0.0 p50)
          (Option.value ~default:0.0 p99)
      else begin
        Printf.printf
          "\nserve throughput: %.0f items/sec — BELOW %.0f (baseline %.0f / \
           tolerance) — REGRESSION\n"
          tc floor tb;
        failed := true
      end);
  (* E13 distributed: the flight-log identity is covered by the
     identical_schedules sweep above; here we require the section not
     to vanish (the identity assertion silently disappearing would be
     the regression) and report the protocol overhead at each worker
     count *)
  let dist_section text = section text ~key:"distributed" ~open_:'{' ~close:'}' in
  (match (dist_section base, dist_section cur) with
  | None, None -> ()
  | Some _, None ->
      Printf.printf
        "\ndistributed: section missing from current — REGRESSION\n";
      failed := true
  | _, Some body ->
      let rec overheads from acc =
        match scrape_float body ~key:"workers" ~from with
        | None -> List.rev acc
        | Some w -> (
            (* advance past this record before the next scan *)
            let from' =
              match find_from body "}" from with
              | Some i -> i + 1
              | None -> String.length body
            in
            match scrape_float body ~key:"overhead" ~from with
            | None -> overheads from' acc
            | Some o -> overheads from' ((int_of_float w, o) :: acc))
      in
      Printf.printf "\ndistributed overhead vs in-process engine:%s\n"
        (String.concat ""
           (List.map
              (fun (w, o) -> Printf.sprintf " N=%d %.1fx" w o)
              (overheads 0 []))));
  (* E14 SLA: identical_schedules is swept above; the section must not
     vanish once the baseline has it, and the reordering post-pass must
     still be makespan-preserving (reordered rounds == baseline rounds
     in the artifact itself, not just in bench's in-process assert) *)
  let sla_section text = section text ~key:"sla" ~open_:'{' ~close:'}' in
  let sla_variant body name key =
    match find_from body (Printf.sprintf "\"name\": %S" name) 0 with
    | None -> None
    | Some i -> scrape_float body ~key ~from:i
  in
  (match (sla_section base, sla_section cur) with
  | None, None -> ()
  | Some _, None ->
      Printf.printf "\nsla: section missing from current — REGRESSION\n";
      failed := true
  | _, Some body -> (
      let v name key = sla_variant body name key in
      match
        ( v "baseline" "rounds", v "reordered" "rounds",
          v "baseline" "weighted_sum", v "sla-greedy" "weighted_sum",
          v "sla-greedy" "rounds" )
      with
      | Some br, Some rr, Some bw, Some gw, Some gr ->
          if rr <> br then begin
            Printf.printf
              "\nsla: reorder changed the makespan (%.0f -> %.0f rounds) — \
               REGRESSION\n"
              br rr;
            failed := true
          end
          else
            Printf.printf
              "\nsla: weighted sum %.0f -> %.0f (sla-greedy), makespan \
               preserved by reorder; price of fairness %+.0f rounds\n"
              bw gw (gr -. br)
      | _ ->
          Printf.printf "\nsla: section malformed — REGRESSION\n";
          failed := true));
  if !failed then begin
    Printf.printf "\nGATE FAILED\n";
    exit 1
  end
  else Printf.printf "\ngate passed\n"
