(* Spans the benchmark records around its own calls into the library.

   [call] always times its function; it records a span only inside a
   [rep] once [enable] was called, so untraced repetitions pay two
   clock reads per public call.  A recorded call span's children come
   from [Migration.Instr]: each library timer that advanced during the
   call becomes a span nested under the timer it runs inside (see
   [enclosing]) and laid end to end from its parent's start, because
   Instr keeps per-timer totals, not intervals.  Counters that moved
   are kept as counts on the call span.  Everything stays in memory
   until [write]. *)

module M = Migration

type entry =
  | Span of {
      run : string;  (** workload and repetition *)
      id : int;
      parent : int;  (** [0] for a repetition's root *)
      name : string;
      start_s : float;
      end_s : float;
    }
  | Count of { run : string; parent : int; name : string; value : int }

let enabled = ref false
let recording = ref false (* inside a [rep] of a traced run *)
let origin = ref 0.0
let run = ref ""
let next_id = ref 1
let open_spans = ref []
let entries = ref []

let enable () =
  enabled := true;
  origin := Unix.gettimeofday ()

let now () = Unix.gettimeofday () -. !origin
let push e = entries := e :: !entries

let fresh () =
  let id = !next_id in
  incr next_id;
  id

(* The library timer each timer runs inside, when both advanced during
   the same call.  Exec's per-domain busy timers are left out: they
   run in parallel with their parent and would not nest. *)
let enclosing = function
  | "hetero.phase1" | "hetero.phase2" | "hetero.refine" | "even_opt.pad_orient"
  | "even_opt.decompose" | "saia.split" | "saia.shannon" | "orbits.engine" ->
      Some "pipeline.solve"
  | "pipeline.decompose" | "pipeline.solve" | "pipeline.merge" ->
      Some "engine.plan"
  | "engine.plan" -> Some "engine.run"
  | "engine.run" -> Some "service.epoch"
  | _ -> None

let instr_children ~parent ~start (before : M.Instr.snapshot)
    (after : M.Instr.snapshot) =
  let timers =
    List.filter_map
      (fun (name, (s : M.Instr.span)) ->
        let prior =
          match List.assoc_opt name before.timers with
          | Some (p : M.Instr.span) -> p.total_s
          | None -> 0.0
        in
        let d = s.total_s -. prior in
        if d > 0.0 && not (String.starts_with ~prefix:"exec." name) then
          Some (name, d)
        else None)
      after.timers
  in
  let parent_of name =
    match enclosing name with
    | Some p when List.mem_assoc p timers -> Some p
    | Some _ | None -> None
  in
  let rec lay under id start =
    ignore
      (List.fold_left
         (fun t0 (name, d) ->
           if parent_of name <> under then t0
           else begin
             let child = fresh () in
             push
               (Span
                  {
                    run = !run;
                    id = child;
                    parent = id;
                    name;
                    start_s = t0;
                    end_s = t0 +. d;
                  });
             lay (Some name) child t0;
             t0 +. d
           end)
         start timers)
  in
  lay None parent start;
  List.iter
    (fun (name, v) ->
      let prior =
        Option.value ~default:0 (List.assoc_opt name before.counters)
      in
      if v <> prior then
        push (Count { run = !run; parent; name; value = v - prior }))
    after.counters

let span name f ~children =
  let id = fresh () in
  let parent = match !open_spans with p :: _ -> p | [] -> 0 in
  let before = if children then Some (M.Instr.snapshot ()) else None in
  open_spans := id :: !open_spans;
  let start_s = now () in
  let finish () =
    let end_s = now () in
    open_spans := List.tl !open_spans;
    push (Span { run = !run; id; parent; name; start_s; end_s });
    Option.iter
      (fun b ->
        instr_children ~parent:id ~start:start_s b (M.Instr.snapshot ()))
      before
  in
  Fun.protect ~finally:finish f

(* [rep ~run name f] runs [f ()], recorded under a root span [name]
   whose spans all carry [run] once tracing is enabled. *)
let rep ~run:r name f =
  if not !enabled then f ()
  else begin
    run := r;
    recording := true;
    Fun.protect
      ~finally:(fun () -> recording := false)
      (fun () -> span name f ~children:false)
  end

(* [call name f] is [f ()] with its wall time in seconds. *)
let call name f =
  let t0 = Unix.gettimeofday () in
  let x = if !recording then span name f ~children:true else f () in
  (x, Unix.gettimeofday () -. t0)

(* Per span name: the median over runs of its time and of its self
   time (duration minus its children's), each summed within a run.
   Self time reads negative where children ran on several domains at
   once. *)
let self_times () =
  let spans =
    List.filter_map
      (function
        | Span s -> Some (s.run, s.id, s.parent, s.name, s.end_s -. s.start_s)
        | Count _ -> None)
      !entries
  in
  let add tbl key v =
    Hashtbl.replace tbl key
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
  in
  let covered = Hashtbl.create 64 in
  List.iter (fun (_, _, parent, _, d) -> add covered parent d) spans;
  let total = Hashtbl.create 64 and self = Hashtbl.create 64 in
  List.iter
    (fun (run, id, _, name, d) ->
      add total (name, run) d;
      add self (name, run)
        (d -. Option.value ~default:0.0 (Hashtbl.find_opt covered id)))
    spans;
  let runs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (name, run) t ->
      Hashtbl.replace runs name
        ((t, Hashtbl.find self (name, run))
        :: Option.value ~default:[] (Hashtbl.find_opt runs name)))
    total;
  Hashtbl.fold
    (fun name ts acc ->
      (name, Stats.median (List.map fst ts), Stats.median (List.map snd ts))
      :: acc)
    runs []
  |> List.sort compare

(* One JSON object per line, in the order spans ended: spans as
   {run, id, parent, name, start_s, end_s} (seconds since [enable]),
   counters as {run, parent, name, value}. *)
let write oc =
  List.iter
    (function
      | Span s ->
          Printf.fprintf oc
            "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.6f,\
             \"end_s\":%.6f}\n"
            s.run s.id s.parent s.name s.start_s s.end_s
      | Count c ->
          Printf.fprintf oc
            "{\"run\":%S,\"parent\":%d,\"name\":%S,\"value\":%d}\n" c.run
            c.parent c.name c.value)
    (List.rev !entries)
