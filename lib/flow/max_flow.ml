module Arena = Mgraph.Arena

type rows = {
  offsets : int array;
  head : int array;
  cap : int array;
  rev : int array;
}

(* Dinic-level observability: one "phase" per BFS level graph.  The
   phase's one [dfs s max_int] call pushes its whole blocking flow, so
   "flow.augmenting_paths" counts blocking flows and always equals
   "flow.bfs_phases". *)
let c_phases = Probes.counter "flow.bfs_phases"
let c_paths = Probes.counter "flow.augmenting_paths"

let check_ends s t = if s = t then invalid_arg "Max_flow.dinic: s = t"

(* Dinic over row-major arcs: BFS and DFS walk each row as one
   contiguous stretch of [head]/[cap].  All scratch (levels, BFS
   queue, DFS cursors) lives in the calling domain's arena, so the
   steady-state path allocates nothing.

   The sink-level cutoff skips dead ends only.  Once [t] is labelled,
   every node below its level is labelled too (the queue is in level
   order), and a level-graph path to [t] uses no other node at or
   beyond [t]'s level.  So the BFS stops there, and the DFS from the
   level just below [t] tries [t] alone.  Every augmentation is the
   one the full level graph would give. *)
let dinic { offsets; head; cap; rev } ~s ~t =
  check_ends s t;
  let n = Array.length offsets - 1 in
  let arena = Arena.local () in
  let hl = Arena.ints arena ~len:n ~fill:(-1) in
  let hq = Arena.ints arena ~len:n ~fill:0 in
  let hc = Arena.ints arena ~len:n ~fill:0 in
  let level = Arena.arr hl and q = Arena.arr hq and cursor = Arena.arr hc in
  let total = ref 0 in
  (* blocking-flow DFS with per-node cursors (absolute row positions);
     recursion depth is bounded by the level of [t] *)
  let rec dfs u limit =
    if u = t then limit
    else begin
      let next = level.(u) + 1 in
      let last = next = level.(t) in
      let stop = offsets.(u + 1) in
      let pushed = ref 0 in
      let continue = ref true in
      while !continue && cursor.(u) < stop do
        let p = cursor.(u) in
        let v = head.(p) in
        let r = cap.(p) in
        if r > 0 && (if last then v = t else level.(v) = next) then begin
          let got = dfs v (min (limit - !pushed) r) in
          if got > 0 then begin
            cap.(p) <- cap.(p) - got;
            cap.(rev.(p)) <- cap.(rev.(p)) + got;
            pushed := !pushed + got;
            if !pushed = limit then continue := false
          end
          else cursor.(u) <- p + 1
        end
        else cursor.(u) <- p + 1
      done;
      !pushed
    end
  in
  let continue = ref true in
  while !continue do
    (* BFS level graph, cut once the sink is labelled *)
    Array.fill level 0 n (-1);
    level.(s) <- 0;
    q.(0) <- s;
    let qh = ref 0 and qt = ref 1 in
    while !qh < !qt && level.(t) < 0 do
      let u = q.(!qh) in
      incr qh;
      let next = level.(u) + 1 in
      for p = offsets.(u) to offsets.(u + 1) - 1 do
        let v = head.(p) in
        if level.(v) < 0 && cap.(p) > 0 then begin
          level.(v) <- next;
          q.(!qt) <- v;
          incr qt
        end
      done
    done;
    if level.(t) < 0 then continue := false
    else begin
      Probes.bump c_phases;
      Array.blit offsets 0 cursor 0 n;
      let got = dfs s max_int in
      if got > 0 then begin
        Probes.bump c_paths;
        total := !total + got
      end
    end
  done;
  Arena.release arena hc;
  Arena.release arena hq;
  Arena.release arena hl;
  !total
