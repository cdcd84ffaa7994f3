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

let check_ends s t = if s = t then invalid_arg "Max_flow.max_flow: s = t"

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

(* The frozen rows already hold each node's arcs in order: copy them
   out by position, run the kernel, and write the residuals back by
   arc id. *)
let max_flow net ~s ~t =
  check_ends s t;
  let { Flow_network.offsets; arc_ids } = Flow_network.freeze net in
  let dsts, caps = Flow_network.raw net in
  let m = Flow_network.n_arcs net in
  let arena = Arena.local () in
  let hh = Arena.ints arena ~len:m ~fill:0 in
  let hc = Arena.ints arena ~len:m ~fill:0 in
  let hr = Arena.ints arena ~len:m ~fill:0 in
  let hp = Arena.ints arena ~len:m ~fill:0 in
  let head = Arena.arr hh and cap = Arena.arr hc and rev = Arena.arr hr in
  let pos = Arena.arr hp in
  for p = 0 to m - 1 do
    pos.(arc_ids.(p)) <- p
  done;
  for p = 0 to m - 1 do
    let a = arc_ids.(p) in
    head.(p) <- dsts.(a);
    cap.(p) <- caps.(a);
    rev.(p) <- pos.(a lxor 1)
  done;
  let value = dinic { offsets; head; cap; rev } ~s ~t in
  for p = 0 to m - 1 do
    caps.(arc_ids.(p)) <- cap.(p)
  done;
  Arena.release arena hp;
  Arena.release arena hr;
  Arena.release arena hc;
  Arena.release arena hh;
  value

let min_cut net ~s =
  let n = Flow_network.n_nodes net in
  let adj = Flow_network.freeze net in
  let offsets = adj.Flow_network.offsets and arc_ids = adj.Flow_network.arc_ids in
  let dsts, caps = Flow_network.raw net in
  let seen = Array.make n false in
  let arena = Arena.local () in
  let hq = Arena.ints arena ~len:n ~fill:0 in
  let q = Arena.arr hq in
  seen.(s) <- true;
  q.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    for p = offsets.(u) to offsets.(u + 1) - 1 do
      let a = arc_ids.(p) in
      let v = dsts.(a) in
      if (not seen.(v)) && caps.(a) > 0 then begin
        seen.(v) <- true;
        q.(!tail) <- v;
        incr tail
      end
    done
  done;
  Arena.release arena hq;
  seen

let conservation_ok net ~s ~t =
  let n = Flow_network.n_nodes net in
  let balance = Array.make n 0 in
  (* forward arcs are the even-indexed ones *)
  let a = ref 0 in
  let ok = ref true in
  while !a < Flow_network.n_arcs net do
    let f = Flow_network.flow net !a in
    if f < 0 then ok := false;
    balance.(Flow_network.src net !a) <- balance.(Flow_network.src net !a) - f;
    balance.(Flow_network.dst net !a) <- balance.(Flow_network.dst net !a) + f;
    a := !a + 2
  done;
  for v = 0 to n - 1 do
    if v <> s && v <> t && balance.(v) <> 0 then ok := false
  done;
  !ok
