module Multigraph = Mgraph.Multigraph
module Csr = Mgraph.Multigraph.Csr
module Arena = Mgraph.Arena

let sides g =
  let n = Multigraph.n_nodes g in
  let csr = Multigraph.freeze g in
  let arena = Arena.local () in
  let qbuf = Arena.ints arena ~len:(max n 1) ~fill:0 in
  let q = Arena.arr qbuf in
  let side = Array.make n (-1) in
  let ok = ref true in
  for start = 0 to n - 1 do
    if side.(start) < 0 then begin
      side.(start) <- 0;
      let head = ref 0 and tail = ref 0 in
      q.(!tail) <- start;
      incr tail;
      while !head < !tail do
        let u = q.(!head) in
        incr head;
        for p = Csr.row_start csr u to Csr.row_stop csr u - 1 do
          let w = csr.Csr.neighbors.(p) in
          if w = u then ok := false
          else if side.(w) < 0 then begin
            side.(w) <- 1 - side.(u);
            q.(!tail) <- w;
            incr tail
          end
          else if side.(w) = side.(u) then ok := false
        done
      done
    end
  done;
  Arena.release arena qbuf;
  if !ok then Some (Array.map (fun s -> s = 1) side) else None

let color g =
  let side =
    match sides g with
    | Some s -> s
    | None -> invalid_arg "Konig.color: graph is not bipartite"
  in
  let delta = Multigraph.max_degree g in
  let t = Edge_coloring.create g ~cap:(fun _ -> 1) ~colors:delta in
  if delta > 0 then begin
    (* local index per side; sides are padded to equal size *)
    let n = Multigraph.n_nodes g in
    let n_right = ref 0 in
    Array.iter (fun s -> if s then incr n_right) side;
    let left = Array.make (max (n - !n_right) 1) 0
    and right = Array.make (max !n_right 1) 0 in
    let li = ref 0 and ri = ref 0 in
    for v = 0 to n - 1 do
      if side.(v) then begin
        right.(!ri) <- v;
        incr ri
      end
      else begin
        left.(!li) <- v;
        incr li
      end
    done;
    let size = max !li !ri in
    let lidx = Array.make n 0 and ridx = Array.make n 0 in
    for i = 0 to !li - 1 do
      lidx.(left.(i)) <- i
    done;
    for i = 0 to !ri - 1 do
      ridx.(right.(i)) <- i
    done;
    (* Padded edge arrays, canonically ordered: dummies first in
       reverse creation order, then real edges in reverse id order.
       (The order is pinned by the golden schedules: each round's
       matching depends on it.)  Real edges keep their graph ids in
       [ids]; dummies get [-1]. *)
    let m = Multigraph.n_edges g in
    let padded = size * delta in
    let n_dummy = padded - m in
    let el = Array.make padded 0 and er = Array.make padded 0 in
    let ids = Array.make padded (-1) in
    let ldeg = Array.make size 0 and rdeg = Array.make size 0 in
    Multigraph.iter_edges g (fun { Multigraph.id; u; v } ->
        let l, r = if side.(u) then (v, u) else (u, v) in
        let l = lidx.(l) and r = ridx.(r) in
        let i = padded - 1 - id in
        el.(i) <- l;
        er.(i) <- r;
        ids.(i) <- id;
        ldeg.(l) <- ldeg.(l) + 1;
        rdeg.(r) <- rdeg.(r) + 1);
    (* dummy edges joining under-full nodes until delta-regular *)
    let lpos = ref 0 and rpos = ref 0 in
    for k = 0 to n_dummy - 1 do
      while ldeg.(!lpos) >= delta do
        incr lpos
      done;
      while rdeg.(!rpos) >= delta do
        incr rpos
      done;
      el.(n_dummy - 1 - k) <- !lpos;
      er.(n_dummy - 1 - k) <- !rpos;
      ldeg.(!lpos) <- ldeg.(!lpos) + 1;
      rdeg.(!rpos) <- rdeg.(!rpos) + 1
    done;
    (* delta successive perfect matchings; the i-th colours its real
       edges with colour i *)
    let ones = Array.make size 1 in
    let problem =
      {
        Netflow.Bmatching.n_left = size;
        n_right = size;
        left_cap = ones;
        right_cap = ones;
        edge_left = el;
        edge_right = er;
      }
    in
    let exact =
      Netflow.Bmatching.peel problem ~rounds:delta (fun c i ->
          if ids.(i) >= 0 then Edge_coloring.assign t ids.(i) c)
    in
    (* Hall's condition on a regular bipartite graph *)
    assert exact
  end;
  t
