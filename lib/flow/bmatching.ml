type problem = {
  n_left : int;
  n_right : int;
  left_cap : int array;
  right_cap : int array;
  edge_left : int array;
  edge_right : int array;
}

let check p =
  if Array.length p.left_cap <> p.n_left || Array.length p.right_cap <> p.n_right
  then invalid_arg "Bmatching: capacity vector length mismatch";
  if Array.length p.edge_right <> Array.length p.edge_left then
    invalid_arg "Bmatching: endpoint arrays of unequal length";
  if Array.exists (fun c -> c < 0) p.left_cap
     || Array.exists (fun c -> c < 0) p.right_cap
  then invalid_arg "Bmatching: negative capacity";
  Array.iteri
    (fun i l ->
      let r = p.edge_right.(i) in
      if l < 0 || l >= p.n_left || r < 0 || r >= p.n_right then
        invalid_arg "Bmatching: edge endpoint out of range")
    p.edge_left

(* The Figure 3 network, row-major ({!Max_flow.rows}).  Nodes: 0 =
   source, 1 = sink, 2 .. 1+nl = left, 2+nl .. 1+nl+nr = right.  The
   arrays are sized for every edge of the problem, so one allocation
   serves every round of a {!peel}: later rounds use a prefix. *)
type net = {
  rows : Max_flow.rows;
  cursor : int array;  (* per node: next free slot of its row *)
  fwd : int array;  (* slot i's edge arc, by row position *)
}

let alloc p =
  let m = Array.length p.edge_left in
  let nodes = 2 + p.n_left + p.n_right in
  let half_arcs = 2 * (p.n_left + p.n_right + m) in
  {
    rows =
      {
        Max_flow.offsets = Array.make (nodes + 1) 0;
        head = Array.make half_arcs 0;
        cap = Array.make half_arcs 0;
        rev = Array.make half_arcs 0;
      };
    cursor = Array.make nodes 0;
    fwd = Array.make m 0;
  }

(* Lay out the network of the [len] edges [slots.(0 .. len-1)] in
   place, arcs added in Figure 3 order (source arcs, sink arcs, then
   edges) and each row holding its arcs in the order they were added:
   - the source's row, by left node;
   - the sink's row (the reverses of the sink arcs), by right node;
   - each left row: its reverse source arc, then its edges in slot
     order;
   - each right row: its sink arc, then its edges' reverse arcs in
     slot order.
   Dinic's DFS tries arcs in row order, so the edges' slot order
   decides the matching; the golden schedules pin it. *)
let layout p net slots len =
  let nl = p.n_left and nr = p.n_right in
  let { Max_flow.offsets; head; cap; rev } = net.rows in
  let cursor = net.cursor and fwd = net.fwd in
  let nodes = 2 + nl + nr in
  (* row lengths, then their prefix sums *)
  cursor.(0) <- nl;
  cursor.(1) <- nr;
  Array.fill cursor 2 (nl + nr) 1;
  for i = 0 to len - 1 do
    let e = slots.(i) in
    let l = 2 + p.edge_left.(e) and r = 2 + nl + p.edge_right.(e) in
    cursor.(l) <- cursor.(l) + 1;
    cursor.(r) <- cursor.(r) + 1
  done;
  for v = 0 to nodes - 1 do
    offsets.(v + 1) <- offsets.(v) + cursor.(v);
    cursor.(v) <- offsets.(v)
  done;
  let pair a b ~dst_a ~dst_b ~cap_a =
    head.(a) <- dst_a;
    cap.(a) <- cap_a;
    rev.(a) <- b;
    head.(b) <- dst_b;
    cap.(b) <- 0;
    rev.(b) <- a
  in
  for l = 0 to nl - 1 do
    let v = 2 + l in
    pair l cursor.(v) ~dst_a:v ~dst_b:0 ~cap_a:p.left_cap.(l);
    cursor.(v) <- cursor.(v) + 1
  done;
  for r = 0 to nr - 1 do
    let v = 2 + nl + r in
    pair cursor.(v) (nl + r) ~dst_a:1 ~dst_b:v ~cap_a:p.right_cap.(r);
    cursor.(v) <- cursor.(v) + 1
  done;
  for i = 0 to len - 1 do
    let e = slots.(i) in
    let l = 2 + p.edge_left.(e) and r = 2 + nl + p.edge_right.(e) in
    let a = cursor.(l) in
    pair a cursor.(r) ~dst_a:r ~dst_b:l ~cap_a:1;
    fwd.(i) <- a;
    cursor.(l) <- a + 1;
    cursor.(r) <- cursor.(r) + 1
  done

(* one round: the network of [slots.(0 .. len-1)] and its max flow *)
let run p net slots len =
  layout p net slots len;
  Max_flow.dinic net.rows ~s:0 ~t:1

(* an edge arc carries one unit: it is selected once saturated *)
let selected net i = net.rows.Max_flow.cap.(net.fwd.(i)) = 0

let sum a = Array.fold_left ( + ) 0 a

(* One Dinic run per round over the whole problem, even when the
   bipartite graph falls apart into many components.  The network is
   then their disjoint union glued only at source and sink, and every
   augmenting path stays inside one component (Dinic's DFS never
   passes through the sink mid-path).  Restricted to one component, the
   joint run's level functions, cursor dynamics and augmentations
   coincide with a solo run on the (order-preserving) subproblem, so
   the joint selection equals the merged per-component selections bit
   for bit.  test/test_flow.ml pins this as a property.

   Each round keeps the edges it did not select in reverse order: the
   next round's network, and so its matching, depends on that order,
   which the golden schedules pin.  Two slot buffers alternate, since
   the reversal cannot compact in place. *)
let peel p ~rounds f =
  check p;
  if rounds < 0 then invalid_arg "Bmatching.peel: negative rounds";
  let m = Array.length p.edge_left in
  let target = sum p.left_cap in
  let net = alloc p in
  let slots = ref (Array.init m Fun.id) and spare = ref (Array.make m 0) in
  let len = ref m in
  let exact = ref (rounds = 0 || target = sum p.right_cap) in
  let r = ref 0 in
  while !exact && !r < rounds do
    let cur = !slots and next = !spare in
    if run p net cur !len <> target then exact := false
    else begin
      for i = 0 to !len - 1 do
        if selected net i then f !r cur.(i)
      done;
      let j = ref 0 in
      for i = !len - 1 downto 0 do
        if not (selected net i) then begin
          next.(!j) <- cur.(i);
          incr j
        end
      done;
      len := !j;
      slots := next;
      spare := cur;
      incr r
    end
  done;
  !exact
