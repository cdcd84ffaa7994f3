type adj = { offsets : int array; arc_ids : int array }

(* Plain arrays indexed by arc id.  Only ids below [n_arcs] are live;
   the tail is growth room for [add_arc]. *)
type t = {
  mutable n : int;
  mutable n_arcs : int;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable caps : int array;  (* residual capacity, mutated by push *)
  mutable caps0 : int array;  (* original capacity, for reset *)
  mutable frozen : adj option;  (* flat adjacency cache, see freeze *)
}

let create ~n =
  if n < 0 then invalid_arg "Flow_network.create";
  {
    n;
    n_arcs = 0;
    srcs = [||];
    dsts = [||];
    caps = [||];
    caps0 = [||];
    frozen = None;
  }

let n_nodes net = net.n

let add_node net =
  let id = net.n in
  net.n <- net.n + 1;
  net.frozen <- None;
  id

let check_node net v = if v < 0 || v >= net.n then invalid_arg "Flow_network: bad node"

let add_arc net ~src ~dst ~cap =
  check_node net src;
  check_node net dst;
  if cap < 0 then invalid_arg "Flow_network.add_arc: negative capacity";
  let a = net.n_arcs in
  if a + 2 > Array.length net.dsts then begin
    let size = max 16 (2 * Array.length net.dsts) in
    let grow arr =
      let b = Array.make size 0 in
      Array.blit arr 0 b 0 a;
      b
    in
    net.srcs <- grow net.srcs;
    net.dsts <- grow net.dsts;
    net.caps <- grow net.caps;
    net.caps0 <- grow net.caps0
  end;
  (* forward arc [a] and its residual reverse [a + 1] *)
  net.srcs.(a) <- src;
  net.dsts.(a) <- dst;
  net.caps.(a) <- cap;
  net.caps0.(a) <- cap;
  net.srcs.(a + 1) <- dst;
  net.dsts.(a + 1) <- src;
  net.caps.(a + 1) <- 0;
  net.caps0.(a + 1) <- 0;
  net.n_arcs <- a + 2;
  net.frozen <- None;
  a

let n_arcs net = net.n_arcs

let check_arc net a =
  if a < 0 || a >= net.n_arcs then invalid_arg "Flow_network: bad arc"

let src net a =
  check_arc net a;
  net.srcs.(a)

let dst net a =
  check_arc net a;
  net.dsts.(a)

let residual net a =
  check_arc net a;
  net.caps.(a)

let flow net a =
  check_arc net a;
  net.caps.(a lxor 1)

let push net a x =
  let r = residual net a in
  if x < 0 || x > r then invalid_arg "Flow_network.push";
  net.caps.(a) <- r - x;
  net.caps.(a lxor 1) <- net.caps.(a lxor 1) + x

(* A counting sort of the arcs by source.  The placing pass walks arc
   ids upward, so each row lists its arcs in insertion order. *)
let freeze net =
  match net.frozen with
  | Some a -> a
  | None ->
      let n = net.n and m = net.n_arcs and srcs = net.srcs in
      let offsets = Array.make (n + 1) 0 and arc_ids = Array.make m 0 in
      for a = 0 to m - 1 do
        offsets.(srcs.(a) + 1) <- offsets.(srcs.(a) + 1) + 1
      done;
      for v = 1 to n do
        offsets.(v) <- offsets.(v) + offsets.(v - 1)
      done;
      (* offsets.(v) is the start of row v: use it as the row's fill
         cursor, which leaves it at the row's end; shift back after *)
      for a = 0 to m - 1 do
        arc_ids.(offsets.(srcs.(a))) <- a;
        offsets.(srcs.(a)) <- offsets.(srcs.(a)) + 1
      done;
      for v = n downto 1 do
        offsets.(v) <- offsets.(v - 1)
      done;
      offsets.(0) <- 0;
      let a = { offsets; arc_ids } in
      net.frozen <- Some a;
      a

let out_arcs net v =
  check_node net v;
  let { offsets; arc_ids } = freeze net in
  Array.sub arc_ids offsets.(v) (offsets.(v + 1) - offsets.(v))

let raw net = (net.dsts, net.caps)
let reset net = Array.blit net.caps0 0 net.caps 0 net.n_arcs
