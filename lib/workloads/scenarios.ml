module Placement = Storsim.Placement
module Disk = Storsim.Disk
module Cluster = Storsim.Cluster

type t = {
  name : string;
  cluster : Cluster.t;
  target : Placement.t;
  demands : float array;
}

let cycle_caps caps n =
  let caps = Array.of_list caps in
  if Array.length caps = 0 then invalid_arg "Scenarios: empty capacity list";
  Array.init n (fun i -> caps.(i mod Array.length caps))

let make_disks ?(bandwidth = fun _ -> 1.0) caps =
  Array.mapi (fun id cap -> Disk.make ~id ~bandwidth:(bandwidth id) ~cap ()) caps

(* Move items from over-full to under-full disks until every disk holds
   its desired count; items already in place stay put. *)
let retarget_to_counts rng placement ~desired =
  let n_disks = Array.length desired in
  let p = Placement.to_array placement in
  let load = Array.make n_disks 0 in
  Array.iter (fun d -> load.(d) <- load.(d) + 1) p;
  let surplus = ref [] in
  Array.iteri
    (fun item d -> if load.(d) > desired.(d) then begin
         surplus := item :: !surplus;
         load.(d) <- load.(d) - 1
       end)
    p;
  (* shuffle surplus so moves are not biased toward low item ids *)
  let surplus = Array.of_list !surplus in
  for i = Array.length surplus - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = surplus.(i) in
    surplus.(i) <- surplus.(j);
    surplus.(j) <- t
  done;
  let cursor = ref 0 in
  Array.iter
    (fun item ->
      while !cursor < n_disks && load.(!cursor) >= desired.(!cursor) do
        incr cursor
      done;
      if !cursor >= n_disks then
        invalid_arg "Scenarios.retarget_to_counts: desired counts too small";
      p.(item) <- !cursor;
      load.(!cursor) <- load.(!cursor) + 1)
    surplus;
  Placement.of_array p

let fair_counts ~n_items ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  let raw = Array.map (fun w -> w /. total *. float_of_int n_items) weights in
  let counts = Array.map int_of_float raw in
  (* distribute the rounding remainder to the largest fractional parts *)
  let assigned = Array.fold_left ( + ) 0 counts in
  let order = Array.init (Array.length weights) Fun.id in
  Array.sort
    (fun a b ->
      compare
        (raw.(b) -. Float.of_int counts.(b))
        (raw.(a) -. Float.of_int counts.(a)))
    order;
  for i = 0 to n_items - assigned - 1 do
    let d = order.(i mod Array.length order) in
    counts.(d) <- counts.(d) + 1
  done;
  counts

let rebalance rng ~n_disks ~n_items ?(zipf_s = 0.9) ?(shift_fraction = 0.3)
    ?(caps = [ 1; 2; 3; 4 ]) () =
  let caps = cycle_caps caps n_disks in
  let weights = Array.map float_of_int caps in
  let demands = Demand.demands rng ~n:n_items ~s:zipf_s in
  let before = Layout.balance ~demands ~weights in
  let demands' = Demand.shift rng ~fraction:shift_fraction demands in
  let target = Layout.balance ~demands:demands' ~weights in
  let cluster = Cluster.create ~disks:(make_disks caps) ~placement:before in
  { name = "rebalance"; cluster; target; demands = demands' }

let disk_addition rng ~n_old ~n_new ~n_items ?(old_cap = 2) ?(new_cap = 4) () =
  if n_old < 1 || n_new < 1 then invalid_arg "Scenarios.disk_addition";
  let n = n_old + n_new in
  let caps = Array.init n (fun i -> if i < n_old then old_cap else new_cap) in
  let demands = Demand.demands rng ~n:n_items ~s:0.9 in
  (* everything starts on the old disks *)
  let before =
    Placement.create ~n_items (fun i -> i mod n_old)
  in
  let weights = Array.map float_of_int caps in
  let desired = fair_counts ~n_items ~weights in
  let target = retarget_to_counts rng before ~desired in
  let cluster = Cluster.create ~disks:(make_disks caps) ~placement:before in
  { name = "disk-addition"; cluster; target; demands }

let disk_removal rng ~n_disks ~n_remove ~n_items ?(caps = [ 2; 3 ]) () =
  if n_remove < 1 || n_remove >= n_disks then
    invalid_arg "Scenarios.disk_removal";
  let caps = cycle_caps caps n_disks in
  let demands = Demand.demands rng ~n:n_items ~s:0.9 in
  let before = Placement.create ~n_items (fun i -> i mod n_disks) in
  let survivors = n_disks - n_remove in
  let weights =
    Array.init n_disks (fun d ->
        if d < survivors then float_of_int caps.(d) else 0.0)
  in
  (* evacuated disks get zero items; survivors share by capacity *)
  let positive = Array.sub weights 0 survivors in
  let desired_survivors = fair_counts ~n_items ~weights:positive in
  let desired =
    Array.init n_disks (fun d ->
        if d < survivors then desired_survivors.(d) else 0)
  in
  let target = retarget_to_counts rng before ~desired in
  let cluster = Cluster.create ~disks:(make_disks caps) ~placement:before in
  { name = "disk-removal"; cluster; target; demands }

let failure_recovery rng ~n_disks ~failed ~n_items ?(caps = [ 2; 2; 4 ]) () =
  if n_disks < 3 then invalid_arg "Scenarios.failure_recovery: need >= 3 disks";
  if failed < 0 || failed >= n_disks then
    invalid_arg "Scenarios.failure_recovery: bad disk";
  let caps = cycle_caps caps n_disks in
  let demands = Demand.demands rng ~n:n_items ~s:0.9 in
  let primary = Array.init n_items (fun i -> i mod n_disks) in
  (* replica of item i: a deterministic other disk *)
  let replica i =
    let r = (primary.(i) + 1 + (i mod (n_disks - 1))) mod n_disks in
    if r = primary.(i) then (r + 1) mod n_disks else r
  in
  (* post-failure state: lost items are served from their replicas *)
  let before =
    Placement.create ~n_items (fun i ->
        if primary.(i) = failed then begin
          let r = replica i in
          if r = failed then (r + 1) mod n_disks else r
        end
        else primary.(i))
  in
  (* target: spread the failed disk's items across survivors evenly *)
  let weights =
    Array.init n_disks (fun d -> if d = failed then 0.0 else float_of_int caps.(d))
  in
  let positive = Array.of_list (List.filter (fun w -> w > 0.0) (Array.to_list weights)) in
  let counts_pos = fair_counts ~n_items ~weights:positive in
  let desired = Array.make n_disks 0 in
  let j = ref 0 in
  for d = 0 to n_disks - 1 do
    if weights.(d) > 0.0 then begin
      desired.(d) <- counts_pos.(!j);
      incr j
    end
  done;
  let target = retarget_to_counts rng before ~desired in
  let cluster = Cluster.create ~disks:(make_disks caps) ~placement:before in
  { name = "failure-recovery"; cluster; target; demands }

let restripe rng ~n_old ~n_new ~n_objects ~blocks_per_object ?(cap = 2) ~mode
    () =
  if n_old < 1 || n_new < 1 then invalid_arg "Scenarios.restripe";
  let n = n_old + n_new in
  let n_items = n_objects * blocks_per_object in
  let before =
    Layout.striped ~n_objects ~blocks_per_object ~n_disks:n_old
  in
  let target =
    match mode with
    | `Full -> Layout.striped ~n_objects ~blocks_per_object ~n_disks:n
    | `Minimal ->
        let weights = Array.make n 1.0 in
        let desired = fair_counts ~n_items ~weights in
        retarget_to_counts rng before ~desired
  in
  let caps = Array.make n cap in
  let demands = Demand.demands rng ~n:n_items ~s:0.8 in
  let cluster = Cluster.create ~disks:(make_disks caps) ~placement:before in
  { name = "restripe"; cluster; target; demands }
