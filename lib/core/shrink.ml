module Multigraph = Mgraph.Multigraph

(* Rebuild an instance from an explicit edge list, dropping nodes that
   end up isolated (their caps vanish with them).  Node ids compact
   downward, preserving relative order, so shrunk instances stay in
   canonical dense form. *)
let rebuild inst keep_edge =
  let g = Instance.graph inst in
  let n = Multigraph.n_nodes g in
  let used = Array.make n false in
  Multigraph.iter_edges g (fun { Multigraph.id; u; v } ->
      if keep_edge id then begin
        used.(u) <- true;
        used.(v) <- true
      end);
  let remap = Array.make n (-1) in
  let n' = ref 0 in
  for v = 0 to n - 1 do
    if used.(v) then begin
      remap.(v) <- !n';
      incr n'
    end
  done;
  if !n' = 0 then None
  else begin
    let g' = Multigraph.create ~n:!n' () in
    let kept_groups = ref [] in
    Multigraph.iter_edges g (fun { Multigraph.id; u; v } ->
        if keep_edge id then begin
          ignore (Multigraph.add_edge g' remap.(u) remap.(v));
          kept_groups := Instance.group inst id :: !kept_groups
        end);
    let caps = Array.make !n' 1 in
    for v = 0 to n - 1 do
      if used.(v) then caps.(remap.(v)) <- Instance.cap inst v
    done;
    (* group tags ride along so a shrunk SLA reproducer still fails
       for the same reason; group ids (and the weight table) stay
       global to keep the tags comparable with the original *)
    if Instance.tagged inst then
      Some
        (Instance.create g' ~caps
           ~groups:(Array.of_list (List.rev !kept_groups))
           ~weights:(Instance.weights inst))
    else Some (Instance.create g' ~caps)
  end

let with_caps inst caps =
  let g = Multigraph.copy (Instance.graph inst) in
  if Instance.tagged inst then
    Instance.create g ~caps ~groups:(Instance.groups inst)
      ~weights:(Instance.weights inst)
  else Instance.create g ~caps

(* One pass of candidate reductions, largest first: delta-debugging
   style edge-chunk removal, then capacity halving (global, then per
   disk), then single-edge removal.  Returns the first candidate that
   still fails, or None at a local minimum. *)
let step ~fails inst =
  let m = Instance.n_items inst in
  let try_edges keep =
    match rebuild inst keep with
    | Some inst' when Instance.n_items inst' < m && fails inst' -> Some inst'
    | _ -> None
  in
  let rec chunks size =
    if size < 1 then None
    else begin
      let rec windows start =
        if start >= m then None
        else
          let stop = min m (start + size) in
          match try_edges (fun e -> e < start || e >= stop) with
          | Some _ as r -> r
          | None -> windows stop
      in
      match windows 0 with Some _ as r -> r | None -> chunks (size / 2)
    end
  in
  let halve_caps () =
    let caps = Instance.caps inst in
    let halved = Array.map (fun c -> max 1 (c / 2)) caps in
    if halved = caps then None
    else begin
      let inst' = with_caps inst halved in
      if fails inst' then Some inst'
      else begin
        (* per-disk halving; keep the first reduction that still fails *)
        let found = ref None in
        let v = ref 0 in
        while !found = None && !v < Array.length caps do
          if halved.(!v) < caps.(!v) then begin
            let caps' = Array.copy caps in
            caps'.(!v) <- halved.(!v);
            let inst' = with_caps inst caps' in
            if fails inst' then found := Some inst'
          end;
          incr v
        done;
        !found
      end
    end
  in
  match chunks (max 1 (m / 2)) with Some _ as r -> r | None -> halve_caps ()

let minimize ~fails inst =
  if not (fails inst) then
    invalid_arg "Shrink.minimize: instance does not fail";
  let rec go inst steps =
    if steps >= 400 then inst
    else
      match step ~fails inst with
      | None -> inst
      | Some inst' -> go inst' (steps + 1)
  in
  go inst 0
