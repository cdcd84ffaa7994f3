let check_weights weights =
  if Array.length weights = 0 then invalid_arg "Layout: no disks";
  Array.iter
    (fun w -> if w <= 0.0 then invalid_arg "Layout: weights must be positive")
    weights

let balance ~demands ~weights =
  check_weights weights;
  let n_disks = Array.length weights in
  let carried = Array.make n_disks 0.0 in
  let order = Array.init (Array.length demands) Fun.id in
  Array.sort (fun i j -> compare demands.(j) demands.(i)) order;
  let assignment = Array.make (Array.length demands) 0 in
  Array.iter
    (fun item ->
      (* disk with the smallest relative load *)
      let best = ref 0 in
      for d = 1 to n_disks - 1 do
        if carried.(d) /. weights.(d) < carried.(!best) /. weights.(!best) then
          best := d
      done;
      assignment.(item) <- !best;
      carried.(!best) <- carried.(!best) +. demands.(item))
    order;
  Storsim.Placement.of_array assignment

let disk_demand ~demands placement ~n_disks =
  let carried = Array.make n_disks 0.0 in
  Array.iteri
    (fun item d -> carried.(d) <- carried.(d) +. demands.(item))
    (Storsim.Placement.to_array placement);
  carried

let striped ~n_objects ~blocks_per_object ~n_disks =
  if n_objects < 1 || blocks_per_object < 1 || n_disks < 1 then
    invalid_arg "Layout.striped";
  Storsim.Placement.create ~n_items:(n_objects * blocks_per_object) (fun item ->
      let o = item / blocks_per_object and b = item mod blocks_per_object in
      (o + b) mod n_disks)

let rebalance_incremental ~demands ~weights ~current ~tolerance =
  check_weights weights;
  if tolerance < 0.0 then invalid_arg "Layout.rebalance_incremental";
  let n_disks = Array.length weights in
  let p = Storsim.Placement.to_array current in
  let carried = Array.make n_disks 0.0 in
  Array.iteri (fun item d -> carried.(d) <- carried.(d) +. demands.(item)) p;
  let total_demand = Array.fold_left ( +. ) 0.0 demands in
  let total_weight = Array.fold_left ( +. ) 0.0 weights in
  let fair d = total_demand *. weights.(d) /. total_weight in
  let limit d = (1.0 +. tolerance) *. fair d in
  (* items per disk, heaviest first, so one move sheds the most load *)
  let items_of = Array.make n_disks [] in
  Array.iteri (fun item d -> items_of.(d) <- item :: items_of.(d)) p;
  Array.iteri
    (fun d items ->
      items_of.(d) <-
        List.sort (fun a b -> compare demands.(b) demands.(a)) items)
    items_of;
  let relative d = carried.(d) /. weights.(d) in
  let most_underloaded () =
    let best = ref 0 in
    for d = 1 to n_disks - 1 do
      if relative d < relative !best then best := d
    done;
    !best
  in
  let progress = ref true in
  while !progress do
    progress := false;
    for d = 0 to n_disks - 1 do
      (* shed the heaviest items of over-limit disks one at a time *)
      if carried.(d) > limit d then begin
        match items_of.(d) with
        | [] -> ()
        | item :: rest ->
            let target = most_underloaded () in
            if target <> d && carried.(target) +. demands.(item) <= limit target
            then begin
              items_of.(d) <- rest;
              items_of.(target) <- item :: items_of.(target);
              carried.(d) <- carried.(d) -. demands.(item);
              carried.(target) <- carried.(target) +. demands.(item);
              p.(item) <- target;
              progress := true
            end
            else begin
              (* the heaviest item fits nowhere: try the lightest *)
              match List.rev items_of.(d) with
              | lightest :: _
                when target <> d
                     && carried.(target) +. demands.(lightest)
                        <= limit target ->
                  items_of.(d) <-
                    List.filter (fun i -> i <> lightest) items_of.(d);
                  items_of.(target) <- lightest :: items_of.(target);
                  carried.(d) <- carried.(d) -. demands.(lightest);
                  carried.(target) <- carried.(target) +. demands.(lightest);
                  p.(lightest) <- target;
                  progress := true
              | _ -> ()
            end
      end
    done
  done;
  Storsim.Placement.of_array p

let imbalance ~demands ~weights placement =
  check_weights weights;
  let n_disks = Array.length weights in
  let carried = disk_demand ~demands placement ~n_disks in
  let total_demand = Array.fold_left ( +. ) 0.0 demands in
  let total_weight = Array.fold_left ( +. ) 0.0 weights in
  if total_demand <= 0.0 then 1.0
  else begin
    let worst = ref 0.0 in
    for d = 0 to n_disks - 1 do
      let fair = total_demand *. weights.(d) /. total_weight in
      if fair > 0.0 then worst := max !worst (carried.(d) /. fair)
    done;
    !worst
  end
