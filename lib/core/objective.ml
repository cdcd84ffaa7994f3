(* SLA-aware objectives over tenant-tagged instances: weighted group
   completion times (sum of w_g * C_g), per-group completion
   percentiles, a priority reordering post-pass applicable to any
   feasible schedule, and a greedy priority-order planner. *)

let c_reorders = Instr.counter "sla.reorders"
let c_groups = Instr.counter "sla.groups"
let c_weighted_sum = Instr.counter "sla.weighted_sum"
let c_p50 = Instr.counter "sla.p50_completion"
let c_p99 = Instr.counter "sla.p99_completion"

let completion_rounds inst sched =
  let last = Array.make (Instance.n_groups inst) 0 in
  Array.iteri
    (fun i items ->
      List.iter (fun e -> last.(Instance.group inst e) <- i + 1) items)
    (Schedule.rounds sched);
  last

let weighted_sum inst sched =
  let total = ref 0 in
  Array.iteri
    (fun g c -> total := !total + (Instance.weight inst g * c))
    (completion_rounds inst sched);
  !total

let percentile sorted q =
  let len = Array.length sorted in
  if len = 0 then 0
  else begin
    let rank = int_of_float (ceil (q /. 100.0 *. float_of_int len)) in
    sorted.(max 0 (min (len - 1) (rank - 1)))
  end

let completion_percentiles inst sched =
  let cs =
    completion_rounds inst sched |> Array.to_seq
    |> Seq.filter (fun c -> c > 0)
    |> Array.of_seq
  in
  Array.sort compare cs;
  (percentile cs 50.0, percentile cs 99.0)

let priority_order inst =
  let order = Array.init (Instance.n_groups inst) Fun.id in
  Array.sort
    (fun a b ->
      match compare (Instance.weight inst b) (Instance.weight inst a) with
      | 0 -> compare a b
      | c -> c)
    order;
  order

let reorder inst sched =
  let rounds = Schedule.rounds sched in
  let r = Array.length rounds in
  Instr.bump c_reorders;
  if r <= 1 then sched
  else begin
    (* rounds touched by each group, ascending (built backwards so the
       consecutive-duplicate check keeps each list sorted and unique) *)
    let by_group = Array.make (Instance.n_groups inst) [] in
    for i = r - 1 downto 0 do
      List.iter
        (fun e ->
          let g = Instance.group inst e in
          match by_group.(g) with
          | i' :: _ when i' = i -> ()
          | l -> by_group.(g) <- i :: l)
        rounds.(i)
    done;
    let emitted = Array.make r false in
    let perm = Array.make r (-1) in
    let next = ref 0 in
    let emit i =
      if not emitted.(i) then begin
        emitted.(i) <- true;
        perm.(!next) <- i;
        incr next
      end
    in
    Array.iter (fun g -> List.iter emit by_group.(g)) (priority_order inst);
    (* empty rounds, if the producer left any, sink to the tail *)
    for i = 0 to r - 1 do
      emit i
    done;
    Schedule.of_rounds (Array.map (fun i -> rounds.(i)) perm)
  end

let claim ?solver ~reordered inst sched =
  let completions =
    completion_rounds inst sched
    |> Array.to_list
    |> List.mapi (fun g c -> (g, c))
  in
  {
    Certify.sla_solver = solver;
    sla_reordered = reordered;
    sla_completions = completions;
    sla_weighted_sum = weighted_sum inst sched;
  }

let observe inst sched =
  let p50, p99 = completion_percentiles inst sched in
  Instr.bump ~by:(Instance.n_groups inst) c_groups;
  Instr.bump ~by:(weighted_sum inst sched) c_weighted_sum;
  Instr.bump ~by:p50 c_p50;
  Instr.bump ~by:p99 c_p99

let sla_greedy =
  {
    Solver.name = "sla-greedy";
    doc = "first-fit in weighted-group priority order (sum w_g*C_g heuristic)";
    can_solve = (fun _ -> true);
    solve =
      (fun _ctx inst ->
        let rank = Array.make (Instance.n_groups inst) 0 in
        Array.iteri (fun i g -> rank.(g) <- i) (priority_order inst);
        let order =
          List.stable_sort
            (fun a b ->
              compare rank.(Instance.group inst a) rank.(Instance.group inst b))
            (List.init (Instance.n_items inst) Fun.id)
        in
        let ec =
          Coloring.Greedy_coloring.color ~order (Instance.graph inst)
            ~cap:(Instance.cap inst)
        in
        Schedule.of_coloring ec);
  }
