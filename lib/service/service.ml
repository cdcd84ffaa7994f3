module M = Migration
module Certify = M.Certify

type trigger =
  | Retarget of (int * int) list
  | Demand_shift of { fraction : float }
  | Add_disk of { cap : int }
  | Remove_disk of { disk : int }
  | Fail_disk of { disk : int }

type request = { at : int; tenant : int; trigger : trigger }

type cluster = {
  caps : int array;
  placement : int array;
  demands : float array;
}

type report = {
  epochs : int;
  total_rounds : int;
  replans : int;
  transfers : int;
  repairs : int;
  quarantined : int;
  engine_retries : int;
  statuses : Certify.service_request_status array;
  latencies : (int * int) list;
  p50 : int;
  p99 : int;
  tenants : (int * int * int * int) list;
  truncated : bool;
  execution : Certify.service_execution;
}

(* instrumentation: the service's always-on flight counters *)
let c_epochs = M.Instr.counter "service.epochs"
let c_absorbed = M.Instr.counter "service.absorbed"
let c_rejected = M.Instr.counter "service.rejected"
let c_transfers = M.Instr.counter "service.transfers"
let c_repairs = M.Instr.counter "service.repairs"
let t_epoch = M.Instr.timer "service.epoch"

(* Tracking of one admitted request, mirroring the certifier's replay
   move for move: a move is settled once superseded or in effect, a
   request completes when every move settled, and abandonment (a
   quarantined or dead target) is sticky. *)
type tracked = {
  tr_input : int;  (* index in the caller's request list *)
  tr_at : int;
  tr_trigger : trigger;
  mutable tr_moves : (int * int) list;  (* owed at absorption, deduped *)
  mutable tr_outstanding : (int * int) list;
  mutable tr_rejected : string option;
  mutable tr_absorbed : int;  (* -1 until absorbed *)
  mutable tr_done : int;      (* completion round, -1 *)
  mutable tr_abandoned : bool;
}

let run ?(jobs = 1) ?(epoch_rounds = 16) ?(max_epochs = 100_000)
    ?(rng_seed = 0) ?policy ?(tolerance = 0.05) cluster ~requests () =
  if epoch_rounds < 1 then invalid_arg "Service.run: epoch_rounds must be >= 1";
  if max_epochs < 1 then invalid_arg "Service.run: max_epochs must be >= 1";
  if tolerance < 0.0 then invalid_arg "Service.run: tolerance must be >= 0";
  let m = Array.length cluster.placement in
  if Array.length cluster.demands <> m then
    invalid_arg "Service.run: demands and placement sizes differ";
  let n0 = Array.length cluster.caps in
  if n0 = 0 then invalid_arg "Service.run: no disks";
  Array.iter
    (fun c -> if c < 1 then invalid_arg "Service.run: caps must be >= 1")
    cluster.caps;
  Array.iter
    (fun d ->
      if d < 0 || d >= n0 then
        invalid_arg "Service.run: placement references unknown disk")
    cluster.placement;
  Array.iter
    (fun w ->
      if w < 0.0 || not (Float.is_finite w) then
        invalid_arg "Service.run: demands must be finite and >= 0")
    cluster.demands;
  List.iter
    (fun r ->
      if r.tenant < 0 then invalid_arg "Service.run: tenant must be >= 0")
    requests;
  let policy =
    match policy with
    | Some p -> p
    | None -> fun ~epoch:_ -> M.Engine.no_faults
  in
  (* ---- mutable cluster state; the disk universe can grow ---- *)
  let n = ref n0 in
  let caps = ref (Array.copy cluster.caps) in
  let alive = ref (Array.make n0 true) in
  let draining = ref (Array.make n0 false) in
  let active d = !alive.(d) && not !draining.(d) in
  let active_count () =
    let c = ref 0 in
    for d = 0 to !n - 1 do
      if active d then incr c
    done;
    !c
  in
  let add_disk cap =
    let grow a x = Array.append a [| x |] in
    caps := grow !caps cap;
    alive := grow !alive true;
    draining := grow !draining false;
    incr n;
    !n - 1
  in
  let placement = Array.copy cluster.placement in
  let desired = Array.copy cluster.placement in
  let demands = ref (Array.copy cluster.demands) in
  let owner = Array.make m (-1) in
  let rng = Random.State.make [| rng_seed; 0x5e7f1ce |] in
  (* ---- admitted requests, in stable arrival order ---- *)
  let tracked =
    List.mapi
      (fun i r ->
        {
          tr_input = i;
          tr_at = r.at;
          tr_trigger = r.trigger;
          tr_moves = [];
          tr_outstanding = [];
          tr_rejected = None;
          tr_absorbed = -1;
          tr_done = -1;
          tr_abandoned = false;
        })
      requests
    |> List.stable_sort (fun a b -> compare a.tr_at b.tr_at)
    |> Array.of_list
  in
  let n_req = Array.length tracked in
  let next = ref 0 (* next sorted request not yet absorbed/rejected *) in
  let live = ref [] (* sorted indices: absorbed, unsettled *) in
  let discharge_live ~round =
    live :=
      List.filter
        (fun k ->
          let t = tracked.(k) in
          if t.tr_abandoned then false
          else begin
            t.tr_outstanding <-
              List.filter
                (fun (item, target) ->
                  owner.(item) = k && placement.(item) <> target)
                t.tr_outstanding;
            if t.tr_outstanding = [] then begin
              t.tr_done <- round;
              false
            end
            else true
          end)
        !live
  in
  let abandon k =
    let t = tracked.(k) in
    if (not t.tr_abandoned) && t.tr_done < 0 then begin
      t.tr_abandoned <- true;
      List.iter
        (fun (item, _) ->
          if owner.(item) = k then desired.(item) <- placement.(item))
        t.tr_outstanding
    end
  in
  (* ---- trigger reduction: each trigger becomes owed moves ---- *)
  let rebalance_moves () =
    (* incremental re-layout of the *desired* placement (where items
       are headed) over the active disks only *)
    let act =
      List.filter active (List.init !n Fun.id) |> Array.of_list
    in
    if Array.length act = 0 then []
    else begin
      let inv = Array.make !n (-1) in
      Array.iteri (fun ci d -> inv.(d) <- ci) act;
      let weights = Array.map (fun d -> float_of_int !caps.(d)) act in
      (* an abandoned evacuation can leave [desired] on a draining
         disk; project such strays to the ring-next active disk so the
         re-layout pulls them back into the active set *)
      let ring_next d =
        let len = Array.length act in
        let rec go i = if i >= len then act.(0) else if act.(i) > d then act.(i) else go (i + 1) in
        go 0
      in
      let current =
        Storsim.Placement.of_array
          (Array.map
             (fun d -> if inv.(d) >= 0 then inv.(d) else inv.(ring_next d))
             desired)
      in
      let relaid =
        Workloads.Layout.rebalance_incremental ~demands:!demands ~weights
          ~current ~tolerance
      in
      let p' = Storsim.Placement.to_array relaid in
      let moves = ref [] in
      for item = m - 1 downto 0 do
        let target = act.(p'.(item)) in
        if target <> desired.(item) then moves := (item, target) :: !moves
      done;
      !moves
    end
  in
  let evacuation_moves disk =
    (* send everything headed to [disk] to the demand-least-loaded
       active disks, heaviest items first *)
    let evacuees =
      List.filter (fun item -> desired.(item) = disk) (List.init m Fun.id)
      |> List.sort (fun a b ->
             compare (!demands.(b), a) (!demands.(a), b))
    in
    if evacuees = [] then []
    else begin
      let carried = Array.make !n 0.0 in
      Array.iteri
        (fun item d ->
          if d >= 0 && d < !n then carried.(d) <- carried.(d) +. !demands.(item))
        desired;
      let best () =
        let b = ref (-1) in
        for d = !n - 1 downto 0 do
          if active d then
            if
              !b < 0
              || carried.(d) /. float_of_int !caps.(d)
                 <= carried.(!b) /. float_of_int !caps.(!b)
            then b := d
        done;
        !b
      in
      List.map
        (fun item ->
          let d = best () in
          carried.(d) <- carried.(d) +. !demands.(item);
          carried.(disk) <- carried.(disk) -. !demands.(item);
          (item, d))
        evacuees
    end
  in
  (* admission control: validate the trigger against the *current*
     state, reduce it to owed moves, or reject with a reason *)
  let admit k ~base ~retired =
    let t = tracked.(k) in
    let reject reason =
      t.tr_rejected <- Some reason;
      M.Instr.bump c_rejected
    in
    let accept moves =
      t.tr_absorbed <- base;
      M.Instr.bump c_absorbed;
      let dedup = ref [] in
      List.iter
        (fun (item, target) ->
          owner.(item) <- k;
          dedup := (item, target) :: List.remove_assoc item !dedup)
        moves;
      t.tr_moves <- moves;
      t.tr_outstanding <- List.rev !dedup;
      List.iter (fun (item, target) -> desired.(item) <- target) t.tr_outstanding;
      live := k :: !live
    in
    if t.tr_at < 0 then reject "arrival round is negative"
    else
      match t.tr_trigger with
      | Retarget moves -> (
          let bad =
            List.find_opt
              (fun (item, target) ->
                item < 0 || item >= m || target < 0 || target >= !n
                || not (active target))
              moves
          in
          match bad with
          | Some (item, target) ->
              reject
                (Printf.sprintf "retarget %d:%d names a bad item or inactive disk"
                   item target)
          | None -> accept moves)
      | Demand_shift { fraction } ->
          if fraction < 0.0 || fraction > 1.0 then
            reject "shift fraction outside [0, 1]"
          else begin
            demands := Workloads.Demand.shift rng ~fraction !demands;
            accept (rebalance_moves ())
          end
      | Add_disk { cap } ->
          if cap < 1 then reject "new disk capacity must be >= 1"
          else begin
            ignore (add_disk cap);
            accept (rebalance_moves ())
          end
      | Remove_disk { disk } ->
          if disk < 0 || disk >= !n || not (active disk) then
            reject (Printf.sprintf "disk %d is not active" disk)
          else if active_count () < 2 then
            reject "cannot drain the last active disk"
          else begin
            !draining.(disk) <- true;
            accept (evacuation_moves disk)
          end
      | Fail_disk { disk } ->
          if disk < 0 || disk >= !n || not !alive.(disk) then
            reject (Printf.sprintf "disk %d is not alive" disk)
          else if active disk && active_count () < 2 then
            reject "cannot fail the last active disk"
          else begin
            !alive.(disk) <- false;
            retired := disk :: !retired;
            accept []
          end
  in
  (* next active disk in ring order: the re-replication target *)
  let replica_of d =
    let r = ref (-1) in
    let i = ref ((d + 1) mod !n) in
    while !r < 0 && !i <> d do
      if active !i then r := !i else i := (!i + 1) mod !n
    done;
    if !r < 0 then invalid_arg "Service.run: no active disk left to repair onto";
    !r
  in
  (* ---- the epoch loop ---- *)
  let now = ref 0 in
  let epochs_rev = ref [] in
  let epoch_count = ref 0 in
  let replans = ref 0 in
  let transfers = ref 0 in
  let repairs = ref 0 in
  let quarantined_total = ref 0 in
  let retries = ref 0 in
  let pending_repairs = ref [] (* disks that died mid-epoch, to patch *) in
  let carry = ref [||] (* previous epoch's remaining plan, as moves *) in
  let work_left () =
    !next < n_req
    || !pending_repairs <> []
    || placement <> desired
  in
  while work_left () && !epoch_count < max_epochs do
    M.Instr.time t_epoch (fun () ->
        (* fast-forward pure idle time to the next arrival *)
        if
          placement = desired && !pending_repairs = [] && !next < n_req
          && tracked.(!next).tr_at > !now
        then now := tracked.(!next).tr_at;
        let base = !now in
        let retired = ref [] in
        (* phase 1+2: absorb every request due at this boundary *)
        let absorbed_rev = ref [] in
        while !next < n_req && tracked.(!next).tr_at <= base do
          admit !next ~base ~retired;
          if tracked.(!next).tr_rejected = None then
            absorbed_rev := !next :: !absorbed_rev;
          incr next
        done;
        let retired = List.rev !retired in
        (* phase 3a: patch items off disks that died (by trigger now,
           or mid-epoch last round) *)
        let patches_rev = ref [] in
        List.iter
          (fun d ->
            for item = 0 to m - 1 do
              if placement.(item) = d then begin
                let r = replica_of d in
                placement.(item) <- r;
                if desired.(item) = d then desired.(item) <- r;
                patches_rev := (item, r) :: !patches_rev;
                incr repairs;
                M.Instr.bump c_repairs
              end
            done)
          (!pending_repairs @ retired);
        pending_repairs := [];
        (* phase 3b: a still-owed move toward a dead disk can never be
           served — abandon its request, stickily *)
        List.iter
          (fun k ->
            let t = tracked.(k) in
            if
              (not t.tr_abandoned)
              && t.tr_done < 0
              && List.exists
                   (fun (item, target) ->
                     owner.(item) = k
                     && placement.(item) <> target
                     && target < !n
                     && not !alive.(target))
                   t.tr_outstanding
            then abandon k)
          !live;
        (* boundary settlement: supersession and no-op moves *)
        discharge_live ~round:base;
        (* ---- plan the outstanding diff as one migration instance ---- *)
        let moves = ref [] in
        for item = m - 1 downto 0 do
          if placement.(item) <> desired.(item) then
            moves := (item, placement.(item), desired.(item)) :: !moves
        done;
        let moves = !moves in
        let m_e = List.length moves in
        let g = Mgraph.Multigraph.create ~n:!n () in
        let items = Array.make m_e (-1) in
        let sources = Array.make m_e (-1) in
        let targets = Array.make m_e (-1) in
        List.iter
          (fun (item, src, dst) ->
            let e = Mgraph.Multigraph.add_edge g src dst in
            items.(e) <- item;
            sources.(e) <- src;
            targets.(e) <- dst)
          moves;
        let inst = M.Instance.create g ~caps:(Array.copy !caps) in
        if m_e = 0 then begin
          (* boundary-only epoch: absorption / repairs, nothing to move *)
          epochs_rev :=
            {
              Certify.se_base = base;
              se_instance = inst;
              se_items = items;
              se_sources = sources;
              se_targets = targets;
              se_absorbed = List.rev !absorbed_rev;
              se_retired = retired;
              se_patches = List.rev !patches_rev;
              se_log = [];
              se_idle = 0;
              se_quarantined = [];
              se_residual = [];
              se_bounds = [];
            }
            :: !epochs_rev;
          carry := [||]
        end
        else begin
          (* warm start: rounds of the previous epoch's unexecuted plan
             that still describe the same physical transfer *)
          let edge_of = Hashtbl.create (2 * m_e) in
          Array.iteri
            (fun e item -> Hashtbl.replace edge_of (item, sources.(e), targets.(e)) e)
            items;
          let warm =
            Array.map
              (fun round ->
                List.filter_map (fun mv -> Hashtbl.find_opt edge_of mv) round)
              !carry
          in
          (* components whose capacities changed since their warm rounds
             were certified must re-solve *)
          let dirty_disks =
            match !epochs_rev with
            | [] -> []
            | prev :: _ ->
                let prev_caps = M.Instance.caps prev.Certify.se_instance in
                List.filter
                  (fun d ->
                    d < Array.length prev_caps && !caps.(d) <> prev_caps.(d))
                  (List.init !n Fun.id)
          in
          let erng = Random.State.make [| rng_seed; !epoch_count; 0xe19 |] in
          let o =
            M.Engine.run ~rng:erng ~jobs ~stop_after:epoch_rounds ~warm
              ~dirty_disks
              ~policy:(policy ~epoch:!epoch_count)
              inst
          in
          (* apply completions round by round; a transfer is in effect
             from the next round (the certifier's convention) *)
          List.iteri
            (fun r round ->
              let moved = ref false in
              List.iter
                (fun e ->
                  placement.(items.(e)) <- targets.(e);
                  incr transfers;
                  M.Instr.bump c_transfers;
                  moved := true)
                round.Certify.completed;
              if !moved then discharge_live ~round:(base + r + 1))
            o.M.Engine.execution.Certify.log;
          (* quarantined edges: the move is dropped and its owner
             abandoned; the item stays where it is *)
          List.iter
            (fun (e, _) ->
              incr quarantined_total;
              let item = items.(e) in
              let k = owner.(item) in
              if k >= 0 then abandon k;
              desired.(item) <- placement.(item))
            o.M.Engine.quarantined;
          (* disks crashed mid-epoch: dead from the next boundary, and
             their resident items need re-replication *)
          List.iter
            (fun d ->
              !alive.(d) <- false;
              pending_repairs := !pending_repairs @ [ d ])
            o.M.Engine.crashed;
          (* degraded capacities persist into the next epochs *)
          List.iter (fun (d, c) -> !caps.(d) <- c) o.M.Engine.degraded;
          replans := !replans + o.M.Engine.replans;
          retries := !retries + o.M.Engine.retries;
          carry :=
            Array.map
              (List.map (fun e -> (items.(e), sources.(e), targets.(e))))
              o.M.Engine.remaining_plan;
          epochs_rev :=
            {
              Certify.se_base = base;
              se_instance = inst;
              se_items = items;
              se_sources = sources;
              se_targets = targets;
              se_absorbed = List.rev !absorbed_rev;
              se_retired = retired;
              se_patches = List.rev !patches_rev;
              se_log = o.M.Engine.execution.Certify.log;
              se_idle = o.M.Engine.execution.Certify.idle_rounds;
              se_quarantined = List.map fst o.M.Engine.quarantined;
              se_residual = o.M.Engine.residual;
              se_bounds = o.M.Engine.execution.Certify.replan_bounds;
            }
            :: !epochs_rev;
          now := base + o.M.Engine.total_rounds
        end;
        incr epoch_count;
        M.Instr.bump c_epochs)
  done;
  let truncated = work_left () in
  if truncated then begin
    (* give up cleanly: every unsettled request is abandoned *)
    List.iter abandon !live;
    live := []
  end;
  (* ---- assemble the report and its tamper-evident execution ---- *)
  let svc_requests =
    Array.map
      (fun t ->
        let status =
          match t.tr_rejected with
          | Some reason -> Certify.Sreq_rejected reason
          | None ->
              if t.tr_done >= 0 && not t.tr_abandoned then
                Certify.Sreq_completed
                  { absorbed = t.tr_absorbed; completed = t.tr_done }
              else Certify.Sreq_abandoned { absorbed = t.tr_absorbed }
        in
        {
          Certify.sreq_at = t.tr_at;
          sreq_moves = t.tr_moves;
          sreq_status = status;
        })
      tracked
  in
  let execution =
    {
      Certify.svc_initial = Array.copy cluster.placement;
      svc_final = Array.copy placement;
      svc_epochs = List.rev !epochs_rev;
      svc_requests;
    }
  in
  let statuses = Array.make n_req (Certify.Sreq_rejected "") in
  Array.iteri
    (fun k t -> statuses.(t.tr_input) <- svc_requests.(k).Certify.sreq_status)
    tracked;
  let latencies =
    Array.to_list tracked
    |> List.filter_map (fun t ->
           if t.tr_done >= 0 && not t.tr_abandoned && t.tr_rejected = None then
             Some (t.tr_input, t.tr_done - t.tr_at)
           else None)
    |> List.sort compare
  in
  let sorted_lat =
    let a = Array.of_list (List.map snd latencies) in
    Array.sort compare a;
    a
  in
  (* the SLA view: the same latency population, split per tenant *)
  let tenants =
    let tenant_of_input =
      Array.of_list (List.map (fun r -> r.tenant) requests)
    in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (i, lat) ->
        let t = tenant_of_input.(i) in
        Hashtbl.replace tbl t
          (lat :: Option.value ~default:[] (Hashtbl.find_opt tbl t)))
      latencies;
    Hashtbl.fold (fun t lats acc -> (t, lats) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun (t, lats) ->
           let a = Array.of_list lats in
           Array.sort compare a;
           ( t,
             Array.length a,
             M.Objective.percentile a 50.0,
             M.Objective.percentile a 99.0 ))
  in
  {
    epochs = !epoch_count;
    total_rounds = !now;
    replans = !replans;
    transfers = !transfers;
    repairs = !repairs;
    quarantined = !quarantined_total;
    engine_retries = !retries;
    statuses;
    latencies;
    p50 = M.Objective.percentile sorted_lat 50.0;
    p99 = M.Objective.percentile sorted_lat 99.0;
    tenants;
    truncated;
    execution;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "epochs:      %d (%d rounds total)@,\
     transfers:   %d (%d quarantined, %d repairs)@,\
     replans:     %d (retries %d)"
    r.epochs r.total_rounds r.transfers r.quarantined r.repairs r.replans
    r.engine_retries;
  let completed = List.length r.latencies in
  let rejected =
    Array.fold_left
      (fun acc s ->
        match s with Certify.Sreq_rejected _ -> acc + 1 | _ -> acc)
      0 r.statuses
  in
  let abandoned =
    Array.fold_left
      (fun acc s ->
        match s with Certify.Sreq_abandoned _ -> acc + 1 | _ -> acc)
      0 r.statuses
  in
  Format.fprintf ppf
    "@,requests:    %d completed, %d abandoned, %d rejected@,\
     latency:     p50=%d p99=%d rounds"
    completed abandoned rejected r.p50 r.p99;
  (* single-tenant streams (everything tagged 0) keep the legacy
     report shape; any explicit tenant switches the breakdown on *)
  if List.exists (fun (t, _, _, _) -> t <> 0) r.tenants then
    List.iter
      (fun (t, completed, p50, p99) ->
        Format.fprintf ppf "@,tenant %d:    %d completed, p50=%d p99=%d rounds"
          t completed p50 p99)
      r.tenants;
  if r.truncated then Format.fprintf ppf "@,TRUNCATED: epoch budget exhausted";
  Format.fprintf ppf "@]"

let pp_statuses ppf r =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i s ->
      if i > 0 then Format.pp_print_cut ppf ();
      Format.fprintf ppf "request %d: %s" i
        (Certify.service_request_status_to_string s))
    r.statuses;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Trace files: a tiny line format for the CLI and the test corpus. *)

let parse_trace lines =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let parse_int s = int_of_string_opt (String.trim s) in
  let parse_kv key s =
    match String.index_opt s '=' with
    | Some i when String.sub s 0 i = key ->
        Some (String.sub s (i + 1) (String.length s - i - 1))
    | _ -> None
  in
  let cluster = ref None in
  let reqs = ref [] in
  let rec go lineno = function
    | [] -> (
        match !cluster with
        | None -> err "trace has no init line"
        | Some c -> Ok (c, List.rev !reqs))
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) rest
        else
          let words =
            String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
          in
          match words with
          | "init" :: kvs -> (
              let find key =
                List.find_map (parse_kv key) kvs
              in
              match
                (find "disks", find "items", find "caps", find "zipf",
                 find "seed")
              with
              | Some disks, Some items, caps, zipf, seed -> (
                  match (parse_int disks, parse_int items) with
                  | Some n, Some m when n >= 1 && m >= 1 -> (
                      let caps =
                        match caps with
                        | None -> Some (Array.make n 2)
                        | Some s ->
                            let parts = String.split_on_char ',' s in
                            let a =
                              List.filter_map parse_int parts
                              |> List.filter (fun c -> c >= 1)
                            in
                            if List.length parts = n && List.length a = n then
                              Some (Array.of_list a)
                            else None
                      in
                      (* a key that is present must parse: a typo is an
                         error, not the default *)
                      let zipf =
                        match zipf with
                        | None -> Some 1.1
                        | Some z -> (
                            match float_of_string_opt z with
                            | Some s when Float.is_finite s && s >= 0.0 ->
                                Some s
                            | _ -> None)
                      in
                      let seed =
                        match seed with None -> Some 0 | Some v -> parse_int v
                      in
                      match (caps, zipf, seed) with
                      | None, _, _ ->
                          err "line %d: bad caps list (want %d integers >= 1)"
                            lineno n
                      | _, None, _ ->
                          err "line %d: bad zipf (want a finite number >= 0)"
                            lineno
                      | _, _, None -> err "line %d: bad seed" lineno
                      | Some caps, Some s, Some seed ->
                          let rng = Random.State.make [| seed; 0x7ace |] in
                          let demands =
                            Workloads.Demand.demands rng ~n:m ~s
                          in
                          let weights = Array.map float_of_int caps in
                          let placement =
                            Storsim.Placement.to_array
                              (Workloads.Layout.balance ~demands ~weights)
                          in
                          cluster := Some { caps; placement; demands };
                          go (lineno + 1) rest)
                  | _ -> err "line %d: bad disks/items counts" lineno)
              | _ -> err "line %d: init needs disks= and items=" lineno)
          | "at" :: round :: rest_words -> (
              match parse_int round with
              | None -> err "line %d: bad round" lineno
              | Some at -> (
                  (* optional tenant=T tag before the trigger word *)
                  let tenant, rest_words =
                    match rest_words with
                    | kv :: tl when parse_kv "tenant" kv <> None ->
                        (Option.bind (parse_kv "tenant" kv) parse_int, tl)
                    | _ -> (Some 0, rest_words)
                  in
                  match (tenant, rest_words) with
                  | None, _ ->
                      err "line %d: tenant wants a non-negative int" lineno
                  | Some tenant, _ when tenant < 0 ->
                      err "line %d: tenant wants a non-negative int" lineno
                  | Some _, [] -> err "line %d: missing trigger" lineno
                  | Some tenant, what :: args -> (
                  let push trigger =
                    reqs := { at; tenant; trigger } :: !reqs;
                    go (lineno + 1) rest
                  in
                  match (what, args) with
                  | "retarget", moves -> (
                      let parse_move s =
                        match String.split_on_char ':' s with
                        | [ a; b ] -> (
                            match (parse_int a, parse_int b) with
                            | Some i, Some d -> Some (i, d)
                            | _ -> None)
                        | _ -> None
                      in
                      let parsed = List.map parse_move moves in
                      if List.exists Option.is_none parsed || moves = [] then
                        err "line %d: retarget wants item:disk pairs" lineno
                      else
                        push (Retarget (List.filter_map Fun.id parsed)))
                  | "shift", [ f ] -> (
                      match float_of_string_opt f with
                      | Some fraction -> push (Demand_shift { fraction })
                      | None -> err "line %d: bad shift fraction" lineno)
                  | "add", [ kv ] -> (
                      match Option.bind (parse_kv "cap" kv) parse_int with
                      | Some cap -> push (Add_disk { cap })
                      | None -> err "line %d: add wants cap=N" lineno)
                  | "remove", [ d ] -> (
                      match parse_int d with
                      | Some disk -> push (Remove_disk { disk })
                      | None -> err "line %d: bad disk" lineno)
                  | "fail", [ d ] -> (
                      match parse_int d with
                      | Some disk -> push (Fail_disk { disk })
                      | None -> err "line %d: bad disk" lineno)
                  | _ -> err "line %d: unknown trigger %S" lineno what)))
          | _ -> err "line %d: expected 'init ...' or 'at R ...'" lineno)
  in
  go 1 lines

(* ------------------------------------------------------------------ *)
(* Soak driver: turn a generated migration instance into a randomized
   trigger stream and push it through the full loop, certifying the
   concatenated flight log.  The [(inst, seed)] pair is a complete
   reproducer. *)

type soak_stats = {
  soak_epochs : int;
  soak_rounds : int;
  soak_transfers : int;
  soak_completed : int;
  soak_abandoned : int;
  soak_rejected : int;
}

let soak ?(jobs = 1) ?(epoch_rounds = 4) ?(fault_rate = 0.0) ~inst ~seed () =
  let g = M.Instance.graph inst in
  let n = M.Instance.n_disks inst in
  let m = M.Instance.n_items inst in
  if m = 0 then
    Ok
      {
        soak_epochs = 0;
        soak_rounds = 0;
        soak_transfers = 0;
        soak_completed = 0;
        soak_abandoned = 0;
        soak_rejected = 0;
      }
  else begin
    let rng = Random.State.make [| seed; 0x50a4 |] in
    (* item e starts on one endpoint and is asked onto the other *)
    let placement = Array.make m 0 in
    let moves = Array.make m (0, 0) in
    for e = 0 to m - 1 do
      let u, v = Mgraph.Multigraph.endpoints g e in
      placement.(e) <- u;
      moves.(e) <- (e, v)
    done;
    let demands = Workloads.Demand.demands rng ~n:m ~s:1.1 in
    let cluster =
      { caps = Array.copy (M.Instance.caps inst); placement; demands }
    in
    (* split the retargets into batches at staggered rounds, and mix in
       state triggers drawn from the same seed *)
    let batches = 1 + Random.State.int rng 3 in
    let reqs = ref [] in
    let round_of b = b * (1 + Random.State.int rng (2 * epoch_rounds)) in
    for b = 0 to batches - 1 do
      let batch =
        Array.to_list moves
        |> List.filteri (fun e _ -> e mod batches = b)
      in
      if batch <> [] then
        reqs :=
          { at = round_of b; tenant = b; trigger = Retarget batch } :: !reqs
    done;
    if Random.State.bool rng then
      reqs :=
        {
          at = round_of batches;
          tenant = 0;
          trigger = Demand_shift { fraction = 0.3 };
        }
        :: !reqs;
    if n >= 3 && Random.State.int rng 4 = 0 then
      reqs :=
        {
          at = round_of (batches + 1);
          tenant = 0;
          trigger = Fail_disk { disk = Random.State.int rng n };
        }
        :: !reqs;
    if Random.State.int rng 4 = 0 then
      reqs :=
        { at = round_of (batches + 1); tenant = 0; trigger = Add_disk { cap = 2 } }
        :: !reqs;
    let requests =
      List.stable_sort (fun a b -> compare a.at b.at) (List.rev !reqs)
    in
    let policy ~epoch =
      Storsim.Fault.engine_policy ~fault_rate ~seed:((seed * 31) + epoch) ()
    in
    match
      run ~jobs ~epoch_rounds ~max_epochs:200 ~rng_seed:seed ~policy cluster
        ~requests ()
    with
    | exception M.Engine.Plan_rejected msg ->
        Error [ "replan rejected mid-flight: " ^ msg ]
    | r ->
        let v = Certify.certify_service r.execution in
        let messages =
          List.map Certify.service_violation_to_string v.Certify.svc_violations
        in
        let extra =
          if r.truncated then [ "service truncated: epoch budget exhausted" ]
          else []
        in
        (match messages @ extra with
        | [] ->
            let count f = Array.fold_left f 0 r.statuses in
            Ok
              {
                soak_epochs = r.epochs;
                soak_rounds = r.total_rounds;
                soak_transfers = r.transfers;
                soak_completed =
                  count (fun acc s ->
                      match s with
                      | Certify.Sreq_completed _ -> acc + 1
                      | _ -> acc);
                soak_abandoned =
                  count (fun acc s ->
                      match s with
                      | Certify.Sreq_abandoned _ -> acc + 1
                      | _ -> acc);
                soak_rejected =
                  count (fun acc s ->
                      match s with
                      | Certify.Sreq_rejected _ -> acc + 1
                      | _ -> acc);
              }
        | msgs -> Error msgs)
  end
