let engine_policy ?(fault_rate = 0.0) ?(crashes = []) ?(slowdowns = []) ~seed
    () =
  if fault_rate < 0.0 || fault_rate >= 1.0 then
    invalid_arg "Fault.engine_policy: fault_rate must be in [0, 1)";
  List.iter
    (fun (r, _) ->
      if r < 0 then invalid_arg "Fault.engine_policy: negative round")
    (crashes @ slowdowns);
  (* one private RNG per policy value: the engine consults the policy
     in a deterministic sequence, so the decisions are a pure function
     of (seed, execution history) *)
  let rng = Random.State.make [| seed; 0xfa17 |] in
  let decide ~round ~attempted =
    let scheduled =
      List.filter_map
        (fun (r, d) ->
          if r = round then Some (Migration.Engine.Crash_disk d) else None)
        crashes
      @ List.filter_map
          (fun (r, d) ->
            if r = round then Some (Migration.Engine.Slow_disk d) else None)
          slowdowns
    in
    let transient =
      if fault_rate = 0.0 then []
      else
        List.filter_map
          (fun e ->
            if Random.State.float rng 1.0 < fault_rate then
              Some (Migration.Engine.Fail_transfer e)
            else None)
          attempted
    in
    scheduled @ transient
  in
  {
    Migration.Engine.policy_name =
      Printf.sprintf "seeded(rate=%g crashes=%d slowdowns=%d seed=%d)"
        fault_rate (List.length crashes) (List.length slowdowns) seed;
    decide;
  }

let random_calamities rng ~n_disks ~horizon ~crashes ~slowdowns =
  if crashes + slowdowns > n_disks then
    invalid_arg "Fault.random_calamities: more events than disks";
  let horizon = max 1 horizon in
  (* distinct disks so a slowdown never races its own crash *)
  let chosen = Hashtbl.create 8 in
  let pick_disk () =
    let rec go budget =
      let d = Random.State.int rng n_disks in
      if Hashtbl.mem chosen d && budget > 0 then go (budget - 1) else d
    in
    let d = go (8 * n_disks) in
    Hashtbl.replace chosen d ();
    d
  in
  let event () = (Random.State.int rng horizon, pick_disk ()) in
  let crash_events = List.init crashes (fun _ -> event ()) in
  let slow_events = List.init slowdowns (fun _ -> event ()) in
  (crash_events, slow_events)
