type t = {
  caps : int array;
  counts : int array array;     (* round -> disk -> streams *)
  durations : float array;
}

let capture ~disks ?sizes (job : Cluster.job) sched =
  let n = Array.length disks in
  let rounds = Migration.Schedule.rounds sched in
  let counts =
    Array.map
      (fun edges ->
        let c = Array.make n 0 in
        List.iter
          (fun e ->
            c.(job.Cluster.sources.(e)) <- c.(job.Cluster.sources.(e)) + 1;
            c.(job.Cluster.targets.(e)) <- c.(job.Cluster.targets.(e)) + 1)
          edges;
        c)
      rounds
  in
  {
    caps = Array.map (fun (d : Disk.t) -> d.Disk.cap) disks;
    counts;
    durations = Bandwidth.round_durations ~disks ?sizes job sched;
  }

let capture_execution ~disks ?sizes (job : Cluster.job)
    (x : Migration.Certify.execution) =
  (* attempted transfers per executed round: failed transfers held
     their streams for the full round, so that is what the chart (and
     the duration model) must show *)
  let pseudo =
    Migration.Schedule.of_rounds
      (Array.of_list
         (List.map (fun r -> r.Migration.Certify.attempted) x.Migration.Certify.log))
  in
  capture ~disks ?sizes job pseudo

let n_rounds t = Array.length t.counts
let n_disks t = Array.length t.caps
let durations t = Array.copy t.durations

let streams t ~round ~disk =
  if round < 0 || round >= n_rounds t then invalid_arg "Trace.streams";
  if disk < 0 || disk >= n_disks t then invalid_arg "Trace.streams";
  t.counts.(round).(disk)

let utilization_by_disk t =
  let n = n_disks t and k = n_rounds t in
  Array.init n (fun d ->
      if k = 0 || t.caps.(d) = 0 then 0.0
      else begin
        let used = ref 0 in
        for r = 0 to k - 1 do
          used := !used + t.counts.(r).(d)
        done;
        float_of_int !used /. float_of_int (t.caps.(d) * k)
      end)

let glyph ~used ~cap =
  if used = 0 then ' '
  else if used >= cap then '#'
  else if 2 * used > cap then '+'
  else '.'

let render ?(max_columns = 72) t =
  let k = n_rounds t and n = n_disks t in
  let buf = Buffer.create 1024 in
  if k = 0 then Buffer.add_string buf "(empty schedule)\n"
  else begin
    (* re-bin long schedules: each column covers [per] rounds and shows
       the mean load *)
    let per = (k + max_columns - 1) / max_columns in
    let cols = (k + per - 1) / per in
    Buffer.add_string buf
      (Printf.sprintf "rounds: %d   (one column = %d round%s)\n" k per
         (if per > 1 then "s" else ""));
    for d = 0 to n - 1 do
      Buffer.add_string buf (Printf.sprintf "disk %3d c=%d |" d t.caps.(d));
      for col = 0 to cols - 1 do
        let lo = col * per and hi = min k ((col + 1) * per) in
        let used = ref 0 in
        for r = lo to hi - 1 do
          used := !used + t.counts.(r).(d)
        done;
        let avg =
          int_of_float
            (Float.round (float_of_int !used /. float_of_int (hi - lo)))
        in
        Buffer.add_char buf (glyph ~used:avg ~cap:t.caps.(d))
      done;
      Buffer.add_string buf "|\n"
    done;
    let total = Array.fold_left ( +. ) 0.0 t.durations in
    Buffer.add_string buf (Printf.sprintf "wall time: %.1f\n" total)
  end;
  Buffer.contents buf
