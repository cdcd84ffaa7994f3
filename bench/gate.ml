(* gate — judges one run of the repo benchmark against an earlier one.

   Usage:  gate BENCHMARK.json BASE CURRENT

   BASE and CURRENT are what bench/perf/perf.exe printed.  A workload's
   block is its "# perf workload=..." header line and the last JSON line
   before the next header, {"correct", "attempted", "failed", "metrics":
   {NAME: {"value": MEDIAN, "unit"}}}.  The manifest's "end_to_end"
   entries give each bounded metric's name, the direction that is
   "better", and the "bound" on how much worse its median may get.

   The gate fails (exit 1) when a CURRENT workload is not correct, when
   its share of failed repetitions rose, when a BASE workload is missing
   from CURRENT, or when an end-to-end median is worse than BASE's by
   more than its bound, relative to BASE.  Medians are compared only
   when both headers agree on every field in [comparable]: a run on
   fewer processors, with other jobs or another compiler cannot judge
   the other's speed, so the gate names the field that differs and
   judges correctness only.  Unreadable input exits 2. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Malformed of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what =
    raise (Malformed (Printf.sprintf "%s at byte %d" what !pos))
  in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (
      incr pos;
      ws ())
  in
  let expect c =
    ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then (
      pos := !pos + k;
      v)
    else fail "unknown literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' when !pos < n ->
          let e = s.[!pos] in
          incr pos;
          (* no \u escapes: neither the manifest nor perf.exe writes one *)
          Buffer.add_char b
            (match e with
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | '"' | '\\' | '/' -> e
            | _ -> fail "unsupported escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               let k = str () in
               expect ':';
               (k, value ())))
    | '[' ->
        incr pos;
        Arr (items ']' value)
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-.0123456789eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> Num x
        | None -> fail "expected a value")
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if peek () = close then (
      incr pos;
      [])
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        if peek () = ',' then (
          incr pos;
          go acc)
        else (
          expect close;
          List.rev acc)
      in
      go []
  in
  let v = value () in
  ws ();
  if !pos < n then fail "trailing bytes";
  v

let rec at keys j =
  match (keys, j) with
  | [], _ -> Some j
  | k :: ks, Obj kvs -> Option.bind (List.assoc_opt k kvs) (at ks)
  | _ :: _, _ -> None

let die fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("gate: " ^ msg); exit 2) fmt

let read path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die "%s" msg

let json_of path text =
  try parse text with Malformed msg -> die "%s: malformed JSON: %s" path msg

(* header fields that must agree before medians are compared *)
let comparable = [ "seed"; "seconds"; "trace"; "nproc"; "jobs"; "ocaml" ]

type block = { name : string; fields : (string * string) list; result : json }

let blocks path =
  let close acc = function
    | None -> acc
    | Some (name, _, None) -> die "%s: %s has no result line" path name
    | Some (name, fields, Some line) ->
        { name; fields; result = json_of path line } :: acc
  in
  let rec go acc cur = function
    | [] -> List.rev (close acc cur)
    | l :: rest when String.starts_with ~prefix:"# perf " l ->
        let fields =
          List.filter_map
            (fun kv ->
              match String.split_on_char '=' kv with
              | [ k; v ] -> Some (k, v)
              | _ -> None)
            (String.split_on_char ' ' l)
        in
        let name =
          match List.assoc_opt "workload" fields with
          | Some w -> w
          | None -> die "%s: header without workload=: %s" path l
        in
        go (close acc cur) (Some (name, fields, None)) rest
    | l :: rest when String.starts_with ~prefix:"{" l ->
        go acc (Option.map (fun (w, f, _) -> (w, f, Some l)) cur) rest
    | _ :: rest -> go acc cur rest
  in
  match go [] None (String.split_on_char '\n' (read path)) with
  | [] -> die "%s: no \"# perf\" workload header" path
  | bs -> bs

let num path b key =
  match at [ key ] b.result with
  | Some (Num x) -> x
  | _ -> die "%s: workload %s: no number %S" path b.name key

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

(* each bounded end-to-end median of [c] against [b]'s *)
let judge_speed bounds b c =
  List.iter
    (fun (metric, higher, bound) ->
      let median blk = at [ "metrics"; metric; "value" ] blk.result in
      match (median b, median c) with
      | Some (Num bv), Some (Num cv) ->
          (* positive = worse, as a share of the base median *)
          let worse = (if higher then bv -. cv else cv -. bv) /. Float.abs bv in
          Printf.printf "  %-16s %12.6g -> %-12.6g worse by %+.1f%%\n" metric
            bv cv (100.0 *. worse);
          if worse > bound then
            fail "%s: %s %.1f%% worse than base (bound %g%%)" c.name metric
              (100.0 *. worse) (100.0 *. bound)
      | Some _, _ -> fail "%s: %s missing" c.name metric
      | None, _ -> ())
    bounds

let () =
  let manifest, base_path, cur_path =
    match Sys.argv with
    | [| _; m; b; c |] -> (m, b, c)
    | _ -> die "usage: gate BENCHMARK.json BASE CURRENT"
  in
  let bounds =
    match at [ "end_to_end" ] (json_of manifest (read manifest)) with
    | Some (Arr es) ->
        List.map
          (fun e ->
            match (at [ "name" ] e, at [ "better" ] e, at [ "bound" ] e) with
            | Some (Str name), Some (Str better), Some (Num bound) ->
                (name, better = "higher", bound)
            | _ -> die "%s: an end_to_end entry lacks a field" manifest)
          es
    | _ -> die "%s: no end_to_end list" manifest
  in
  let base = blocks base_path and cur = blocks cur_path in
  List.iter
    (fun b ->
      if not (List.exists (fun c -> c.name = b.name) cur) then
        fail "%s: missing from %s" b.name cur_path)
    base;
  List.iter
    (fun c ->
      let failed = num cur_path c "failed" in
      let tried = num cur_path c "attempted" in
      Printf.printf "%s: %.0f of %.0f repetitions failed\n" c.name failed tried;
      if at [ "correct" ] c.result <> Some (Bool true) then
        fail "%s: correct is not true" c.name;
      match List.find_opt (fun b -> b.name = c.name) base with
      | None -> print_endline "  no base run: correctness only"
      | Some b -> (
          let b_failed = num base_path b "failed" in
          let b_tried = num base_path b "attempted" in
          if failed /. tried > b_failed /. b_tried then
            fail "%s: failed share rose from %.0f/%.0f to %.0f/%.0f" c.name
              b_failed b_tried failed tried;
          let field blk k = List.assoc_opt k blk.fields in
          match List.find_opt (fun k -> field b k <> field c k) comparable with
          | None -> judge_speed bounds b c
          | Some k ->
              let show v = Option.value ~default:"none" v in
              Printf.printf "  not comparable (%s %s vs %s): correctness only\n"
                k (show (field b k)) (show (field c k))))
    cur;
  match List.rev !failures with
  | [] -> print_endline "gate passed"
  | fs ->
      print_endline "GATE FAILED";
      List.iter (Printf.printf "  %s\n") fs;
      exit 1
