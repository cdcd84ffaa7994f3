(* Line-framed messaging over real file descriptors.

   Each connection buffers raw bytes and splits complete '\n'-framed
   lines; a partial tail stays in the buffer until the next read.  All
   the failure modes of a kill -9'd peer funnel into two outcomes: a
   send raises [Closed] (EPIPE & friends), and a recv raises [Closed]
   once the read side hits EOF with nothing buffered — a torn final
   frame (peer died mid-write) is discarded, never delivered.  The
   coordinator's event loop multiplexes many connections with [next],
   which prefers already-buffered frames (no syscall) before falling
   back to Unix.select; there a torn frame surfaces as that
   connection's [Eof], so one dying worker can never crash the loop. *)

exception Closed

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* raw bytes, possibly a partial frame at the tail *)
  mutable lines : string list;  (* complete frames, oldest first *)
  mutable eof : bool;
  mutable closed : bool;
      (* set by [close] alone: a read also sets [eof], and the fd must
         still be closed after that *)
}

let of_fd fd =
  { fd; rbuf = Buffer.create 256; lines = []; eof = false; closed = false }

let fd c = c.fd

(* Close the fd once.  A second [Unix.close] of the same number could
   hit an unrelated descriptor the kernel has since handed out again. *)
let close c =
  c.eof <- true;
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()
  end

let send c msg =
  let line = Message.encode msg ^ "\n" in
  let bytes = Bytes.of_string line in
  let len = Bytes.length bytes in
  let rec write_all off =
    if off < len then begin
      let n =
        try Unix.write c.fd bytes off (len - off) with
        | Unix.Unix_error (Unix.EINTR, _, _) -> 0
        | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
          ->
            raise Closed
      in
      write_all (off + n)
    end
  in
  write_all 0

(* Split the complete frames out of [rbuf], leaving any partial tail. *)
let harvest c =
  let s = Buffer.contents c.rbuf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
      let complete = String.sub s 0 last in
      let tail = String.sub s (last + 1) (String.length s - last - 1) in
      Buffer.clear c.rbuf;
      Buffer.add_string c.rbuf tail;
      let frames = String.split_on_char '\n' complete in
      c.lines <- c.lines @ frames

(* Pull more bytes; true if any may follow, false on EOF. *)
let refill c =
  let buf = Bytes.create 4096 in
  let n =
    try Unix.read c.fd buf 0 4096 with
    | Unix.Unix_error (Unix.EINTR, _, _) -> -1
    | Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) -> 0
  in
  if n < 0 then true (* interrupted; caller loops *)
  else if n = 0 then begin
    c.eof <- true;
    false
  end
  else begin
    Buffer.add_subbytes c.rbuf buf 0 n;
    harvest c;
    true
  end

let pop_line c =
  match c.lines with
  | l :: tl ->
      c.lines <- tl;
      Some l
  | [] -> None

exception Recv_timeout

let rec recv_loop timeout_s c =
  match pop_line c with
  | Some l -> (
      match Message.decode l with
      | Ok m -> m
      | Error _ -> raise Closed (* torn frame: the peer is gone *))
  | None ->
      if c.eof then raise Closed;
      (match timeout_s with
      | None -> ()
      | Some t ->
          let r, _, _ =
            try Unix.select [ c.fd ] [] [] t
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([ c.fd ], [], [])
          in
          if r = [] then raise Recv_timeout);
      if not (refill c) then raise Closed;
      recv_loop timeout_s c

let recv ?timeout_s c =
  try Some (recv_loop timeout_s c) with Recv_timeout -> None

type 'a event = Msg of 'a * Message.t | Eof of 'a | Timeout

let rec next ?(timeout_s = 30.0) conns =
  (* buffered frames first: no syscall, deterministic caller order *)
  let rec buffered = function
    | [] -> None
    | (tag, c) :: tl -> (
        match pop_line c with
        | Some l -> (
            match Message.decode l with
            | Ok m -> Some (Msg (tag, m))
            | Error _ ->
                c.eof <- true;
                Some (Eof tag))
        | None -> buffered tl)
  in
  match buffered conns with
  | Some ev -> ev
  | None -> (
      match List.find_opt (fun (_, c) -> c.eof) conns with
      | Some (tag, _) -> Eof tag
      | None -> (
          let fds = List.map (fun (_, c) -> c.fd) conns in
          let ready, _, _ =
            try Unix.select fds [] [] timeout_s
            with Unix.Unix_error (Unix.EINTR, _, _) -> (fds, [], [])
          in
          match ready with
          | [] -> Timeout
          | rd :: _ -> (
              let tag, c = List.find (fun (_, c) -> c.fd = rd) conns in
              if not (refill c) then Eof tag
              else
                match pop_line c with
                | Some l -> (
                    match Message.decode l with
                    | Ok m -> Msg (tag, m)
                    | Error _ ->
                        c.eof <- true;
                        Eof tag)
                | None ->
                    (* partial frame only: keep waiting for the rest *)
                    next ~timeout_s conns)))
