(* Real socket transport: one listening socket per endpoint (Unix
   domain by default, TCP loopback optionally), length-prefixed frames
   on byte streams, and one I/O thread per endpoint looping on
   [Unix.select] over the listener, the accepted connections, the peers
   with bytes to write and the wake pipe of its outbox.  Every socket is
   non-blocking.

   Receive path: a connection's buffer fills with the 16 header bytes,
   which [Frame.decode_header] validates before the claimed body is
   allocated, then with the body; decoded frames go to the inbox, where
   [recv] blocks.  A malformed header is unrecoverable on a byte stream
   (framing is lost), so it counts one frame error and drops the
   connection — the sender can reconnect; the receiver never crashes.

   Send path: [send] queues the encoded frame and returns, so a dead or
   silent peer cannot stall a protocol round.  Connections open lazily
   with exponential backoff (peers of a freshly forked cluster come up
   in arbitrary order); a frame whose write fails gets one reconnect and
   is then dropped.  SIGPIPE is ignored, so a peer that closed its end
   fails the write with EPIPE instead of killing the process. *)

module Frame = Csm_wire.Frame
module Mailbox = Transport.Mailbox

type addr =
  | Uds of string  (* directory holding ep-<id>.sock *)
  | Tcp of int  (* base port; endpoint i listens on base + i *)

let sockaddr_of addr id =
  match addr with
  | Uds dir ->
    Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "ep-%d.sock" id))
  | Tcp base -> Unix.ADDR_INET (Unix.inet_addr_loopback, base + id)

(* Backoff schedule for connect retries: 2ms doubling, capped. *)
let backoff_delay attempt = min 0.1 (0.002 *. (2. ** float_of_int attempt))

(* How long [close] lets the I/O thread flush queued frames. *)
let flush_window = 1.0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* An accepted connection: [buf] is [head] until the header is in,
   then the body. *)
type conn = {
  cfd : Unix.file_descr;
  head : Bytes.t;
  mutable hdr : Frame.header option;
  mutable buf : Bytes.t;
  mutable fill : int;
}

(* The link to one destination. *)
type peer = {
  out : string Queue.t;  (* encoded frames, oldest first *)
  mutable fd : Unix.file_descr option;
  mutable off : int;  (* bytes of the head frame already written *)
  mutable retried : bool;  (* the head frame has had its one reconnect *)
  mutable attempt : int;  (* failed connects since the last success *)
  mutable retry_at : float;  (* no connect before this time *)
}

type cmd = Send of int * string | Stop

let endpoint ~addr ~id ~endpoints =
  if id < 0 || id >= endpoints then invalid_arg "Socket.endpoint: bad id";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let domain = match addr with Uds _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let listener = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Uds dir ->
    (try Unix.unlink (Filename.concat dir (Printf.sprintf "ep-%d.sock" id))
     with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true);
  Unix.bind listener (sockaddr_of addr id);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let inbox : Frame.t Mailbox.t = Mailbox.create "socket.inbox" in
  let outbox : cmd Mailbox.t = Mailbox.create "socket.outbox" in
  let t =
    {
      Transport.id;
      endpoints;
      send = (fun ~dst:_ _ -> ());
      recv = (fun ~timeout:_ -> None);
      close = (fun () -> ());
      stats = Transport.zero_stats ();
      stats_mutex = Csm_parallel.Lockdep.create "socket.stats";
    }
  in
  (* --- the I/O thread; all state below is private to it --- *)
  let io () =
    let chunk = Bytes.create 65536 in
    let conns = ref [] in
    let peers =
      Array.init endpoints (fun _ ->
          {
            out = Queue.create ();
            fd = None;
            off = 0;
            retried = false;
            attempt = 0;
            retry_at = 0.0;
          })
    in
    let stop_at = ref Float.infinity in
    let drop_conn c =
      conns := List.filter (fun c' -> c' != c) !conns;
      close_quietly c.cfd
    in
    (* [c.buf] is full: validate the header or deliver the body; false
       when framing is lost *)
    let rec complete c =
      match c.hdr with
      | None -> (
        match Frame.decode_header (Bytes.to_string c.head) with
        | None ->
          Transport.record_error t;
          false
        | Some h ->
          let body_len = Frame.body_bytes h in
          let body = Bytes.create body_len in
          c.hdr <- Some h;
          c.buf <- body;
          c.fill <- 0;
          body_len > 0 || complete c)
      | Some h ->
        Transport.record_received t (Frame.header_bytes + Bytes.length c.buf);
        (match Frame.of_header h ~body:(Bytes.unsafe_to_string c.buf) with
        | Some fr -> Mailbox.push inbox fr
        | None -> Transport.record_error t);
        c.hdr <- None;
        c.buf <- c.head;
        c.fill <- 0;
        true
    in
    let read_conn c =
      match Unix.read c.cfd chunk 0 (Bytes.length chunk) with
      | 0 -> drop_conn c
      | n ->
        let pos = ref 0 and ok = ref true in
        while !ok && !pos < n do
          let take = min (Bytes.length c.buf - c.fill) (n - !pos) in
          Bytes.blit chunk !pos c.buf c.fill take;
          c.fill <- c.fill + take;
          pos := !pos + take;
          if c.fill = Bytes.length c.buf then ok := complete c
        done;
        if not !ok then drop_conn c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error _ -> drop_conn c
    in
    let rec accept () =
      match Unix.accept ~cloexec:true listener with
      | fd, _ ->
        Unix.set_nonblock fd;
        let head = Bytes.create Frame.header_bytes in
        conns := { cfd = fd; head; hdr = None; buf = head; fill = 0 } :: !conns;
        accept ()
      | exception Unix.Unix_error _ -> ()
    in
    let disconnect p =
      Option.iter close_quietly p.fd;
      p.fd <- None;
      p.off <- 0
    in
    let connect dst p now =
      let fd = ref None in
      try
        let s = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
        fd := Some s;
        Unix.connect s (sockaddr_of addr dst);
        Unix.set_nonblock s;
        p.fd <- !fd;
        p.attempt <- 0
      with Unix.Unix_error _ ->
        Option.iter close_quietly !fd;
        p.retry_at <- now +. backoff_delay p.attempt;
        p.attempt <- p.attempt + 1
    in
    (* Write queued frames until the socket would block.  A failed write
       drops the link; the frame goes out whole on the next one, once. *)
    let rec flush p =
      match p.fd with
      | Some fd when not (Queue.is_empty p.out) -> (
        let bytes = Queue.peek p.out in
        let len = String.length bytes in
        match Unix.write_substring fd bytes p.off (len - p.off) with
        | n ->
          p.off <- p.off + n;
          if p.off = len then begin
            ignore (Queue.pop p.out);
            p.off <- 0;
            p.retried <- false;
            flush p
          end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
        | exception Unix.Unix_error _ ->
          disconnect p;
          if p.retried then ignore (Queue.pop p.out);
          p.retried <- not p.retried)
      | _ -> ()
    in
    let pending p = not (Queue.is_empty p.out) in
    let rec take_cmds () =
      match Mailbox.try_pop outbox with
      | Some (Send (dst, bytes)) ->
        Queue.push bytes peers.(dst).out;
        take_cmds ()
      | Some Stop ->
        stop_at := Unix.gettimeofday () +. flush_window;
        take_cmds ()
      | None -> ()
    in
    let rec loop () =
      let now = Unix.gettimeofday () in
      Array.iteri
        (fun dst p ->
          if pending p && Option.is_none p.fd && now >= p.retry_at then
            connect dst p now;
          flush p)
        peers;
      let stopping = Float.is_finite !stop_at in
      if not (stopping && (now >= !stop_at || not (Array.exists pending peers)))
      then begin
        (* sleep until a socket or the outbox is ready, the next
           reconnect is due or the flush window ends *)
        let timeout =
          Array.fold_left
            (fun acc p ->
              if pending p && Option.is_none p.fd then
                Float.min acc (p.retry_at -. now)
              else acc)
            (!stop_at -. now) peers
        in
        let writes =
          Array.fold_left
            (fun acc p ->
              match p.fd with Some fd when pending p -> fd :: acc | _ -> acc)
            [] peers
        in
        (match
           Unix.select
             (listener :: Mailbox.wake_fd outbox
             :: List.map (fun c -> c.cfd) !conns)
             writes []
             (if Float.is_finite timeout then Float.max 0.0 timeout else -1.0)
         with
        | readable, _, _ ->
          take_cmds ();
          if List.memq listener readable then accept ();
          List.iter
            (fun c -> if List.memq c.cfd readable then read_conn c)
            !conns
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    in
    loop ();
    Array.iter disconnect peers;
    List.iter (fun c -> close_quietly c.cfd) !conns;
    close_quietly listener
  in
  let thread = Thread.create io () in
  let send ~dst frame =
    if (not (Mailbox.closed outbox)) && dst >= 0 && dst < endpoints then begin
      let bytes = Frame.encode frame in
      Transport.record_sent t (String.length bytes);
      Mailbox.push outbox (Send (dst, bytes))
    end
  in
  let recv ~timeout =
    Mailbox.pop inbox ~deadline:(Unix.gettimeofday () +. timeout)
  in
  let close () =
    if not (Mailbox.closed outbox) then begin
      (* the I/O thread flushes first (bounded), so a frame still being
         written is not cut *)
      Mailbox.push outbox Stop;
      Thread.join thread;
      Mailbox.close inbox;
      Mailbox.close outbox;
      match addr with
      | Uds dir -> (
        try Unix.unlink (Filename.concat dir (Printf.sprintf "ep-%d.sock" id))
        with Unix.Unix_error _ -> ())
      | Tcp _ -> ()
    end
  in
  { t with Transport.send; recv; close }
