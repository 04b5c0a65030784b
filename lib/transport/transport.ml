(* The transport abstraction: what a CSM node runtime needs from the
   network, as a record of closures so in-process loopback and real
   sockets are interchangeable at runtime (the cluster driver picks one
   from a CLI flag).

   Contract shared by every implementation:

   - [send] hands a frame to the transport and returns immediately; it
     never blocks on a dead, slow or silent peer (per-peer queues, so a
     Byzantine peer cannot stall a round from the sender side);
   - [recv] blocks until a frame is delivered or [timeout] seconds
     pass; [None] means the deadline passed — the receiver-side guard
     against silent peers.  Waiting costs no CPU: every endpoint waits
     on one {!Mailbox};
   - a frame that fails header validation is counted in
     [stats.frame_errors] and dropped, never surfaced as an exception;
   - [stats] counts frames/bytes at the moment of hand-off to the
     transport ([send]) and of delivery to the endpoint's queue, so
     loopback and socket runs of the same protocol produce identical
     counts. *)

module Frame = Csm_wire.Frame
module Lockdep = Csm_parallel.Lockdep

type stats = {
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable frame_errors : int;
}

let zero_stats () =
  {
    frames_sent = 0;
    frames_received = 0;
    bytes_sent = 0;
    bytes_received = 0;
    frame_errors = 0;
  }

type t = {
  id : int;  (* this endpoint's id; frames it sends carry it as sender *)
  endpoints : int;  (* valid destination ids are 0 .. endpoints-1 *)
  send : dst:int -> Frame.t -> unit;
  recv : timeout:float -> Frame.t option;
  close : unit -> unit;
  stats : stats;
  stats_mutex : Lockdep.t;
}

let locked t f = Lockdep.with_lock t.stats_mutex f

let record_sent t bytes =
  locked t (fun () ->
      t.stats.frames_sent <- t.stats.frames_sent + 1;
      t.stats.bytes_sent <- t.stats.bytes_sent + bytes)

let record_received t bytes =
  locked t (fun () ->
      t.stats.frames_received <- t.stats.frames_received + 1;
      t.stats.bytes_received <- t.stats.bytes_received + bytes)

let record_error t =
  locked t (fun () -> t.stats.frame_errors <- t.stats.frame_errors + 1)

(* A blocking FIFO between threads: a queue under a lock, plus a wake
   pipe holding one byte exactly while the queue is non-empty (both
   changed under the lock).  Waiters select on the pipe, so a burst of
   pushes costs one wakeup and an idle wait no CPU. *)
module Mailbox = struct
  type 'a t = {
    q : 'a Queue.t;
    m : Lockdep.t;
    pipe : Unix.file_descr * Unix.file_descr;  (* read end, write end *)
    byte : Bytes.t;
    mutable closed : bool;
  }

  let create name =
    {
      q = Queue.create ();
      m = Lockdep.create name;
      pipe = Unix.pipe ~cloexec:true ();
      byte = Bytes.make 1 '!';
      closed = false;
    }

  let wake_fd t = fst t.pipe
  let closed t = Lockdep.with_lock t.m (fun () -> t.closed)

  let push t x =
    Lockdep.with_lock t.m (fun () ->
        if not t.closed then begin
          if Queue.is_empty t.q then ignore (Unix.write (snd t.pipe) t.byte 0 1);
          Queue.push x t.q
        end)

  let try_pop t =
    Lockdep.with_lock t.m (fun () ->
        if t.closed || Queue.is_empty t.q then None
        else begin
          let x = Queue.pop t.q in
          if Queue.is_empty t.q then ignore (Unix.read (fst t.pipe) t.byte 0 1);
          Some x
        end)

  let rec pop t ~deadline =
    match try_pop t with
    | Some _ as x -> x
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 || closed t then None
      else begin
        (* EINTR, or EBADF from a concurrent close: look again *)
        (try ignore (Unix.select [ fst t.pipe ] [] [] left)
         with Unix.Unix_error _ -> ());
        pop t ~deadline
      end

  let close t =
    Lockdep.with_lock t.m (fun () ->
        if not t.closed then begin
          t.closed <- true;
          Queue.clear t.q;
          Unix.close (fst t.pipe);
          Unix.close (snd t.pipe)
        end)
end

let snapshot t =
  locked t (fun () ->
      {
        frames_sent = t.stats.frames_sent;
        frames_received = t.stats.frames_received;
        bytes_sent = t.stats.bytes_sent;
        bytes_received = t.stats.bytes_received;
        frame_errors = t.stats.frame_errors;
      })
