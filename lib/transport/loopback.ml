(* In-process loopback transport: per-endpoint mailboxes of *encoded*
   frames.  Bit-compatible with the socket path — every frame goes
   through [Frame.encode] on send and [Frame.decode] on receive, so
   byte counts, size limits and corruption detection behave exactly as
   over a real socket — while delivery is immediate and in send order,
   which keeps single-process cluster tests deterministic and fast.

   Endpoints may live on different threads of one process (the cluster
   driver runs one node per thread); each endpoint's [recv] blocks on
   its {!Transport.Mailbox} until a sender wakes it or the deadline
   passes.

   Counting: received frames/bytes are recorded at delivery into the
   destination mailbox (send time), mirroring the socket transport's
   intake on its I/O thread — so both transports report identical
   counts for the same protocol run. *)

module Frame = Csm_wire.Frame
module Lockdep = Csm_parallel.Lockdep
module Mailbox = Transport.Mailbox

type slot = {
  box : string Mailbox.t;
  stats : Transport.stats;
  sm : Lockdep.t;
}

type net = { slots : slot array }

let create ~endpoints =
  if endpoints < 1 then invalid_arg "Loopback.create: endpoints >= 1";
  {
    slots =
      Array.init endpoints (fun _ ->
          {
            box = Mailbox.create "loopback.mailbox";
            stats = Transport.zero_stats ();
            sm = Lockdep.create "loopback.stats";
          });
  }

let endpoint net ~id =
  let endpoints = Array.length net.slots in
  if id < 0 || id >= endpoints then invalid_arg "Loopback.endpoint: bad id";
  let me = net.slots.(id) in
  let t =
    {
      Transport.id;
      endpoints;
      send = (fun ~dst:_ _ -> ());  (* replaced below *)
      recv = (fun ~timeout:_ -> None);
      close = (fun () -> Mailbox.close me.box);
      stats = me.stats;
      stats_mutex = me.sm;
    }
  in
  let send ~dst frame =
    if (not (Mailbox.closed me.box)) && dst >= 0 && dst < endpoints then begin
      let bytes = Frame.encode frame in
      let len = String.length bytes in
      Transport.record_sent t len;
      let peer = net.slots.(dst) in
      Lockdep.with_lock peer.sm (fun () ->
          peer.stats.frames_received <- peer.stats.frames_received + 1;
          peer.stats.bytes_received <- peer.stats.bytes_received + len);
      Mailbox.push peer.box bytes
    end
  in
  let recv ~timeout =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec loop () =
      match Mailbox.pop me.box ~deadline with
      | None -> None
      | Some bytes -> (
        match Frame.decode bytes with
        | Some _ as fr -> fr
        | None ->
          Transport.record_error t;
          loop ())
    in
    loop ()
  in
  { t with Transport.send; recv }
