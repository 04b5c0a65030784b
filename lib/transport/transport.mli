(** The transport abstraction of the node runtime: non-blocking [send],
    a [recv] that blocks until a frame arrives or its deadline passes,
    totals counted identically by every
    implementation (loopback and sockets are interchangeable and
    bit-compatible on the wire).

    Invariants every implementation provides:
    - [send] never blocks on a dead/slow/silent peer;
    - [recv ~timeout] blocks until a frame arrives, without polling,
      and returns [None] once the deadline passes;
    - malformed frames are counted in [stats.frame_errors] and dropped,
      never raised. *)

module Frame = Csm_wire.Frame
module Lockdep = Csm_parallel.Lockdep

type stats = {
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable bytes_sent : int;  (** full frame bytes, header included *)
  mutable bytes_received : int;
  mutable frame_errors : int;  (** malformed frames detected and dropped *)
}

val zero_stats : unit -> stats

type t = {
  id : int;
  endpoints : int;
  send : dst:int -> Frame.t -> unit;
  recv : timeout:float -> Frame.t option;
  close : unit -> unit;
  stats : stats;
  stats_mutex : Lockdep.t;
      (** checked lock ({!Csm_parallel.Lockdep}): CSM_LOCKDEP=1 folds
          stats acquisitions into the global lock-order graph *)
}

val record_sent : t -> int -> unit
val record_received : t -> int -> unit
val record_error : t -> unit

val snapshot : t -> stats
(** Consistent copy of the counters (the socket transport updates them
    from its I/O thread). *)

(** The one wait every endpoint uses: a FIFO under a lock plus a wake
    pipe holding one byte exactly while the FIFO is non-empty, so a
    waiter blocks in [select] and a burst of pushes costs one wakeup. *)
module Mailbox : sig
  type 'a t

  val create : string -> 'a t
  (** The name labels the lock. *)

  val push : 'a t -> 'a -> unit
  (** Dropped once closed. *)

  val try_pop : 'a t -> 'a option

  val pop : 'a t -> deadline:float -> 'a option
  (** Blocks until an item arrives; [None] once the absolute [deadline]
      passes or the mailbox is closed. *)

  val wake_fd : 'a t -> Unix.file_descr
  (** Readable exactly while an item is queued. *)

  val closed : 'a t -> bool

  val close : 'a t -> unit
  (** Releases the pipe under the lock, so a late [push] never writes
      to a closed or reused descriptor. *)
end
