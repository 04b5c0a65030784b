(** Real socket transport (Unix-domain or TCP loopback): one listening
    socket per endpoint, length-prefixed {!Csm_wire.Frame} frames on the
    byte stream, and one I/O thread per endpoint that [select]s over
    the listener, the connections and the peers with queued frames.
    Sockets are non-blocking; outbound links connect lazily with
    exponential backoff; every inbound header is validated before its
    body is allocated, and malformed frames are counted instead of
    crashing.  SIGPIPE is ignored once an endpoint exists. *)

type addr =
  | Uds of string
      (** Directory holding one [ep-<id>.sock] Unix-domain socket per
          endpoint. *)
  | Tcp of int
      (** Base port on 127.0.0.1; endpoint [i] listens on [base + i]. *)

val sockaddr_of : addr -> int -> Unix.sockaddr
(** The listening address of endpoint [id] under [addr]. *)

val endpoint : addr:addr -> id:int -> endpoints:int -> Transport.t
(** Create endpoint [id] of a cluster of [endpoints]: binds and listens
    immediately (so peers can connect as soon as they come up), connects
    outbound lazily on first [send] to each destination. *)
