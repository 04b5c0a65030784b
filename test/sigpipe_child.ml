(* Child process of the transport suite's SIGPIPE test: endpoint 0
   keeps sending to endpoint 1 after 1 has closed, then closes itself.
   Usage: sigpipe_child.exe DIR (DIR holds the Unix-domain sockets).
   Exits 0 when the failed writes take the reconnect-then-drop path; a
   process that does not ignore SIGPIPE dies of signal 13 instead. *)

module Frame = Csm_wire.Frame
module Socket = Csm_transport.Socket
module Transport = Csm_transport.Transport

let () =
  let addr = Socket.Uds Sys.argv.(1) in
  let sender = Socket.endpoint ~addr ~id:0 ~endpoints:2 in
  let receiver = Socket.endpoint ~addr ~id:1 ~endpoints:2 in
  let frame round = Frame.make ~kind:Frame.Commit ~sender:0 ~round "x" in
  sender.Transport.send ~dst:1 (frame 0);
  ignore (receiver.Transport.recv ~timeout:5.0);
  receiver.Transport.close ();
  for round = 1 to 200 do
    sender.Transport.send ~dst:1 (frame round)
  done;
  sender.Transport.close ()
