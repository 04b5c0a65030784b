(* Self-tests of the cluster benchmark.

   Faithfulness: on a short run of each workload's config at one seed,
   the bench client must yield the same ledger, Output counts and
   per-endpoint transport counters as [Cluster.Make(F).run] — so the
   benchmark measures the runtime csm_cluster runs.  Each run happens in
   a forked child: socket mode forks the nodes, which is only safe from
   a process that has started no thread or domain yet.

   Tracing: a traced trial of each workload must still accept every
   round byte-equal to the reference and keep every node's
   recv + send + self time identity. *)

module B = Perfbench.Bench_cluster
module Transport = Csm_transport.Transport

let rounds = 6
let seed = 7
let dir = "perfbench-test-sock"

(* Run [f] in a forked child and return its result. *)
let in_child (f : unit -> 'a) : 'a =
  let path = Printf.sprintf "perfbench-test-%d.bin" (Unix.getpid ()) in
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let v = f () in
        Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v []);
        0
      with e ->
        prerr_endline (Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    let _, status = Unix.waitpid [] pid in
    if status <> Unix.WEXITED 0 then Alcotest.fail "child run failed";
    let v = In_channel.with_open_bin path (fun ic -> Marshal.from_channel ic) in
    Sys.remove path;
    v

type observed = {
  ledger : string option array;
  outputs_received : int array;
  stats : Transport.stats option array;
}

let bench_run wl =
  in_child (fun () ->
      let t = B.run ~dir ~rounds wl ~seed ~traced:false in
      {
        ledger = t.B.out.B.ledger;
        outputs_received = t.B.out.B.outputs_received;
        stats = t.B.out.B.stats;
      })

let cluster_run wl =
  in_child (fun () ->
      (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      (* one domain, as the bench's own reference run (see Bench_cluster.run) *)
      Csm_parallel.Pool.set_domains 1;
      let r = B.C.run (B.cluster_config ~dir wl ~seed ~rounds) in
      if not r.B.C.ok then failwith "cluster run not verified";
      { ledger = r.B.C.ledger; outputs_received = r.B.C.outputs_received; stats = r.B.C.stats })

let stats_str = function
  | None -> "none"
  | Some (s : Transport.stats) ->
    Printf.sprintf "sent %d/%dB recv %d/%dB err %d" s.Transport.frames_sent
      s.Transport.bytes_sent s.Transport.frames_received s.Transport.bytes_received
      s.Transport.frame_errors

(* A node's Stats reply can be lost on the socket path: [Socket.close]
   returns once the sender queues are empty, which can be while the last
   frame is still being written.  Such a pair of runs is retried; a
   real divergence is not intermittent. *)
let lost_stats o = Array.exists Option.is_none o.stats

let faithful (wl : B.workload) () =
  let rec pair attempts =
    let b = bench_run wl and c = cluster_run wl in
    if (lost_stats b || lost_stats c) && attempts > 1 then pair (attempts - 1)
    else (b, c)
  in
  let b, c = pair 3 in
  Alcotest.(check (array (option string))) "ledger" c.ledger b.ledger;
  Alcotest.(check (array int)) "outputs_received" c.outputs_received b.outputs_received;
  Alcotest.(check (array string))
    "per-endpoint frame and byte counts"
    (Array.map stats_str c.stats) (Array.map stats_str b.stats)

let traced (wl : B.workload) () =
  let failed, violations, layers =
    in_child (fun () ->
        let t = B.run ~dir ~rounds wl ~seed ~traced:true in
        (B.failed_rounds t, B.identity_violations t, B.layer_metrics t))
  in
  Alcotest.(check (list int)) "failed rounds" [] failed;
  Alcotest.(check (list int)) "nodes breaking recv+send+self = wall" [] violations;
  List.iter
    (fun (name, v) ->
      if Float.is_nan v then Alcotest.failf "%s is not a number" name)
    layers

let () =
  Alcotest.run "perfbench"
    [
      ( "faithful",
        List.map
          (fun (wl : B.workload) -> Alcotest.test_case wl.B.name `Quick (faithful wl))
          B.workloads );
      ( "traced",
        List.map
          (fun (wl : B.workload) -> Alcotest.test_case wl.B.name `Quick (traced wl))
          B.workloads );
    ]
