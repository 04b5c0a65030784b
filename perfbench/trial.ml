(* One trial of the cluster benchmark, as one JSON line on stdout:

     trial.exe --workload NAME --seed N [--trace 0|1] [--rounds R]
     trial.exe --workload NAME --describe

   Runs the workload's fixed number of rounds on a fresh cluster (one
   trial per process, so every trial starts from a cold heap and its
   peak RSS is its own), checks each accepted round against
   [Cluster.reference_ledger], and reports the raw samples run.py
   aggregates.  [--trace 1] adds the per-layer split.  [--rounds R]
   overrides the workload's round count (R = 1: a set-up sample only).
   [--describe] prints the workload's parameters and the build's OCaml
   version and word size instead of running.

   Exit status: 0 when every round was accepted and byte-equal to the
   reference (and, traced, the per-node time identity held), 1
   otherwise, 2 on usage errors. *)

module B = Perfbench.Bench_cluster
module Json = Csm_obs.Json

let usage () =
  prerr_endline
    "usage: trial.exe --workload NAME (--seed N [--trace 0|1] [--rounds R] | --describe)";
  exit 2

let params (wl : B.workload) =
  Json.Obj
    [
      ("transport", Json.Str (match wl.B.mode with B.Loop -> "loopback" | B.Sock -> "socket"));
      ("n", Json.Int wl.B.n);
      ("k", Json.Int wl.B.k);
      ("d", Json.Int wl.B.d);
      ("b", Json.Int wl.B.b);
      ( "faults",
        Json.Obj
          (List.map (fun (i, f) -> (string_of_int i, Json.Str (B.Node.fault_name f))) wl.B.faults) );
      ("rounds_per_trial", Json.Int wl.B.rounds);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("word_size", Json.Int Sys.word_size);
    ]

let () =
  let describe = ref false and rounds = ref None in
  let workload = ref None and seed = ref None and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := B.find w;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      if !seed = None then usage ();
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--rounds" :: r :: rest ->
      rounds := int_of_string_opt r;
      if not (Option.fold ~none:false ~some:(fun r -> r >= 1) !rounds) then usage ();
      parse rest
    | "--describe" :: rest ->
      describe := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wl, seed =
    match (!workload, !seed, !describe) with
    | Some w, _, true ->
      print_endline (Json.to_string (params w));
      exit 0
    | Some w, Some s, false -> (w, s)
    | _ -> usage ()
  in
  let t = B.run ?rounds:!rounds wl ~seed ~traced:!trace in
  let floats l = Json.List (List.map (fun x -> Json.Float x) l) in
  let violations = if !trace then B.identity_violations t else [] in
  let failed = B.failed_rounds t in
  let layers =
    if !trace then
      Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) (B.layer_metrics t))
    else Json.Null
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str wl.B.name);
            ("seed", Json.Int seed);
            ("k", Json.Int wl.B.k);
            ("rounds", Json.Int t.B.rounds);
            ("failed", Json.Int (List.length failed));
            ("mismatched", Json.Int (List.length (B.mismatched_rounds t)));
            ("timed_s", Json.Float (B.timed_seconds t));
            ("timed_accepted", Json.Int (B.timed_accepted t));
            (* failed rounds are left out here and added back by the
               aggregator as misses ([infinity] has no JSON form) *)
            ("latency_ms", floats (List.filter Float.is_finite (B.latencies_ms t)));
            ("setup_s", Json.Float t.B.setup_s);
            ("cpu_s", Json.Float t.B.cpu_s);
            ("peak_rss_mb", Json.Float (float_of_int t.B.peak_rss_kb /. 1024.0));
            ("identity_violations", Json.List (List.map (fun i -> Json.Int i) violations));
            ("layers", layers);
          ]));
  exit (if failed = [] && violations = [] then 0 else 1)
