(* End-to-end networked CSM demo CLI:

     csm_run [-n N] [-k K] [-d D] [-b B] [--rounds R]
             [--network sync|partial] [--adversary none|lie|equivocate|withhold]
             [--trace] [--report] [--metrics] [--ticker]

   Runs the full protocol (consensus + coded execution + client
   delivery) on the simulator and prints a per-round report.  The same
   cluster over real frames (loopback threads, Unix or TCP sockets) is
   csm_cluster --transport.

   Observability: --trace writes a Chrome trace-event JSON (load in
   chrome://tracing or Perfetto) of the nested protocol/engine spans;
   --report writes a self-describing run-report JSON with the config,
   measured λ/γ/β, per-role operation totals, per-span p50/p95/max and
   the metrics registry; --metrics enables the per-node telemetry
   registry and prints a Prometheus text exposition to stdout (and to
   the CSM_METRICS path when set).  A live one-line ticker is shown on
   stderr while rounds run when stderr is a TTY (or CSM_TICKER=1).
   Paths default to csm_trace.json / csm_report.json and can be
   overridden with the CSM_TRACE / CSM_REPORT environment variables
   (setting CSM_TRACE / CSM_METRICS / CSM_EVENTS alone also enables the
   matching channel, flag or not). *)

open Cmdliner
module CF = Csm_field.Counted.Make (Csm_field.Fp.Default)
module P = Csm_core.Protocol.Make (CF)
module E = P.E
module M = E.M
module Params = Csm_core.Params
module Counter = Csm_metrics.Counter
module Ledger = Csm_metrics.Ledger
module Scope = Csm_metrics.Scope
module Span = Csm_obs.Span
module Summary = Csm_obs.Summary
module Exporter = Csm_obs.Exporter
module Json = Csm_obs.Json
module Metric = Csm_obs.Metric
module Tel = Csm_obs.Telemetry
module Prom = Csm_obs.Prom
module Event = Csm_obs.Event
module Strategy = Csm_core.Strategy

let network_name = function
  | Params.Sync -> "sync"
  | Params.Partial_sync -> "partial-sync"

(* --adversary names: the action every liar runs on every round. *)
let adversary_actions =
  [
    ("none", None);
    ("lie", Some (Strategy.Shift 1));
    ("equivocate", Some (Strategy.Equivocate { seed = 0xE9 }));
    ("withhold", Some (Strategy.Silence []));
  ]

let run_report ~n ~k ~d ~b ~rounds ~network ~adversary ~seed ~executed
    ~lambda ledger stats =
  let role_totals =
    List.map
      (fun role ->
        let a, m, i = Counter.snapshot (Ledger.counter ledger role) in
        ( role,
          Json.Obj
            [ ("adds", Json.Int a); ("muls", Json.Int m); ("invs", Json.Int i) ]
        ))
      (Ledger.roles ledger)
  in
  Json.Obj
    [
      ("schema", Json.Str "csm-run-report/2");
      ("host", Exporter.host ());
      ( "config",
        Json.Obj
          [
            ("n", Json.Int n);
            ("k", Json.Int k);
            ("d", Json.Int d);
            ("b", Json.Int b);
            ("rounds", Json.Int rounds);
            ("network", Json.Str (network_name network));
            ("adversary", Json.Str adversary);
            ("seed", Json.Int seed);
          ] );
      ( "results",
        Json.Obj
          [
            ("executed_rounds", Json.Int executed);
            ("lambda", Json.Float lambda);
            ("gamma", Json.Int k);
            ("beta", Json.Int b);
            ("total_ops", Json.Int (Ledger.grand_total ledger));
          ] );
      ("roles", Json.Obj role_totals);
      ("spans", Exporter.span_summary_json stats);
      ("metrics", Exporter.metrics_json ());
    ]

(* Live one-line progress ticker on stderr: round counter plus running
   executed/skip tallies, rewritten in place. *)
let make_ticker ~rounds =
  let executed = ref 0 and skipped = ref 0 and bad = ref 0 in
  let done_ = ref 0 in
  fun (o : P.round_outcome) ->
    incr done_;
    (match o.P.consensus with
    | P.Agreed _ -> if o.P.executed then incr executed else incr bad
    | P.Skipped -> incr skipped
    | P.Disagreement -> incr bad);
    Printf.eprintf "\r\027[Kround %d/%d  executed=%d skipped=%d failed=%d%!"
      !done_ rounds !executed !skipped !bad;
    if !done_ = rounds then prerr_newline ()

let want_ticker () =
  match Sys.getenv_opt "CSM_TICKER" with
  | Some ("0" | "off" | "false") -> false
  | Some _ -> true
  | None -> ( try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

let run n k d b rounds network adversary seed trace report metrics ticker
    serve =
  (* env-var-only activation (CSM_TRACE / CSM_EVENTS / CSM_METRICS
     without the flags) *)
  Exporter.install ();
  if trace || report then Span.enable ();
  if metrics || report then Metric.enable ();
  (* --serve: scrape this process's own registry while the run is in
     flight (runtime gauges refreshed per scrape) *)
  let server =
    match serve with
    | None -> None
    | Some port ->
      Metric.enable ();
      let s =
        try
          Csm_obs.Http.serve ~port (fun path ->
              match path with
              | "/metrics" ->
                Tel.sample_runtime ();
                Some (Csm_obs.Http.text (Prom.render ()))
              | "/healthz" ->
                Some (Csm_obs.Http.text ~content_type:"text/plain" "ok\n")
              | _ -> None)
        with Unix.Unix_error (e, _, _) ->
          Printf.eprintf "csm_run: --serve %d: %s\n" port
            (Unix.error_message e);
          exit 1
      in
      Format.printf "serve: http://127.0.0.1:%d/metrics@."
        (Csm_obs.Http.port s);
      Some s
  in
  let machine = M.degree_machine d in
  let params =
    try Params.make ~network ~n ~k ~d ~b
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 1
  in
  let rng = Csm_rng.create seed in
  let init =
    Array.init k (fun i -> [| CF.of_int (1000 * (i + 1)) |])
  in
  let engine = E.create ~machine ~params ~init in
  let cfg = P.default_config params in
  let liars = List.init b (fun i -> n - 1 - i) in
  let adv =
    match List.assoc adversary adversary_actions with
    | None -> Strategy.honest
    | Some act -> Strategy.uniform liars act
  in
  Format.printf "CSM: N=%d K=%d d=%d b=%d %s adversary=%s@." n k d b
    (network_name network) adversary;
  Format.printf "machine: %a@." M.pp machine;
  if liars <> [] && adversary <> "none" then
    Format.printf "byzantine nodes: %s@."
      (String.concat "," (List.map string_of_int liars));
  let workload r =
    Array.init k (fun m -> [| CF.of_int ((10 * r) + m + 1 + Csm_rng.int rng 5) |])
  in
  let ledger = Ledger.create () in
  let scope = Scope.of_ledger (module CF) ledger in
  let progress =
    if ticker || want_ticker () then Some (make_ticker ~rounds) else None
  in
  let outcomes =
    Span.with_ ~ops:scope.Scope.ops ~name:"csm_run" (fun () ->
        P.run ~scope ?progress cfg engine ~workload ~rounds adv)
  in
  List.iter
    (fun (o : P.round_outcome) ->
      Format.printf "round %d: consensus=%s executed=%b honest_agree=%b@."
        o.P.round
        (match o.P.consensus with
        | P.Agreed _ -> "agreed"
        | P.Skipped -> "skipped(⊥)"
        | P.Disagreement -> "DISAGREEMENT")
        o.P.executed o.P.honest_agree;
      (match o.P.decoded with
      | Some dec when dec.E.error_nodes <> [] ->
        Format.printf "  corrected errors from nodes: %s@."
          (String.concat "," (List.map string_of_int dec.E.error_nodes))
      | _ -> ());
      Array.iteri
        (fun m out ->
          match out with
          | Some y ->
            Format.printf "  machine %d output -> client: %s@." m
              (CF.to_string y.(0))
          | None -> Format.printf "  machine %d: no delivery@." m)
        o.P.delivered)
    outcomes;
  let executed =
    List.length (List.filter (fun o -> o.P.executed) outcomes)
  in
  Format.printf "summary: %d/%d rounds executed@." executed rounds;
  let lambda =
    if executed = 0 then 0.0
    else
      Ledger.throughput ~commands:(k * executed)
        ~node_costs:(Ledger.per_node_costs ledger ~n)
  in
  Format.printf "measured: λ=%.6f γ=%d β=%d (total ops %d)@." lambda k b
    (Ledger.grand_total ledger);
  (* paper-headline gauges, exported alongside the per-node signals *)
  Metric.set Tel.throughput_lambda lambda;
  Metric.set Tel.storage_gamma (float_of_int k);
  Metric.set Tel.security_beta (float_of_int b);
  (match Event.recent () with
  | [] -> ()
  | events ->
    Format.printf "events (%d total, %d kept):@." (Event.total ())
      (List.length events);
    List.iter (fun e -> Format.printf "  %a@." Event.pp e) events);
  if metrics then begin
    print_newline ();
    Prom.output stdout;
    match Prom.metrics_path () with
    | Some path ->
      Prom.write ~path;
      Format.printf "metrics: wrote %s@." path
    | None -> ()
  end;
  if Span.enabled () then begin
    let records = Span.records () in
    let stats = Summary.by_name records in
    Format.printf "spans:@.";
    List.iter (fun s -> Format.printf "  %a@." Summary.pp_stat s) stats;
    if trace then begin
      let path =
        match Exporter.trace_path () with Some p -> p | None -> "csm_trace.json"
      in
      Exporter.write_chrome_trace ~path records;
      Format.printf "trace: wrote %s (%d spans)@." path (List.length records)
    end;
    if report then begin
      let path =
        match Exporter.report_path () with
        | Some p -> p
        | None -> "csm_report.json"
      in
      Json.write ~path
        (run_report ~n ~k ~d ~b ~rounds ~network ~adversary ~seed ~executed
           ~lambda ledger stats);
      Format.printf "report: wrote %s@." path
    end
  end;
  Option.iter Csm_obs.Http.stop server

let () =
  let n = Arg.(value & opt int 11 & info [ "n" ] ~doc:"Nodes.") in
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"State machines.") in
  let d = Arg.(value & opt int 2 & info [ "d" ] ~doc:"Degree.") in
  let b = Arg.(value & opt int 2 & info [ "b" ] ~doc:"Byzantine nodes.") in
  let rounds = Arg.(value & opt int 5 & info [ "rounds" ] ~doc:"Rounds.") in
  let network =
    Arg.(
      value
      & opt (enum [ ("sync", Params.Sync); ("partial", Params.Partial_sync) ])
          Params.Sync
      & info [ "network" ] ~doc:"sync|partial.")
  in
  let adversary =
    Arg.(
      value
      & opt (enum (List.map (fun (name, _) -> (name, name)) adversary_actions))
          "lie"
      & info [ "adversary" ] ~doc:"none|lie|equivocate|withhold.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Write a Chrome trace-event JSON of the run's spans \
             ($(b,CSM_TRACE) overrides the csm_trace.json default path).")
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:
            "Write a structured run-report JSON ($(b,CSM_REPORT) overrides \
             the csm_report.json default path).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Enable the telemetry registry and print a Prometheus text \
             exposition to stdout ($(b,CSM_METRICS) also writes it to that \
             path).")
  in
  let ticker =
    Arg.(
      value & flag
      & info [ "ticker" ]
          ~doc:
            "Force the live per-round progress ticker on stderr (on by \
             default when stderr is a terminal; $(b,CSM_TICKER)=0 disables).")
  in
  let serve =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve" ]
          ~doc:
            "Serve this process's metric registry over HTTP on \
             127.0.0.1:PORT while the run is in flight ($(b,/metrics) \
             Prometheus exposition with csm_gc_*/process gauges refreshed \
             per scrape, $(b,/healthz)); 0 picks an ephemeral port.  \
             Implies $(b,--metrics) registry activation.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "csm_run" ~doc:"Run the networked Coded State Machine")
      Term.(
        const run $ n $ k $ d $ b $ rounds $ network $ adversary $ seed
        $ trace $ report $ metrics $ ticker $ serve)
  in
  exit (Cmd.eval cmd)
