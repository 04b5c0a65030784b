(* Bench regression gate:

     bench_gate --current REPORT.json --baseline bench/X_baseline.json
                [--previous OLD_REPORT.json]

   One generic interpreter (Csm_obs.Gate) checks a JSON report against
   a committed baseline, a rule list:

     {"schema": "csm-gate/1", "make": "<target>", "comment": "...",
      "rules": [{"path": "a.b", "kind": "exact", "value": true,
                 "why": "..."}, ...]}

   - path: dot-separated member names; a "*" segment checks every
     element of a list (an empty list or a non-list fails), a "#"
     segment is the list's length ("runs.#" exact 3, "runs.*.ok" exact
     true).  A path missing from the report fails its rule.
   - kind: "exact" compares any JSON scalar (numbers by value, 3 = 3.0);
     "min" and "max" are inclusive limits on a number.
   - Every baseline pins "schema" exactly, so a report of the wrong
     kind is refused; "make" names the target that regenerates the
     report when it cannot be read.

   Wall-clock timings are not gated (they measure the host; same-process
   ratios are fine).  --previous prints each rule's value in an earlier
   report, informationally.  Exit codes: 0 ok, 1 regression, 2
   usage/IO/parse error or a malformed baseline. *)

open Cmdliner
module Json = Csm_obs.Json
module Gate = Csm_obs.Gate

let fail_usage fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let load ?(hint = "") path =
  try Json.parse_file path with
  | Sys_error m -> fail_usage "bench_gate: %s%s" m hint
  | Json.Parse_error m -> fail_usage "bench_gate: %s: %s%s" path m hint

let show = function Some v -> Json.to_string v | None -> "missing"
let rule_name r = r.Gate.path ^ " " ^ Gate.kind_name r.Gate.kind

let run current baseline previous =
  let base =
    try Gate.baseline_of_json (load baseline)
    with Gate.Malformed m -> fail_usage "bench_gate: %s: %s" baseline m
  in
  let hint = Printf.sprintf " (regenerate it with `make %s`)" base.make in
  let checks = Gate.eval base (load ~hint current) in
  List.iter
    (fun { Gate.rule = r; at; actual; ok } ->
      Printf.printf "%-5s %-34s current=%s %s=%s%s\n"
        (if ok then "ok" else "FAIL")
        at (show actual) (Gate.kind_name r.kind) (Json.to_string r.value)
        (if String.equal r.why "" then "" else "  (" ^ r.why ^ ")"))
    checks;
  (match previous with
  | None -> ()
  | Some path when not (Sys.file_exists path) ->
    Printf.printf "note  previous report %s not found (first run?)\n" path
  | Some path ->
    let prev = load path in
    List.iter
      (fun (r : Gate.rule) ->
        let vals = List.map (fun (_, v) -> show v) (Gate.resolve r.path prev) in
        Printf.printf "note  %-34s previous=%s\n" (rule_name r)
          (String.concat "," vals))
      base.rules);
  match Gate.failed base checks with
  | [] ->
    Printf.printf "bench_gate: all %d checks passed\n" (List.length checks);
    0
  | bad ->
    Printf.printf "bench_gate: REGRESSION: %s\n"
      (String.concat ", " (List.map rule_name bad));
    1

let () =
  let file name doc =
    Arg.(opt (some string) None (info [ name ] ~docv:"FILE" ~doc))
  in
  let current = Arg.required (file "current" "Report to gate.") in
  let baseline = Arg.required (file "baseline" "Committed csm-gate/1 rules.") in
  let previous = Arg.value (file "previous" "Earlier report, per rule.") in
  let term = Term.(const run $ current $ baseline $ previous) in
  let info = Cmd.info "bench_gate" ~doc:"Gate a bench report on a rule list" in
  exit (Cmd.eval' (Cmd.v info term))
