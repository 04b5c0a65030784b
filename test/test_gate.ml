(* The bench-gate rule interpreter (lib/obs/gate.ml): table-driven
   semantics of each rule kind and path form, baseline validation, and a
   liveness sweep over every committed baseline — each rule, violated
   alone in a copy of its committed report, must be the one and only
   failure, so no limit was dropped when the baselines became rule
   lists. *)

module Json = Csm_obs.Json
module Gate = Csm_obs.Gate

let rule path kind value = { Gate.path; kind; value; why = "" }
let baseline rules = { Gate.make = "test"; rules }

let report =
  Json.parse
    {|{"b": true, "i": 5, "f": 2.5, "s": "x", "nested": {"n": 3},
       "runs": [{"ok": true, "v": 1}, {"ok": false, "v": 2}],
       "empty": [], "obj": {"a": 1}}|}

(* (path, kind, value, expected ok of each resulting check) *)
let cases =
  Gate.
    [
      ("b", Exact, Json.Bool true, [ true ]);
      ("b", Exact, Json.Bool false, [ false ]);
      ("i", Exact, Json.Int 5, [ true ]);
      ("i", Exact, Json.Float 5.0, [ true ]);
      ("i", Exact, Json.Int 6, [ false ]);
      ("i", Min, Json.Int 5, [ true ]);
      ("i", Min, Json.Int 6, [ false ]);
      ("i", Max, Json.Int 5, [ true ]);
      ("i", Max, Json.Float 4.9, [ false ]);
      ("f", Min, Json.Float 2.5, [ true ]);
      ("f", Max, Json.Int 2, [ false ]);
      ("s", Exact, Json.Str "x", [ true ]);
      ("s", Exact, Json.Str "y", [ false ]);
      ("nested.n", Exact, Json.Int 3, [ true ]);
      (* type mismatches fail *)
      ("s", Exact, Json.Int 1, [ false ]);
      ("b", Exact, Json.Int 1, [ false ]);
      ("i", Exact, Json.Bool true, [ false ]);
      ("i", Exact, Json.Str "5", [ false ]);
      ("s", Min, Json.Int 0, [ false ]);
      ("b", Max, Json.Int 1, [ false ]);
      ("nested", Exact, Json.Int 3, [ false ]);
      ("runs", Min, Json.Int 0, [ false ]);
      (* missing paths fail *)
      ("nope", Exact, Json.Bool true, [ false ]);
      ("nested.nope", Min, Json.Int 0, [ false ]);
      ("i.x", Max, Json.Int 9, [ false ]);
      (* "*": one check per element; empty lists and non-lists fail *)
      ("runs.*.v", Min, Json.Int 1, [ true; true ]);
      ("runs.*.ok", Exact, Json.Bool true, [ true; false ]);
      ("runs.*.nope", Exact, Json.Bool true, [ false; false ]);
      ("empty.*.ok", Exact, Json.Bool true, [ false ]);
      ("obj.*", Min, Json.Int 0, [ false ]);
      ("i.*", Min, Json.Int 0, [ false ]);
      (* "#": the list's length; non-lists fail *)
      ("runs.#", Exact, Json.Int 2, [ true ]);
      ("empty.#", Exact, Json.Int 0, [ true ]);
      ("runs.#", Max, Json.Int 1, [ false ]);
      ("obj.#", Min, Json.Int 0, [ false ]);
      ("nope.#", Min, Json.Int 0, [ false ]);
    ]

let table () =
  List.iter
    (fun (path, kind, value, want) ->
      let r = rule path kind value in
      let checks = Gate.eval (baseline [ r ]) report in
      let name = Printf.sprintf "%s %s %s" path (Gate.kind_name kind)
          (Json.to_string value) in
      Alcotest.(check (list bool)) name want
        (List.map (fun c -> c.Gate.ok) checks);
      Alcotest.(check int) (name ^ ": failed rules")
        (if List.for_all Fun.id want then 0 else 1)
        (List.length (Gate.failed (baseline [ r ]) checks)))
    cases

let concrete_paths () =
  let at path = List.map fst (Gate.resolve path report) in
  Alcotest.(check (list string)) "star" [ "runs.0.ok"; "runs.1.ok" ]
    (at "runs.*.ok");
  Alcotest.(check (list string)) "hash" [ "runs.#" ] (at "runs.#");
  Alcotest.(check (list string)) "missing" [ "nested.nope.deeper" ]
    (at "nested.nope.deeper");
  Alcotest.(check bool) "missing value" true
    (Option.is_none (snd (List.hd (Gate.resolve "nope" report))))

let malformed () =
  let rejects name doc =
    match Gate.baseline_of_json (Json.parse doc) with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Gate.Malformed _ -> ()
  in
  let with_rule r =
    Printf.sprintf {|{"schema": "csm-gate/1", "make": "m", "rules": [%s]}|} r
  in
  rejects "wrong schema" {|{"schema": "other/1", "make": "m", "rules": []}|};
  rejects "no make" {|{"schema": "csm-gate/1", "rules": []}|};
  rejects "no rules" {|{"schema": "csm-gate/1", "make": "m"}|};
  rejects "no path" (with_rule {|{"kind": "min", "value": 1}|});
  List.iter
    (fun (name, r) -> rejects name (with_rule r))
    [
      ("empty segment", {|{"path": "a..b", "kind": "min", "value": 1}|});
      ("bad kind", {|{"path": "a", "kind": "approx", "value": 1}|});
      ("string min", {|{"path": "a", "kind": "min", "value": "1"}|});
      ("list exact", {|{"path": "a", "kind": "exact", "value": []}|});
      ("no value", {|{"path": "a", "kind": "exact"}|});
    ];
  let b =
    Gate.baseline_of_json
      (Json.parse
         (with_rule
            {|{"path": "a.*.b", "kind": "exact", "value": "v", "why": "w"}|}))
  in
  Alcotest.(check string) "make" "m" b.Gate.make;
  match b.Gate.rules with
  | [ { path = "a.*.b"; kind = Exact; value = Json.Str "v"; why = "w" } ] -> ()
  | _ -> Alcotest.fail "rule not parsed as written"

(* ----- liveness sweep over the committed baselines ----- *)

(* A value at the rule's path that violates it. *)
let violating (r : Gate.rule) =
  match (r.kind, r.value) with
  | Gate.Exact, Json.Bool b -> Json.Bool (not b)
  | Gate.Exact, Json.Str s -> Json.Str (s ^ "-changed")
  | (Gate.Exact | Gate.Max), Json.Int i -> Json.Int (i + 1)
  | (Gate.Exact | Gate.Max), Json.Float f -> Json.Float (f +. 1.0)
  | Gate.Min, Json.Int i -> Json.Int (i - 1)
  | Gate.Min, Json.Float f -> Json.Float (f -. 1.0)
  | _ -> Alcotest.failf "%s: unexpected rule value" r.path

(* [j] with the value at [segs] replaced by [v]; "*" changes the first
   element only, "#" resizes the list (dropping elements, or repeating
   the last one). *)
let rec set_at segs v j =
  match (segs, j, v) with
  | [], _, _ -> v
  | [ "#" ], Json.List l, Json.Int n ->
    let last = List.nth l (List.length l - 1) in
    Json.List
      (List.init n (fun i -> Option.value (List.nth_opt l i) ~default:last))
  | "*" :: rest, Json.List (x :: xs), _ -> Json.List (set_at rest v x :: xs)
  | seg :: rest, Json.Obj fields, _ when List.mem_assoc seg fields ->
    Json.Obj
      (List.map
         (fun (k, x) ->
           if String.equal k seg then (k, set_at rest v x) else (k, x))
         fields)
  | seg :: _, _, _ -> Alcotest.failf "segment %s not in the report" seg

let lint_report =
  Json.parse
    {|{"schema": "csm-bench-lint/1", "files_scanned": 150, "taint": true,
       "findings": 0, "baselined": 3, "lock_edges": 12, "wall_s": 4.5}|}

let committed =
  [
    ("baseline.json", `File "BENCH_parallel.json");
    ("rs_baseline.json", `File "BENCH_rs.json");
    ("obs_baseline.json", `File "BENCH_obs.json");
    ("live_baseline.json", `File "BENCH_live.json");
    ("adversary_baseline.json", `File "BENCH_adversary.json");
    ("lint_baseline.json", `Json lint_report);
  ]

let rule_name (r : Gate.rule) = r.path ^ " " ^ Gate.kind_name r.kind

let liveness () =
  List.iter
    (fun (base_file, rep) ->
      let base =
        Gate.baseline_of_json
          (Json.parse_file (Filename.concat "../bench" base_file))
      in
      let report =
        match rep with
        | `File f -> Json.parse_file (Filename.concat ".." f)
        | `Json j -> j
      in
      let failing rep =
        List.map rule_name (Gate.failed base (Gate.eval base rep))
      in
      Alcotest.(check (list string))
        (base_file ^ ": committed report passes")
        [] (failing report);
      Alcotest.(check bool) (base_file ^ ": pins the schema") true
        (List.exists
           (fun (r : Gate.rule) -> String.equal r.path "schema")
           base.rules);
      List.iter
        (fun (r : Gate.rule) ->
          let broken =
            set_at (String.split_on_char '.' r.path) (violating r) report
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s: violating %s" base_file (rule_name r))
            [ rule_name r ] (failing broken))
        base.rules)
    committed

let suites =
  [
    ( "gate",
      [
        Alcotest.test_case "rule kinds, paths, mismatches" `Quick table;
        Alcotest.test_case "concrete paths" `Quick concrete_paths;
        Alcotest.test_case "malformed baselines rejected" `Quick malformed;
        Alcotest.test_case "every committed rule can fail alone" `Quick
          liveness;
      ] );
  ]
