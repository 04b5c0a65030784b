(* csm-adversary-trace/1: canonical, seed-embedded counterexamples.
   Emission order is fixed so equal traces have equal bytes — the
   committed fixtures are compared byte-for-byte on replay. *)

module Json = Csm_obs.Json
module Strategy = Csm_core.Strategy

let schema = "csm-adversary-trace/1"

type provenance = {
  schedule : Search.schedule;
  budget : int;
  seed : int;
  candidates : int;
  shrink_steps : int;
}

type t = {
  bound : Oracle.bound;
  instance : Oracle.instance;
  strategy : Strategy.t;
  kind : Oracle.violation_kind;
  detail : string;
  search : provenance;
}

let instance_to_json (i : Oracle.instance) =
  Json.Obj
    [
      ("n", Json.Int i.Oracle.n);
      ("k", Json.Int i.Oracle.k);
      ("d", Json.Int i.Oracle.d);
      ("b", Json.Int i.Oracle.b);
      ("rounds", Json.Int i.Oracle.rounds);
      ("seed", Json.Int i.Oracle.seed);
    ]

let ( let* ) r f = Result.bind r f

let int_field j key =
  match Option.bind (Json.member key j) Json.to_int_opt with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing integer field %S" key)

let str_field j key =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" key)

let obj_field j key =
  match Json.member key j with
  | Some o -> Ok o
  | None -> Error (Printf.sprintf "missing field %S" key)

let instance_of_json j =
  let* n = int_field j "n" in
  let* k = int_field j "k" in
  let* d = int_field j "d" in
  let* b = int_field j "b" in
  let* rounds = int_field j "rounds" in
  let* seed = int_field j "seed" in
  Ok { Oracle.n; k; d; b; rounds; seed }

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("bound", Json.Str (Oracle.bound_name t.bound));
      ("inequality", Json.Str (Oracle.bound_inequality t.bound));
      ("instance", instance_to_json t.instance);
      ("strategy", Strategy.to_json t.strategy);
      ( "violation",
        Json.Obj
          [
            ("kind", Json.Str (Oracle.violation_kind_name t.kind));
            ("detail", Json.Str t.detail);
          ] );
      ( "search",
        Json.Obj
          [
            ("schedule", Json.Str (Search.schedule_name t.search.schedule));
            ("budget", Json.Int t.search.budget);
            ("seed", Json.Int t.search.seed);
            ("candidates", Json.Int t.search.candidates);
            ("shrink_steps", Json.Int t.search.shrink_steps);
          ] );
    ]

let of_json j =
  let* s = str_field j "schema" in
  if not (String.equal s schema) then
    Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
  else
    let* bound = Result.bind (str_field j "bound") Oracle.bound_of_name in
    let* instance = Result.bind (obj_field j "instance") instance_of_json in
    let* strategy = Result.bind (obj_field j "strategy") Strategy.of_json in
    let* violation = obj_field j "violation" in
    let* kind =
      Result.bind (str_field violation "kind") Oracle.violation_kind_of_name
    in
    let* detail = str_field violation "detail" in
    let* search = obj_field j "search" in
    let* schedule =
      Result.bind (str_field search "schedule") Search.schedule_of_name
    in
    let* budget = int_field search "budget" in
    let* seed = int_field search "seed" in
    let* candidates = int_field search "candidates" in
    let* shrink_steps = int_field search "shrink_steps" in
    Ok
      {
        bound;
        instance;
        strategy;
        kind;
        detail;
        search = { schedule; budget; seed; candidates; shrink_steps };
      }

let to_string t = Json.to_string (to_json t) ^ "\n"

let write ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> (
    match Json.parse contents with
    | exception Json.Parse_error e ->
      Error (Printf.sprintf "%s: %s" path e)
    | j -> of_json j)

let replay t =
  let r = Oracle.check t.bound t.instance t.strategy in
  match r.Oracle.verdict with
  | Oracle.Safe ->
    Error "replay diverged: the recorded strategy no longer violates"
  | Oracle.Violation { kind; detail } ->
    if
      String.equal
        (Oracle.violation_kind_name kind)
        (Oracle.violation_kind_name t.kind)
      && String.equal detail t.detail
    then Ok ()
    else
      Error
        (Printf.sprintf
           "replay diverged: recorded %s (%s), replayed %s (%s)"
           (Oracle.violation_kind_name t.kind)
           t.detail
           (Oracle.violation_kind_name kind)
           detail)
