(* Generic bench-gate interpreter: a committed csm-gate/1 baseline is a
   list of rules, each pinning the value at one path of a JSON report
   (format: bin/bench_gate.ml).  [eval] resolves every rule's path in
   the report and compares what is there with the rule's value; it
   knows nothing about any particular report. *)

type kind = Exact | Min | Max

(* [value] is a scalar for [Exact], a number for [Min]/[Max]. *)
type rule = { path : string; kind : kind; value : Json.t; why : string }

(* [make] names the target that regenerates the report. *)
type baseline = { make : string; rules : rule list }

(* One concrete path of a rule ([*] expands to one check per element);
   [actual] is [None] when the path is missing from the report. *)
type check = { rule : rule; at : string; actual : Json.t option; ok : bool }

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt
let str key j = Option.bind (Json.member key j) Json.to_string_opt
let kind_name = function Exact -> "exact" | Min -> "min" | Max -> "max"

let rule_of_json j =
  let path =
    match str "path" j with
    | Some p when not (List.mem "" (String.split_on_char '.' p)) -> p
    | _ -> malformed "rule without a well-formed \"path\""
  in
  let kind =
    match str "kind" j with
    | Some "exact" -> Exact
    | Some "min" -> Min
    | Some "max" -> Max
    | _ -> malformed "rule %s: \"kind\" must be exact, min or max" path
  in
  let value =
    match (kind, Json.member "value" j) with
    | Exact, Some ((Json.Bool _ | Json.Str _ | Json.Int _ | Json.Float _) as v)
    | (Min | Max), Some ((Json.Int _ | Json.Float _) as v) ->
      v
    | _ -> malformed "rule %s: \"value\" must be a scalar, for min/max a \
                      number" path
  in
  { path; kind; value; why = Option.value (str "why" j) ~default:"" }

let baseline_of_json j =
  if not (Option.equal String.equal (str "schema" j) (Some "csm-gate/1")) then
    malformed "not a csm-gate/1 baseline";
  match (str "make" j, Json.member "rules" j) with
  | Some make, Some (Json.List rules) ->
    { make; rules = List.map rule_of_json rules }
  | _ -> malformed "baseline needs a \"make\" string and a \"rules\" list"

let resolve path report =
  let join at seg = if String.equal at "" then seg else at ^ "." ^ seg in
  let rec go at j = function
    | [] -> [ (at, Some j) ]
    | seg :: rest -> (
      let missing () = [ (String.concat "." (join at seg :: rest), None) ] in
      match (seg, j) with
      | "#", Json.List l -> go (join at seg) (Json.Int (List.length l)) rest
      | "*", Json.List (_ :: _ as l) ->
        List.concat
          (List.mapi (fun i e -> go (join at (string_of_int i)) e rest) l)
      | ("#" | "*"), _ -> missing ()
      | _ -> (
        match Json.member seg j with
        | Some v -> go (join at seg) v rest
        | None -> missing ()))
  in
  go "" report (String.split_on_char '.' path)

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let holds kind ~want ~got =
  match (kind, want, got) with
  | Exact, Json.Bool a, Json.Bool b -> Bool.equal a b
  | Exact, Json.Str a, Json.Str b -> String.equal a b
  | Exact, Json.Int a, Json.Int b -> Int.equal a b
  | _ -> (
    match (num want, num got, kind) with
    | Some w, Some g, Exact -> Float.equal g w
    | Some w, Some g, Min -> g >= w
    | Some w, Some g, Max -> g <= w
    | _ -> false)

let eval base report =
  List.concat_map
    (fun rule ->
      List.map
        (fun (at, actual) ->
          let ok =
            match actual with
            | Some got -> holds rule.kind ~want:rule.value ~got
            | None -> false
          in
          { rule; at; actual; ok })
        (resolve rule.path report))
    base.rules

let failed base checks =
  List.filter
    (fun r -> List.exists (fun c -> c.rule == r && not c.ok) checks)
    base.rules
