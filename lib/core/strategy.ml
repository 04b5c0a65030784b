(* Plain-data Byzantine strategy DSL.  See the interface for the model;
   this file adds the JSON codec (total), the canonical ordering used
   for dedup, and the three candidate generators (bounded-exhaustive
   atoms, heterogeneous random sampling, structural mutation). *)

module Json = Csm_obs.Json

type rounds =
  | Always
  | Only of int list
  | From of int
  | Until of int
  | Every of { period : int; phase : int }

type action =
  | Silence of int list
  | Shift of int
  | Coord of { index : int; delta : int }
  | Codeword of { seed : int }
  | Garbage of { seed : int }
  | Equivocate of { seed : int }

type step = { rounds : rounds; act : action }
type plan = { node : int; steps : step list }
type t = { plans : plan list }

let make plans =
  let plans = List.filter (fun p -> p.steps <> []) plans in
  let seen = Hashtbl.create 8 in
  let plans =
    List.filter
      (fun p ->
        if Hashtbl.mem seen p.node then false
        else begin
          Hashtbl.add seen p.node ();
          true
        end)
      plans
  in
  { plans = List.sort (fun a b -> Int.compare a.node b.node) plans }

let honest = { plans = [] }

let uniform ?(rounds = Always) nodes act =
  make (List.map (fun node -> { node; steps = [ { rounds; act } ] }) nodes)
let byz_nodes t = List.map (fun p -> p.node) t.plans
let size t = List.length t.plans

let active r ~round =
  match r with
  | Always -> true
  | Only l -> List.mem round l
  | From x -> round >= x
  | Until x -> round < x
  | Every { period; phase } -> round mod max 1 period = phase

let action_at t ~node ~round =
  match List.find_opt (fun p -> p.node = node) t.plans with
  | None -> None
  | Some p ->
    List.find_map
      (fun s -> if active s.rounds ~round then Some s.act else None)
      p.steps

let silent_toward act ~observer =
  match act with
  | Silence [] -> true
  | Silence targets -> List.mem observer targets
  | _ -> false

(* ----- JSON codec ----- *)

let rounds_to_json = function
  | Always -> Json.Obj [ ("kind", Json.Str "always") ]
  | Only l ->
    Json.Obj
      [ ("kind", Json.Str "only");
        ("rounds", Json.List (List.map (fun r -> Json.Int r) l)) ]
  | From r -> Json.Obj [ ("kind", Json.Str "from"); ("round", Json.Int r) ]
  | Until r -> Json.Obj [ ("kind", Json.Str "until"); ("round", Json.Int r) ]
  | Every { period; phase } ->
    Json.Obj
      [ ("kind", Json.Str "every");
        ("period", Json.Int period);
        ("phase", Json.Int phase) ]

let act_to_json = function
  | Silence targets ->
    Json.Obj
      [ ("kind", Json.Str "silence");
        ("targets", Json.List (List.map (fun x -> Json.Int x) targets)) ]
  | Shift offset ->
    Json.Obj [ ("kind", Json.Str "shift"); ("offset", Json.Int offset) ]
  | Coord { index; delta } ->
    Json.Obj
      [ ("kind", Json.Str "coord");
        ("index", Json.Int index);
        ("delta", Json.Int delta) ]
  | Codeword { seed } ->
    Json.Obj [ ("kind", Json.Str "codeword"); ("seed", Json.Int seed) ]
  | Garbage { seed } ->
    Json.Obj [ ("kind", Json.Str "garbage"); ("seed", Json.Int seed) ]
  | Equivocate { seed } ->
    Json.Obj [ ("kind", Json.Str "equivocate"); ("seed", Json.Int seed) ]

let to_json t =
  Json.Obj
    [
      ( "plans",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("node", Json.Int p.node);
                   ( "steps",
                     Json.List
                       (List.map
                          (fun s ->
                            Json.Obj
                              [
                                ("rounds", rounds_to_json s.rounds);
                                ("act", act_to_json s.act);
                              ])
                          p.steps) );
                 ])
             t.plans) );
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

let int_list_field j key =
  match Json.member key j with
  | Some (Json.List l) ->
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        match Json.to_int_opt x with
        | Some i -> Ok (i :: acc)
        | None -> Error (Printf.sprintf "non-integer entry in %S" key))
      (Ok []) l
    |> Result.map List.rev
  | _ -> Error (Printf.sprintf "missing list field %S" key)

let rounds_of_json j =
  let* kind = str_field j "kind" in
  match kind with
  | "always" -> Ok Always
  | "only" ->
    let* l = int_list_field j "rounds" in
    Ok (Only l)
  | "from" ->
    let* r = int_field j "round" in
    Ok (From r)
  | "until" ->
    let* r = int_field j "round" in
    Ok (Until r)
  | "every" ->
    let* period = int_field j "period" in
    let* phase = int_field j "phase" in
    Ok (Every { period; phase })
  | k -> Error (Printf.sprintf "unknown rounds kind %S" k)

let act_of_json j =
  let* kind = str_field j "kind" in
  match kind with
  | "silence" ->
    let* targets = int_list_field j "targets" in
    Ok (Silence targets)
  | "shift" ->
    let* offset = int_field j "offset" in
    Ok (Shift offset)
  | "coord" ->
    let* index = int_field j "index" in
    let* delta = int_field j "delta" in
    Ok (Coord { index; delta })
  | "codeword" ->
    let* seed = int_field j "seed" in
    Ok (Codeword { seed })
  | "garbage" ->
    let* seed = int_field j "seed" in
    Ok (Garbage { seed })
  | "equivocate" ->
    let* seed = int_field j "seed" in
    Ok (Equivocate { seed })
  | k -> Error (Printf.sprintf "unknown action kind %S" k)

let step_of_json j =
  match Json.member "rounds" j with
  | None -> Error "step missing \"rounds\""
  | Some rj -> (
    let* rounds = rounds_of_json rj in
    match Json.member "act" j with
    | None -> Error "step missing \"act\""
    | Some aj ->
      let* act = act_of_json aj in
      Ok { rounds; act })

let of_json j =
  match Json.member "plans" j with
  | Some (Json.List plans) ->
    let* plans =
      List.fold_left
        (fun acc pj ->
          let* acc = acc in
          let* node = int_field pj "node" in
          match Json.member "steps" pj with
          | Some (Json.List steps) ->
            let* steps =
              List.fold_left
                (fun acc sj ->
                  let* acc = acc in
                  let* s = step_of_json sj in
                  Ok (s :: acc))
                (Ok []) steps
              |> Result.map List.rev
            in
            Ok ({ node; steps } :: acc)
          | _ -> Error "plan missing \"steps\" list")
        (Ok []) plans
      |> Result.map List.rev
    in
    Ok (make plans)
  | _ -> Error "strategy missing \"plans\" list"

let key t = Json.to_string (to_json t)
let equal a b = String.equal (key a) (key b)

let act_name = function
  | Silence [] -> "silence"
  | Silence ts ->
    Printf.sprintf "silence->%s"
      (String.concat "+" (List.map string_of_int ts))
  | Shift c -> Printf.sprintf "shift%+d" c
  | Coord { index; delta } -> Printf.sprintf "coord[%d]%+d" index delta
  | Codeword _ -> "codeword"
  | Garbage _ -> "garbage"
  | Equivocate _ -> "equivocate"

let rounds_name = function
  | Always -> ""
  | Only l ->
    Printf.sprintf "@%s" (String.concat "," (List.map string_of_int l))
  | From r -> Printf.sprintf "@>=%d" r
  | Until r -> Printf.sprintf "@<%d" r
  | Every { period; phase } -> Printf.sprintf "@%%%d=%d" period phase

let name t =
  if t.plans = [] then "honest"
  else
    String.concat ";"
      (List.map
         (fun p ->
           Printf.sprintf "%d:%s" p.node
             (String.concat "|"
                (List.map
                   (fun s -> act_name s.act ^ rounds_name s.rounds)
                   p.steps)))
         t.plans)

let pp ppf t = Format.pp_print_string ppf (name t)

(* ----- candidate generators ----- *)

(* The atom alphabet: one (rounds, action) pair per adversarial idea.
   GST sits at rounds_total/2 so From/Until model post-/pre-GST
   windows; seeds are fixed constants — determinism comes from the
   data, never from ambient state. *)
let atoms ~n ~rounds_total =
  let gst = max 1 (rounds_total / 2) in
  let observer = 0 in
  ignore n;
  [
    { rounds = Always; act = Silence [] };
    { rounds = Always; act = Silence [ observer ] };
    { rounds = Always; act = Shift 1 };
    { rounds = Always; act = Coord { index = 0; delta = 1 } };
    { rounds = Always; act = Codeword { seed = 0xC0DE } };
    { rounds = Always; act = Garbage { seed = 0x6AB } };
    { rounds = Always; act = Equivocate { seed = 0xE9 } };
    { rounds = Every { period = 2; phase = 0 }; act = Shift 1 };
    { rounds = From gst; act = Garbage { seed = 0x6AB } };
    { rounds = Until gst; act = Silence [] };
    { rounds = Only [ 0 ]; act = Codeword { seed = 0xC0DE } };
    { rounds = Always; act = Shift (-1) };
  ]

(* Node pool for the exhaustive class: a prefix of max_nodes + 2 ids
   (symmetry over evaluation points makes larger pools near-redundant;
   random/greedy sample the full id range). *)
let pool ~n ~max_nodes = min n (max_nodes + 2)

let subsets_upto ~pool ~max_nodes =
  (* non-empty subsets of [0, pool) with ≤ max_nodes elements, LARGEST
     size first (above-bound witnesses need every controlled node, so
     they surface within small budgets; shrinking restores minimality),
     lexicographic within a size *)
  let top = min max_nodes pool in
  let rec choose start size =
    if size = 0 then Seq.return []
    else
      Seq.concat
        (Seq.map
           (fun first ->
             Seq.map
               (fun rest -> first :: rest)
               (choose (first + 1) (size - 1)))
           (Seq.init (pool - start) (fun i -> start + i)))
  in
  Seq.concat (Seq.map (fun i -> choose 0 (top - i)) (Seq.init top (fun i -> i)))

let enumerate ~n ~rounds_total ~max_nodes =
  let atoms = atoms ~n ~rounds_total in
  let pool = pool ~n ~max_nodes in
  Seq.concat
    (Seq.map
       (fun nodes ->
         Seq.map
           (fun atom -> uniform ~rounds:atom.rounds nodes atom.act)
           (List.to_seq atoms))
       (subsets_upto ~pool ~max_nodes))

let random_step rng ~n ~rounds_total =
  let rounds =
    match Csm_rng.int rng 5 with
    | 0 -> Always
    | 1 -> Only [ Csm_rng.int rng (max 1 rounds_total) ]
    | 2 -> From (Csm_rng.int rng (max 1 rounds_total))
    | 3 -> Until (1 + Csm_rng.int rng (max 1 rounds_total))
    | _ ->
      Every { period = 2 + Csm_rng.int rng 2; phase = Csm_rng.int rng 2 }
  in
  let act =
    match Csm_rng.int rng 6 with
    | 0 ->
      Silence
        (if Csm_rng.bool rng then []
         else [ Csm_rng.int rng (max 1 n) ])
    | 1 -> Shift (1 + Csm_rng.int rng 3)
    | 2 -> Coord { index = Csm_rng.int rng 2; delta = 1 + Csm_rng.int rng 2 }
    | 3 -> Codeword { seed = Csm_rng.int rng 1024 }
    | 4 -> Garbage { seed = Csm_rng.int rng 1024 }
    | _ -> Equivocate { seed = Csm_rng.int rng 1024 }
  in
  { rounds; act }

let random rng ~n ~rounds_total ~max_nodes =
  let count = 1 + Csm_rng.int rng (max 1 max_nodes) in
  let nodes = Csm_rng.sample rng ~n ~k:(min count n) in
  make
    (Array.to_list nodes
    |> List.map (fun node ->
           let steps =
             List.init
               (1 + Csm_rng.int rng 2)
               (fun _ -> random_step rng ~n ~rounds_total)
           in
           { node; steps }))

let mutate rng ~n ~rounds_total ~max_nodes t =
  let plans = t.plans in
  let fresh_plan () =
    {
      node = Csm_rng.int rng (max 1 n);
      steps = [ random_step rng ~n ~rounds_total ];
    }
  in
  let replace_nth l i f = List.mapi (fun j x -> if j = i then f x else x) l in
  let mutated =
    match (plans, Csm_rng.int rng 4) with
    | [], _ -> [ fresh_plan () ]
    | _, 0 when List.length plans < max_nodes ->
      (* escalate: recruit another Byzantine node — half the time as a
         colluder copying an existing plan (uniform collusion is the
         known-tight attack class), half the time with a fresh step *)
      let recruit =
        if Csm_rng.bool rng then
          let copied =
            List.nth plans (Csm_rng.int rng (List.length plans))
          in
          { node = Csm_rng.int rng (max 1 n); steps = copied.steps }
        else fresh_plan ()
      in
      recruit :: plans
    | _, 1 when List.length plans > 1 ->
      (* demote one node back to honest *)
      let drop = Csm_rng.int rng (List.length plans) in
      List.filteri (fun i _ -> i <> drop) plans
    | _, 2 ->
      (* rewrite one node's whole plan *)
      let i = Csm_rng.int rng (List.length plans) in
      replace_nth plans i (fun p ->
          { p with steps = [ random_step rng ~n ~rounds_total ] })
    | _ ->
      (* append a step to one node (layered schedule) *)
      let i = Csm_rng.int rng (List.length plans) in
      replace_nth plans i (fun p ->
          { p with steps = p.steps @ [ random_step rng ~n ~rounds_total ] })
  in
  make mutated
