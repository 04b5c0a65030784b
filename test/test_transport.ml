(* Transport subsystem: frame codec round-trips and fuzzing, strict
   wire decoders, sim-sizer = real-wire-bytes equality, loopback
   transport behavior, node runtime fault payloads, and end-to-end
   cluster runs — including loopback-vs-socket equivalence through the
   csm_cluster binary. *)

module Frame = Csm_wire.Frame
module F = Csm_field.Fp.Default
module W = Csm_core.Wire.Make (F)
module Params = Csm_core.Params
module Transport = Csm_transport.Transport
module Loopback = Csm_transport.Loopback
module Node = Csm_transport.Node
module N = Node.Make (F)
module Cluster = Csm_transport.Cluster
module C = Cluster.Make (F)
module Agg = Csm_obs.Agg
module Json = Csm_obs.Json
module Metric = Csm_obs.Metric
module Live = Csm_obs.Live
module Alert = Csm_obs.Alert

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let all_kinds =
  [ Frame.Command; Frame.Commit; Frame.Result; Frame.Output; Frame.Stats;
    Frame.Shutdown; Frame.Telemetry ]

(* ----- frame codec ----- *)

let frame_round_trip () =
  List.iter
    (fun kind ->
      List.iter
        (fun (sender, round, payload) ->
          let f = Frame.make ~kind ~sender ~round payload in
          let bytes = Frame.encode f in
          check Alcotest.int "encoded size"
            (Frame.encoded_size ~payload_bytes:(String.length payload))
            (String.length bytes);
          match Frame.decode bytes with
          | None -> Alcotest.fail "round trip decode failed"
          | Some g ->
            checkb "kind" true (Frame.kind_eq g.Frame.kind kind);
            check Alcotest.int "sender" sender g.Frame.sender;
            check Alcotest.int "round" round g.Frame.round;
            check Alcotest.string "payload" payload g.Frame.payload)
        [
          (0, 0, "");
          (1, 7, "x");
          (41, 1000000, String.make 257 '\xAB');
          (0x7FFFFFFF, 0x7FFFFFFF, "payload\x00with\xFFbytes");
        ])
    all_kinds

let frame_header_round_trip () =
  let f = Frame.make ~kind:Frame.Result ~sender:3 ~round:9 "abcdef" in
  let bytes = Frame.encode f in
  match Frame.decode_header bytes with
  | None -> Alcotest.fail "header decode failed"
  | Some h ->
    checkb "kind" true (Frame.kind_eq h.Frame.h_kind Frame.Result);
    check Alcotest.int "sender" 3 h.Frame.h_sender;
    check Alcotest.int "round" 9 h.Frame.h_round;
    check Alcotest.int "payload bytes" 6 h.Frame.h_payload_bytes;
    (match
       Frame.of_header h ~body:(String.sub bytes Frame.header_bytes 6)
     with
    | Some g -> checkb "of_header" true (g = f)
    | None -> Alcotest.fail "of_header failed");
    checkb "of_header wrong length" true
      (Option.is_none (Frame.of_header h ~body:"abc"))

(* Truncations, extensions and byte flips of valid encodings must never
   raise; truncations and extensions must decode to None (exact-length
   decoding). *)
let frame_fuzz () =
  let rng = Csm_rng.create 0xF4A2E in
  let n_kinds = List.length all_kinds in
  for _ = 1 to 200 do
    let kind = List.nth all_kinds (Csm_rng.int rng n_kinds) in
    let payload =
      String.init (Csm_rng.int rng 40) (fun _ -> Char.chr (Csm_rng.int rng 256))
    in
    let f =
      Frame.make ~kind
        ~sender:(Csm_rng.int rng 1000)
        ~round:(Csm_rng.int rng 100000)
        payload
    in
    let bytes = Frame.encode f in
    let len = String.length bytes in
    (* every truncation *)
    for cut = 0 to len - 1 do
      checkb "truncated -> None" true
        (Option.is_none (Frame.decode (String.sub bytes 0 cut)))
    done;
    (* extension *)
    checkb "extended -> None" true (Option.is_none (Frame.decode (bytes ^ "\x00")));
    checkb "extended -> None" true (Option.is_none (Frame.decode (bytes ^ bytes)));
    (* random single-byte flips: must not raise, may or may not decode *)
    for _ = 1 to 16 do
      let pos = Csm_rng.int rng len in
      let b = Bytes.of_string bytes in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Csm_rng.int rng 255)));
      ignore (Frame.decode (Bytes.to_string b))
    done
  done;
  (* garbage of every small length *)
  for l = 0 to 64 do
    let s = String.init l (fun _ -> Char.chr (Csm_rng.int rng 256)) in
    ignore (Frame.decode s)
  done

let frame_rejects_bad_fields () =
  let f = Frame.make ~kind:Frame.Commit ~sender:5 ~round:2 "hello" in
  let bytes = Bytes.of_string (Frame.encode f) in
  let flip pos v =
    let b = Bytes.copy bytes in
    Bytes.set b pos (Char.chr v);
    Frame.decode (Bytes.to_string b)
  in
  checkb "bad magic 0" true (flip 0 (Char.code 'X') = None);
  checkb "bad magic 1" true (flip 1 (Char.code 'X') = None);
  checkb "bad version" true (flip 2 99 = None);
  checkb "bad kind tag" true (flip 3 0 = None);
  checkb "bad kind tag" true (flip 3 200 = None);
  (* a length claim larger than the body *)
  let b = Bytes.copy bytes in
  Bytes.set_int32_be b 12 1000l;
  checkb "overlong claim" true (Option.is_none (Frame.decode (Bytes.to_string b)));
  checkb "make rejects negative sender" true
    (try
       ignore (Frame.make ~kind:Frame.Commit ~sender:(-1) ~round:0 "");
       false
     with Invalid_argument _ -> true);
  checkb "make rejects huge payload" true
    (try
       ignore
         (Frame.make ~kind:Frame.Commit ~sender:0 ~round:0
            (String.make (Frame.max_payload_bytes + 1) 'x'));
       false
     with Invalid_argument _ -> true)

(* ----- frame v2: the trace extension ----- *)

let mk_ext trace_id hlc = { Frame.trace_id; hlc }

(* v2 frames round-trip through encode/decode and through the
   header+body streaming path, carrying the extension verbatim. *)
let frame_v2_round_trip () =
  List.iter
    (fun kind ->
      List.iter
        (fun (trace_id, hlc, payload) ->
          let ext = mk_ext trace_id hlc in
          let f = Frame.make ~ext ~kind ~sender:7 ~round:3 payload in
          check Alcotest.int "v2 version" Frame.ext_version f.Frame.version;
          let bytes = Frame.encode f in
          check Alcotest.int "v2 size"
            (Frame.header_bytes + Frame.ext_bytes + String.length payload)
            (String.length bytes);
          (match Frame.decode bytes with
          | None -> Alcotest.fail "v2 decode failed"
          | Some g ->
            checkb "v2 round trip" true (g = f);
            (match g.Frame.ext with
            | Some e ->
              checkb "trace id" true (Int64.equal e.Frame.trace_id trace_id);
              checkb "hlc" true (Int64.equal e.Frame.hlc hlc)
            | None -> Alcotest.fail "v2 lost its extension"));
          (* streaming path: header then body *)
          match Frame.decode_header bytes with
          | None -> Alcotest.fail "v2 header decode failed"
          | Some h ->
            check Alcotest.int "body bytes"
              (Frame.ext_bytes + String.length payload)
              (Frame.body_bytes h);
            let body =
              String.sub bytes Frame.header_bytes (Frame.body_bytes h)
            in
            (match Frame.of_header h ~body with
            | Some g -> checkb "of_header v2" true (g = f)
            | None -> Alcotest.fail "of_header v2 failed"))
        [
          (0L, 0L, "");
          (1L, 42L, "x");
          (0xDEADBEEFCAFEL, Int64.max_int, String.make 100 '\x80');
          (Int64.minus_one, 0x8000000000000000L, "bytes\x00\xff");
        ])
    all_kinds

(* v1 and v2 coexist on one wire: untraced frames keep the exact
   pre-extension layout, and each version rejects the other's length. *)
let frame_cross_version () =
  let payload = "cross-version" in
  let v1 = Frame.make ~kind:Frame.Output ~sender:1 ~round:5 payload in
  let v2 =
    Frame.make ~ext:(mk_ext 99L 1234L) ~kind:Frame.Output ~sender:1 ~round:5
      payload
  in
  let b1 = Frame.encode v1 and b2 = Frame.encode v2 in
  (* v1 bytes: version byte 1, no extension, old size *)
  check Alcotest.int "v1 size"
    (Frame.encoded_size ~payload_bytes:(String.length payload))
    (String.length b1);
  check Alcotest.int "v1 version byte" 1 (Char.code b1.[2]);
  check Alcotest.int "v2 version byte" Frame.ext_version (Char.code b2.[2]);
  (* the extension sits between header and payload; the payload bytes
     and the length field are identical across versions *)
  check Alcotest.string "payload bytes equal"
    (String.sub b1 Frame.header_bytes (String.length payload))
    (String.sub b2
       (Frame.header_bytes + Frame.ext_bytes)
       (String.length payload));
  check Alcotest.string "length field equal"
    (String.sub b1 12 4)
    (String.sub b2 12 4);
  (match Frame.decode b1 with
  | Some g ->
    checkb "v1 decodes ext-free" true (Option.is_none g.Frame.ext);
    check Alcotest.int "v1 stays v1" 1 g.Frame.version
  | None -> Alcotest.fail "v1 decode failed");
  (* version byte toggled without the matching body resize must fail *)
  let flip_version bytes v =
    let b = Bytes.of_string bytes in
    Bytes.set b 2 (Char.chr v);
    Frame.decode (Bytes.to_string b)
  in
  checkb "v1 bytes claiming v2" true
    (Option.is_none (flip_version b1 Frame.ext_version));
  checkb "v2 bytes claiming v1" true (Option.is_none (flip_version b2 1));
  checkb "unknown version 3" true (Option.is_none (flip_version b2 3));
  (* make: version and extension presence must agree *)
  checkb "make rejects v2 without ext" true
    (try
       ignore
         (Frame.make ~version:Frame.ext_version ~kind:Frame.Output ~sender:0
            ~round:0 "");
       false
     with Invalid_argument _ -> true);
  checkb "make rejects v1 with ext" true
    (try
       ignore
         (Frame.make ~version:1 ~ext:(mk_ext 1L 1L) ~kind:Frame.Output
            ~sender:0 ~round:0 "");
       false
     with Invalid_argument _ -> true)

(* Truncating into (or past) the 16-byte extension, or padding beyond
   it, must decode to None on both the one-shot and streaming paths. *)
let frame_v2_ext_rejection () =
  let f =
    Frame.make ~ext:(mk_ext 7L 7L) ~kind:Frame.Commit ~sender:2 ~round:1
      "payload"
  in
  let bytes = Frame.encode f in
  for cut = Frame.header_bytes to String.length bytes - 1 do
    checkb "truncated ext/payload" true
      (Option.is_none (Frame.decode (String.sub bytes 0 cut)))
  done;
  checkb "oversized" true (Option.is_none (Frame.decode (bytes ^ "\x00")));
  match Frame.decode_header bytes with
  | None -> Alcotest.fail "header decode failed"
  | Some h ->
    let body = String.sub bytes Frame.header_bytes (Frame.body_bytes h) in
    checkb "of_header short body" true
      (Option.is_none
         (Frame.of_header h ~body:(String.sub body 0 (Frame.ext_bytes - 1))));
    checkb "of_header long body" true
      (Option.is_none (Frame.of_header h ~body:(body ^ "!")))

(* QCheck: encode/decode is the identity on arbitrary well-formed
   frames, traced or not. *)
let arb_frame =
  let open QCheck in
  let gen =
    Gen.map
      (fun ((kind_i, sender, round), (payload, ext)) ->
        let kind = List.nth all_kinds (kind_i mod List.length all_kinds) in
        let ext =
          Option.map (fun (t, h) -> mk_ext (Int64.of_int t) (Int64.of_int h)) ext
        in
        match ext with
        | Some ext -> Frame.make ~ext ~kind ~sender ~round payload
        | None -> Frame.make ~kind ~sender ~round payload)
      (Gen.pair
         (Gen.triple Gen.nat Gen.nat Gen.nat)
         (Gen.pair Gen.string (Gen.opt (Gen.pair Gen.nat Gen.nat))))
  in
  QCheck.make
    ~print:(fun f -> Format.asprintf "%a" Frame.pp f)
    gen

let qcheck_frame_round_trip =
  QCheck.Test.make ~name:"frame v1/v2 encode-decode identity" ~count:500
    arb_frame (fun f ->
      match Frame.decode (Frame.encode f) with
      | Some g -> g = f
      | None -> false)

(* ----- strict wire decoders ----- *)

let decimal_strictness () =
  let dim = 3 in
  let ok s = W.decode_vector ~dim s <> None in
  checkb "canonical accepted" true (ok "1,2,3");
  checkb "zero accepted" true (ok "0,0,0");
  checkb "trailing underscore" false (ok "1,2,3_");
  checkb "leading zero" false (ok "01,2,3");
  checkb "hex prefix" false (ok "0x1,2,3");
  checkb "trailing comma" false (ok "1,2,3,");
  checkb "leading space" false (ok " 1,2,3");
  checkb "negative" false (ok "-1,2,3");
  checkb "too few" false (ok "1,2");
  checkb "too many" false (ok "1,2,3,4");
  checkb "empty part" false (ok "1,,3");
  checkb "19 digits" false (ok "1234567890123456789,2,3");
  checkb "empty dim 0" true (W.decode_vector ~dim:0 "" = Some [||]);
  checkb "nonempty dim 0" true (W.decode_vector ~dim:0 "1" = None);
  (* round trip *)
  let rng = Csm_rng.create 0xDEC1 in
  for _ = 1 to 50 do
    let v = Array.init dim (fun _ -> F.random rng) in
    match W.decode_vector ~dim (W.encode_vector v) with
    | None -> Alcotest.fail "decimal round trip"
    | Some w -> Array.iteri (fun i x -> checkb "elt" true (F.equal x w.(i))) v
  done

let binary_round_trips () =
  let rng = Csm_rng.create 0xB14 in
  for _ = 1 to 50 do
    let dim = 1 + Csm_rng.int rng 6 in
    let v = Array.init dim (fun _ -> F.random rng) in
    let s = W.encode_vector_bin v in
    check Alcotest.int "vector_bytes" (W.vector_bytes ~dim) (String.length s);
    (match W.decode_vector_bin ~dim s with
    | None -> Alcotest.fail "vector bin round trip"
    | Some w -> Array.iteri (fun i x -> checkb "elt" true (F.equal x w.(i))) v);
    let k = 1 + Csm_rng.int rng 4 in
    let cs = Array.init k (fun _ -> Array.init dim (fun _ -> F.random rng)) in
    let sc = W.encode_commands_bin cs in
    check Alcotest.int "commands_bytes"
      (W.commands_bytes ~k ~dim)
      (String.length sc);
    (match W.decode_commands_bin ~k ~dim sc with
    | None -> Alcotest.fail "commands bin round trip"
    | Some ds ->
      Array.iteri
        (fun i row ->
          Array.iteri (fun j x -> checkb "elt" true (F.equal x ds.(i).(j))) row)
        cs);
    (* matrix with mixed row widths *)
    let rows =
      Array.init (1 + Csm_rng.int rng 5) (fun _ ->
          Array.init (Csm_rng.int rng 5) (fun _ -> F.random rng))
    in
    match W.decode_matrix_bin (W.encode_matrix_bin rows) with
    | None -> Alcotest.fail "matrix bin round trip"
    | Some ds ->
      check Alcotest.int "rows" (Array.length rows) (Array.length ds);
      Array.iteri
        (fun i row ->
          check Alcotest.int "row dim" (Array.length row) (Array.length ds.(i));
          Array.iteri (fun j x -> checkb "elt" true (F.equal x ds.(i).(j))) row)
        rows
  done

(* Every binary decoder is exact: truncated and extended bodies are
   rejected, and the node's Corrupt mangling is always detected. *)
let binary_strictness () =
  let rng = Csm_rng.create 0xB57 in
  for _ = 1 to 50 do
    let dim = 1 + Csm_rng.int rng 5 in
    let v = Array.init dim (fun _ -> F.random rng) in
    let s = W.encode_vector_bin v in
    checkb "vec truncated" true
      (W.decode_vector_bin ~dim (String.sub s 0 (String.length s - 1)) = None);
    checkb "vec extended" true (W.decode_vector_bin ~dim (s ^ "\x00") = None);
    checkb "vec corrupt fault" true
      (W.decode_vector_bin ~dim (N.corrupt_payload s) = None);
    let k = 2 in
    let cs = Array.init k (fun _ -> v) in
    let sc = W.encode_commands_bin cs in
    checkb "cmds truncated" true
      (W.decode_commands_bin ~k ~dim (String.sub sc 0 (String.length sc - 1))
      = None);
    checkb "cmds corrupt fault" true
      (W.decode_commands_bin ~k ~dim (N.corrupt_payload sc) = None);
    let m = W.encode_matrix_bin [| v; v |] in
    checkb "matrix truncated" true
      (W.decode_matrix_bin (String.sub m 0 (String.length m - 1)) = None);
    checkb "matrix extended" true (W.decode_matrix_bin (m ^ "\x01") = None);
    checkb "matrix corrupt fault" true
      (W.decode_matrix_bin (N.corrupt_payload m) = None)
  done;
  (* fuzz: random garbage never raises *)
  for _ = 1 to 500 do
    let s =
      String.init (Csm_rng.int rng 64) (fun _ -> Char.chr (Csm_rng.int rng 256))
    in
    (* csm-lint: allow R7 — the fuzz oracle is "never raises"; the verdict itself is irrelevant *)
    ignore (W.decode_vector_bin ~dim:(Csm_rng.int rng 6) s);
    (* csm-lint: allow R7 — fuzz oracle, as above *)
    ignore (W.decode_commands_bin ~k:(Csm_rng.int rng 4) ~dim:(Csm_rng.int rng 4) s);
    (* csm-lint: allow R7 — fuzz oracle, as above *)
    ignore (W.decode_matrix_bin s)
  done

(* ----- the sim's sizer equals real wire bytes ----- *)

module P = Csm_core.Protocol.Make (F)
module Replica = Csm_core.Replica

(* [Protocol.size], the simulator's one sizer, against the encoded
   frame the node runtime sends for the same message, every kind. *)
let sim_sizes_equal_wire_bytes () =
  let rng = Csm_rng.create 0x512E in
  let vec dim = Array.init dim (fun _ -> F.random rng) in
  for _ = 1 to 30 do
    let dim = 1 + Csm_rng.int rng 8 in
    let k = 1 + Csm_rng.int rng 4 in
    let cs = Array.init k (fun _ -> vec dim) in
    let payload = W.encode_commands_bin cs in
    List.iter
      (fun m ->
        let fr = N.frame ~sender:(Csm_rng.int rng 16) ~round:(Csm_rng.int rng 99) m in
        check Alcotest.int
          (Frame.kind_name fr.Frame.kind ^ ": sim size = socket bytes")
          (P.size m)
          (String.length (Frame.encode fr)))
      [
        Replica.Command (payload, cs);
        Replica.Commit payload;
        Replica.Result (vec dim);
        Replica.Output (Array.init (2 * k) (fun i -> vec (1 + (i mod dim))));
      ]
  done

(* ----- loopback transport ----- *)

let loopback_send_recv () =
  let net = Loopback.create ~endpoints:3 in
  let a = Loopback.endpoint net ~id:0 in
  let b = Loopback.endpoint net ~id:1 in
  let f1 = Frame.make ~kind:Frame.Commit ~sender:0 ~round:1 "one" in
  let f2 = Frame.make ~kind:Frame.Result ~sender:0 ~round:1 "two" in
  a.Transport.send ~dst:1 f1;
  a.Transport.send ~dst:1 f2;
  (match b.Transport.recv ~timeout:1.0 with
  | Some g -> checkb "first frame" true (g = f1)
  | None -> Alcotest.fail "no first frame");
  (match b.Transport.recv ~timeout:1.0 with
  | Some g -> checkb "second frame" true (g = f2)
  | None -> Alcotest.fail "no second frame");
  (* deadline on an empty mailbox *)
  let t0 = Unix.gettimeofday () in
  checkb "deadline None" true (b.Transport.recv ~timeout:0.05 = None);
  checkb "deadline waited" true (Unix.gettimeofday () -. t0 >= 0.04);
  (* stats: counted at hand-off and delivery, full frame bytes *)
  let sa = Transport.snapshot a and sb = Transport.snapshot b in
  check Alcotest.int "a sent" 2 sa.Transport.frames_sent;
  check Alcotest.int "b received" 2 sb.Transport.frames_received;
  check Alcotest.int "a bytes" (Frame.size f1 + Frame.size f2)
    sa.Transport.bytes_sent;
  check Alcotest.int "b bytes" sa.Transport.bytes_sent
    sb.Transport.bytes_received;
  a.Transport.close ();
  b.Transport.close ()

(* ----- node runtime pieces ----- *)

let stats_payload_round_trip () =
  let s =
    {
      Transport.frames_sent = 12;
      frames_received = 34;
      bytes_sent = 5678;
      bytes_received = 91011;
      frame_errors = 3;
    }
  in
  let p = N.stats_payload s in
  check Alcotest.int "payload size" 40 (String.length p);
  (match N.decode_stats_payload p with
  | Some t -> checkb "round trip" true (t = s)
  | None -> Alcotest.fail "stats decode failed");
  checkb "wrong length" true (N.decode_stats_payload (p ^ "\x00") = None);
  checkb "truncated" true (N.decode_stats_payload (String.sub p 0 39) = None)

(* ----- end-to-end cluster runs (loopback, in-process) ----- *)

let cluster_cfg ?(faults = []) ?(rounds = 2) ?(seed = 42) ?(trace = false)
    ?(telemetry = false) ?stream ?live () =
  {
    C.params = Params.make ~network:Params.Sync ~n:3 ~k:1 ~d:1 ~b:1;
    rounds;
    seed;
    mode = Cluster.Loopback;
    faults;
    deadline = 10.0;
    trace;
    telemetry;
    stream;
    live;
  }

let total_frame_errors (r : C.result) =
  Array.fold_left
    (fun acc s ->
      match s with Some s -> acc + s.Transport.frame_errors | None -> acc)
    0 r.C.stats

let cluster_loopback_fault_free () =
  let r = C.run (cluster_cfg ()) in
  checkb "verified" true r.C.ok;
  Array.iter (fun c -> check Alcotest.int "all outputs" 3 c) r.C.outputs_received;
  check Alcotest.int "no frame errors" 0 (total_frame_errors r);
  Array.iteri
    (fun i s ->
      match s with
      | Some _ -> ()
      | None -> Alcotest.failf "endpoint %d sent no stats" i)
    r.C.stats

let cluster_loopback_drop_fault () =
  let r = C.run (cluster_cfg ~faults:[ (1, Node.Drop) ] ()) in
  checkb "verified with dropping node" true r.C.ok;
  Array.iter (fun c -> check Alcotest.int "honest outputs" 2 c) r.C.outputs_received;
  check Alcotest.int "no frame errors" 0 (total_frame_errors r);
  (match r.C.stats.(1) with
  | Some s ->
    (* the snapshot precedes the Stats reply, so a dropper reports 0 *)
    check Alcotest.int "dropper sent nothing" 0 s.Transport.frames_sent
  | None -> Alcotest.fail "dropper sent no stats")

let cluster_loopback_corrupt_fault () =
  let r = C.run (cluster_cfg ~faults:[ (2, Node.Corrupt) ] ()) in
  checkb "verified with corrupting node" true r.C.ok;
  checkb "corruption detected" true (total_frame_errors r > 0)

let cluster_loopback_delay_fault () =
  let r = C.run (cluster_cfg ~faults:[ (0, Node.Delay 0.01) ] ()) in
  checkb "verified with delaying node" true r.C.ok;
  Array.iter (fun c -> check Alcotest.int "all outputs" 3 c) r.C.outputs_received

(* A Delay node holds each broadcast back once, not once per
   destination: at N=8 a per-destination sleep alone would take
   4 rounds × 15 frames × 50 ms = 3 s. *)
let cluster_loopback_delay_per_broadcast () =
  let r =
    C.run
      {
        (cluster_cfg ~rounds:4 ~faults:[ (0, Node.Delay 0.05) ] ()) with
        C.params = Params.make ~network:Params.Sync ~n:8 ~k:2 ~d:1 ~b:1;
      }
  in
  checkb "verified with delaying node" true r.C.ok;
  checkb
    (Printf.sprintf "run took %.2f s < 2 s" r.C.run_seconds)
    true (r.C.run_seconds < 2.0)

(* Determinism: two loopback runs at one seed produce identical ledgers
   and identical per-endpoint counters. *)
let cluster_loopback_deterministic () =
  let a = C.run (cluster_cfg ()) and b = C.run (cluster_cfg ()) in
  checkb "ledgers equal" true (a.C.ledger = b.C.ledger);
  checkb "stats equal" true (a.C.stats = b.C.stats)

let contains_sub hay needle =
  let nl = String.length needle in
  let found = ref false in
  for i = 0 to String.length hay - nl do
    if String.sub hay i nl = needle then found := true
  done;
  !found

(* Traced run: every endpoint ships a telemetry bundle, flight rings
   pair cross-node send→recv flows, the merged Chrome trace carries
   flow events, and an untraced run gathers nothing. *)
let cluster_loopback_telemetry () =
  let r = C.run (cluster_cfg ~trace:true ~telemetry:true ()) in
  checkb "verified" true r.C.ok;
  let bundles = r.C.telemetry in
  check Alcotest.int "bundles: 3 nodes + client" 4 (List.length bundles);
  List.iteri
    (fun i (b : Agg.bundle) ->
      check Alcotest.int "bundle node order" i b.Agg.b_node;
      checkb "flight ring non-empty" true (b.Agg.b_flight <> []))
    bundles;
  checkb "cross-node flows paired" true (Agg.cross_flows bundles >= 1);
  checkb "hlc advanced" true (Agg.max_hlc bundles > 0);
  let trace = Json.to_string (Agg.cluster_trace bundles) in
  checkb "merged trace parses" true
    (match Json.parse trace with
    | _ -> true
    | exception Json.Parse_error _ -> false);
  checkb "trace has flow starts" true (contains_sub trace "\"ph\":\"s\"");
  checkb "trace has flow ends" true (contains_sub trace "\"ph\":\"f\"");
  checkb "trace has wire slices" true (contains_sub trace "\"cat\":\"csm.wire\"");
  (* telemetry off: nothing gathered, result shape unchanged *)
  let r0 = C.run (cluster_cfg ()) in
  checkb "no bundles untraced" true
    (match r0.C.telemetry with [] -> true | _ -> false)

(* In-flight streaming: a loopback run with a live store merges the
   nodes' csm-node-telemetry/2 deltas while rounds are still running,
   the commit ticks feed the lambda window, and a lying node (well-
   formed wrong Result vectors) trips the suspicion alert before the
   run ends — the live-observability acceptance path. *)
let cluster_loopback_streaming () =
  Metric.enable ();
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metric.reset ();
      Metric.disable ())
    (fun () ->
      let live = Live.create ~k:1 () in
      let r =
        C.run
          (cluster_cfg ~rounds:8 ~faults:[ (1, Node.Lie Node.lie_default) ] ~stream:0.01 ~live
             ())
      in
      let lam = Live.lambda live in
      checkb "verified: the decode corrects the lie" true r.C.ok;
      check Alcotest.int "lie frames are well-formed" 0 (total_frame_errors r);
      checkb "run_seconds measured" true (r.C.run_seconds > 0.0);
      check Alcotest.int "every round committed" 8 (Live.commits live);
      let applied, _, rejected = Live.deltas live in
      checkb "deltas applied in flight" true (applied > 0);
      check Alcotest.int "no rejected deltas" 0 rejected;
      checkb "windowed lambda positive" true (lam > 0.0);
      (* the decoder attributed the lie: suspicion reached the live
         view through the deltas and fired the alert mid-run *)
      checkb "suspicion alert fired" true
        (Alert.first_fired (Live.alerts live) "suspicion" <> None);
      let scrape = Live.scrape live in
      checkb "scrape carries windowed lambda" true
        (contains_sub scrape "csm_window_lambda");
      checkb "scrape carries the alert gauge" true
        (contains_sub scrape "csm_alerts_firing{rule=\"suspicion\"} 1");
      checkb "scrape carries merged node suspicion" true
        (contains_sub scrape "csm_node_suspicion");
      (match Json.parse (Json.to_string (Live.windows_json live)) with
      | Json.Obj fields ->
        checkb "windows.json has schema" true
          (List.mem_assoc "schema" fields && List.mem_assoc "lambda" fields)
      | _ -> Alcotest.fail "windows.json not an object"
      | exception Json.Parse_error m -> Alcotest.failf "windows.json: %s" m);
      (* idempotency end-to-end: re-applying a stale synthetic delta
         changes nothing *)
      let before = Csm_obs.Prom.render_views (Live.node_views live) in
      (match
         Live.apply live
           (Agg.delta_payload ~node:0 ~scope:Agg.Process ~seq:1 ~full:false
              ~views:[] ~events:[] ())
       with
      | `Stale -> ()
      | `Applied -> Alcotest.fail "stale delta applied"
      | `Malformed -> Alcotest.fail "synthetic delta malformed");
      check Alcotest.string "state unchanged by stale delta" before
        (Csm_obs.Prom.render_views (Live.node_views live)))

(* Bounded node state: over a 100-round run with a liar and a dropper
   every node ends each round holding at most two round slots — the
   running round's and the next one's. *)
let cluster_loopback_retention () =
  Metric.enable ();
  Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metric.reset ();
      Metric.disable ())
    (fun () ->
      let n = 5 in
      let cfg =
        {
          (cluster_cfg ~rounds:100
             ~faults:[ (1, Node.Lie Node.lie_default); (2, Node.Drop) ]
             ())
          with
          C.params = Params.make ~network:Params.Sync ~n ~k:1 ~d:1 ~b:2;
        }
      in
      checkb "verified" true (C.run cfg).C.ok;
      for i = 0 to n - 1 do
        let v =
          Metric.gauge_value (Csm_obs.Telemetry.node_retained_rounds ~node:i)
        in
        checkb
          (Printf.sprintf "node %d retains %g round slots" i v)
          true
          (v >= 1.0 && v <= 2.0)
      done)

(* The window rule: while a node waits in round 0, a valid Commit for
   round 3 is a bad-round error and one for round 1 is kept, so the
   node's Stats reply counts exactly one frame error. *)
let node_window_rule () =
  let cfg = cluster_cfg ~rounds:4 () in
  let n = cfg.C.params.Params.n in
  let net = Loopback.create ~endpoints:(n + 1) in
  let node =
    {
      N.node = 0;
      params = cfg.C.params;
      machine = C.machine cfg;
      init = C.initial_states cfg;
      rounds = cfg.C.rounds;
      fault = Node.Honest;
      faults = [];
      deadline = 10.0;
      trace = false;
      telemetry = false;
      stream = None;
      scope = Agg.Process;
    }
  in
  let th = Thread.create (N.run node) (Loopback.endpoint net ~id:0) in
  let peer = Loopback.endpoint net ~id:1 in
  let client = Loopback.endpoint net ~id:n in
  let payload = W.encode_commands_bin (C.workload (Csm_rng.create 1) ~k:1 0) in
  List.iter
    (fun round ->
      peer.Transport.send ~dst:0
        (Frame.make ~kind:Frame.Commit ~sender:1 ~round payload))
    [ 3; 1 ];
  client.Transport.send ~dst:0
    (Frame.make ~kind:Frame.Shutdown ~sender:n ~round:cfg.C.rounds "");
  let rec stats () =
    match client.Transport.recv ~timeout:10.0 with
    | Some fr when Frame.kind_eq fr.Frame.kind Frame.Stats ->
      N.decode_stats_payload fr.Frame.payload
    | Some _ -> stats ()
    | None -> None
  in
  (match stats () with
  | Some s -> check Alcotest.int "one bad-round error" 1 s.Transport.frame_errors
  | None -> Alcotest.fail "no Stats reply");
  Thread.join th;
  peer.Transport.close ();
  client.Transport.close ()

(* ----- loopback vs socket equivalence through the binary ----- *)

(* The driver is a declared dune dep living next to this executable's
   directory; resolve it relative to the test binary so the test works
   from any cwd (dune runtest, dune exec, direct invocation). *)
let cluster_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "csm_cluster.exe"

let run_cluster_exe args out =
  let cmd =
    Printf.sprintf "%s %s --out %s > /dev/null 2>&1" (Filename.quote cluster_exe)
      args (Filename.quote out)
  in
  Sys.command cmd

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The reports differ only in config.transport and the wall-clock
   fields (run_seconds and the lambda derived from it) — everything
   else (host, ledgers, per-endpoint counters) must be identical. *)
let normalize s =
  match Json.parse s with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.filter_map
            (fun (k, v) ->
              match (k, v) with
              | ("run_seconds" | "lambda"), _ -> None
              | "config", Json.Obj cf ->
                Some
                  ( k,
                    Json.Obj
                      (List.map
                         (fun (ck, cv) ->
                           if ck = "transport" then (ck, Json.Str "X")
                           else (ck, cv))
                         cf) )
              | _ -> Some (k, v))
            fields))
  | other -> Json.to_string other
  | exception Json.Parse_error m -> Alcotest.failf "report not JSON: %s" m

let equivalence args =
  let out_loop = Filename.temp_file "csm_cluster_loop" ".json" in
  let out_sock = Filename.temp_file "csm_cluster_sock" ".json" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out_loop with Sys_error _ -> ());
      try Sys.remove out_sock with Sys_error _ -> ())
    (fun () ->
      let rc1 = run_cluster_exe ("--transport loopback " ^ args) out_loop in
      check Alcotest.int "loopback exit" 0 rc1;
      let rc2 = run_cluster_exe ("--transport socket " ^ args) out_sock in
      check Alcotest.int "socket exit" 0 rc2;
      check Alcotest.string "identical reports"
        (normalize (read_file out_loop))
        (normalize (read_file out_sock)))

let loopback_socket_equivalent () =
  equivalence "-n 3 -k 1 -d 1 -b 1 --rounds 2 --seed 42"

let loopback_socket_equivalent_drop () =
  equivalence "-n 3 -k 1 -d 1 -b 1 --rounds 2 --seed 7 --faults 1:drop"

let socket_corrupt_detected () =
  let out = Filename.temp_file "csm_cluster_corrupt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rc =
        run_cluster_exe
          "--transport socket -n 3 -k 1 -d 1 -b 1 --rounds 2 --faults \
           2:corrupt --expect-frame-errors"
          out
      in
      check Alcotest.int "corrupt run exit" 0 rc;
      let report = read_file out in
      checkb "report says ok" true
        (let needle = "\"ok\":true" in
         let nl = String.length needle in
         let found = ref false in
         for i = 0 to String.length report - nl do
           if String.sub report i nl = needle then found := true
         done;
         !found))

(* A peer that closes its end must not kill the sender: a child
   process keeps sending to a closed socket endpoint and must exit 0
   (without SIGPIPE ignored it dies of signal 13). *)
let socket_send_to_closed_peer () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "sigpipe_child.exe"
  in
  let dir = Filename.temp_dir "csm_sigpipe" "" in
  Fun.protect
    ~finally:(fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let pid =
        Unix.create_process exe [| exe; dir |] Unix.stdin Unix.stdout
          Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "child exited %d" c
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        Alcotest.failf "child killed by signal %d%s" s
          (if s = Sys.sigpipe then " (SIGPIPE)" else ""))

(* [close] must not cut a frame its sender thread is still writing:
   send a multi-MiB frame and close at once, five times over; the live
   reader endpoint must receive every frame intact. *)
let socket_close_flushes_inflight_frame () =
  let dir = Filename.temp_dir "csm_close" "" in
  let addr = Csm_transport.Socket.Uds dir in
  let endpoint id = Csm_transport.Socket.endpoint ~addr ~id ~endpoints:2 in
  let reader = endpoint 1 in
  let payload = String.init (4 lsl 20) (fun i -> Char.chr (i * 7 land 0xff)) in
  Fun.protect
    ~finally:(fun () ->
      reader.Transport.close ();
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      for round = 0 to 4 do
        let writer = endpoint 0 in
        writer.Transport.send ~dst:1
          (Frame.make ~kind:Frame.Stats ~sender:0 ~round payload);
        writer.Transport.close ();
        match reader.Transport.recv ~timeout:5.0 with
        | None -> Alcotest.failf "round %d: frame lost at close" round
        | Some fr ->
          Alcotest.(check int) "round" round fr.Frame.round;
          Alcotest.(check bool)
            (Printf.sprintf "round %d payload intact" round)
            true
            (String.equal payload fr.Frame.payload)
      done)

let suites =
  [
    ( "transport",
      [
        Alcotest.test_case "frame round trip, all kinds" `Quick
          frame_round_trip;
        Alcotest.test_case "frame header round trip" `Quick
          frame_header_round_trip;
        Alcotest.test_case "frame fuzz: total decoding" `Quick frame_fuzz;
        Alcotest.test_case "frame rejects bad fields" `Quick
          frame_rejects_bad_fields;
        Alcotest.test_case "frame v2 round trip, all kinds" `Quick
          frame_v2_round_trip;
        Alcotest.test_case "frame v1/v2 cross-version" `Quick
          frame_cross_version;
        Alcotest.test_case "frame v2 extension rejection" `Quick
          frame_v2_ext_rejection;
        QCheck_alcotest.to_alcotest ~long:false qcheck_frame_round_trip;
        Alcotest.test_case "decimal decoder strictness" `Quick
          decimal_strictness;
        Alcotest.test_case "binary codec round trips" `Quick
          binary_round_trips;
        Alcotest.test_case "binary decoder strictness + fuzz" `Quick
          binary_strictness;
        Alcotest.test_case "sim sizers equal real wire bytes" `Quick
          sim_sizes_equal_wire_bytes;
        Alcotest.test_case "loopback send/recv/deadline/stats" `Quick
          loopback_send_recv;
        Alcotest.test_case "stats payload round trip" `Quick
          stats_payload_round_trip;
        Alcotest.test_case "cluster loopback fault-free" `Quick
          cluster_loopback_fault_free;
        Alcotest.test_case "cluster loopback drop fault" `Quick
          cluster_loopback_drop_fault;
        Alcotest.test_case "cluster loopback corrupt fault" `Quick
          cluster_loopback_corrupt_fault;
        Alcotest.test_case "cluster loopback delay fault" `Quick
          cluster_loopback_delay_fault;
        Alcotest.test_case "delay fault sleeps once per broadcast" `Quick
          cluster_loopback_delay_per_broadcast;
        Alcotest.test_case "cluster loopback deterministic" `Quick
          cluster_loopback_deterministic;
        Alcotest.test_case "cluster loopback streaming + alerts" `Quick
          cluster_loopback_streaming;
        Alcotest.test_case "cluster loopback telemetry + trace" `Quick
          cluster_loopback_telemetry;
        Alcotest.test_case "loopback = socket (binary, fault-free)" `Quick
          loopback_socket_equivalent;
        Alcotest.test_case "loopback = socket (binary, drop fault)" `Quick
          loopback_socket_equivalent_drop;
        Alcotest.test_case "socket corrupt fault detected" `Quick
          socket_corrupt_detected;
        Alcotest.test_case "socket close flushes an in-flight frame" `Quick
          socket_close_flushes_inflight_frame;
        Alcotest.test_case "socket send to a closed peer survives" `Quick
          socket_send_to_closed_peer;
        Alcotest.test_case "cluster loopback retains at most 2 rounds" `Quick
          cluster_loopback_retention;
        Alcotest.test_case "node window rejects a frame 2 rounds ahead" `Quick
          node_window_rule;
      ] );
  ]
