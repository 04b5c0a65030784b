(* Reed–Solomon codes over arbitrary evaluation points.

   CSM's execution phase is exactly noisy polynomial interpolation: the N
   coded results g_i = h(α_i) form an RS codeword of dimension
   d(K−1)+1 and length N, with up to b arbitrary errors (Section 5.2).
   Erasures (withheld messages in the partially synchronous setting) are
   handled by decoding the shortened code over the received points only.

   Three decoders are provided and cross-checked in the tests:
   - Berlekamp–Welch (the paper's named choice): one linear system,
     O(n³) by Gaussian elimination;
   - Gao: partial extended Euclid on (∏(z−xᵢ), interpolant), O(n²)
     with fast interpolation;
   - optimistic: interpolate the first k received points with a
     precomputed Lagrange coefficient matrix, verify the candidate
     against the remaining points with precomputed Vandermonde rows
     (the certificate set τ of equation (9) must be everything), and
     only on a mismatch fall back to Gao and then — when the caller has
     accumulated per-node suspicion — to erasure-assisted decoding with
     the suspects pre-erased.  The fault-free round therefore costs n
     dot products of length k instead of a full error decode, run on
     the byte-packed batch kernels when the field provides them; the
     matrices are round-independent (Remark 4) and can be cached by the
     caller via [prepare_fast].

   [decode] runs the optimistic decoder unless the caller pins Gao, the
   reference the rs-smoke bench and the determinism checks compare it
   against. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) = struct
  module P = Csm_poly.Poly.Make (F)
  module Lag = Csm_poly.Lagrange.Make (F)
  module Sub = Csm_poly.Subproduct.Make (F)
  module M = Csm_linalg.Linalg.Make (F)

  let max_errors ~n ~k =
    if n < k then invalid_arg "Reed_solomon.max_errors: n < k";
    (n - k) / 2

  let encode ~message ~points =
    if P.degree message >= Array.length points then
      invalid_arg "Reed_solomon.encode: message degree too high for length";
    Array.map (P.eval message) points

  let encode_fast ~message ~points = Sub.eval_all message points

  type decoded = {
    poly : P.t;  (* the recovered message polynomial, degree < k *)
    agreement : int list;  (* indices i with poly(xᵢ) = yᵢ (the set τ) *)
    errors : int list;  (* complement: positions corrected *)
  }

  let classify ~poly pairs =
    let agreement = ref [] and errors = ref [] in
    Array.iteri
      (fun i (x, y) ->
        if F.equal (P.eval poly x) y then agreement := i :: !agreement
        else errors := i :: !errors)
      pairs;
    (List.rev !agreement, List.rev !errors)

  (* Accept a candidate only if it satisfies the unique-decoding
     certificate: agreement on at least n - e positions. *)
  let validate ~k pairs poly =
    if P.degree poly > k - 1 then None
    else begin
      let n = Array.length pairs in
      let e = max_errors ~n ~k in
      let agreement, errors = classify ~poly pairs in
      if List.length agreement >= n - e then Some { poly; agreement; errors }
      else None
    end

  (* Berlekamp–Welch.  Unknowns: Q of degree <= k-1+e and monic E of
     degree e, satisfying Q(xᵢ) = yᵢ·E(xᵢ) for every i.  With E monic
     the linear system has k+2e unknowns and n >= k+2e equations:
       Σ_j Q_j xᵢʲ − yᵢ Σ_{j<e} E_j xᵢʲ = yᵢ xᵢᵉ. *)
  let decode_bw ~k pairs =
    let n = Array.length pairs in
    if n < k then None
    else begin
      let e = max_errors ~n ~k in
      if e = 0 then
        (* No error capacity: direct interpolation on the first k points,
           then validation against all of them. *)
        let sub = Array.sub pairs 0 k in
        let poly = Lag.interpolate sub in
        validate ~k pairs poly
      else begin
        let unknowns = k + (2 * e) in
        let a =
          M.init_mat n unknowns (fun i j ->
              let x, y = pairs.(i) in
              if j < k + e then F.pow x j
              else
                (* coefficient of E_{j-(k+e)} *)
                F.neg (F.mul y (F.pow x (j - (k + e)))))
        in
        let b =
          Array.map (fun (x, y) -> F.mul y (F.pow x e)) pairs
        in
        match M.solve a b with
        | None -> None
        | Some sol ->
          let q = P.normalize (Array.sub sol 0 (k + e)) in
          let e_coeffs = Array.make (e + 1) F.one in
          Array.blit sol (k + e) e_coeffs 0 e;
          let e_poly = P.normalize e_coeffs in
          let f, r = P.divmod q e_poly in
          if not (P.is_zero r) then None else validate ~k pairs f
      end
    end

  (* Gao decoder: partial extended Euclid on g₀ = ∏(z−xᵢ) and the full
     interpolant g₁, stopping when the remainder degree drops below
     ⌈(n+k)/2⌉; then f = g/v if the division is exact. *)
  let decode_gao ~k pairs =
    let n = Array.length pairs in
    if n < k then None
    else begin
      let points = Array.map fst pairs in
      let values = Array.map snd pairs in
      let tree = Sub.build points in
      let g0 = Sub.root_poly tree in
      let g1 = Sub.interpolate_tree tree values in
      if P.degree g1 <= k - 1 then validate ~k pairs g1
      else begin
        let stop = (n + k + 1) / 2 in
        let g, _u, v = P.xgcd_until ~stop g0 g1 in
        if P.is_zero v then None
        else
          let f, r = P.divmod g v in
          if not (P.is_zero r) then None else validate ~k pairs f
      end
    end

  (* ----- optimistic fast path ----- *)

  (* Round-independent precomputation for a fixed received-point set —
     the Remark-4 argument applied to decoding.  Two matrices:

       fc_interp  k×k     row i maps the first-k received values to
                          coefficient i of their interpolant (the
                          transposed Lagrange-basis coefficients)
       fc_vand    (n−k)×k row j evaluates a coefficient vector at tail
                          point x_{k+j} (Vandermonde row)

     so the per-round fast path is nothing but n dot products of length
     k — and when the field exposes byte-packed batch kernels the rows
     are additionally pre-packed (fc_interp_b / fc_vand_b) so each dot
     runs on Bytes with identical op counts.  The head needs no
     verification: interpolation is exact on its own points. *)
  type fast_ctx = {
    fc_points : F.t array;
    fc_k : int;
    fc_interp : F.t array array;
    fc_vand : F.t array array;
    fc_interp_b : Bytes.t array option;
    fc_vand_b : Bytes.t array option;
  }

  let prepare_fast ~k points =
    let n = Array.length points in
    if n < k || k < 1 then invalid_arg "Reed_solomon.prepare_fast";
    let head = Array.sub points 0 k in
    (* m(z) = ∏ⱼ (z − xⱼ) over the head, expanded incrementally *)
    let m = Array.make (k + 1) F.zero in
    m.(0) <- F.one;
    Array.iteri
      (fun j x ->
        for i = j + 1 downto 1 do
          m.(i) <- F.sub m.(i - 1) (F.mul x m.(i))
        done;
        m.(0) <- F.neg (F.mul x m.(0)))
      head;
    (* Lagrange basis Lⱼ = m/(z−xⱼ) · 1/m'(xⱼ): synthetic division
       gives qⱼ = m/(z−xⱼ), and m'(xⱼ) = qⱼ(xⱼ) *)
    let basis =
      Array.map
        (fun x ->
          let q = Array.make k F.zero in
          q.(k - 1) <- m.(k);
          for i = k - 1 downto 1 do
            q.(i - 1) <- F.add m.(i) (F.mul x q.(i))
          done;
          let at_x = ref F.zero in
          for i = k - 1 downto 0 do
            at_x := F.add (F.mul !at_x x) q.(i)
          done;
          let w = F.inv !at_x in
          Array.map (fun c -> F.mul w c) q)
        head
    in
    let interp =
      Array.init k (fun i -> Array.init k (fun j -> basis.(j).(i)))
    in
    let vand =
      Array.init (n - k) (fun j ->
          let x = points.(k + j) in
          let row = Array.make k F.one in
          for i = 1 to k - 1 do
            row.(i) <- F.mul row.(i - 1) x
          done;
          row)
    in
    let interp_b, vand_b =
      match F.batch () with
      | None -> (None, None)
      | Some b ->
        ( Some (Array.map b.Field_intf.pack interp),
          Some (Array.map b.Field_intf.pack vand) )
    in
    {
      fc_points = Array.copy points;
      fc_k = k;
      fc_interp = interp;
      fc_vand = vand;
      fc_interp_b = interp_b;
      fc_vand_b = vand_b;
    }

  let ctx_matches ctx ~k points =
    ctx.fc_k = k
    && Array.length ctx.fc_points = Array.length points
    && (let ok = ref true in
        Array.iteri
          (fun i x -> if not (F.equal x ctx.fc_points.(i)) then ok := false)
          points;
        !ok)

  let record_fastpath outcome =
    let module Metric = Csm_obs.Metric in
    if Metric.enabled () then
      Metric.inc (Csm_obs.Telemetry.rs_fastpath ~outcome)

  (* Optimistic decode: interpolate the first k received points, accept
     immediately when the candidate explains every point (zero errors —
     the common fault-free round), otherwise run the full error decoder,
     and as a last resort erase the [suspects] (indices into [pairs],
     e.g. nodes with accumulated decoder suspicion) and decode the
     shortened code.  Within the unique-decoding radius the result is
     identical to [decode_gao] (the fast path only ever accepts a
     zero-error full agreement, which Gao also finds); the erasure last
     resort extends the reach beyond that radius under the
     erasure-and-error certificate 2e + s <= n − k. *)
  let decode_optimistic ?ctx ?(suspects = []) ~k pairs =
    let n = Array.length pairs in
    if n < k || k < 1 then None
    else begin
      let ctx =
        match ctx with
        | Some c when ctx_matches c ~k (Array.map fst pairs) -> c
        | _ -> prepare_fast ~k (Array.map fst pairs)
      in
      let candidate =
        Csm_obs.Span.with_ ~name:"rs.fastpath" (fun () ->
            let head = Array.init k (fun i -> snd pairs.(i)) in
            (* n dot products of length k: interpolate through the
               head, then walk the tail Vandermonde rows, bailing at
               the first disagreeing point.  The scalar loop and the
               byte-packed kernels charge identical op counts, so
               ledgers are backend-independent. *)
            let scalar_dot row v =
              let acc = ref F.zero in
              for j = 0 to Array.length row - 1 do
                acc := F.add !acc (F.mul row.(j) v.(j))
              done;
              !acc
            in
            let coeffs, ok =
              match (F.batch (), ctx.fc_interp_b, ctx.fc_vand_b) with
              | Some b, Some irows, Some vrows ->
                let hv = b.Field_intf.pack head in
                let coeffs =
                  Array.map (fun row -> b.Field_intf.dot row hv) irows
                in
                let cv = b.Field_intf.pack coeffs in
                let ok = ref true and j = ref 0 in
                while !ok && !j < Array.length vrows do
                  if
                    F.equal (b.Field_intf.dot vrows.(!j) cv)
                      (snd pairs.(k + !j))
                  then incr j
                  else ok := false
                done;
                (coeffs, !ok)
              | _ ->
                let coeffs =
                  Array.map (fun row -> scalar_dot row head) ctx.fc_interp
                in
                let ok = ref true and j = ref 0 in
                while !ok && !j < Array.length ctx.fc_vand do
                  if
                    F.equal
                      (scalar_dot ctx.fc_vand.(!j) coeffs)
                      (snd pairs.(k + !j))
                  then incr j
                  else ok := false
                done;
                (coeffs, !ok)
            in
            if ok then
              Some
                {
                  poly = P.normalize coeffs;
                  agreement = List.init n Fun.id;
                  errors = [];
                }
            else None)
      in
      match candidate with
      | Some d ->
        record_fastpath "hit";
        Some d
      | None -> (
        match decode_gao ~k pairs with
        | Some d ->
          record_fastpath "fallback";
          Some d
        | None ->
          let survivors =
            let keep = Array.make n true in
            List.iter
              (fun i -> if i >= 0 && i < n then keep.(i) <- false)
              suspects;
            let out = ref [] in
            for i = n - 1 downto 0 do
              if keep.(i) then out := pairs.(i) :: !out
            done;
            Array.of_list !out
          in
          if
            suspects = []
            || Array.length survivors = n
            || Array.length survivors < k
          then None
          else
            (* Erasure-assisted: decode the shortened code with the
               suspects pre-erased.  [decode_gao] certifies the result
               against the survivors' own radius, which is exactly the
               erasure-and-error bound 2e + s <= n − k (s erased
               suspects, e errors among the survivors) — a wrong
               suspicion only shrinks the survivor set, it cannot relax
               that certificate.  The agreement set τ and the corrected
               positions are then reclassified against the full pair
               set, so suspects that actually lied surface in
               [errors]. *)
            match decode_gao ~k survivors with
            | None -> None
            | Some d ->
              let agreement, errors = classify ~poly:d.poly pairs in
              record_fastpath "erasure";
              Some { poly = d.poly; agreement; errors })
    end

  type algorithm = Gao | Optimistic

  let algorithm_name = function Gao -> "gao" | Optimistic -> "optimistic"

  let decode ?(algorithm = Optimistic) ?ctx ?suspects ~k pairs =
    Csm_obs.Span.with_ ~name:"rs.decode" (fun () ->
        let result =
          match algorithm with
          | Gao -> decode_gao ~k pairs
          | Optimistic -> decode_optimistic ?ctx ?suspects ~k pairs
        in
        let module Metric = Csm_obs.Metric in
        let module Tel = Csm_obs.Telemetry in
        if Metric.enabled () then begin
          let alg = algorithm_name algorithm in
          (match result with
          | Some d ->
            Metric.inc
              (Tel.rs_decodes ~algorithm:alg
                 ~outcome:(if d.errors = [] then "clean" else "corrected"));
            if d.errors <> [] then
              Metric.inc ~by:(List.length d.errors) Tel.rs_corrected_symbols
          | None -> Metric.inc (Tel.rs_decodes ~algorithm:alg ~outcome:"failed"))
        end;
        result)

  (* Erasure-only decoding (crash faults): every received symbol is
     trusted, so interpolating through any k of them must explain all of
     them.  O(n·k) after interpolation — much cheaper than error
     decoding, and it needs only k symbols instead of k + 2e. *)
  let decode_erasures ~k pairs =
    let n = Array.length pairs in
    if n < k then None
    else begin
      let poly = Lag.interpolate (Array.sub pairs 0 k) in
      let agreement, errors = classify ~poly pairs in
      if errors = [] then Some { poly; agreement; errors }
      else None
    end

  (* Corrupt a codeword in [count] distinct positions chosen by [rng],
     guaranteeing each corrupted symbol actually changes.  Test/adversary
     utility. *)
  let corrupt rng ~count codeword =
    let n = Array.length codeword in
    if count > n then invalid_arg "Reed_solomon.corrupt: count > n";
    let word = Array.copy codeword in
    let idx = Csm_rng.sample rng ~n ~k:count in
    Array.iter
      (fun i ->
        let rec fresh () =
          let v = F.random rng in
          if F.equal v codeword.(i) then fresh () else v
        in
        word.(i) <- fresh ())
      idx;
    (word, Array.to_list idx |> List.sort Int.compare)
end
