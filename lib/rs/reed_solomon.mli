(** Reed–Solomon encoding and noisy-interpolation decoding over arbitrary
    evaluation points — the error-correction engine of CSM's execution
    phase (Section 5.2) and of the verified decoding of Section 6.2. *)

module Field_intf = Csm_field.Field_intf

module Make (F : Field_intf.S) : sig
  module P : module type of Csm_poly.Poly.Make (F)

  val max_errors : n:int -> k:int -> int
  (** Unique-decoding radius e = ⌊(n−k)/2⌋ for length n, dimension k.
      @raise Invalid_argument when n < k. *)

  val encode : message:P.t -> points:F.t array -> F.t array
  (** Evaluate the message polynomial (degree < k) at each point.
      @raise Invalid_argument when the degree is ≥ the code length. *)

  val encode_fast : message:P.t -> points:F.t array -> F.t array
  (** Same, via subproduct-tree multipoint evaluation (quasi-linear). *)

  type decoded = {
    poly : P.t;  (** recovered message polynomial, degree < k *)
    agreement : int list;
        (** positions where the codeword matches — the certificate set τ
            of equation (9) in the paper *)
    errors : int list;  (** corrected positions *)
  }

  val decode_bw : k:int -> (F.t * F.t) array -> decoded option
  (** Berlekamp–Welch: [None] when more than ⌊(n−k)/2⌋ errors. *)

  val decode_gao : k:int -> (F.t * F.t) array -> decoded option
  (** Gao's extended-Euclid decoder; same guarantee as [decode_bw]. *)

  type fast_ctx
  (** Round-independent precomputation for the optimistic decoder over a
      fixed, ordered received-point set (the Lagrange interpolation rows
      over the first k points and the Vandermonde rows over the rest —
      the Remark-4 argument).  Safe to share across domains once
      built. *)

  val prepare_fast : k:int -> F.t array -> fast_ctx
  (** @raise Invalid_argument when the point set is shorter than k. *)

  val decode_optimistic :
    ?ctx:fast_ctx ->
    ?suspects:int list ->
    k:int ->
    (F.t * F.t) array ->
    decoded option
  (** Optimistic fast path: interpolate the first k received points and
      accept when the candidate disagrees with at most ⌊(n−k)/2⌋ of the
      others (zero disagreements: the fault-free round), else fall back
      to [decode_gao], and finally — when [suspects] (indices into the
      pair array) is nonempty — to erasure-assisted decoding with the
      suspects pre-erased, always re-validated against the full pair
      set.  An accepted candidate is Gao's codeword, with the same
      [poly], [agreement] and [errors]; the fast path accepts it
      whenever the first k points are correct, so callers order
      suspected liars last.  Agrees with [decode_gao] on every input
      within the unique-decoding radius.  A [ctx] that does not match
      the pairs' points is ignored (a fresh one is built), so a stale
      cache can never corrupt a decode. *)

  type algorithm =
    | Gao  (** the full error decoder on every call: the reference *)
    | Optimistic  (** [decode_optimistic], the default *)

  val decode :
    ?algorithm:algorithm ->
    ?ctx:fast_ctx ->
    ?suspects:int list ->
    k:int ->
    (F.t * F.t) array ->
    decoded option
  (** Default algorithm is [Optimistic]; [ctx]/[suspects] are used by
      it and ignored by [Gao]. *)

  val decode_erasures : k:int -> (F.t * F.t) array -> decoded option
  (** Erasure-only (crash-fault) decoding: all received symbols trusted;
      needs only k symbols; [None] if the received symbols are not
      consistent with one degree-(k−1) polynomial. *)

  val corrupt : Csm_rng.t -> count:int -> F.t array -> F.t array * int list
  (** [corrupt rng ~count w] flips [count] distinct positions of [w] to
      fresh wrong values; returns the corrupted word and the sorted list
      of corrupted positions. *)
end
