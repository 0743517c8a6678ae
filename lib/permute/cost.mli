(** Cost model for candidate pass sequences.

    Every pass runs the paper's decomposed 2-D transposition over the
    whole buffer, so the count to price is the element touches of
    Theorem 6 (at most [6mn] reads+writes per transpose), times the
    batch count. The score prices those touches the way the executor
    ({!Xpose_core.Tensor_nd}) spends them, in units of one flat element
    touch:

    - a [block = 1] pass touches plain elements: 1 each;
    - a [block > 1] pass touches whole blocks through a blocked view,
      whose every access fills a fresh block-sized temporary:
      [4 + block/2] per block touch (a fixed access price plus a
      per-element copy), so large blocks amortize the access and blocks
      of 2 or 3 cost more per element than a flat pass;
    - every 2-D transpose call (one per batch slice) adds 24 for its
      views and setup.

    The three prices are rounded ratios from a least-squares fit of
    per-candidate times over every minimal-pass candidate of the
    [permute] experiment's problems at several sizes. The former
    cache-line multiplier [1 + 7/block] under-priced blocked passes
    several-fold and ordered measured candidate pairs barely better than
    chance. The per-pass auxiliary space is [block * max rows cols]
    elements (Theorem 6's bound applied to block elements); the model
    reports the maximum over the passes and uses it only to break ties.

    The arithmetic is injected via {!arith} so higher layers can feed the
    exact [Plan]/[Theory] quantities of [xpose_core]
    ([Xpose_core.Tensor_nd.plan_arith] does exactly that); the default
    {!theorem6_arith} is a pure restatement of the same Theorem 6 count,
    asserted equal to the measured [Theory.theorem6_work_and_space] in
    the test suite. *)

type arith = {
  transpose_touches : m:int -> n:int -> int;
      (** Element reads+writes of one in-place [m x n] transpose, with
          [m >= n] (the orientation the executor picks). *)
  transpose_scratch : m:int -> n:int -> int;
      (** Scratch elements of one in-place [m x n] transpose. *)
}

val theorem6_arith : arith
(** Theorem 6 in closed form: [4mn] for the row and column shuffles,
    plus [2m(n - n/c)] pre-rotation touches when [c = gcd(m,n) > 1]
    (columns whose rotation amount is zero are not touched), and
    [max m n] scratch. *)

type t = {
  passes : int;  (** primitive passes *)
  touches : int;  (** total element reads+writes across all passes *)
  scratch : int;  (** peak scratch elements of any single pass *)
  score : float;  (** the comparable figure of merit (lower is better) *)
}

val zero : t
(** The cost of doing nothing (the fused identity). *)

val of_passes : ?arith:arith -> Decompose.pass list -> t
val compare : t -> t -> int
(** Orders by [score], then fewer [passes], then smaller [scratch],
    then fewer [touches]. *)

val pp : Format.formatter -> t -> unit
