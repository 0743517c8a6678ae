(** Cost model for candidate pass sequences.

    Every pass runs the paper's decomposed 2-D transposition over the
    whole buffer, so the count to price is the element touches of
    Theorem 6 (at most [6mn] reads+writes per transpose), times the
    batch count. The score prices those touches the way the executor
    ({!Xpose_core.Tensor_nd}) spends them, in units of one flat element
    touch:

    - a flat pass ([batch = 1, block = 1]) runs the plain 2-D kernel on
      single elements: 1 per touch;
    - every other pass runs the strided unit kernel, which moves a whole
      [block]-element unit per touch with one contiguous copy:
      [1 + block/8] per unit touch (a fixed access price plus a
      per-element copy), so batched passes of single elements cost a
      little more than a flat pass and large blocks amortize the access;
    - every 2-D transpose call (one per batch slice) adds 64 for its
      setup and per-phase bookkeeping.

    The three prices are rounded ratios from a least-squares fit
    (weighted to relative error) of per-candidate times over every
    minimal-pass candidate of the [permute] experiment's problems at
    bases 12, 16 and 24. They are constants of the executor: re-fit them
    when its unit moves change. The per-pass auxiliary space is
    [block * max rows cols] elements (Theorem 6's bound applied to block
    elements); the model reports the maximum over the passes and uses it
    only to break ties.

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
