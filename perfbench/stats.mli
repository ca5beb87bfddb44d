(** Order statistics for the benchmark's reports.

    Every timing is reported as a median plus the highest percentile of a
    fixed ladder that still has at least ten samples beyond it, together
    with the sample count; per-round values are summarised by their median
    and quartiles. *)

(** [median xs] of a non-empty list.  @raise Invalid_argument on [[]]. *)
val median : float list -> float

(** [percentile xs p] is the nearest-rank [p]-th percentile ([0 < p <= 100])
    of a non-empty list: the smallest sample with at least [p]% of the
    samples at or below it.  @raise Invalid_argument on [[]]. *)
val percentile : float list -> float -> float

(** The percentiles a tail may be reported at, lowest first. *)
val ladder : float list

(** [tail_percentile n] is the highest entry [p] of {!ladder} with at least
    ten of [n] samples beyond it ([n * (100 - p) / 100 >= 10]); [None] when
    even the median has fewer than ten samples beyond it. *)
val tail_percentile : int -> float option

(** [quartiles xs] are the first quartile, the median and the third quartile
    by the "exclusive" method of Python's [statistics.quantiles(xs, n=4)]
    (a single sample is its own quartiles).  @raise Invalid_argument on
    [[]]. *)
val quartiles : float list -> float * float * float

(** [spread xs] is the inter-quartile distance as a share of the median
    ([0.] when the median is [0.]). *)
val spread : float list -> float
