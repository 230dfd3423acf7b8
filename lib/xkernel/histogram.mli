(** HDR-style latency histogram: log-bucketed, fixed sub-bucket
    precision, O(1) record.

    Values are non-negative integers in a caller-chosen unit (the load
    subsystem records microseconds).  The value range is covered by
    power-of-two buckets each split into 2^8 linear sub-buckets, so the
    relative recording error is bounded by 2^-7 (< 0.8%) while the
    whole structure is one flat [int array] — the classic
    HdrHistogram layout, sized here for a simulator rather than a
    wall clock.

    Everything is deterministic: same records in any order give the
    same counts, percentiles and JSON. *)

type t

val create : ?max_value:int -> unit -> t
(** [create ()] tracks values in [0, max_value] (default [10^9], i.e.
    1000 s when recording microseconds).  Values above [max_value] are
    clamped into the top bucket and counted in {!clamped}. *)

val record : t -> int -> unit
(** O(1).  Raises [Invalid_argument] on negative values. *)

val count : t -> int
val clamped : t -> int

val min_value : t -> int
(** Smallest recorded value ([0] when empty). *)

val max_value : t -> int
(** Largest recorded value, as clamped ([0] when empty). *)

val mean : t -> float
(** Arithmetic mean of recorded values ([0.] when empty). *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0, 100]: the highest value equivalent
    to the bucket holding the [ceil (p/100 * count)]-th recorded value
    — within one sub-bucket of the true quantile.  [0] when empty. *)

val merge_into : src:t -> dst:t -> unit
(** Add [src]'s counts into [dst].  Both histograms must share the
    same [max_value] (raises [Invalid_argument] otherwise).  [src] is unchanged. *)

val to_json : t -> Json.t
(** [{"count", "clamped", "min", "max", "mean", "p50", "p90", "p99",
    "p999"}] — values in the recording unit. *)
