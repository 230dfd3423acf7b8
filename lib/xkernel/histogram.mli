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

val create : unit -> t
(** [create ()] tracks values in [0, 10^8] (100 s when recording
    microseconds); larger ones land in the top bucket, as its highest
    value 134,217,727, and are counted as clamped. *)

val record : t -> int -> unit
(** O(1).  Raises [Invalid_argument] on negative values. *)

val count : t -> int

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0, 100]: the highest value equivalent
    to the bucket holding the [ceil (p/100 * count)]-th recorded value
    — within one sub-bucket of the true quantile.  [0] when empty. *)

val merge_into : src:t -> dst:t -> unit
(** Add [src]'s counts into [dst].  [src] is unchanged. *)

val to_json : t -> Json.t
(** [{"count", "clamped", "min", "max", "mean", "p50", "p90", "p99",
    "p999"}] — values in the recording unit; the count of clamped
    values, the smallest and largest recorded (as clamped) and their
    arithmetic mean are [0] when empty. *)
