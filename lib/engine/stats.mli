(** Exact order statistics for the paper figures. Mergeable, bounded
    distributions live in [Trace.Hist]. *)

(** [percentile p xs] with [p] in [0, 100], linear interpolation between
    order statistics. @raise Invalid_argument on empty input or bad [p]. *)
val percentile : float -> float list -> float
