(** Fixed-width window clock over simulated time.

    The shared boundary arithmetic behind the telemetry flight
    recorder: simulated time from an anchor [t0] is bucketed into
    half-open windows [[t0 + i*w, t0 + (i+1)*w)); an event landing
    exactly on an edge belongs to the {e right} (later) window. An
    accounting cutoff [t_end] closes the sequence: the final window is
    clipped to [t_end] and is {e closed} at it, so an event at exactly
    [t_end] folds into the last positive-width window and a zero-width
    phantom window can never materialize (the zero-width case arises
    whenever [t_end] falls exactly on an edge).

    Pure arithmetic — no events are ever scheduled, so observing a
    simulation through a window clock cannot perturb it. *)

type t

(** [make ~t0 ~width_ns] anchors a clock. [width_ns] must be > 0. *)
val make : t0:float -> width_ns:float -> t

val t0 : t -> float

val width_ns : t -> float

(** Uncut window index of [time] (floor semantics; times before [t0]
    clamp to window 0). *)
val index : t -> float -> int

(** Start instant of window [i]. *)
val start_of : t -> int -> float

(** Number of windows in [[t0, t_end]]; 0 when [t_end <= t0]. Equal to
    [ceil ((t_end - t0) / width)], so an exact multiple yields exactly
    that many windows and no zero-width tail. *)
val n_windows : t -> t_end:float -> int

(** [clamped_index t ~t_end time]: window of [time] folded into the
    final window of the [[t0, t_end]] range — the accounting index for
    an event at or before the cutoff. *)
val clamped_index : t -> t_end:float -> float -> int

(** Width of window [i] clipped to [t_end] (the final window may be
    partial). *)
val width_at : t -> t_end:float -> int -> float

(** [integrate t ?t_end ~from ~until ~value f] integrates a
    piecewise-constant gauge holding [value] over [[from, until]],
    calling [f win area_ns] once per overlapped window in ascending
    window order with [area_ns = value * overlap]. The span is clipped
    to [[t0, t_end]]; an empty or inverted span integrates nothing.
    Without [t_end] the span is open-ended: it is clipped at [t0] only
    and split over uncut windows (window indices may run past a cutoff
    set later). This is how occupancy integrals split across window
    boundaries without any sampling events. *)
val integrate :
  t ->
  ?t_end:float ->
  from:float ->
  until:float ->
  value:float ->
  (int -> float -> unit) ->
  unit
