(* Fixed-width window arithmetic for the telemetry flight recorder.
   Pure functions of (t0, width, t_end) and the queried instant — no
   engine events, no mutable state — so attaching a window clock to a
   run can never perturb it. *)

type t = { t0 : float; width : float }

let make ~t0 ~width_ns =
  if Float.compare width_ns 0.0 <= 0 then
    invalid_arg "Wclock.make: width_ns must be > 0";
  { t0; width = width_ns }

let t0 t = t.t0

let width_ns t = t.width

let index t time =
  let i = int_of_float (Float.floor ((time -. t.t0) /. t.width)) in
  if i < 0 then 0 else i

let start_of t i = t.t0 +. (float_of_int i *. t.width)

let n_windows t ~t_end =
  if Float.compare t_end t.t0 <= 0 then 0
  else int_of_float (Float.ceil ((t_end -. t.t0) /. t.width))

let clamped_index t ~t_end time =
  let last = n_windows t ~t_end - 1 in
  let i = index t time in
  if last < 0 then 0 else if i > last then last else i

let width_at t ~t_end i =
  let hi = Float.min t_end (start_of t (i + 1)) in
  let w = hi -. start_of t i in
  if Float.compare w 0.0 < 0 then 0.0 else w

let integrate t ?t_end ~from ~until ~value f =
  let from = Float.max from t.t0 in
  let until = match t_end with Some te -> Float.min until te | None -> until in
  if Float.compare until from > 0 then begin
    let idx time =
      match t_end with
      | Some te -> clamped_index t ~t_end:te time
      | None -> index t time
    in
    for i = idx from to idx until do
      (* [until <= t_end], so window [i]'s end needs no extra clip. *)
      let w_lo = Float.max from (start_of t i) in
      let w_hi = Float.min until (start_of t (i + 1)) in
      let overlap = w_hi -. w_lo in
      if Float.compare overlap 0.0 > 0 then f i (value *. overlap)
    done
  end
