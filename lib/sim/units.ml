let us x = x *. 1_000.0

let gbps bw = bw /. 8.0 (* Gbit/s = bits per ns; /8 gives bytes per ns *)

let mops_to_ns_per_op rate =
  if Float.compare rate 0.0 <= 0 then invalid_arg "Units.mops_to_ns_per_op";
  1_000.0 /. rate
