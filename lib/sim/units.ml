let us x = x *. 1_000.0

let gbps bw = bw /. 8.0 (* Gbit/s = bits per ns; /8 gives bytes per ns *)

