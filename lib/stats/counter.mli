(** Named monotonic counters for experiment accounting (messages sent,
    bytes on the wire, aborts, cache hits, ...). *)

type t

val create : unit -> t

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val addf : t -> string -> float -> unit

val get : t -> string -> float

(** All counters, sorted by name. *)
val to_list : t -> (string * float) list
