(** Write operations produced by transaction execution and shipped
    through LOG / COMMIT records. *)

type t =
  | Put of Keyspace.t * bytes  (** Insert or overwrite. *)
  | Delete of Keyspace.t

val key : t -> Keyspace.t

(** Payload bytes carried on the wire / in log records. *)
val bytes : t -> int
