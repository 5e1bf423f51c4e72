(** Common key-value definitions shared by all store structures. *)

module Key : sig
  type t = int
  (** 63-bit keys. Benchmarks encode composite keys (table, warehouse,
      district, ...) into the integer. *)

  (** Strong avalanche hash (SplitMix64 finalizer) used by every hash
      structure, so occupancy behaviour matches a uniform keyspace. *)
  val hash : t -> int

  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end

(** Hash tables keyed by {!Key.t}: {!Key.hash} and [Int.equal], with
    neither the polymorphic hash nor the polymorphic compare. *)
module Key_tbl : Hashtbl.S with type key = Key.t

(** Objects above this size are stored out-of-line: the hash table slot
    holds a pointer and the payload is fetched with a dedicated DMA
    read (§4.1.2). *)
val inline_max : int

(** Size in bytes of per-object slot metadata (key, displacement,
    sequence number, length). *)
val slot_header_b : int

(** [slot_bytes ~value_b] is the wire/DMA size of one table slot
    holding a value of [value_b] bytes (clamped at [inline_max] for
    out-of-line objects). *)
val slot_bytes : value_b:int -> int
