(** Xenic's host-side Robinhood hash table (§4.1.2).

    A closed table with linear probing where insertions displace
    better-placed residents ("stealing displacement wealth"), keeping
    probe distances uniform even at high occupancy — the property that
    makes hint-bounded single-DMA remote lookups possible.

    Xenic's modifications to the classic design, all implemented here:

    - a global displacement limit [d_max]; an element whose displacement
      would reach it goes to the overflow bucket of the segment holding
      its initial hash position;
    - fixed-size segments, each with its own overflow bucket and a
      host-maintained max-displacement value (the source of the NIC's
      dᵢ location hints);
    - deletion without tombstones: an overflow element is swapped over
      the deleted slot when possible, otherwise a bounded backward
      shift;
    - DMA-consistent swapping: insertion builds a copy list and applies
      moves starting from the free slot, so a concurrent reader never
      observes a missing element ([on_step] exposes every intermediate
      state for verification);
    - objects larger than {!Kv.inline_max} are stored out of line, with
      only a pointer in the slot.

    Sequence numbers: each slot carries the object's version ([seq]),
    updated by [update]; validation reads compare against it. *)

type 'v t

(** [create ~segments ~seg_size ~d_max ~vsize] makes an empty table of
    [segments * seg_size] slots. [d_max = None] disables the
    displacement limit and overflow buckets. [vsize] reports a value's
    payload size in bytes (for DMA/wire accounting). *)
val create :
  segments:int -> seg_size:int -> d_max:int option -> vsize:('v -> int) -> 'v t

val capacity : 'v t -> int

(** Tests compare it with their models' key counts. *)
val size : 'v t -> int

val occupancy : 'v t -> float

val d_max : 'v t -> int option

(** Tests walk every segment with it when they compare two tables. *)
val segments : 'v t -> int

(** Initial hash slot of a key. *)
val home : 'v t -> Kv.Key.t -> int

(** Segment containing slot [pos]. *)
val segment_of_pos : 'v t -> int -> int

(** Host-maintained maximum displacement of elements whose home lies in
    [seg] — a monotone upper bound; the NIC's dᵢ hints trail it. *)
val seg_disp_bound : 'v t -> int -> int

(** Number of elements in [seg]'s overflow bucket. *)
val overflow_count : 'v t -> int -> int

(** The result of an insertion. *)
type insert_outcome =
  | Inserted  (** Placed in the table. *)
  | Replaced  (** Key existed; value updated in place. *)
  | Overflowed  (** Displacement limit reached; landed in overflow. *)

(** [insert ?on_step t k v] inserts or updates. [on_step] runs after
    each individual slot move of the copy-list application, letting
    tests check the no-missing-element invariant mid-insert. Raises
    [Failure] if the table is full. *)
val insert : ?on_step:(unit -> unit) -> 'v t -> Kv.Key.t -> 'v -> insert_outcome

(** Local lookup: value and sequence number. *)
val find : 'v t -> Kv.Key.t -> ('v * int) option

(** {!find} without the sequence number: one [Some], no pair. *)
val find_value : 'v t -> Kv.Key.t -> 'v option

(** [update t k v ~seq] overwrites an existing object's value and sets
    its sequence number (commit application). Returns [false] if the
    key is absent. *)
val update : 'v t -> Kv.Key.t -> 'v -> seq:int -> bool

(** Delete via overflow swap or bounded backward shift. Returns [true]
    if the key was present. *)
val delete : 'v t -> Kv.Key.t -> bool

(** {2 Version-guarded commit application}

    Both probe for the key once, so a replayed or reordered log record
    never regresses a newer version. *)

(** [put_newer t k v ~seq] stores [v] at version [seq] unless [k] is
    already present at a version [>= seq]; an absent key is inserted. *)
val put_newer : 'v t -> Kv.Key.t -> 'v -> seq:int -> unit

(** [delete_older t k ~seq] deletes [k] if present at a version
    [< seq]. *)
val delete_older : 'v t -> Kv.Key.t -> seq:int -> unit

(** Displacement of a present key: [`Table of int] or [`Overflow].
    Tests check displacement and overflow placement with it. *)
val locate : 'v t -> Kv.Key.t -> [ `Table of int | `Overflow ] option

(** {2 Remote-lookup scanning}

    These model what a DMA read of a slot region observes; the NIC
    caching index plans reads with them. *)

type scan_result =
  | Hit of { disp : int; seq : int; out_of_line : bool }
      (** Found at displacement [disp] from home. *)
  | Miss_empty of int  (** Probe hit an empty slot after reading [n]. *)
  | Miss_exhausted  (** Region exhausted without hitting empty. *)

(** [scan t k ~from_disp ~slots] examines displacement positions
    [from_disp, from_disp + slots) relative to [k]'s home. *)
val scan : 'v t -> Kv.Key.t -> from_disp:int -> slots:int -> scan_result

(** Fetch by exact displacement (after a successful scan). *)
val value_at : 'v t -> Kv.Key.t -> disp:int -> ('v * int) option

(** DMA size in bytes of the slot region
    [home k + from_disp, home k + from_disp + slots). *)
val region_bytes : 'v t -> Kv.Key.t -> from_disp:int -> slots:int -> int

(** DMA size in bytes of [k]'s segment overflow bucket. *)
val overflow_bytes : 'v t -> Kv.Key.t -> int

(** Search the overflow bucket for [k]'s segment: value, seq, and the
    bucket size read. *)
val find_overflow : 'v t -> Kv.Key.t -> ('v * int) option * int

(** Payload size of a value, per the table's [vsize]. *)
val value_bytes : 'v t -> 'v -> int

(** Iterate all (key, value, seq), table then overflow. *)
val iter : 'v t -> (Kv.Key.t -> 'v -> int -> unit) -> unit

(** Iterate table-resident elements as (home position, displacement) —
    the source for fine-grained NIC hints. *)
val iter_home_disp : 'v t -> (home:int -> disp:int -> unit) -> unit

(** [clone_into ~src ~dst] makes [dst] an exact copy of [src]: every
    slot, displacement bound, overflow bucket and count, so it behaves
    as [src] would under any later operation. [dst]'s previous contents
    are discarded. The two share no mutable state afterwards; the values
    themselves are shared, not copied. Raises [Invalid_argument] unless
    both tables have the same [segments], [seg_size] and [d_max]. *)
val clone_into : src:'v t -> dst:'v t -> unit
