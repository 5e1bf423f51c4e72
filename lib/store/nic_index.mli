(** SmartNIC caching index over a host-side Robinhood table (§4.1.3).

    The index lives in NIC DRAM and plays three roles:

    - an object cache, so hot remote reads never touch PCIe;
    - per-segment displacement hints dᵢ bounding the host region a
      cache-miss lookup must DMA, targeting a common-case single read;
    - the home of transaction metadata — lock state and version numbers
      for objects touched by ongoing transactions (locks live only
      here, §4.2.1).

    Hardware costs are reported through an {!io} record so the protocol
    layer can charge the simulated DMA engine / NIC memory while Table 2
    simply counts (objects read, roundtrips). Hints trail the host's
    true displacement bounds when the host inserts concurrently; a
    lookup reads the paper's dᵢ + k slots from the key's home, where
    the hint dᵢ is inclusive of the furthest known displacement and
    k = 1 ([max 1 (min (hint + 1) limit)] slots, [limit] the table's
    displacement bound), and falls back to a second adjacent read, or
    the segment's overflow page, exactly as in the paper. One hint
    covers 4 home slots. *)

type 'v t

type io = {
  nic_mem : unit -> unit;  (** One NIC-DRAM access (cache/metadata hit). *)
  dma_read : slots:int -> bytes:int -> unit;
      (** One host-memory DMA read of a slot region or overflow page. *)
}

(** Zero-cost [io] for pure accounting contexts. *)
val free_io : io

(** [create ~host ~cache_capacity ()] builds the index (call
    {!sync_hints} after bulk loading). [cache_capacity] bounds cached
    {e values} (metadata is small and unbounded). *)
val create : host:'v Robinhood.t -> cache_capacity:int -> unit -> 'v t

val host : 'v t -> 'v Robinhood.t

(** {2 Remote read path} *)

(** [read t io k] performs the full lookup: NIC cache, then hint-guided
    DMA read(s), then overflow page. Returns value and version. *)
val read : 'v t -> io -> Kv.Key.t -> ('v * int) option

(** Version of [k] for validation ([None] = absent); same path as
    {!read} but served by metadata when present. *)
val version : 'v t -> io -> Kv.Key.t -> int option

(** {2 Transaction metadata} *)

(** [try_lock t io k ~owner] acquires [k]'s write lock, creating the
    index entry if needed. [`Acquired] reports the pre-lock version
    ([0] for an absent key about to be inserted). *)
val try_lock :
  'v t -> io -> Kv.Key.t -> owner:int -> [ `Acquired of int | `Locked ]

val unlock : 'v t -> Kv.Key.t -> owner:int -> unit

val is_locked : 'v t -> Kv.Key.t -> bool

(** All currently locked keys with their owners, sorted — for
    end-of-run protocol audits (a quiesced node must report []). *)
val locked_keys : 'v t -> (Kv.Key.t * int) list

val lock_owner : 'v t -> Kv.Key.t -> int option

(** {2 Commit path} *)

(** [apply_commit t k v] installs the new value and bumped version in
    the index and pins the entry: it cannot be evicted until the host
    has applied the update ({!host_applied}), so no NIC lookup can read
    a stale host object. Returns the new version. *)
val apply_commit : 'v t -> Kv.Key.t -> 'v -> int

(** Commit a deletion: the entry is marked absent (reads return [None])
    and pinned until the host applies the delete. *)
val apply_delete : 'v t -> Kv.Key.t -> unit

(** Host Robinhood worker finished applying [k]'s committed write:
    unpin, making the cache entry evictable. *)
val host_applied : 'v t -> Kv.Key.t -> unit

(** {2 Introspection} *)

val cached_values : 'v t -> int

val hint : 'v t -> seg:int -> int

val cache_hits : 'v t -> int

(** Re-synchronize all hints with the host's bounds (bulk load). *)
val sync_hints : 'v t -> unit

(** Populate the object cache from the host table (up to capacity),
    modeling the steady state after a warmup period — the regime the
    paper's measurements are taken in. *)
val prewarm : 'v t -> unit
