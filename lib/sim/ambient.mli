(** Per-domain ambient values that the main domain reads as plain
    fields.

    The simulator's dynamically scoped state (the installed attribution
    frame, the sleep arguments) is per domain, because the windowed
    engine drains partitions on worker domains. A {!slot} holds a
    main-domain value and a [Domain.DLS] key: {!get} and {!set} use the
    plain value unless worker domains are running, and only then the
    calling domain's DLS cell. This is the one module that touches
    [Domain.DLS].

    Simulation code runs on the main domain or on an engine's worker
    domains; a domain spawned by other code must not run it, since it
    would share the main domain's values. *)

(** Both records are read-only outside this module. A hot reader may
    test [switch.shared] and read [main] itself, which on the main
    domain costs two field loads and no call; {!get} is the same test
    behind a call. *)
type 'a slot = private { mutable main : 'a; key : 'a Domain.DLS.key }

type switch = private { mutable shared : bool }

(** Set while an engine's worker domains run: then every domain,
    the main one included, must read its DLS cell. *)
val switch : switch

(** [slot init] makes a slot whose main value is [init ()] and whose
    DLS cells start as [init ()] on first use. Make slots at module
    initialisation only. *)
val slot : (unit -> 'a) -> 'a slot

val get : 'a slot -> 'a

val set : 'a slot -> 'a -> unit

(** Switch every slot to its DLS cells, handing the main values into
    the calling (main) domain's cells. Call it on the main domain just
    before spawning worker domains. Raises [Invalid_argument] if the
    switch is already on or the caller is not the main domain. *)
val begin_shared : unit -> unit

(** Take the main domain's values back from its DLS cells and switch
    every slot back to them. Call it on the main domain after the
    workers are joined, however the run ended. *)
val end_shared : unit -> unit
