(** Static determinism/correctness lint over the simulator's OCaml
    sources.

    The simulator's headline claim is bit-for-bit reproducibility from a
    scheduler seed, so the patterns that silently break it — ambient
    randomness, wall-clock reads, hash-table iteration order leaking into
    results — are banned mechanically rather than by code review.

    Each source file is parsed with [compiler-libs] and walked with
    {!Ast_iterator}; files that fail to parse fall back to a lexical
    line scan so the lint degrades rather than going blind.

    A finding on line [n] is suppressed by an allowlist comment
    [(* xenic-lint: allow RULE-ID *)] on line [n] or [n-1], or for the
    whole file by [(* xenic-lint: allow-file RULE-ID *)] anywhere. *)

type rule =
  | Random_global
      (** [RANDOM]: use of the ambient [Random.*] state outside
          [lib/sim/rng.ml]. All randomness must flow through seeded
          {!Rng.t} streams. *)
  | Wall_clock
      (** [WALL-CLOCK]: [Unix.gettimeofday], [Unix.time] or [Sys.time]
          — real time must never influence simulated results. Scoped
          more tightly than the other rules: [allow-file] never
          suppresses it, and a per-line [allow WALL-CLOCK] counts only
          when the directive also carries a [timer:<tag>] token naming
          the wall-clock timer it feeds (e.g. the `bench sim`
          events/sec measurement:
          [(* xenic-lint: allow WALL-CLOCK timer:bench-sim *)]). *)
  | Hashtbl_order
      (** [HASHTBL-ORDER]: [Hashtbl.fold]/[Hashtbl.iter] whose result is
          not passed through a sort — iteration order depends on
          insertion history and hashing, so it must be normalized before
          it can affect output. *)
  | Float_compare
      (** [FLOAT-CMP]: polymorphic [compare]/[min]/[max] on floats, or
          [=]/[<>] against float literals — NaN-unsound and a trap for
          future non-float instantiations. *)
  | Obj_magic  (** [OBJ-MAGIC]: any use of [Obj.magic]. *)
  | Catch_all
      (** [CATCH-ALL]: [try ... with _ ->] (or a lone wildcard handler)
          — swallows [Stack_overflow], [Assert_failure] and sanitizer
          exceptions alike. *)

val rule_id : rule -> string

(** The allowlist parser's lookup; test_lint's round-trip case checks that
    every rule's id parses back. *)
val rule_of_id : string -> rule option

(* ---- Allowlist directives (shared with the analyzer passes) ------- *)

(** Tokenizer for [(* xenic-lint: ... *)] directive payloads: splits on
    spaces, tabs and the comment-closer characters ([*], [)]), dropping
    empty tokens — so ["allow RANDOM*)"] and ["allow\tRANDOM *)"] both
    yield [["allow"; "RANDOM"]]. Exposed for tests. *)
val split_tokens : string -> string list

(** Parsed allowlist of one source file: per-line and file-wide [allow]
    directives plus [atomic <tag>] critical-section names. *)
type allowlist

val allowlist_of_source : string -> allowlist

(** The [atomic <tag>] critical-section name covering [line] (the line
    itself or the one above), if any. A bare [atomic] with no tag names
    nothing. Used by the ATOMICITY pass: an atomicity finding is only
    ever suppressed by a named tag, never by [allow]/[allow-file]. *)
val atomic_tag : allowlist -> line:int -> string option

type finding = {
  rule : rule;
  file : string;
  line : int;
  message : string;
}

(** [finding |> to_string] renders ["file:line: [RULE-ID] message"]. *)
val to_string : finding -> string

(** Lint a source given inline, findings sorted by line. [filename]
    participates in path-based exemptions as an on-disk path does. The
    library lints files through {!lint_roots}; the rule tests need
    sources without files. *)
val lint_string : filename:string -> string -> finding list

(** Recursively collect [.ml] files under each root (sorted), lint each,
    and return all findings. Skips [_build] and dotted directories. *)
val lint_roots : string list -> finding list

(* ---- Source loading (shared with the analyzer passes) ------------- *)

(** Recursively collect [.ml] files under each root, sorted by path.
    Skips [_build] and dotted directories. *)
val collect_ml_files : string list -> string list

(** {!collect_ml_files} for any file name suffix (e.g. [".mli"]). *)
val collect_files : suffix:string -> string list -> string list

(** Parse one implementation with compiler-libs; [None] if the parser
    rejects it (the analyzer passes skip such files, the classic lint
    falls back to the lexical scan). *)
val parse_impl : filename:string -> string -> Parsetree.structure option

(** Read a file from disk. *)
val read_file : string -> string
