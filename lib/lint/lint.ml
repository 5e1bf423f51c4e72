type rule =
  | Random_global
  | Wall_clock
  | Hashtbl_order
  | Float_compare
  | Obj_magic
  | Catch_all
  | Bytes_mutation

let rule_id = function
  | Random_global -> "RANDOM"
  | Wall_clock -> "WALL-CLOCK"
  | Hashtbl_order -> "HASHTBL-ORDER"
  | Float_compare -> "FLOAT-CMP"
  | Obj_magic -> "OBJ-MAGIC"
  | Catch_all -> "CATCH-ALL"
  | Bytes_mutation -> "BYTES-MUTATION"

let all_rules =
  [
    Random_global;
    Wall_clock;
    Hashtbl_order;
    Float_compare;
    Obj_magic;
    Catch_all;
    Bytes_mutation;
  ]

let rule_of_id id = List.find_opt (fun r -> rule_id r = id) all_rules

type finding = { rule : rule; file : string; line : int; message : string }

let to_string f =
  Printf.sprintf "%s:%d: [%s] %s" f.file f.line (rule_id f.rule) f.message

(* ------------------------------------------------------------------ *)
(* Small string helpers (no external deps).                            *)

let find_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = find_substring s sub <> None

(* ------------------------------------------------------------------ *)
(* Allowlist comments.

   [(* xenic-lint: allow RULE-ID ... *)]      suppresses on this / next line
   [(* xenic-lint: allow-file RULE-ID ... *)] suppresses in the whole file

   WALL-CLOCK is deliberately harder to suppress than the other rules:
   an unannotated wall-clock read in simulation code silently breaks
   result determinism. It has no file-wide exemption, and a per-line
   [allow WALL-CLOCK] only counts when the directive also names the
   timer it feeds with a [timer:<tag>] token, e.g.

     [(* xenic-lint: allow WALL-CLOCK timer:bench-sim *)]

   so each read is individually identified (the `bench sim` events/sec
   timer), never waved through per file or with a bare [allow]. *)

let directive_key = "xenic-lint:"

let timer_tag_prefix = "timer:"

let has_timer_tag tokens =
  let n = String.length timer_tag_prefix in
  List.exists
    (fun tok -> String.length tok > n && String.sub tok 0 n = timer_tag_prefix)
    tokens

let split_tokens s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '*')
  |> List.concat_map (String.split_on_char ')')
  |> List.filter (fun t -> t <> "")

type allowlist = {
  per_line : (int, rule list) Hashtbl.t;
  mutable file_wide : rule list;
  atomic_tags : (int, string) Hashtbl.t;
      (* [(* xenic-lint: atomic <tag> *)] — names one intentionally-held
         critical section for the ATOMICITY pass. Like [timer:<tag>] for
         WALL-CLOCK, a tag is mandatory: a bare [atomic] names nothing
         and suppresses nothing. *)
}

let allowlist_of_lines lines =
  let t =
    { per_line = Hashtbl.create 8; file_wide = []; atomic_tags = Hashtbl.create 8 }
  in
  List.iteri
    (fun i line ->
      match find_substring line directive_key with
      | None -> ()
      | Some idx ->
          let start = idx + String.length directive_key in
          let rest = String.sub line start (String.length line - start) in
          (match split_tokens rest with
          | "allow-file" :: ids ->
              t.file_wide <-
                List.filter
                  (fun r -> r <> Wall_clock)
                  (List.filter_map rule_of_id ids)
                @ t.file_wide
          | "allow" :: ids ->
              let rules = List.filter_map rule_of_id ids in
              let rules =
                if has_timer_tag ids then rules
                else List.filter (fun r -> r <> Wall_clock) rules
              in
              Hashtbl.replace t.per_line (i + 1) rules
          | "atomic" :: tag :: _ -> Hashtbl.replace t.atomic_tags (i + 1) tag
          | _ -> ()))
    lines;
  t

let suppressed allow rule line =
  let at l =
    match Hashtbl.find_opt allow.per_line l with
    | Some rs -> List.mem rule rs
    | None -> false
  in
  List.mem rule allow.file_wide || at line || at (line - 1)

(* The atomic tag covering [line]: on the line itself or the one above,
   exactly like per-line [allow] scoping. *)
let atomic_tag allow ~line =
  match Hashtbl.find_opt allow.atomic_tags line with
  | Some _ as t -> t
  | None -> Hashtbl.find_opt allow.atomic_tags (line - 1)

let allowlist_of_source src = allowlist_of_lines (String.split_on_char '\n' src)

(* ------------------------------------------------------------------ *)
(* AST-based rules.                                                    *)

open Parsetree

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

let split_last path =
  match List.rev path with
  | fn :: rev_mods -> Some (List.rev rev_mods, fn)
  | [] -> None

let last_mod mods =
  match List.rev mods with m :: _ -> Some m | [] -> None

(* An expression that sorts: an identifier whose final component
   mentions "sort" ([List.sort], [sort_uniq], [fast_sort], a local
   [sorted_bindings]...), or a (partial) application of one. *)
let rec is_sort_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match split_last (flatten_lid txt) with
      | Some (_, fn) -> contains (String.lowercase_ascii fn) "sort"
      | None -> false)
  | Pexp_apply (f, _) -> is_sort_expr f
  | _ -> false

let float_ops = [ "+."; "-."; "*."; "/."; "**" ]

let float_idents =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

(* Syntactically-evidently-float operand: a float literal, a float
   sentinel, float arithmetic, or [float_of_int _]. A deliberately
   shallow heuristic — it never needs type information. *)
let is_floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
      match flatten_lid txt with
      | [ s ] -> List.mem s float_idents
      | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, _)
    when List.mem op float_ops ->
      true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
    when flatten_lid txt = [ "float_of_int" ] ->
      true
  | _ -> false

let poly_cmp_fns =
  [ "compare"; "min"; "max"; "="; "<>"; "<"; "<="; ">"; ">=" ]

(* [Bytes] functions that write into their argument. *)
let is_bytes_mutator fn =
  List.exists
    (fun prefix -> String.starts_with ~prefix fn)
    [ "set"; "unsafe_set"; "blit"; "unsafe_blit" ]
  || fn = "fill" || fn = "unsafe_fill"

let findings_of_ast ~filename ~rng_exempt ~lib ast =
  let findings = ref [] in
  let sorted_spans = ref [] in
  let add rule loc message =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    findings := { rule; file = filename; line; message } :: !findings
  in
  let record_span loc =
    sorted_spans :=
      (loc.Location.loc_start.Lexing.pos_cnum, loc.Location.loc_end.Lexing.pos_cnum)
      :: !sorted_spans
  in
  let in_sorted_span loc =
    let c = loc.Location.loc_start.Lexing.pos_cnum in
    List.exists (fun (s, e) -> c >= s && c <= e) !sorted_spans
  in
  let check_ident loc lid =
    match split_last (flatten_lid lid) with
    | None | Some ([], _) -> ()
    | Some (mods, fn) ->
        if List.mem "Random" mods && not rng_exempt then
          add Random_global loc
            (Printf.sprintf
               "ambient Random.%s — draw from a seeded Rng.t stream instead" fn);
        (match last_mod mods with
        | Some "Unix" when fn = "gettimeofday" || fn = "time" ->
            add Wall_clock loc
              (Printf.sprintf
                 "wall-clock read Unix.%s — real time must not reach simulated \
                  results"
                 fn)
        | Some "Sys" when fn = "time" ->
            add Wall_clock loc
              "wall-clock read Sys.time — real time must not reach simulated \
               results"
        | Some "Hashtbl" when (fn = "fold" || fn = "iter") && not (in_sorted_span loc)
          ->
            add Hashtbl_order loc
              (Printf.sprintf
                 "Hashtbl.%s result not normalized through a sort — iteration \
                  order is nondeterministic"
                 fn)
        | Some "Obj" when fn = "magic" ->
            add Obj_magic loc "Obj.magic defeats the type system"
        | Some "Bytes" when lib && is_bytes_mutator fn ->
            add Bytes_mutation loc
              (Printf.sprintf
                 "in-place Bytes.%s — a stored value is shared by keys, \
                  replicas, the NIC cache and the logs; write only into a \
                  buffer this code owns"
                 fn)
        | _ -> ())
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (op, args) -> (
        match (op.pexp_desc, args) with
        | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ _; (_, rhs) ]
          when is_sort_expr rhs ->
            record_span e.pexp_loc
        | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, lhs); _ ]
          when is_sort_expr lhs ->
            record_span e.pexp_loc
        | _ -> if is_sort_expr op then record_span e.pexp_loc)
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Longident.Lident fn; _ }; _ }, args)
      when List.mem fn poly_cmp_fns && List.exists (fun (_, a) -> is_floatish a) args
      ->
        add Float_compare e.pexp_loc
          (Printf.sprintf
             "polymorphic %s on float operands — NaN-unsound; use explicit \
              Float comparisons"
             fn)
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            match (c.pc_lhs.ppat_desc, c.pc_guard) with
            | Ppat_any, None ->
                add Catch_all c.pc_lhs.ppat_loc
                  "catch-all handler (with _ ->) swallows every exception, \
                   including invariant failures"
            | _ -> ())
          cases
    | Pexp_match (_, cases) ->
        (* [match e with exception _ -> ...] is the same trap spelled
           differently: a wildcard exception case swallows everything
           the scrutinee raises. *)
        List.iter
          (fun c ->
            match (c.pc_lhs.ppat_desc, c.pc_guard) with
            | Ppat_exception { ppat_desc = Ppat_any; _ }, None ->
                add Catch_all c.pc_lhs.ppat_loc
                  "catch-all handler (match ... with exception _ ->) swallows \
                   every exception, including invariant failures"
            | _ -> ())
          cases
    | _ -> ());
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> check_ident e.pexp_loc txt
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let iterator = { Ast_iterator.default_iterator with expr } in
  iterator.structure iterator ast;
  !findings

(* ------------------------------------------------------------------ *)
(* Lexical fallback for files the parser rejects.                      *)

(* Does a [sort] on this line (or piped in on the next) apply to the
   Hashtbl traversal starting at [pos]? Merely containing the substring
   "sort" anywhere is not enough — [Hashtbl.iter (fun k _ -> k =
   "sort_key")] must still be flagged. The sort applies when it is
   downstream of the traversal through a pipe ([fold ... |> List.sort],
   possibly on the following line) or upstream wrapping it as an
   argument ([List.sort cmp (Hashtbl.fold ...)], [List.sort cmp @@
   Hashtbl.fold ...]). *)
let sort_applies_to_traversal ~line ~next pos =
  let occurs_from s sub i =
    match find_substring (String.sub s i (String.length s - i)) sub with
    | Some j -> Some (i + j)
    | None -> None
  in
  let rec any_sort_after i =
    match occurs_from line "sort" i with
    | None -> false
    | Some j ->
        (* Downstream sort: a pipe between the traversal and the sort. *)
        let between = String.sub line pos (j - pos) in
        if contains between "|>" || contains between "@@" then true
        else any_sort_after (j + 1)
  in
  let rec any_sort_before i =
    if i >= pos then false
    else
      match occurs_from line "sort" i with
      | Some j when j < pos ->
          (* Upstream sort applied to the traversal: the traversal sits
             inside the sort's argument list. *)
          let between = String.sub line j (pos - j) in
          contains between "(" || contains between "@@" || any_sort_before (j + 1)
      | _ -> false
  in
  let piped_next =
    (* Common formatting: the pipe into the sort starts the next line. *)
    match (find_substring next "|>", find_substring next "sort") with
    | Some p, Some s -> p < s
    | _ -> false
  in
  any_sort_after pos || any_sort_before 0 || piped_next

let lexical_scan ~filename ~rng_exempt lines =
  let arr = Array.of_list lines in
  List.concat
    (List.mapi
       (fun i line ->
         let ln = i + 1 in
         let has sub = contains line sub in
         let out = ref [] in
         let add rule message =
           out := { rule; file = filename; line = ln; message } :: !out
         in
         if (not rng_exempt) && has "Random." then
           add Random_global "ambient Random.* (lexical match)";
         if has "Unix.gettimeofday" || has "Unix.time" || has "Sys.time" then
           add Wall_clock "wall-clock read (lexical match)";
         if has "Obj.magic" then add Obj_magic "Obj.magic (lexical match)";
         (let traversal =
            match find_substring line "Hashtbl.fold" with
            | Some _ as p -> p
            | None -> find_substring line "Hashtbl.iter"
          in
          match traversal with
          | Some pos ->
              let next = if i + 1 < Array.length arr then arr.(i + 1) else "" in
              if not (sort_applies_to_traversal ~line ~next pos) then
                add Hashtbl_order "unsorted Hashtbl traversal (lexical match)"
          | None -> ());
         if has "with _ ->" then add Catch_all "catch-all handler (lexical match)";
         List.rev !out)
       lines)

(* ------------------------------------------------------------------ *)
(* Drivers.                                                            *)

let parse_impl ~filename src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf filename;
  (* The parser can raise many exception types across compiler
     versions; any failure just downgrades to the lexical scan. *)
  (* xenic-lint: allow CATCH-ALL *)
  try Some (Parse.implementation lexbuf) with _ -> None

let lint_source ~filename src =
  let lines = String.split_on_char '\n' src in
  let allow = allowlist_of_lines lines in
  let rng_exempt = Filename.basename filename = "rng.ml" in
  (* BYTES-MUTATION applies to the library's sources only. *)
  let lib = List.mem "lib" (String.split_on_char '/' filename) in
  let raw, status =
    match parse_impl ~filename src with
    | Some ast -> (findings_of_ast ~filename ~rng_exempt ~lib ast, `Parsed)
    | None -> (lexical_scan ~filename ~rng_exempt lines, `Lexical_fallback)
  in
  let kept = List.filter (fun f -> not (suppressed allow f.rule f.line)) raw in
  let kept =
    List.sort
      (fun a b -> compare (a.line, rule_id a.rule) (b.line, rule_id b.rule))
      kept
  in
  (kept, status)

let read_file path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

let lint_file path = lint_source ~filename:path (read_file path)

let lint_string ~filename src = fst (lint_source ~filename src)

let rec collect ~suffix acc path =
  if Sys.file_exists path && Sys.is_directory path then begin
    let base = Filename.basename path in
    if String.length base > 0 && (base.[0] = '.' || base.[0] = '_') then acc
    else
      Array.to_list (Sys.readdir path)
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name -> collect ~suffix acc (Filename.concat path name))
           acc
  end
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let collect_files ~suffix roots =
  List.fold_left (collect ~suffix) [] roots |> List.sort String.compare

let collect_ml_files = collect_files ~suffix:".ml"

let lint_roots roots =
  List.concat_map (fun f -> fst (lint_file f)) (collect_ml_files roots)
