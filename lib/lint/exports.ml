(* Exports inventory: who uses each [val] of the library's interfaces.

   Every [val] in an interface under a library root (nested signatures
   included, named [Kv.Key.hash]) is [Used] when a source outside its
   own module under the library, [bin/], [bench/] or [examples/] names
   it, [Test_only] when only [test/] does, and [Unused] when nothing
   does. The three user trees and [test/] are the siblings of the
   library root.

   Names resolve syntactically, per scope: qualified paths (a library's
   wrapper prefix, such as [Xenic_store.] or [Xenic.Store.], is
   skipped), module aliases, [open], [let open], [M.( ... )] and
   [let module]. A module passed whole (to a functor, [include], a
   first-class package or a constrained binding) uses every value it
   exports. A name that may refer to several modules uses all of them:
   an unclear case counts as a use, so only a value that no reading of
   the sources reaches is reported. *)

open Parsetree

type status = Used | Test_only | Unused

(* [explained]: the value's doc comment says which test needs it (it
   mentions "test"), as a test-only value's must. *)
type entry = { file : string; name : string; status : status; explained : bool }

(* ---- interfaces ---------------------------------------------------- *)

let unit_name file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

module S = Set.Make (String)

type iface = {
  modules : (string, string list) Hashtbl.t;
      (* module path ("Kv.Key") -> its vals *)
  paths : string list;  (* the keys of [modules] *)
  vals : (string * string * bool) list;
      (* (file, "Kv.Key.hash", explained), in file order *)
}

(* Does a doc comment in [attrs] mention a test: "test" at the start of
   a word ("tests", "test_store", not "latest")? *)
let mentions_test (attrs : attributes) =
  let has s =
    let s = String.lowercase_ascii s and n = String.length s in
    let word_start i = i = 0 || s.[i - 1] < 'a' || s.[i - 1] > 'z' in
    let rec go i =
      i + 4 <= n && ((String.sub s i 4 = "test" && word_start i) || go (i + 1))
    in
    go 0
  in
  List.exists
    (fun (a : attribute) ->
      match (a.attr_name.txt, a.attr_payload) with
      | ( "ocaml.doc",
          PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ) ->
          has s
      | _ -> false)
    attrs

let interfaces files =
  let modules = Hashtbl.create 64 and paths = ref [] and vals = ref [] in
  let rec signature ~file path (items : signature) =
    Hashtbl.replace modules path [];
    paths := path :: !paths;
    List.iter
      (fun item ->
        match item.psig_desc with
        | Psig_value v ->
            Hashtbl.replace modules path
              (v.pval_name.txt :: Hashtbl.find modules path);
            vals :=
              (file, path ^ "." ^ v.pval_name.txt, mentions_test v.pval_attributes)
              :: !vals
        | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type; _ } -> (
            let sub = path ^ "." ^ m in
            match pmd_type.pmty_desc with
            | Pmty_signature s -> signature ~file sub s
            | _ ->
                Hashtbl.replace modules sub [];
                paths := sub :: !paths)
        | _ -> ())
      items
  in
  List.iter
    (fun (file, src) ->
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf file;
      signature ~file (unit_name file) (Parse.interface lexbuf))
    files;
  { modules; paths = !paths; vals = List.rev !vals }

(* ---- uses ---------------------------------------------------------- *)

(* The scope at one point of a source: local module aliases (each to
   the module paths it may name) and opened module paths, innermost
   first. *)
type scope = { aliases : (string * string list) list; opens : string list }

let rec flatten (l : Longident.t) =
  match l with
  | Lident s -> Some [ s ]
  | Ldot (p, s) -> Option.map (fun p -> p @ [ s ]) (flatten p)
  | Lapply _ -> None

(* The known module paths a module longident may name in [scope]: a
   local alias's targets, or the path itself with a wrapper prefix
   ([Xenic_store.Kv], [Xenic.Store.Kv]) skipped, and the path under
   each open. *)
let resolve iface scope lid =
  let rec unwrapped = function
    | [] -> []
    | h :: rest as comps ->
        if Hashtbl.mem iface.modules h then [ comps ] else unwrapped rest
  in
  match flatten lid with
  | None | Some [] -> []
  | Some (h :: rest as comps) ->
      let direct =
        match List.assoc_opt h scope.aliases with
        | Some targets -> List.map (fun t -> t :: rest) targets
        | None -> unwrapped comps
      in
      List.map (fun o -> o :: comps) scope.opens @ direct
      |> List.map (String.concat ".")
      |> List.filter (Hashtbl.mem iface.modules)
      |> List.sort_uniq String.compare

(* Every qualified val that the source [ast] of module [own] names
   outside [own] itself. *)
let uses iface ~own ast =
  let used = ref S.empty in
  let scope = ref { aliases = []; opens = [] } in
  let foreign p = p <> own && not (String.starts_with ~prefix:(own ^ ".") p) in
  let use m v =
    let q = m ^ "." ^ v in
    if foreign m && List.mem v (Hashtbl.find iface.modules m) then
      used := S.add q !used
  in
  let whole m =
    List.iter
      (fun p ->
        if p = m || String.starts_with ~prefix:(m ^ ".") p then
          List.iter (use p) (Hashtbl.find iface.modules p))
      iface.paths
  in
  let value (lid : Longident.t) =
    match lid with
    | Lident v -> List.iter (fun o -> use o v) !scope.opens
    | Ldot (m, v) -> List.iter (fun p -> use p v) (resolve iface !scope m)
    | Lapply _ -> ()
  in
  let scoped f =
    let saved = !scope in
    Fun.protect ~finally:(fun () -> scope := saved) f
  in
  let open_ (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } ->
        scope := { !scope with opens = resolve iface !scope txt @ !scope.opens }
    | _ -> ()
  in
  let alias name lid =
    scope :=
      { !scope with aliases = (name, resolve iface !scope lid) :: !scope.aliases }
  in
  let default = Ast_iterator.default_iterator in
  let structure it items = scoped (fun () -> default.structure it items) in
  let structure_item it (item : structure_item) =
    match item.pstr_desc with
    | Pstr_open od -> open_ od.popen_expr
    | Pstr_module
        {
          pmb_name = { txt = Some name; _ };
          pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
          _;
        } ->
        alias name txt
    | _ -> default.structure_item it item
  in
  let module_expr it (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> List.iter whole (resolve iface !scope txt)
    | _ -> default.module_expr it me
  in
  let expr (it : Ast_iterator.iterator) (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> value txt
    | Pexp_open (od, body) ->
        scoped (fun () ->
            open_ od.popen_expr;
            it.expr it body)
    | Pexp_letmodule
        ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body)
      ->
        scoped (fun () ->
            alias name txt;
            it.expr it body)
    | Pexp_letmodule ({ txt = Some name; _ }, me, body) ->
        it.module_expr it me;
        scoped (fun () ->
            scope :=
              { !scope with aliases = (name, []) :: !scope.aliases };
            it.expr it body)
    | Pexp_letop { let_; ands; _ } ->
        List.iter (fun (b : binding_op) -> value (Lident b.pbop_op.txt))
          (let_ :: ands);
        default.expr it e
    | _ -> default.expr it e
  in
  let it = { default with structure; structure_item; module_expr; expr } in
  it.structure it ast;
  !used

(* ---- classification ------------------------------------------------ *)

(* [classify ~interfaces ~users ~tests]: [interfaces] are (file, source)
   pairs of [.mli]s; [users] and [tests] are (file, ast) pairs of
   [.ml]s. Entries follow the interfaces' order. *)
let classify ~interfaces:files ~users ~tests =
  let iface = interfaces files in
  let all sources =
    List.fold_left
      (fun acc (file, ast) -> S.union acc (uses iface ~own:(unit_name file) ast))
      S.empty sources
  in
  let used = all users and tested = all tests in
  List.map
    (fun (file, name, explained) ->
      let status =
        if S.mem name used then Used
        else if S.mem name tested then Test_only
        else Unused
      in
      { file; name; status; explained })
    iface.vals

let line e = e.file ^ " " ^ e.name

(* The checked-in inventory: one sorted line per test-only value. *)
let inventory entries =
  List.filter_map (fun e -> if e.status = Test_only then Some (line e) else None)
    entries
  |> List.sort String.compare

let unused entries = List.filter (fun e -> e.status = Unused) entries

(* Test-only values whose doc comment does not say which test needs
   them. *)
let unexplained entries =
  List.filter (fun e -> e.status = Test_only && not e.explained) entries

(* [of_roots roots]: classify the interfaces under each library root,
   reading users from the roots and their sibling [bin], [bench] and
   [examples] directories, and tests from the sibling [test]. Raises
   [Failure] on a source the parser rejects: an unread user could hide
   a use. *)
let of_roots roots =
  let siblings names =
    List.concat_map
      (fun r ->
        List.map (Filename.concat (Filename.dirname r)) names
        |> List.filter Sys.file_exists)
      roots
    |> List.sort_uniq String.compare
  in
  let parse file =
    match Lint.parse_impl ~filename:file (Lint.read_file file) with
    | Some ast -> (file, ast)
    | None -> failwith ("exports: cannot parse " ^ file)
  in
  let sources rs = List.map parse (Lint.collect_ml_files rs) in
  let mlis = Lint.collect_files ~suffix:".mli" roots in
  classify
    ~interfaces:(List.map (fun f -> (f, Lint.read_file f)) mlis)
    ~users:(sources (roots @ siblings [ "bin"; "bench"; "examples" ]))
    ~tests:(sources (siblings [ "test" ]))
