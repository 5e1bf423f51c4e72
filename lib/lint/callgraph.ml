(* Whole-codebase definition/call-graph extraction over the Parsetree.

   Nodes:
   - ["Module.fn"]      a toplevel (or one-level-nested-module) binding;
                        [Module] is the capitalized file basename, so
                        [lib/sim/process.ml] contributes [Process.*].
   - ["field:f"]        a synthetic node per record-field name [f].
                        Invoking a function stored in a record field
                        ([io.nic_mem ()]) edges to [field:nic_mem]; every
                        expression ever assigned to a field named [f]
                        (record literal or [<-]) edges out of it, except
                        the head of a full application of a known
                        definition, whose result the field holds. This is
                        the closure channel that carries suspension
                        through [Nic_index.io]-style callback records.
   - ["extern:M.fn"]    a qualified reference that resolves to no file in
                        the analyzed set ([List.map], [Process.sleep]
                        when [lib/sim] is outside the roots). Kept so
                        effect seeds can match by name even on partial
                        file sets.

   Edges are reference edges, not proven calls: any identifier mentioned
   in a definition's body (including inside closures it builds) edges
   out of that definition. That is deliberately may-style — passing a
   suspending function around counts as potentially calling it.

   Resolution is scope-light by design: an unqualified identifier
   resolves within its own module only; a qualified path resolves
   through its last module component that names an analyzed file
   ([Xenic_store.Nic_index.try_lock] resolves via [Nic_index]). Local
   shadowing of toplevel names is ignored, which can only add edges —
   safe for a may-analysis. *)

module StrSet = Set.Make (String)

type def = {
  d_key : string;  (* "Module.fn" *)
  d_module : string;
  d_name : string;
  d_file : string;
  d_line : int;
  d_arity : int;  (* syntactic parameters of the bound function; 0 if none *)
}

type t = {
  defs : def list;  (* sorted by key, then file/line *)
  def_tbl : (string, def) Hashtbl.t;
  by_mod_fn : (string * string, string) Hashtbl.t;
  mutable edges : (string, StrSet.t) Hashtbl.t;
}

let field_key f = "field:" ^ f

let extern_key m fn = "extern:" ^ m ^ "." ^ fn

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let defs t = t.defs

let find_def t key = Hashtbl.find_opt t.def_tbl key

let callees t key =
  match Hashtbl.find_opt t.edges key with Some s -> s | None -> StrSet.empty

let nodes t =
  (* xenic-lint: allow HASHTBL-ORDER — folds into a set, order-canonical *)
  Hashtbl.fold (fun k _ acc -> StrSet.add k acc) t.edges
    (List.fold_left (fun acc d -> StrSet.add d.d_key acc) StrSet.empty t.defs)

open Parsetree

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

let split_last path =
  match List.rev path with
  | fn :: rev_mods -> Some (List.rev rev_mods, fn)
  | [] -> None

(* All variables a binding pattern introduces. *)
let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ (txt, p.ppat_loc) ]
  | Ppat_alias (inner, { txt; _ }) -> (txt, p.ppat_loc) :: pat_vars inner
  | Ppat_constraint (inner, _) -> pat_vars inner
  | Ppat_tuple ps -> List.concat_map pat_vars ps
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Pass 1: definitions.                                                *)

(* Parameters of a binding's leading [fun]s ([function] counts one). *)
let rec arity e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> 1 + arity body
  | Pexp_function _ -> 1
  | Pexp_constraint (inner, _) | Pexp_newtype (_, inner) -> arity inner
  | _ -> 0

let collect_defs acc ~file ast =
  let rec structure ~mpath items acc =
    List.fold_left
      (fun acc item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.fold_left
              (fun acc vb ->
                List.fold_left
                  (fun acc (name, loc) ->
                    {
                      (* Keyed by the innermost module component — the
                         same component qualified references resolve
                         through. *)
                      d_key = List.hd mpath ^ "." ^ name;
                      d_module = String.concat "." (List.rev mpath);
                      d_name = name;
                      d_file = file;
                      d_line = loc.Location.loc_start.Lexing.pos_lnum;
                      d_arity = arity vb.pvb_expr;
                    }
                    :: acc)
                  acc (pat_vars vb.pvb_pat))
              acc vbs
        | Pstr_module
            {
              pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Pmod_structure items; _ };
              _;
            } ->
            structure ~mpath:(sub :: mpath) items acc
        | _ -> acc)
      acc items
  in
  structure ~mpath:[ module_of_file file ] ast acc

(* ------------------------------------------------------------------ *)
(* Resolution.                                                         *)

(* [scopes] is the module-name scope chain for unqualified identifiers,
   innermost first (e.g. ["Sub"; "Process"] inside [module Sub] of
   process.ml). *)
let resolve t ~scopes lid =
  match split_last (flatten_lid lid) with
  | None -> None
  | Some ([], fn) ->
      List.find_map
        (fun m -> Hashtbl.find_opt t.by_mod_fn (m, fn))
        scopes
  | Some (mods, fn) -> (
      let rec try_mods = function
        | [] -> None
        | m :: rest -> (
            match Hashtbl.find_opt t.by_mod_fn (m, fn) with
            | Some key -> Some key
            | None -> try_mods rest)
      in
      match try_mods (List.rev mods) with
      | Some key -> Some key
      | None -> (
          (* Unresolved but qualified: keep as an extern node under its
             innermost module component so seeds can match by name. *)
          match List.rev mods with
          | m :: _ -> Some (extern_key m fn)
          | [] -> None))

(* ------------------------------------------------------------------ *)
(* Pass 2: edges.                                                      *)

let add_edge t src dst =
  if src <> dst then
    Hashtbl.replace t.edges src (StrSet.add dst (callees t src))

(* [lid] applied to [n] arguments is a full application of a known
   definition. A definition that computes a closure after a [let] has a
   smaller syntactic arity than its result's, so this can miss a
   suspending closure returned that way. *)
let saturated t ~scopes lid n =
  match resolve t ~scopes lid with
  | Some key -> (
      match find_def t key with
      | Some d -> d.d_arity > 0 && n >= d.d_arity
      | None -> false)
  | None -> false

(* Add [src -> target] for every identifier referenced inside [e],
   resolved in [scopes]; also record the field-channel edges found in
   [e] (record literals and [<-]), and field-invocation edges. *)
let walk_expr t ~scopes ~src e =
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match resolve t ~scopes txt with
        | Some key -> add_edge t src key
        | None -> ())
    | Pexp_record (fields, _) ->
        List.iter
          (fun ({ Location.txt = flid; _ }, fexpr) ->
            match split_last (flatten_lid flid) with
            | Some (_, f) ->
                let fkey = field_key f in
                let sub it' e' =
                  (match e'.pexp_desc with
                  | Pexp_ident { txt; _ } -> (
                      match resolve t ~scopes txt with
                      | Some key -> add_edge t fkey key
                      | None -> ())
                  | _ -> ());
                  Ast_iterator.default_iterator.expr it' e'
                in
                let sub_it = { Ast_iterator.default_iterator with expr = sub } in
                (match fexpr.pexp_desc with
                | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
                  when saturated t ~scopes txt (List.length args) ->
                    (* The field holds the call's result, not the
                       function: only the arguments can flow into it. *)
                    List.iter (fun (_, a) -> sub_it.expr sub_it a) args
                | _ -> sub_it.expr sub_it fexpr)
            | None -> ())
          fields
    | Pexp_setfield (_, { txt = flid; _ }, v) -> (
        match split_last (flatten_lid flid) with
        | Some (_, f) -> (
            let fkey = field_key f in
            match v.pexp_desc with
            | Pexp_ident { txt; _ } -> (
                match resolve t ~scopes txt with
                | Some key -> add_edge t fkey key
                | None -> ())
            | _ -> ())
        | None -> ())
    | Pexp_apply ({ pexp_desc = Pexp_field (_, { txt = flid; _ }); _ }, _) -> (
        (* Invocation through a record field: [io.nic_mem ()]. *)
        match split_last (flatten_lid flid) with
        | Some (_, f) -> add_edge t src (field_key f)
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e

let collect_edges t ~file ast =
  let rec structure ~mpath items =
    let scopes = mpath in
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match pat_vars vb.pvb_pat with
                | (name, _) :: _ ->
                    let src = List.hd mpath ^ "." ^ name in
                    walk_expr t ~scopes ~src vb.pvb_expr
                | [] ->
                    (* [let () = ...] toplevel effects: attribute to a
                       per-module init node. *)
                    walk_expr t ~scopes ~src:(List.hd mpath ^ ".<init>")
                      vb.pvb_expr)
              vbs
        | Pstr_module
            {
              pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Pmod_structure sub_items; _ };
              _;
            } ->
            structure ~mpath:(sub :: mpath) sub_items
        | _ -> ())
      items
  in
  structure ~mpath:[ module_of_file file ] ast

(* ------------------------------------------------------------------ *)

let build files =
  let defs = List.fold_left (fun acc (f, ast) -> collect_defs acc ~file:f ast) [] files in
  let defs =
    List.sort
      (fun a b -> compare (a.d_key, a.d_file, a.d_line) (b.d_key, b.d_file, b.d_line))
      defs
  in
  let t =
    {
      defs;
      def_tbl = Hashtbl.create 512;
      by_mod_fn = Hashtbl.create 512;
      edges = Hashtbl.create 512;
    }
  in
  List.iter
    (fun d ->
      if not (Hashtbl.mem t.def_tbl d.d_key) then Hashtbl.add t.def_tbl d.d_key d;
      (* Register under the innermost module component ("Nic_index",
         "Sub") so qualified paths resolve by their last component. *)
      let last_mod =
        match List.rev (String.split_on_char '.' d.d_module) with
        | m :: _ -> m
        | [] -> d.d_module
      in
      if not (Hashtbl.mem t.by_mod_fn (last_mod, d.d_name)) then
        Hashtbl.add t.by_mod_fn (last_mod, d.d_name) d.d_key)
    defs;
  List.iter (fun (f, ast) -> collect_edges t ~file:f ast) files;
  t

(* Resolve one identifier as a call-site target (for the atomicity
   pass): the scope chain is just the file's module. *)
let resolve_in_file t ~file lid = resolve t ~scopes:[ module_of_file file ] lid
