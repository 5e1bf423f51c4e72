(* DOMAIN-SHARED readiness report.

   Partitioning the event engine across OCaml 5 domains (ROADMAP Open
   item 2) is only safe once every piece of mutable state reachable
   from more than one partition's processes is either made
   per-partition or put behind synchronization. In this simulator,
   *module-level* mutable bindings are exactly that set:
   per-node state lives inside the per-node records built by
   [create]/[spawn] and partitions with the node, while a toplevel
   [ref]/[Hashtbl]/array is one cell shared by every node's processes.

   The report enumerates each module-level mutable binding in the
   analyzed roots with the definitions that reference it and whether
   any referencing definition may suspend (a suspension point inside a
   reader/writer means cross-domain interleaving is observable, not
   just theoretical). Sorted, line-number-free, deterministic — it is
   checked in and byte-diffed like the golden traces. *)

type entry = {
  s_key : string;  (* Module.name *)
  s_file : string;
  s_line : int;
  s_kinds : string list;  (* sorted: "ref", "hashtbl", ... *)
  s_refs : string list;  (* defs referencing it, sorted *)
  s_suspending_refs : bool;
  s_tag : string option;  (* [(* xenic-lint: partitioned <tag> *)] *)
}

open Parsetree

let flatten_lid = Callgraph.flatten_lid

let split_last = Callgraph.split_last

let last_mod mods = match List.rev mods with m :: _ -> Some m | [] -> None

(* [(* xenic-lint: partitioned <tag> *)] on the binding's line or the
   line above declares module-level mutable state deliberately NOT
   per-partition — with the tag naming the synchronization or
   per-domain story that makes it safe. Like [atomic <tag>] and
   [timer:<tag>], the tag is mandatory: a bare [partitioned] names no
   justification and annotates nothing. Unannotated entries fail
   `xenic_lint report` — the ratchet that keeps new ambient globals
   out of the tree now that the engine runs partitions on domains. *)
let partitioned_key = "xenic-lint:"

let find_substring line sub =
  let n = String.length line and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = sub then Some i
    else go (i + 1)
  in
  go 0

let partitioned_tags src =
  let tbl = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      match find_substring line partitioned_key with
      | None -> ()
      | Some idx ->
          let start = idx + String.length partitioned_key in
          let rest = String.sub line start (String.length line - start) in
          (match Lint.split_tokens rest with
          | "partitioned" :: tag :: _ -> Hashtbl.replace tbl (i + 1) tag
          | _ -> ()))
    (String.split_on_char '\n' src);
  tbl

let tag_at tags ~line =
  match Hashtbl.find_opt tags line with
  | Some _ as t -> t
  | None -> Hashtbl.find_opt tags (line - 1)

(* Field names declared [mutable] anywhere in the analyzed files. *)
let mutable_fields files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (_file, _src, ast) ->
      let typ _it (td : type_declaration) =
        match td.ptype_kind with
        | Ptype_record labels ->
            List.iter
              (fun ld ->
                if ld.pld_mutable = Mutable then
                  Hashtbl.replace tbl ld.pld_name.txt ())
              labels
        | _ -> ()
      in
      let it =
        {
          Ast_iterator.default_iterator with
          type_declaration = (fun it td ->
            typ it td;
            Ast_iterator.default_iterator.type_declaration it td);
        }
      in
      it.structure it ast)
    files;
  tbl

(* Mutable-allocation kinds present in [e], not looking under closures:
   a [ref] built per call inside a function body is not module state. *)
let mutable_kinds ~mut_fields e =
  let kinds = ref [] in
  let add k = if not (List.mem k !kinds) then kinds := k :: !kinds in
  let expr it e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> ()  (* cut: per-call values *)
    | _ ->
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
            match flatten_lid txt with
            | [ "ref" ] -> add "ref"
            | l -> (
                match split_last l with
                | Some (mods, fn) -> (
                    match (last_mod mods, fn) with
                    | Some "Hashtbl", "create" -> add "hashtbl"
                    | Some "Queue", "create" -> add "queue"
                    | Some "Array", ("make" | "init" | "create_float") ->
                        add "array"
                    | Some "Bytes", ("create" | "make") -> add "bytes"
                    | Some "Buffer", "create" -> add "buffer"
                    | _ -> ())
                | None -> ()))
        | Pexp_array _ -> add "array"
        | Pexp_record (fields, _) ->
            if
              List.exists
                (fun ({ Location.txt = flid; _ }, _) ->
                  match split_last (flatten_lid flid) with
                  | Some (_, f) -> Hashtbl.mem mut_fields f
                  | None -> false)
                fields
            then add "mutable-record"
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  List.sort String.compare !kinds

let scan ~graph ~susp files =
  let mut_fields = mutable_fields files in
  (* Reverse reference map over the graph. *)
  let callers = Hashtbl.create 256 in
  Callgraph.StrSet.iter
    (fun src ->
      Callgraph.StrSet.iter
        (fun dst ->
          Hashtbl.replace callers dst
            (src
            :: (match Hashtbl.find_opt callers dst with
               | Some l -> l
               | None -> [])))
        (Callgraph.callees graph src))
    (Callgraph.nodes graph);
  let entries =
    List.concat_map
      (fun (file, src, ast) ->
        let tags = partitioned_tags src in
        let rec structure ~mpath items =
          List.concat_map
            (fun item ->
              match item.pstr_desc with
              | Pstr_value (_, vbs) ->
                  List.filter_map
                    (fun vb ->
                      match Callgraph.pat_vars vb.pvb_pat with
                      | (name, loc) :: _ -> (
                          match mutable_kinds ~mut_fields vb.pvb_expr with
                          | [] -> None
                          | kinds ->
                              let key = List.hd mpath ^ "." ^ name in
                              let refs =
                                (match Hashtbl.find_opt callers key with
                                | Some l -> l
                                | None -> [])
                                |> List.filter (fun r -> r <> key)
                                |> List.sort_uniq String.compare
                              in
                              let line =
                                loc.Location.loc_start.Lexing.pos_lnum
                              in
                              Some
                                {
                                  s_key = key;
                                  s_file = file;
                                  s_line = line;
                                  s_kinds = kinds;
                                  s_refs = refs;
                                  s_suspending_refs =
                                    List.exists
                                      (fun r -> Suspend.may_suspend susp r)
                                      refs;
                                  s_tag = tag_at tags ~line;
                                })
                      | [] -> None)
                    vbs
              | Pstr_module
                  {
                    pmb_name = { txt = Some sub; _ };
                    pmb_expr = { pmod_desc = Pmod_structure sub_items; _ };
                    _;
                  } ->
                  structure ~mpath:(sub :: mpath) sub_items
              | _ -> [])
            items
        in
        structure ~mpath:[ Callgraph.module_of_file file ] ast)
      files
  in
  List.sort (fun a b -> compare (a.s_key, a.s_file) (b.s_key, b.s_file)) entries

let report_line e =
  Printf.sprintf "%s kinds=%s file=%s refs=%s suspending-refs=%s%s" e.s_key
    (String.concat "," e.s_kinds)
    e.s_file
    (match e.s_refs with [] -> "-" | refs -> String.concat "," refs)
    (if e.s_suspending_refs then "yes" else "no")
    (match e.s_tag with
    | Some tag -> " partitioned=" ^ tag
    | None -> "")

let unannotated entries = List.filter (fun e -> e.s_tag = None) entries

let to_string e =
  Printf.sprintf "%s:%d: DOMAIN-SHARED %s (%s) lacks a `partitioned <tag>' \
                  annotation — module-level mutable state is shared by every \
                  partition; make it engine-/partition-local or annotate the \
                  synchronization story"
    e.s_file e.s_line e.s_key
    (String.concat "," e.s_kinds)

let header =
  [
    "# DOMAIN-SHARED inventory: module-level mutable state, shared by every";
    "# node's processes in-process — since the engine runs partitions on";
    "# separate domains, every entry must carry a `partitioned <tag>'";
    "# annotation naming its synchronization story (unannotated = error).";
    "# Generated by `xenic_lint report lib`; update with `dune promote`.";
  ]

let report entries = header @ List.map report_line entries
