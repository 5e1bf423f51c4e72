(* Options inventory: each optional argument of every [val] and each
   field of every [params] record type in a set of interfaces, one
   stable line each (no line numbers), sorted — the input of a
   {!Ratchet}, so a new knob shows up as an added line in review. *)

open Parsetree

let rec optionals (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (Asttypes.Optional l, _, rest) -> l :: optionals rest
  | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optionals rest
  | _ -> []

let rec signature ~file prefix (items : signature) =
  let line kind name = Printf.sprintf "%s %s %s%s" file kind prefix name in
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value v ->
          List.map
            (fun l -> line "val" (v.pval_name.txt ^ " ?" ^ l))
            (optionals v.pval_type)
      | Psig_type (_, decls) ->
          List.concat_map
            (fun d ->
              match d.ptype_kind with
              | Ptype_record fs when d.ptype_name.txt = "params" ->
                  List.map (fun f -> line "type" ("params." ^ f.pld_name.txt)) fs
              | _ -> [])
            decls
      | Psig_module
          {
            pmd_name = { txt = Some m; _ };
            pmd_type = { pmty_desc = Pmty_signature s; _ };
            _;
          } ->
          signature ~file (prefix ^ m ^ ".") s
      | _ -> [])
    items

(* [inventory [(file, source); ...]]: raises the parser's exception on
   an interface that does not parse. *)
let inventory files =
  List.concat_map
    (fun (file, src) ->
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf file;
      signature ~file "" (Parse.interface lexbuf))
    files
  |> List.sort_uniq String.compare
