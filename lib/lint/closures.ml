(* Closures inventory: each [let rec] nested inside a top-level
   definition, one stable line each (no line numbers), sorted — the
   input of a {!Ratchet}. Without flambda, a nested recursive function
   that captures its caller's variables is a closure built on every
   call of the enclosing definition, so a new one in a hot store probe
   shows up as an added line in review. *)

open Parsetree

let binding_name (vb : value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var v -> v.txt
  | Ppat_constraint ({ ppat_desc = Ppat_var v; _ }, _) -> v.txt
  | _ -> "_"

(* Names of the [let rec] bindings anywhere inside [e]. *)
let nested_recs e =
  let found = ref [] in
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_let (Asttypes.Recursive, vbs, _) ->
        List.iter (fun vb -> found := binding_name vb :: !found) vbs
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let rec structure ~file prefix (items : structure) =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.concat_map
            (fun vb ->
              let def = prefix ^ binding_name vb in
              List.map
                (fun name -> Printf.sprintf "%s %s.%s" file def name)
                (nested_recs vb.pvb_expr))
            vbs
      | Pstr_module
          {
            pmb_name = { txt = Some m; _ };
            pmb_expr = { pmod_desc = Pmod_structure s; _ };
            _;
          } ->
          structure ~file (prefix ^ m ^ ".") s
      | _ -> [])
    items

(* [inventory [(file, ast); ...]]. *)
let inventory files =
  List.concat_map (fun (file, ast) -> structure ~file "" ast) files
  |> List.sort_uniq String.compare
