(* Closures inventory, one stable line each (no line numbers), sorted —
   the input of a {!Ratchet}. Without flambda, a function nested in a
   top-level definition that captures the definition's variables is a
   closure built on every call of it, so a new one on a hot path shows
   up as a changed line in review:
   - [file def.name] for each [let rec] nested inside the definition;
   - [file def lambdas=N] for the other function expressions in its
     body (anonymous or [let]-bound, a [fun a b ->] chain counting
     once), when there are any. The definition's own parameters are not
     one, nor is a nested [let rec]'s right-hand side (it has its own
     line). *)

open Parsetree

let binding_name (vb : value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var v -> v.txt
  | Ppat_constraint ({ ppat_desc = Ppat_var v; _ }, _) -> v.txt
  | _ -> "_"

(* Walk a function chain's parameters and body with [it], without
   counting the chain itself. *)
let rec chain (it : Ast_iterator.iterator) (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (it.expr it) default;
      it.pat it pat;
      chain it body
  | Pexp_newtype (_, body) -> chain it body
  | Pexp_function cases -> it.cases it cases
  | _ -> it.expr it e

(* The [let rec] names and the count of other function expressions in
   a top-level definition's right-hand side [e]. *)
let scan e =
  let recs = ref [] and lambdas = ref 0 in
  let expr it (e : expression) =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
        incr lambdas;
        chain it e
    | Pexp_let (Asttypes.Recursive, vbs, body) ->
        List.iter
          (fun vb ->
            recs := binding_name vb :: !recs;
            it.pat it vb.pvb_pat;
            chain it vb.pvb_expr)
          vbs;
        it.expr it body
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  chain it e;
  (!recs, !lambdas)

let rec structure ~file prefix (items : structure) =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.concat_map
            (fun vb ->
              let def = prefix ^ binding_name vb in
              let recs, lambdas = scan vb.pvb_expr in
              List.map (fun name -> Printf.sprintf "%s %s.%s" file def name) recs
              @
              if lambdas = 0 then []
              else [ Printf.sprintf "%s %s lambdas=%d" file def lambdas ])
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
