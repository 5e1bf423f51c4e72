(* Unit tests for the determinism lint: one case per rule, the
   sorted-traversal exemption, allowlist comments, the rng.ml
   exemption, and the lexical fallback for unparseable sources. *)

let lint ?(filename = "lib/proto/sample.ml") src = Lint.lint_string ~filename src

let ids findings = List.map (fun f -> Lint.rule_id f.Lint.rule) findings

let lines findings = List.map (fun f -> f.Lint.line) findings

let check_ids msg expected src =
  Alcotest.(check (list string)) msg expected (ids (lint src))

let test_random () =
  check_ids "ambient Random flagged" [ "RANDOM" ] "let x = Random.int 10\n";
  check_ids "qualified Stdlib.Random flagged" [ "RANDOM" ]
    "let x = Stdlib.Random.bits ()\n";
  check_ids "module named in message only" [] "let random_looking = 10\n"

let test_rng_exempt () =
  Alcotest.(check (list string))
    "lib/sim/rng.ml may use Random" []
    (ids (lint ~filename:"lib/sim/rng.ml" "let x = Random.int 10\n"));
  Alcotest.(check (list string))
    "other rng.ml paths exempt by basename" []
    (ids (lint ~filename:"elsewhere/rng.ml" "let x = Random.int 10\n"))

let test_wall_clock () =
  check_ids "gettimeofday flagged" [ "WALL-CLOCK" ]
    "let t = Unix.gettimeofday ()\n";
  check_ids "Unix.time flagged" [ "WALL-CLOCK" ] "let t = Unix.time ()\n";
  check_ids "Sys.time flagged" [ "WALL-CLOCK" ] "let t = Sys.time ()\n";
  check_ids "Unix.sleep is fine" [] "let () = Unix.sleep 1\n"

(* WALL-CLOCK is scoped: suppression requires a timer:<tag> marker on
   the line, never a bare allow and never allow-file — a wall-clock
   read under lib/ stays flagged unless it names the timer it feeds. *)
let test_wall_clock_scoped () =
  check_ids "unannotated wall-clock in lib/ fails" [ "WALL-CLOCK" ]
    "let t = Unix.gettimeofday ()\n";
  check_ids "bare allow no longer suppresses WALL-CLOCK" [ "WALL-CLOCK" ]
    "(* xenic-lint: allow WALL-CLOCK *)\nlet t = Unix.gettimeofday ()\n";
  check_ids "allow-file never suppresses WALL-CLOCK" [ "WALL-CLOCK" ]
    "(* xenic-lint: allow-file WALL-CLOCK *)\nlet t = Unix.gettimeofday ()\n";
  check_ids "timer-tagged allow suppresses (previous line)" []
    "(* xenic-lint: allow WALL-CLOCK timer:bench-sim *)\n\
     let t = Unix.gettimeofday ()\n";
  check_ids "timer-tagged allow suppresses (same line)" []
    "let t = Unix.gettimeofday () (* xenic-lint: allow WALL-CLOCK \
     timer:bench-sim *)\n";
  check_ids "empty timer tag does not count" [ "WALL-CLOCK" ]
    "(* xenic-lint: allow WALL-CLOCK timer: *)\nlet t = Unix.gettimeofday ()\n";
  (* The tag scopes only WALL-CLOCK; other rules on the same directive
     still behave as before. *)
  check_ids "timer tag does not affect other rules" []
    "(* xenic-lint: allow RANDOM timer:bench-sim *)\nlet x = Random.int 10\n";
  (* No blanket bench/ exemption: a bench file needs the marker too. *)
  Alcotest.(check (list string))
    "bench/ file without marker still flagged" [ "WALL-CLOCK" ]
    (ids (lint ~filename:"bench/exp_sample.ml" "let t = Unix.gettimeofday ()\n"))

let test_hashtbl_unsorted () =
  check_ids "bare iter flagged" [ "HASHTBL-ORDER" ]
    "let dump tbl = Hashtbl.iter (fun k v -> Printf.printf \"%d %d\" k v) tbl\n";
  check_ids "bare fold flagged" [ "HASHTBL-ORDER" ]
    "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"

let test_hashtbl_sorted () =
  check_ids "fold piped into sort is exempt" []
    "let keys tbl =\n\
    \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare\n";
  check_ids "sort applied around fold is exempt" []
    "let keys tbl =\n\
    \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])\n";
  (* The regression shape from the protocol code: fold |> sort |> iter. *)
  check_ids "fold |> sort |> iter is exempt" []
    "let dump tbl =\n\
    \  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n\
    \  |> List.sort Stdlib.compare\n\
    \  |> List.iter (fun (k, v) -> Printf.printf \"%d %d\" k v)\n"

let test_float_cmp () =
  check_ids "= against a float literal" [ "FLOAT-CMP" ] "let f x = x = 0.0\n";
  check_ids "<> against infinity" [ "FLOAT-CMP" ] "let f x = x <> infinity\n";
  check_ids "polymorphic compare on floats" [ "FLOAT-CMP" ]
    "let c = compare 1.0 2.0\n";
  check_ids "min against float arithmetic" [ "FLOAT-CMP" ]
    "let m a b = min a (b +. 1.0)\n";
  check_ids "Float.equal is the fix" [] "let f x = Float.equal x 0.0\n";
  check_ids "int comparisons untouched" [] "let f x = x = 0\n"

let test_obj_magic () =
  check_ids "Obj.magic flagged" [ "OBJ-MAGIC" ] "let y = Obj.magic ()\n";
  check_ids "Obj.repr untouched" [] "let y = Obj.repr ()\n"

let test_catch_all () =
  check_ids "try ... with _ flagged" [ "CATCH-ALL" ]
    "let h f = try f () with _ -> ()\n";
  check_ids "named exception handler is fine" []
    "let h f = try f () with Not_found -> ()\n";
  check_ids "wildcard among named cases flagged" [ "CATCH-ALL" ]
    "let h f = try f () with Not_found -> 0 | _ -> 1\n"

let test_line_numbers () =
  let src = "let a = 1\n\nlet t = Unix.gettimeofday ()\n" in
  Alcotest.(check (list int)) "finding carries the source line" [ 3 ]
    (lines (lint src));
  let f = List.hd (lint src) in
  Alcotest.(check string) "rendered as file:line: [RULE-ID]"
    "lib/proto/sample.ml:3: [WALL-CLOCK]"
    (String.sub (Lint.to_string f) 0 35)

let test_allow_line () =
  check_ids "allow on the previous line suppresses" []
    "(* xenic-lint: allow RANDOM *)\nlet x = Random.int 10\n";
  check_ids "allow on the same line suppresses" []
    "let x = Random.int 10 (* xenic-lint: allow RANDOM *)\n";
  check_ids "allow for a different rule does not" [ "RANDOM" ]
    "(* xenic-lint: allow WALL-CLOCK *)\nlet x = Random.int 10\n";
  check_ids "allow does not leak past the next line" [ "RANDOM" ]
    "(* xenic-lint: allow RANDOM *)\nlet a = 1\nlet x = Random.int 10\n"

let test_allow_file () =
  check_ids "allow-file suppresses everywhere" []
    "(* xenic-lint: allow-file RANDOM *)\n\
     let x = Random.int 10\n\
     let y = Random.bool ()\n";
  check_ids "allow-file is per rule" [ "WALL-CLOCK" ]
    "(* xenic-lint: allow-file RANDOM *)\n\
     let x = Random.int 10\n\
     let t = Unix.gettimeofday ()\n"

let test_lexical_fallback () =
  (* Unparseable source (unbalanced paren): the lexical scan still
     catches the banned pattern instead of going blind. *)
  check_ids "broken file still caught lexically" [ "RANDOM" ]
    "let x = ( Random.int 10\n";
  check_ids "allowlist works in lexical mode too" []
    "(* xenic-lint: allow RANDOM *)\nlet x = ( Random.int 10\n"

let test_rule_ids_roundtrip () =
  List.iter
    (fun id ->
      match Lint.rule_of_id id with
      | Some r -> Alcotest.(check string) id id (Lint.rule_id r)
      | None -> Alcotest.failf "rule id %s did not round-trip" id)
    [ "RANDOM"; "WALL-CLOCK"; "HASHTBL-ORDER"; "FLOAT-CMP"; "OBJ-MAGIC"; "CATCH-ALL" ];
  Alcotest.(check bool) "unknown id rejected" true (Lint.rule_of_id "BOGUS" = None)

(* ---- FLOAT-CMP ordering operators ---------------------------------- *)

let test_float_cmp_ordering () =
  check_ids "< against a float literal" [ "FLOAT-CMP" ] "let f x = x < 1.0\n";
  check_ids "<= against float arithmetic" [ "FLOAT-CMP" ]
    "let f x y = x <= y +. 1.0\n";
  check_ids "> against a float literal" [ "FLOAT-CMP" ] "let f x = x > 0.5\n";
  check_ids ">= against float_of_int" [ "FLOAT-CMP" ]
    "let f x n = x >= float_of_int n\n";
  check_ids "Float.compare is the fix" []
    "let f x = Float.compare x 1.0 < 0\n";
  check_ids "int ordering untouched" [] "let f x = x < 1\n"

(* ---- CATCH-ALL via match ... with exception _ ---------------------- *)

let test_catch_all_match_exception () =
  check_ids "match with exception _ flagged" [ "CATCH-ALL" ]
    "let h f = match f () with x -> x | exception _ -> 0\n";
  check_ids "named exception case is fine" []
    "let h f = match f () with x -> x | exception Not_found -> 0\n";
  check_ids "constructor-pattern exception case is fine" []
    "let h f = match f () with x -> x | exception (Failure _) -> 0\n"

(* ---- lexical HASHTBL-ORDER: sort must apply to the traversal ------- *)

(* Each source opens with an unbalanced paren so the parser rejects it
   and the lexical scan runs. *)
let lex src = lint ("let _broken = (\n" ^ src)

let test_lexical_hashtbl_direction () =
  Alcotest.(check (list string))
    "'sort' as unrelated substring no longer suppresses" [ "HASHTBL-ORDER" ]
    (ids (lex "let d t = Hashtbl.iter (fun k _ -> ignore sort_order) t\n"));
  Alcotest.(check (list string))
    "fold piped into sort still exempt" []
    (ids
       (lex
          "let k t = Hashtbl.fold (fun k _ a -> k :: a) t [] |> List.sort \
           compare\n"));
  Alcotest.(check (list string))
    "pipe into sort on the next line exempt" []
    (ids
       (lex
          "let k t = Hashtbl.fold (fun k _ a -> k :: a) t []\n\
          \  |> List.sort compare\n"));
  Alcotest.(check (list string))
    "sort wrapping the traversal exempt" []
    (ids
       (lex
          "let k t = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) t \
           [])\n"));
  Alcotest.(check (list string))
    "sort earlier on the line but not applied still flagged"
    [ "HASHTBL-ORDER" ]
    (ids (lex "let k sorted t = ignore sorted; Hashtbl.iter f t\n"))

(* ---- directive tokenizer and atomic tags --------------------------- *)

let test_split_tokens () =
  let check msg expected s =
    Alcotest.(check (list string)) msg expected (Lint.split_tokens s)
  in
  check "spaces" [ "allow"; "RANDOM" ] "allow RANDOM";
  check "tabs" [ "allow"; "RANDOM" ] "allow\tRANDOM";
  check "comment closer glued to the token" [ "allow"; "RANDOM" ]
    "allow RANDOM*)";
  check "closer with spaces" [ "atomic"; "nic-lock-grant" ]
    "atomic nic-lock-grant *)";
  check "empty directive" [] "";
  check "only separators" [] " \t*) "

let test_atomic_tag () =
  let allow =
    Lint.allowlist_of_source "(* xenic-lint: atomic hot-path *)\nlet x = 1\n"
  in
  Alcotest.(check (option string))
    "tag covers the next line" (Some "hot-path")
    (Lint.atomic_tag allow ~line:2);
  Alcotest.(check (option string))
    "tag covers its own line" (Some "hot-path")
    (Lint.atomic_tag allow ~line:1);
  Alcotest.(check (option string))
    "tag does not leak further" None
    (Lint.atomic_tag allow ~line:3);
  Alcotest.(check (option string))
    "bare atomic names nothing" None
    (Lint.atomic_tag
       (Lint.allowlist_of_source "(* xenic-lint: atomic *)\nlet x = 1\n")
       ~line:2);
  Alcotest.(check (option string))
    "allow directives carry no tag" None
    (Lint.atomic_tag
       (Lint.allowlist_of_source "(* xenic-lint: allow RANDOM *)\nlet x = 1\n")
       ~line:2)

(* ---- analyzer passes: callgraph + may-suspend fixpoint ------------- *)

let parsed file src =
  match Lint.parse_impl ~filename:file src with
  | Some ast -> (file, src, ast)
  | None -> Alcotest.failf "fixture %s did not parse" file

let graph_of files =
  Callgraph.build (List.map (fun (f, _, ast) -> (f, ast)) files)

let test_suspend_fixpoint () =
  let files =
    [
      parsed "lib/x/work.ml"
        "let helper eng = Process.sleep eng 1.0\n\
         let outer eng = helper eng\n\
         let clean () = 42\n";
      parsed "lib/x/caller.ml" "let go eng = Work.outer eng\n";
    ]
  in
  let g = graph_of files in
  let s = Suspend.infer g in
  Alcotest.(check bool) "seed callee marked" true
    (Suspend.may_suspend s "Work.helper");
  Alcotest.(check bool) "transitive caller marked" true
    (Suspend.may_suspend s "Work.outer");
  Alcotest.(check bool) "cross-module caller marked" true
    (Suspend.may_suspend s "Caller.go");
  Alcotest.(check bool) "pure definition not marked" false
    (Suspend.may_suspend s "Work.clean");
  let inv = Suspend.inventory g in
  Alcotest.(check (list string))
    "inventory is sorted and names-only"
    [ "Caller.go"; "Work.helper"; "Work.outer" ]
    inv

let test_suspend_field_channel () =
  (* A suspending closure parked in a record field carries the effect to
     every call through a field of that name. *)
  let files =
    [
      parsed "lib/x/chan.ml"
        "let make_io eng = { nic_mem = (fun () -> Process.sleep eng 5.0) }\n\
         let user io = io.nic_mem ()\n";
    ]
  in
  let g = graph_of files in
  let s = Suspend.infer g in
  Alcotest.(check bool) "field node marked" true
    (Suspend.may_suspend s "field:nic_mem");
  Alcotest.(check bool) "caller through the field marked" true
    (Suspend.may_suspend s "Chan.user")

let test_suspend_field_result () =
  (* A field initialised with the result of a full application holds
     that result, not the function: it is no suspending channel. A
     partial application still is, since calling the field finishes
     the call. *)
  let files =
    [
      parsed "lib/x/chan.ml"
        "let index_io eng = { nic_mem = (fun () -> Process.sleep eng 5.0) }\n\
         let send eng ~dst = ignore dst; Process.sleep eng 1.0\n\
         let make eng = { io = index_io eng; post = send eng }\n";
    ]
  in
  let s = Suspend.infer (graph_of files) in
  Alcotest.(check bool) "suspending constructor marked" true
    (Suspend.may_suspend s "Chan.index_io");
  Alcotest.(check bool) "field holding a call's result not marked" false
    (Suspend.may_suspend s "field:io");
  Alcotest.(check bool) "field holding a partial application marked" true
    (Suspend.may_suspend s "field:post")

(* ---- ATOMICITY: the PR 2 NIC-index double-grant shape -------------- *)

(* The bug class this pass exists for: lock checked, NIC-memory latency
   charged (suspends), lock granted — two requesters can both pass the
   check during the same suspension window. *)
let double_grant_fixture ~annotated =
  Printf.sprintf
    "let make_io eng = { nic_mem = (fun () -> Process.sleep eng 5.0) }\n\
     let try_lock tbl io k ~owner =\n\
    \  match Hashtbl.find_opt tbl k with\n\
    \  | Some e -> (\n\
    \      match e.lock with\n\
    \      | Some o when o <> owner -> `Locked\n\
    \      | _ ->\n\
    \          io.nic_mem ();\n\
     %s\
    \          e.lock <- Some owner;\n\
    \          `Acquired)\n\
    \  | None -> `Missing\n"
    (if annotated then "          (* xenic-lint: atomic grant *)\n" else "")

let analyze_fixture src =
  let files = [ parsed "lib/x/fixture_index.ml" src ] in
  let g = graph_of files in
  let s = Suspend.infer g in
  Atomicity.analyze ~graph:g ~susp:s files

let test_atomicity_double_grant () =
  match analyze_fixture (double_grant_fixture ~annotated:false) with
  | [ f ] ->
      Alcotest.(check string) "lvalue" "e.lock" f.Atomicity.a_lvalue;
      Alcotest.(check string)
        "definition" "Fixture_index.try_lock" f.Atomicity.a_def;
      Alcotest.(check string)
        "suspending callee" "<field nic_mem>" f.Atomicity.a_callee;
      Alcotest.(check bool) "unannotated" true (f.Atomicity.a_tag = None);
      Alcotest.(check bool)
        "read line precedes suspension" true
        (f.Atomicity.a_read_line < f.Atomicity.a_susp_line);
      Alcotest.(check bool)
        "rendered as ATOMICITY" true
        (String.length (Atomicity.to_string f) > 0)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_atomicity_annotated () =
  match analyze_fixture (double_grant_fixture ~annotated:true) with
  | [ f ] ->
      Alcotest.(check (option string))
        "tag recorded" (Some "grant") f.Atomicity.a_tag;
      Alcotest.(check (list string))
        "annotated finding enters the audit inventory"
        [ "lib/x/fixture_index.ml grant e.lock" ]
        (Atomicity.inventory [ f ])
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_atomicity_fresh_local () =
  (* State allocated inside the definition is unshared: nobody else can
     observe it across the suspension, so no finding. *)
  let clean =
    analyze_fixture
      "let f eng =\n\
      \  let t = Hashtbl.create 8 in\n\
      \  let v = Hashtbl.find_opt t 1 in\n\
      \  Process.sleep eng 1.0;\n\
      \  Hashtbl.replace t 1 2;\n\
      \  v\n"
  in
  Alcotest.(check int) "fresh Hashtbl suppressed" 0 (List.length clean);
  let shared =
    analyze_fixture
      "let f eng t =\n\
      \  let v = Hashtbl.find_opt t 1 in\n\
      \  Process.sleep eng 1.0;\n\
      \  Hashtbl.replace t 1 2;\n\
      \  v\n"
  in
  match shared with
  | [ f ] -> Alcotest.(check string) "shared table flagged" "t[]" f.Atomicity.a_lvalue
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ---- Domain.DLS stays in the ambient module ------------------------ *)

(* Per-domain simulator state goes through [Ambient] (lib/sim/ambient.ml),
   which reads plain main-domain values unless an engine's worker
   domains run. A [DLS.] path anywhere else in lib/ would put a
   per-call DLS read back on the hot path. The test runs in
   _build/default/test, where the stanza's deps put lib/ at ../lib. *)
let test_dls_confined () =
  let has_dls src =
    let n = String.length src in
    let rec go i = i + 4 <= n && (String.sub src i 4 = "DLS." || go (i + 1)) in
    go 0
  in
  let files =
    Lint.collect_ml_files [ "../lib" ]
    @ Lint.collect_files ~suffix:".mli" [ "../lib" ]
  in
  Alcotest.(check bool) "lib/ sources found" true (List.length files > 50);
  Alcotest.(check (list string))
    "only the ambient module names Domain.DLS"
    [ "../lib/sim/ambient.ml"; "../lib/sim/ambient.mli" ]
    (List.sort String.compare
       (List.filter (fun f -> has_dls (Lint.read_file f)) files))

(* ---- DOMAIN-SHARED report ------------------------------------------ *)

let test_domain_shared () =
  let files =
    [
      parsed "lib/x/reg.ml"
        "let cache = Hashtbl.create 16\n\
         let get k = Hashtbl.find_opt cache k\n\
         let wait eng k = Process.sleep eng 1.0; get k\n";
    ]
  in
  let g = graph_of files in
  let s = Suspend.infer g in
  match Domain_shared.scan ~graph:g ~susp:s files with
  | [ e ] ->
      Alcotest.(check string) "key" "Reg.cache" e.Domain_shared.s_key;
      Alcotest.(check (list string)) "kind" [ "hashtbl" ] e.Domain_shared.s_kinds;
      Alcotest.(check (list string))
        "referencing defs" [ "Reg.get" ] e.Domain_shared.s_refs;
      Alcotest.(check bool)
        "no suspending direct refs" false e.Domain_shared.s_suspending_refs;
      Alcotest.(check string) "report line"
        "Reg.cache kinds=hashtbl file=lib/x/reg.ml refs=Reg.get \
         suspending-refs=no"
        (Domain_shared.report_line e)
  | es -> Alcotest.failf "expected exactly one entry, got %d" (List.length es)

(* ---- ratchet -------------------------------------------------------- *)

let test_ratchet () =
  let d = Ratchet.diff ~baseline:[ "a"; "b" ] ~current:[ "b"; "c" ] in
  Alcotest.(check (list string)) "added" [ "c" ] d.Ratchet.added;
  Alcotest.(check (list string)) "removed" [ "a" ] d.Ratchet.removed;
  let d =
    Ratchet.diff ~baseline:[ "# header"; ""; "a" ] ~current:[ "a"; "# other" ]
  in
  Alcotest.(check (list string)) "comments and blanks ignored" []
    (d.Ratchet.added @ d.Ratchet.removed);
  Alcotest.(check (list string))
    "clean check reports nothing" []
    (Ratchet.check ~name:"suspend" ~baseline:[ "a" ] ~current:[ "a" ]);
  match Ratchet.check ~name:"suspend" ~baseline:[ "a" ] ~current:[ "a"; "z" ] with
  | [] -> Alcotest.fail "new entry must fail the ratchet"
  | header :: rest ->
      Alcotest.(check bool) "header names the ratchet" true
        (String.length header > 0);
      Alcotest.(check bool) "the new entry is listed" true
        (List.exists (fun l -> l = "  + z") rest)

(* ---- options inventory ---------------------------------------------- *)

let test_options () =
  let sig_src extra =
    "type params = { a : int; b : float }\n\
     type other = { c : int }\n\
     val f : ?x:int -> ?y:bool -> int -> int\n\
     val g : " ^ extra ^ "int -> int\n\
     module M : sig val h : ?z:int -> unit -> unit end\n"
  in
  let inv extra = Options.inventory [ ("lib/x/s.mli", sig_src extra) ] in
  Alcotest.(check (list string))
    "optional arguments and params fields, sorted"
    [
      "lib/x/s.mli type params.a";
      "lib/x/s.mli type params.b";
      "lib/x/s.mli val M.h ?z";
      "lib/x/s.mli val f ?x";
      "lib/x/s.mli val f ?y";
    ]
    (inv "");
  Alcotest.(check (list string)) "a new knob is an added ratchet line"
    [ "lib/x/s.mli val g ?w" ]
    (Ratchet.diff ~baseline:(inv "") ~current:(inv "?w:int -> ")).Ratchet.added

(* ---- closures inventory --------------------------------------------- *)

let test_closures () =
  let src extra =
    "let find t k =\n\
    \  let rec go i = if i = k then i else go (i + 1) in\n\
    \  go t\n\
     let rec top n = if n = 0 then 0 else top (n - 1)\n\
     module M = struct\n\
    \  let f x = let rec a y = b y and b y = y in a x\n\
     end\n" ^ extra
  in
  let inv extra =
    match Lint.parse_impl ~filename:"lib/x/s.ml" (src extra) with
    | Some ast -> Closures.inventory [ ("lib/x/s.ml", ast) ]
    | None -> Alcotest.fail "sample does not parse"
  in
  Alcotest.(check (list string))
    "nested let rec bindings by enclosing definition, sorted; a top-level \
     let rec is not one"
    [ "lib/x/s.ml M.f.a"; "lib/x/s.ml M.f.b"; "lib/x/s.ml find.go" ]
    (inv "");
  Alcotest.(check (list string)) "a new probe loop is an added ratchet line"
    [ "lib/x/s.ml g.h" ]
    (Ratchet.diff ~baseline:(inv "")
       ~current:(inv "let g x = let rec h y = y in h x\n"))
      .Ratchet.added

let test_closures_lambdas () =
  let inv src =
    match Lint.parse_impl ~filename:"lib/x/s.ml" src with
    | Some ast -> Closures.inventory [ ("lib/x/s.ml", ast) ]
    | None -> Alcotest.fail "sample does not parse"
  in
  let base =
    "let walk f xs = List.iter (fun x -> f x) xs\n\
     let own a b = function 0 -> a | _ -> b\n\
     let chain xs = List.map (fun a b -> a + b) xs\n\
     let local x = let g y = x + y in let rec r n = if n = 0 then g 0 else r (n - 1) in r x\n\
     let plain x = x + 1\n"
  in
  Alcotest.(check (list string))
    "anonymous and let-bound functions by definition, a fun chain once; \
     the definition's own parameters and a nested let rec's right-hand \
     side are not counted"
    [
      "lib/x/s.ml chain lambdas=1";
      "lib/x/s.ml local lambdas=1";
      "lib/x/s.ml local.r";
      "lib/x/s.ml walk lambdas=1";
    ]
    (inv base);
  let diff =
    Ratchet.diff ~baseline:(inv base)
      ~current:(inv (base ^ "let hot k xs = List.exists (fun x -> x = k) xs\n"))
  in
  Alcotest.(check (list string)) "a new capturing lambda is an added ratchet line"
    [ "lib/x/s.ml hot lambdas=1" ] diff.Ratchet.added

(* ---- JSON rendering ------------------------------------------------- *)

let test_json () =
  Alcotest.(check string)
    "object with escapes"
    "{\"file\":\"a\\\"b\",\"line\":3,\"ok\":true,\"tag\":null,\"l\":[1,2]}"
    (Ljson.to_string
       (Ljson.O
          [
            ("file", Ljson.S "a\"b");
            ("line", Ljson.I 3);
            ("ok", Ljson.B true);
            ("tag", Ljson.Null);
            ("l", Ljson.L [ Ljson.I 1; Ljson.I 2 ]);
          ]));
  Alcotest.(check string)
    "newline escaped" "\"a\\nb\""
    (Ljson.to_string (Ljson.S "a\nb"))

(* ---- exports inventory ---------------------------------------------- *)

(* A fixture tree: one library interface, users under lib/ and bench/,
   and a test under test/. Returns the classified entries. *)
let exports_fixture ?(extra_user = "") () =
  let root = Filename.temp_file "exports" "" in
  Sys.remove root;
  let files =
    [
      ( "lib/a/foo.mli",
        "val used : int\n\
         (** Only test_x needs it. *)\n\
         val tested : int\n\
         (** The latest value. *)\n\
         val undocumented : int\n\
         val unused : int\n\
         val opened : int\n\
         val local_open : int\n\
         val let_open : int\n\
         val aliased : int\n\
         val wrapped : int\n\
         val benched : int\n\
         module Key : sig\n\
        \  (** For test_x. *)\n\
        \  val hash : int -> int\n\
         end\n" );
      ("lib/a/foo.ml", "let unused = 0\nlet used = unused\n");
      ( "lib/b/bar.ml",
        "let a = Foo.used\n\
         let b = Foo.(local_open)\n\
         let c = let open Foo in let_open\n\
         module F = Foo\n\
         let d = F.aliased\n\
         let e = Xenic_a.Foo.wrapped\n\
         open Foo\n\
         let f = opened\n" ^ extra_user );
      ("bench/run.ml", "let x = Foo.benched\n");
      ( "test/t.ml",
        "let x = Foo.tested + Foo.undocumented + Foo.Key.hash 1 + Foo.used\n" );
    ]
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  List.iter
    (fun (rel, src) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc -> output_string oc src))
    files;
  let entries = Exports.of_roots [ Filename.concat root "lib" ] in
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  rm_rf root;
  entries

let names es = List.sort String.compare (List.map (fun e -> e.Exports.name) es)

let test_exports_users () =
  let entries = exports_fixture () in
  let with_status s =
    names (List.filter (fun e -> e.Exports.status = s) entries)
  in
  Alcotest.(check (list string))
    "open, local open, let open, an alias, a wrapper prefix and bench/ \
     all count as users"
    [
      "Foo.aliased"; "Foo.benched"; "Foo.let_open"; "Foo.local_open";
      "Foo.opened"; "Foo.used"; "Foo.wrapped";
    ]
    (with_status Exports.Used);
  Alcotest.(check (list string))
    "test-only values, a nested one named by its path"
    [ "Foo.Key.hash"; "Foo.tested"; "Foo.undocumented" ]
    (with_status Exports.Test_only);
  Alcotest.(check int) "the inventory lists each test-only value" 3
    (List.length (Exports.inventory entries));
  Alcotest.(check bool) "an inventory line names the value" true
    (List.exists
       (fun l -> Filename.check_suffix l "foo.mli Foo.Key.hash")
       (Exports.inventory entries));
  Alcotest.(check (list string))
    "a test-only value must name its test" [ "Foo.undocumented" ]
    (names (Exports.unexplained entries))

let test_exports_unused () =
  Alcotest.(check (list string))
    "a value that only its own module uses has no user" [ "Foo.unused" ]
    (names (Exports.unused (exports_fixture ())));
  Alcotest.(check (list string))
    "a user elsewhere clears it" []
    (names (Exports.unused (exports_fixture ~extra_user:"let g = unused\n" ())))

let () =
  Alcotest.run "xenic_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "random" `Quick test_random;
          Alcotest.test_case "rng.ml exemption" `Quick test_rng_exempt;
          Alcotest.test_case "wall clock" `Quick test_wall_clock;
          Alcotest.test_case "wall clock scoping" `Quick test_wall_clock_scoped;
          Alcotest.test_case "hashtbl unsorted" `Quick test_hashtbl_unsorted;
          Alcotest.test_case "hashtbl sorted exempt" `Quick test_hashtbl_sorted;
          Alcotest.test_case "float compare" `Quick test_float_cmp;
          Alcotest.test_case "float compare ordering" `Quick
            test_float_cmp_ordering;
          Alcotest.test_case "obj magic" `Quick test_obj_magic;
          Alcotest.test_case "catch all" `Quick test_catch_all;
          Alcotest.test_case "catch all via match-exception" `Quick
            test_catch_all_match_exception;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "line numbers" `Quick test_line_numbers;
          Alcotest.test_case "rule ids round-trip" `Quick test_rule_ids_roundtrip;
          Alcotest.test_case "json rendering" `Quick test_json;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "per line" `Quick test_allow_line;
          Alcotest.test_case "per file" `Quick test_allow_file;
          Alcotest.test_case "split tokens" `Quick test_split_tokens;
          Alcotest.test_case "atomic tags" `Quick test_atomic_tag;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "lexical scan" `Quick test_lexical_fallback;
          Alcotest.test_case "lexical hashtbl direction" `Quick
            test_lexical_hashtbl_direction;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "suspend fixpoint" `Quick test_suspend_fixpoint;
          Alcotest.test_case "suspend field channel" `Quick
            test_suspend_field_channel;
          Alcotest.test_case "suspend field holds a result" `Quick
            test_suspend_field_result;
          Alcotest.test_case "atomicity double grant" `Quick
            test_atomicity_double_grant;
          Alcotest.test_case "atomicity annotated" `Quick
            test_atomicity_annotated;
          Alcotest.test_case "atomicity fresh locals" `Quick
            test_atomicity_fresh_local;
          Alcotest.test_case "domain shared report" `Quick test_domain_shared;
          Alcotest.test_case "DLS confined to Ambient" `Quick test_dls_confined;
          Alcotest.test_case "ratchet" `Quick test_ratchet;
          Alcotest.test_case "options inventory" `Quick test_options;
          Alcotest.test_case "closures inventory" `Quick test_closures;
          Alcotest.test_case "closures inventory lambdas" `Quick
            test_closures_lambdas;
          Alcotest.test_case "exports users" `Quick test_exports_users;
          Alcotest.test_case "exports no user" `Quick test_exports_unused;
        ] );
    ]
