(* Static-analysis driver. Exit 0 = clean, 1 = findings, 2 = usage.

   Subcommands:
     xenic_lint [lint] ROOT...         classic determinism rules
     xenic_lint suspend ROOT...        may-suspend inventory (stdout)
     xenic_lint atomicity ROOT...      ATOMICITY findings
     xenic_lint atomicity --inventory ROOT...
                                       annotated-finding inventory (stdout);
                                       fails if unannotated findings exist
     xenic_lint report ROOT...         DOMAIN-SHARED mutable-state report
     xenic_lint options ROOT...        optional-argument and [params]-field
                                       inventory of every .mli (stdout)
     xenic_lint closures ROOT...       [let rec] nested in a top-level
                                       definition, and its count of other
                                       function expressions, per .ml
                                       (stdout)
     xenic_lint exports ROOT...        interface values that only the
                                       sibling test/ uses (stdout); fails
                                       if a value has no user at all, or
                                       if a test-only value's doc does not
                                       name the test that needs it

   [--format json] switches any subcommand to machine-readable output.
   A first argument that is an existing path keeps the legacy
   [xenic_lint DIR-OR-FILE...] form working (the root `dune` lint alias
   and any scripts that call it). *)

let usage () =
  prerr_endline "usage: xenic_lint [SUBCOMMAND] [--format json] DIR-OR-FILE...";
  prerr_endline
    "  subcommands: lint (default) | suspend | atomicity | report | options \
     | closures | exports";
  prerr_endline "  atomicity also takes --inventory";
  exit 2

type format = Text | Json

let parse_opts args =
  let fmt = ref Text in
  let inventory = ref false in
  let rec go acc = function
    | [] -> List.rev acc
    | "--format" :: "json" :: rest ->
        fmt := Json;
        go acc rest
    | "--format" :: _ ->
        prerr_endline "xenic_lint: --format takes `json'";
        usage ()
    | "--inventory" :: rest ->
        inventory := true;
        go acc rest
    | a :: rest -> go (a :: acc) rest
  in
  let roots = go [] args in
  (roots, !fmt, !inventory)

let check_roots roots =
  if roots = [] then usage ();
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  if missing <> [] then begin
    List.iter
      (fun r -> Printf.eprintf "xenic_lint: no such path: %s\n" r)
      missing;
    usage ()
  end

(* Parse every .ml under [roots]; analyzer passes skip files the parser
   rejects (the classic lint still covers them lexically). *)
let load roots =
  Lint.collect_ml_files roots
  |> List.filter_map (fun file ->
         let src = Lint.read_file file in
         match Lint.parse_impl ~filename:file src with
         | Some ast -> Some (file, src, ast)
         | None ->
             Printf.eprintf "xenic_lint: skipping unparseable %s\n" file;
             None)

let build_graph files =
  let graph = Callgraph.build (List.map (fun (f, _, ast) -> (f, ast)) files) in
  let susp = Suspend.infer graph in
  (graph, susp)

let print_lines = List.iter print_endline

(* ---- lint ---------------------------------------------------------- *)

let finding_json (f : Lint.finding) =
  Ljson.O
    [
      ("rule", Ljson.S (Lint.rule_id f.rule));
      ("file", Ljson.S f.file);
      ("line", Ljson.I f.line);
      ("message", Ljson.S f.message);
    ]

let run_lint fmt roots =
  let findings = Lint.lint_roots roots in
  (match fmt with
  | Json ->
      print_endline
        (Ljson.to_string
           (Ljson.O [ ("findings", Ljson.L (List.map finding_json findings)) ]))
  | Text ->
      List.iter (fun f -> print_endline (Lint.to_string f)) findings;
      if findings <> [] then
        Printf.printf "xenic_lint: %d finding(s)\n" (List.length findings));
  if findings = [] then 0 else 1

(* ---- suspend ------------------------------------------------------- *)

let run_suspend fmt roots =
  let files = load roots in
  let graph, _ = build_graph files in
  let inv = Suspend.inventory graph in
  (match fmt with
  | Json ->
      print_endline
        (Ljson.to_string
           (Ljson.O
              [ ("suspend", Ljson.L (List.map (fun k -> Ljson.S k) inv)) ]))
  | Text -> print_lines inv);
  0

(* ---- atomicity ----------------------------------------------------- *)

let atomicity_json (f : Atomicity.finding) =
  Ljson.O
    [
      ("rule", Ljson.S "ATOMICITY");
      ("file", Ljson.S f.a_file);
      ("line", Ljson.I f.a_line);
      ("def", Ljson.S f.a_def);
      ("lvalue", Ljson.S f.a_lvalue);
      ("read_line", Ljson.I f.a_read_line);
      ("suspend_line", Ljson.I f.a_susp_line);
      ("callee", Ljson.S f.a_callee);
      ( "tag",
        match f.a_tag with Some t -> Ljson.S t | None -> Ljson.Null );
    ]

let run_atomicity fmt ~inventory roots =
  let files = load roots in
  let graph, susp = build_graph files in
  let findings = Atomicity.analyze ~graph ~susp files in
  let bad = Atomicity.unannotated findings in
  if inventory then begin
    (* Inventory mode feeds the checked-in ratchet: the annotated audit
       list goes to stdout; unannotated findings are a hard error. *)
    print_lines (Atomicity.inventory findings);
    if bad = [] then 0
    else begin
      List.iter (fun f -> prerr_endline (Atomicity.to_string f)) bad;
      Printf.eprintf "xenic_lint: %d unannotated ATOMICITY finding(s)\n"
        (List.length bad);
      1
    end
  end
  else begin
    (match fmt with
    | Json ->
        print_endline
          (Ljson.to_string
             (Ljson.O
                [
                  ("findings", Ljson.L (List.map atomicity_json findings));
                  ("unannotated", Ljson.I (List.length bad));
                ]))
    | Text ->
        List.iter (fun f -> print_endline (Atomicity.to_string f)) findings;
        if bad <> [] then
          Printf.printf "xenic_lint: %d unannotated ATOMICITY finding(s)\n"
            (List.length bad));
    if bad = [] then 0 else 1
  end

(* ---- report -------------------------------------------------------- *)

let entry_json (e : Domain_shared.entry) =
  Ljson.O
    [
      ("key", Ljson.S e.s_key);
      ("file", Ljson.S e.s_file);
      ("line", Ljson.I e.s_line);
      ("kinds", Ljson.L (List.map (fun k -> Ljson.S k) e.s_kinds));
      ("refs", Ljson.L (List.map (fun r -> Ljson.S r) e.s_refs));
      ("suspending_refs", Ljson.B e.s_suspending_refs);
      ( "partitioned",
        match e.s_tag with Some t -> Ljson.S t | None -> Ljson.Null );
    ]

let run_report fmt roots =
  let files = load roots in
  let graph, susp = build_graph files in
  let entries = Domain_shared.scan ~graph ~susp files in
  (* The report is also a ratchet: module-level mutable state without a
     `partitioned <tag>' annotation is a hard error — the engine runs
     partitions on separate domains, so new ambient globals must name
     their synchronization story or become engine-local. *)
  let bad = Domain_shared.unannotated entries in
  (match fmt with
  | Json ->
      print_endline
        (Ljson.to_string
           (Ljson.O
              [
                ("shared", Ljson.L (List.map entry_json entries));
                ("unannotated", Ljson.I (List.length bad));
              ]))
  | Text -> print_lines (Domain_shared.report entries));
  if bad = [] then 0
  else begin
    List.iter (fun e -> prerr_endline (Domain_shared.to_string e)) bad;
    Printf.eprintf "xenic_lint: %d unannotated DOMAIN-SHARED entr%s\n"
      (List.length bad)
      (if List.length bad = 1 then "y" else "ies");
    1
  end

(* ---- options ------------------------------------------------------ *)

let run_options fmt roots =
  let mlis = Lint.collect_files ~suffix:".mli" roots in
  let inv = Options.inventory (List.map (fun f -> (f, Lint.read_file f)) mlis) in
  (match fmt with
  | Json ->
      let l = Ljson.L (List.map (fun s -> Ljson.S s) inv) in
      print_endline (Ljson.to_string (Ljson.O [ ("options", l) ]))
  | Text -> print_lines inv);
  0

(* ---- closures ----------------------------------------------------- *)

let run_closures fmt roots =
  let inv =
    Closures.inventory (List.map (fun (f, _, ast) -> (f, ast)) (load roots))
  in
  (match fmt with
  | Json ->
      let l = Ljson.L (List.map (fun s -> Ljson.S s) inv) in
      print_endline (Ljson.to_string (Ljson.O [ ("closures", l) ]))
  | Text -> print_lines inv);
  0

(* ---- exports ------------------------------------------------------ *)

let run_exports fmt roots =
  let entries = Exports.of_roots roots in
  let inv = Exports.inventory entries in
  (match fmt with
  | Json ->
      let l = Ljson.L (List.map (fun s -> Ljson.S s) inv) in
      print_endline (Ljson.to_string (Ljson.O [ ("test_only", l) ]))
  | Text -> print_lines inv);
  let report msg bad =
    List.iter (fun e -> Printf.eprintf "%s: [EXPORTS] %s\n" (Exports.line e) msg) bad
  in
  let unused = Exports.unused entries
  and unexplained = Exports.unexplained entries in
  report "no user" unused;
  report "only tests use it, and its doc does not say which test needs it"
    unexplained;
  let bad = List.length unused + List.length unexplained in
  if bad = 0 then 0
  else begin
    Printf.eprintf "xenic_lint: %d interface value(s) without a user\n" bad;
    1
  end

(* -------------------------------------------------------------------- *)

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: r -> r in
  let sub, rest =
    match args with
    | ( "lint" | "suspend" | "atomicity" | "report" | "options" | "closures"
      | "exports" )
      :: r ->
        (List.hd args, r)
    | _ -> ("lint", args)  (* legacy: xenic_lint DIR-OR-FILE... *)
  in
  let roots, fmt, inventory = parse_opts rest in
  if inventory && sub <> "atomicity" then begin
    prerr_endline "xenic_lint: --inventory only applies to `atomicity'";
    usage ()
  end;
  check_roots roots;
  exit
    (match sub with
    | "suspend" -> run_suspend fmt roots
    | "atomicity" -> run_atomicity fmt ~inventory roots
    | "report" -> run_report fmt roots
    | "options" -> run_options fmt roots
    | "closures" -> run_closures fmt roots
    | "exports" -> run_exports fmt roots
    | _ -> run_lint fmt roots)
