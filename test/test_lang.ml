(* Compiler tests: lexer, parser, type checker (including the paper's
   no-pointer-arithmetic rule), the Fig. 5 lowering, the Fig. 6 merging,
   loop invariance, direct dispatch, the registry round trip, and semantic
   preservation of the passes on every kernel. *)

module L = Ace_lang

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- lexer ---- *)

let lex_tokens () =
  let toks = L.Lexer.tokenize "func f() { var x = 1.5; // c\n x = x + 2; }" in
  let kinds =
    List.map
      (fun (t, _) ->
        match t with
        | L.Lexer.TKw k -> "kw:" ^ k
        | L.Lexer.TIdent i -> "id:" ^ i
        | L.Lexer.TNum _ -> "num"
        | L.Lexer.TPunct p -> p
        | L.Lexer.TEof -> "eof")
      toks
  in
  Alcotest.(check (list string)) "tokens"
    [
      "kw:func"; "id:f"; "("; ")"; "{"; "kw:var"; "id:x"; "="; "num"; ";";
      "id:x"; "="; "id:x"; "+"; "num"; ";"; "}"; "eof";
    ]
    kinds

let lex_comments_and_ops () =
  let toks = L.Lexer.tokenize "/* multi \n line */ a <= b != c" in
  check_int "token count" 6 (List.length toks)

let lex_error_line () =
  match L.Lexer.tokenize "func f() {\n  1.2.3;\n}" with
  | exception L.Lexer.Error (_, line) -> check_int "line" 2 line
  | _ -> Alcotest.fail "expected lex error"

(* ---- parser ---- *)

let parse_structures () =
  let prog =
    L.Parser.parse_program
      {|
func helper(a, b) { return a + b; }
func main() {
  var x = 0;
  for (x = 0; x < 10; x += 1) { work(1); }
  while (x > 0) { x = x - 1; }
  if (x == 0) { x = helper(1, 2); } else { x = 3; }
}
|}
  in
  check_int "two functions" 2 (List.length prog);
  let main = List.nth prog 1 in
  check_int "main statements" 4 (List.length main.L.Ast.body)

let parse_precedence () =
  match L.Parser.parse_program "func f() { var x = 1 + 2 * 3; }" with
  | [ { L.Ast.body = [ L.Ast.VarDecl (_, Some e) ]; _ } ] ->
      check "mul binds tighter" true
        (match e with
        | L.Ast.Binop (L.Ast.Add, L.Ast.Num 1., L.Ast.Binop (L.Ast.Mul, _, _)) ->
            true
        | _ -> false)
  | _ -> Alcotest.fail "parse shape"

let parse_error_reported () =
  match L.Parser.parse_program "func f() { var ; }" with
  | exception L.Parser.Error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* ---- type checking ---- *)

let accepts src =
  match L.Compile.frontend src with
  | _ -> true
  | exception Failure _ -> false

let typecheck_rejects_pointer_arithmetic () =
  (* the paper's §3.1 rule: no arithmetic on shared pointers *)
  check "region + 1" false
    (accepts "func main() { space s = newspace(SC); region r; r = gmalloc(s, 4); var x = r + 1; }");
  check "region compare region as num" false
    (accepts "func main() { region a; region b; var x = a * b; }")

let typecheck_rejects_misuse () =
  check "num indexed" false (accepts "func main() { var x = 0; var y = x[0]; }");
  check "undeclared" false (accepts "func main() { x = 1; }");
  check "duplicate" false (accepts "func main() { var x = 0; var x = 1; }");
  check "barrier on num" false (accepts "func main() { var x = 0; barrier(x); }");
  check "lock on num" false (accepts "func main() { var x = 0; lock(x); }");
  check "bad arity" false (accepts "func f(a) { return a; } func main() { var x = f(1, 2); }")

let typecheck_accepts_shared_access () =
  check "full surface" true
    (accepts
       {|
func main() {
  space s = newspace(SC);
  region r;
  region arr[4];
  r = gmalloc(s, 8);
  arr[0] = r;
  r[3] = arr[0][2] + 1;
  lock(arr[0]);
  unlock(arr[0]);
  barrier(s);
  changeproto(s, NULL);
}
|})

(* ---- Fig. 5: lowering inserts the annotation sequence ---- *)

let lowering_fig5_load_store () =
  let ir =
    L.Compile.frontend
      "func main() { space s = newspace(SC); region x; region w; x = gmalloc(s, 1); w = gmalloc(s, 1); w[0] = x[0]; }"
  in
  let counts = L.Ir.count_annotations ir in
  (* one load (map+start_read+end_read) and one store (map+start_write+
     end_write), exactly Fig. 5's sequences *)
  check_int "maps" 2 counts.L.Ir.maps;
  check_int "starts" 2 counts.L.Ir.starts;
  check_int "ends" 2 counts.L.Ir.ends;
  let text = L.Ir.to_string ir in
  check "read before write sequence" true
    (let ri = Str_find.find text "ACE_START_READ" in
     let wi = Str_find.find text "ACE_START_WRITE" in
     ri >= 0 && wi >= 0 && ri < wi)

(* ---- registry ---- *)

let registry_roundtrip () =
  let rt = Ace_runtime.Runtime.create ~nprocs:2 () in
  Ace_protocols.Proto_lib.register_all rt;
  let reg = L.Registry.of_runtime rt in
  let text = L.Registry.to_text reg in
  let reg' = L.Registry.parse_text text in
  check_int "same cardinality" (List.length reg) (List.length reg');
  List.iter
    (fun e ->
      match L.Registry.find reg' e.L.Registry.name with
      | Some e' -> check (e.L.Registry.name ^ " identical") true (e = e')
      | None -> Alcotest.fail ("missing " ^ e.L.Registry.name))
    reg

let registry_flags () =
  let rt = Ace_runtime.Runtime.create ~nprocs:2 () in
  Ace_protocols.Proto_lib.register_all rt;
  let reg = L.Registry.of_runtime rt in
  let e name = Option.get (L.Registry.find reg name) in
  check "SC not optimizable" false (e "SC").L.Registry.optimizable;
  check "SC has start_read" true (e "SC").L.Registry.start_read;
  check "static update end hooks are null" false (e "STATIC_UPDATE").L.Registry.end_read;
  check "write_once write hooks are null" false (e "WRITE_ONCE").L.Registry.start_write;
  check "null protocol all null" false (e "NULL").L.Registry.start_read;
  check "counter not optimizable" false (e "COUNTER").L.Registry.optimizable;
  (* derived: the state machines are actions the optimizer may move; the
     race checker's observed accesses are not *)
  check "static update optimizable" true (e "STATIC_UPDATE").L.Registry.optimizable;
  check "pipeline optimizable" true (e "PIPELINE").L.Registry.optimizable;
  check "race check not optimizable" false (e "RACE_CHECK").L.Registry.optimizable

(* ---- optimization passes ---- *)

let registry_for_tests () =
  let rt = Ace_runtime.Runtime.create ~nprocs:2 () in
  Ace_protocols.Proto_lib.register_all rt;
  L.Registry.of_runtime rt

(* Fig. 6's example: two consecutive writes through the same handle merge
   into one map and one write section. *)
let merging_fig6 () =
  let src =
    {|
func main() {
  space s = newspace(NULL);
  region x;
  x = gmalloc(s, 2);
  var y = 5;
  x[0] = y;
  x[1] = 4;
}
|}
  in
  let reg = registry_for_tests () in
  let base, d0 = L.Compile.compile ~registry:reg ~level:L.Opt.O0 src in
  ignore base;
  let merged, d2 = L.Compile.compile ~registry:reg ~level:L.Opt.O2 src in
  check_int "base: two maps" 2 d0.L.Compile.after.L.Ir.maps;
  check_int "merged: one map" 1 d2.L.Compile.after.L.Ir.maps;
  check_int "merged: one start" 1 d2.L.Compile.after.L.Ir.starts;
  check_int "merged: one end" 1 d2.L.Compile.after.L.Ir.ends;
  let text = L.Ir.to_string merged in
  check "single write section" true
    (Str_find.count text "ACE_START_WRITE" = 1
    && Str_find.count text "ACE_END_WRITE" = 1)

let merging_respects_optimizable_flag () =
  (* under SC (not optimizable) the two sections must NOT merge *)
  let src =
    {|
func main() {
  space s = newspace(SC);
  region x;
  x = gmalloc(s, 2);
  x[0] = 5;
  x[1] = 4;
}
|}
  in
  let reg = registry_for_tests () in
  let _, d2 = L.Compile.compile ~registry:reg ~level:L.Opt.O2 src in
  check_int "sections kept" 2 d2.L.Compile.after.L.Ir.starts

let merging_never_crosses_sync () =
  let src =
    {|
func main() {
  space s = newspace(NULL);
  region x;
  x = gmalloc(s, 2);
  x[0] = 5;
  barrier(s);
  x[1] = 4;
}
|}
  in
  let reg = registry_for_tests () in
  let _, d2 = L.Compile.compile ~registry:reg ~level:L.Opt.O2 src in
  check_int "barrier blocks merging" 2 d2.L.Compile.after.L.Ir.starts

let loop_invariance_hoists () =
  let src =
    {|
func main() {
  space s = newspace(NULL);
  region x;
  x = gmalloc(s, 16);
  var i = 0;
  var acc = 0;
  for (i = 0; i < 16; i += 1) {
    acc = acc + x[i];
  }
}
|}
  in
  let reg = registry_for_tests () in
  let ir, _ = L.Compile.compile ~registry:reg ~level:L.Opt.O1 src in
  let text = L.Ir.to_string ir in
  (* the map and section moved out: the for body holds only the load *)
  let for_idx = Str_find.find text "for (" in
  let map_idx = Str_find.find text "ACE_MAP" in
  let start_idx = Str_find.find text "ACE_START_READ" in
  check "map above loop" true (map_idx >= 0 && map_idx < for_idx);
  check "start above loop" true (start_idx >= 0 && start_idx < for_idx)

let loop_invariance_respects_variant_regions () =
  let src =
    {|
func main() {
  space s = newspace(NULL);
  region arr[4];
  var i = 0;
  for (i = 0; i < 4; i += 1) { arr[i] = gmalloc(s, 1); }
  var acc = 0;
  for (i = 0; i < 4; i += 1) { acc = acc + arr[i][0]; }
}
|}
  in
  let reg = registry_for_tests () in
  let ir, _ = L.Compile.compile ~registry:reg ~level:L.Opt.O1 src in
  let text = L.Ir.to_string ir in
  (* arr[i] varies with i: its map must stay inside the second loop *)
  let last_for = Str_find.find_last text "for (" in
  let last_map = Str_find.find_last text "ACE_MAP" in
  check "variant map stays in loop" true (last_map > last_for)

let direct_dispatch_unique_protocol () =
  let src =
    {|
func main() {
  space s = newspace(SC);
  region x;
  x = gmalloc(s, 1);
  changeproto(s, STATIC_UPDATE);
  x[0] = 1;
  var v = x[0];
}
|}
  in
  let reg = registry_for_tests () in
  let _, d = L.Compile.compile ~registry:reg ~level:L.Opt.O3 src in
  (* after changeproto the protocol set is the singleton STATIC_UPDATE:
     starts are direct, null end handlers removed *)
  check "direct calls" true (d.L.Compile.after.L.Ir.direct_calls > 0);
  check "null ends removed" true (d.L.Compile.after.L.Ir.removed_calls >= 2)

let direct_dispatch_needs_unique_protocol () =
  let src =
    {|
func main() {
  space s = newspace(SC);
  region x;
  x = gmalloc(s, 1);
  var c = me();
  if (c == 0) { changeproto(s, STATIC_UPDATE); } else { changeproto(s, DYN_UPDATE); }
  x[0] = 1;
}
|}
  in
  let reg = registry_for_tests () in
  let _, d = L.Compile.compile ~registry:reg ~level:L.Opt.O3 src in
  check_int "ambiguous protocol: no direct calls" 0
    d.L.Compile.after.L.Ir.direct_calls

(* ---- semantic preservation on the kernels ---- *)

let kernels_agree_across_levels () =
  let reg = registry_for_tests () in
  List.iter
    (fun (name, src) ->
      let results =
        List.map
          (fun level ->
            let rt = Ace_runtime.Runtime.create ~nprocs:4 () in
            Ace_protocols.Proto_lib.register_all rt;
            let ir, _ = L.Compile.compile ~registry:reg ~level src in
            L.Interp.run_spmd rt ir)
          [ L.Opt.O0; L.Opt.O1; L.Opt.O2; L.Opt.O3 ]
      in
      match results with
      | base :: rest ->
          List.iteri
            (fun i r ->
              if abs_float (r -. base) > 1e-9 *. (1. +. abs_float base) then
                Alcotest.failf "%s: level %d result %.12g <> base %.12g" name
                  (i + 1) r base)
            rest
      | [] -> assert false)
    L.Kernels.all

let interp_detects_errors () =
  let reg = registry_for_tests () in
  let run src =
    let rt = Ace_runtime.Runtime.create ~nprocs:2 () in
    Ace_protocols.Proto_lib.register_all rt;
    let ir, _ = L.Compile.compile ~registry:reg ~level:L.Opt.O0 src in
    L.Interp.run_spmd rt ir
  in
  (match
     run
       "func main() { space s = newspace(SC); region r; r = gmalloc(s, 2); var v = r[5]; }"
   with
  | exception L.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "out-of-bounds shared access not caught");
  match
    run "func main() { space s = newspace(SC); region r; r = globalid(s, 0, 7); }"
  with
  | exception L.Interp.Runtime_error _ -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unallocated globalid not caught"

(* ---- interpreter identity ----

   Simulated seconds and node 0's result for each Table 4 kernel at O0 and
   O3 on 8 processors, as %.17g strings. Every interpreter charge is a
   fiber yield, so a charge moved across a runtime call (a protocol call,
   a map, a barrier) changes when that call happens and moves these
   numbers, even though the sum of charges stays the same. *)
let pinned_runs =
  [
    ("Barnes-Hut", "base", "0.0060981666666666667", "0.046697579231247628");
    ("Barnes-Hut", "+LI+MC+DC", "0.0041419848484848488", "0.046697579211235962");
    ("BSC", "base", "0.021185560606060607", "4.1230570318569741");
    ("BSC", "+LI+MC+DC", "0.0040130606060606059", "4.1230570318569741");
    ("EM3D", "base", "0.0042500000000000003", "-24.844101367865118");
    ("EM3D", "+LI+MC+DC", "0.0034489696969696969", "-24.844101367865118");
    ("TSP", "base", "0.015059742424242423", "897933");
    ("TSP", "+LI+MC+DC", "0.014856984848484849", "897933");
    ("WATER", "base", "0.0046298030303030301", "2.2993803913123316");
    ("WATER", "+LI+MC+DC", "0.001791560606060606", "2.2993803913123316");
  ]

let interp_pinned_runs () =
  List.iter
    (fun (name, level, secs, result) ->
      let src = List.assoc name L.Kernels.all in
      let level =
        List.find (fun l -> L.Opt.level_name l = level) [ L.Opt.O0; L.Opt.O3 ]
      in
      let s, r = Ace_harness.Table4.run_compiled ~nprocs:8 ~level src in
      let label what = Printf.sprintf "%s %s %s" name (L.Opt.level_name level) what in
      Alcotest.(check string) (label "simulated s") secs (Printf.sprintf "%.17g" s);
      Alcotest.(check string) (label "result") result (Printf.sprintf "%.17g" r))
    pinned_runs

(* The exact messages, on IR built by hand so the type checker cannot
   reject the program first. *)
let interp_error_messages () =
  let run prog =
    let rt = Ace_runtime.Runtime.create ~nprocs:2 () in
    Ace_protocols.Proto_lib.register_all rt;
    ignore (L.Interp.run_spmd rt prog)
  in
  let main body = [ { L.Ir.fname = "main"; params = []; body = L.Ir.ISeq body } ] in
  let raises msg prog =
    Alcotest.check_raises msg (L.Interp.Runtime_error msg) (fun () -> run prog)
  in
  raises "unbound variable x" (main [ L.Ir.IAssign ("y", L.Ir.NVar "x") ]);
  raises "unknown function nope" (main [ L.Ir.ICallStmt (None, "nope", []) ]);
  raises "arity mismatch calling f"
    ({ L.Ir.fname = "f"; params = [ "a" ]; body = L.Ir.ISeq [] }
    :: main [ L.Ir.ICallStmt (None, "f", []) ]);
  raises "mod by zero"
    (main [ L.Ir.IAssign ("y", L.Ir.NMod (L.Ir.NNum 1., L.Ir.NNum 0.)) ]);
  raises "r is not a local array"
    (main
       [
         L.Ir.IDeclRegArr ("r", L.Ir.NNum 2.);
         L.Ir.IAssign ("y", L.Ir.NIdx ("r", L.Ir.NNum 0.));
       ])

let () =
  Alcotest.run "acelang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick lex_tokens;
          Alcotest.test_case "comments/ops" `Quick lex_comments_and_ops;
          Alcotest.test_case "error line" `Quick lex_error_line;
        ] );
      ( "parser",
        [
          Alcotest.test_case "structures" `Quick parse_structures;
          Alcotest.test_case "precedence" `Quick parse_precedence;
          Alcotest.test_case "errors" `Quick parse_error_reported;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "no pointer arithmetic" `Quick
            typecheck_rejects_pointer_arithmetic;
          Alcotest.test_case "misuse rejected" `Quick typecheck_rejects_misuse;
          Alcotest.test_case "surface accepted" `Quick typecheck_accepts_shared_access;
        ] );
      ( "lowering",
        [ Alcotest.test_case "Fig. 5 sequences" `Quick lowering_fig5_load_store ] );
      ( "registry",
        [
          Alcotest.test_case "roundtrip" `Quick registry_roundtrip;
          Alcotest.test_case "hook flags" `Quick registry_flags;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "Fig. 6 merging" `Quick merging_fig6;
          Alcotest.test_case "optimizable gate" `Quick
            merging_respects_optimizable_flag;
          Alcotest.test_case "sync blocks merging" `Quick merging_never_crosses_sync;
          Alcotest.test_case "LI hoists" `Quick loop_invariance_hoists;
          Alcotest.test_case "LI keeps variant maps" `Quick
            loop_invariance_respects_variant_regions;
          Alcotest.test_case "DC on unique protocol" `Quick
            direct_dispatch_unique_protocol;
          Alcotest.test_case "DC needs uniqueness" `Quick
            direct_dispatch_needs_unique_protocol;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "kernels agree across levels" `Slow
            kernels_agree_across_levels;
          Alcotest.test_case "runtime errors" `Quick interp_detects_errors;
          Alcotest.test_case "pinned kernel runs" `Quick interp_pinned_runs;
          Alcotest.test_case "error messages" `Quick interp_error_messages;
        ] );
    ]
