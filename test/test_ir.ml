(* IR data structures, CFG analyses, verifier. *)
module Ir = Csspgo_ir
module T = Ir.Types
module I = Ir.Instr
module F = Csspgo_frontend
open Csspgo_support

let mk_diamond () =
  (* entry -> (a|b) -> join(ret) *)
  let f = Ir.Func.mk ~name:"diamond" ~modname:"m" ~params:[ 0 ] in
  f.Ir.Func.nregs <- 3;
  let entry = Ir.Func.entry_block f in
  let a = Ir.Func.fresh_block f in
  let b = Ir.Func.fresh_block f in
  let join = Ir.Func.fresh_block f in
  Ir.Block.add entry (I.mk (I.Cmp (T.Gt, 1, T.Reg 0, T.Imm 10L)) Ir.Dloc.none);
  Ir.Block.set_term entry (I.Br (1, a.Ir.Block.id, b.Ir.Block.id));
  Ir.Block.add a (I.mk (I.Mov (2, T.Imm 1L)) Ir.Dloc.none);
  Ir.Block.set_term a (I.Jmp join.Ir.Block.id);
  Ir.Block.add b (I.mk (I.Mov (2, T.Imm 2L)) Ir.Dloc.none);
  Ir.Block.set_term b (I.Jmp join.Ir.Block.id);
  Ir.Block.set_term join (I.Ret (T.Reg 2));
  (f, entry, a, b, join)

let mk_loop () =
  (* entry -> header -> (body -> header | exit) *)
  let f = Ir.Func.mk ~name:"loopy" ~modname:"m" ~params:[ 0 ] in
  f.Ir.Func.nregs <- 3;
  let entry = Ir.Func.entry_block f in
  let header = Ir.Func.fresh_block f in
  let body = Ir.Func.fresh_block f in
  let exit_b = Ir.Func.fresh_block f in
  Ir.Block.add entry (I.mk (I.Mov (1, T.Imm 0L)) Ir.Dloc.none);
  Ir.Block.set_term entry (I.Jmp header.Ir.Block.id);
  Ir.Block.add header (I.mk (I.Cmp (T.Lt, 2, T.Reg 1, T.Reg 0)) Ir.Dloc.none);
  Ir.Block.set_term header (I.Br (2, body.Ir.Block.id, exit_b.Ir.Block.id));
  Ir.Block.add body (I.mk (I.Bin (T.Add, 1, T.Reg 1, T.Imm 1L)) Ir.Dloc.none);
  Ir.Block.set_term body (I.Jmp header.Ir.Block.id);
  Ir.Block.set_term exit_b (I.Ret (T.Reg 1));
  (f, header, body, exit_b)

let test_guid () =
  let g1 = Ir.Guid.of_name "main" and g2 = Ir.Guid.of_name "main" in
  Alcotest.(check bool) "equal names equal guids" true (Ir.Guid.equal g1 g2);
  Alcotest.(check bool) "distinct" true
    (not (Ir.Guid.equal g1 (Ir.Guid.of_name "main2")))

let test_dloc_frames () =
  let g_f = Ir.Guid.of_name "f" and g_g = Ir.Guid.of_name "g" in
  let d = Ir.Dloc.mk g_f 7 in
  let d =
    Ir.Dloc.push_inline d { Ir.Dloc.cs_func = g_g; cs_line = 3; cs_disc = 0; cs_probe = 5 }
  in
  (match Ir.Dloc.frames ~container:g_g d with
  | [ (f0, 7, 0); (f1, 3, 5) ] ->
      Alcotest.(check bool) "inner origin" true (Ir.Guid.equal f0 g_f);
      Alcotest.(check bool) "outer caller" true (Ir.Guid.equal f1 g_g)
  | other -> Alcotest.failf "unexpected frames (%d)" (List.length other));
  Alcotest.(check bool) "none detection" true (Ir.Dloc.is_none Ir.Dloc.none)

let test_successors () =
  Alcotest.(check (list int)) "br" [ 1; 2 ] (I.successors (I.Br (0, 1, 2)));
  Alcotest.(check (list int)) "switch" [ 3; 4; 5 ]
    (I.successors (I.Switch (T.Reg 0, [ (0L, 3); (1L, 4) ], 5)));
  Alcotest.(check (list int)) "ret" [] (I.successors (I.Ret (T.Imm 0L)))

let test_defs_uses () =
  Alcotest.(check (list int)) "bin defs" [ 2 ] (I.defs (I.Bin (T.Add, 2, T.Reg 0, T.Reg 1)));
  Alcotest.(check (list int)) "bin uses" [ 0; 1 ] (I.uses (I.Bin (T.Add, 2, T.Reg 0, T.Reg 1)));
  Alcotest.(check (list int)) "store defs" [] (I.defs (I.Store ("g", T.Reg 0, T.Reg 1)));
  Alcotest.(check bool) "probe side effect" true
    (I.has_side_effect (I.Probe { I.p_id = 1; p_kind = I.Block_probe; p_func = 0L }))

let test_rpo_and_preds () =
  let f, entry, a, b, join = mk_diamond () in
  let rpo = Ir.Cfg.rpo f in
  Alcotest.(check int) "rpo covers all" 4 (List.length rpo);
  Alcotest.(check int) "entry first" entry.Ir.Block.id (List.hd rpo);
  let preds = Ir.Cfg.preds f in
  Alcotest.(check (list int)) "join preds"
    (List.sort compare [ a.Ir.Block.id; b.Ir.Block.id ])
    (List.sort compare (Hashtbl.find preds join.Ir.Block.id))

let test_dominators () =
  let f, entry, a, _b, join = mk_diamond () in
  let dom = Ir.Cfg.dominators f in
  Alcotest.(check bool) "entry dominates join" true
    (Ir.Cfg.dominates dom entry.Ir.Block.id join.Ir.Block.id);
  Alcotest.(check bool) "arm does not dominate join" false
    (Ir.Cfg.dominates dom a.Ir.Block.id join.Ir.Block.id);
  Alcotest.(check bool) "entry dominates arm" true
    (Ir.Cfg.dominates dom entry.Ir.Block.id a.Ir.Block.id)

let test_natural_loops () =
  let f, header, body, exit_b = mk_loop () in
  match Ir.Cfg.natural_loops f with
  | [ loop ] ->
      Alcotest.(check int) "header" header.Ir.Block.id loop.Ir.Cfg.header;
      Alcotest.(check bool) "body in loop" true (Hashtbl.mem loop.Ir.Cfg.body body.Ir.Block.id);
      Alcotest.(check bool) "exit not in loop" false
        (Hashtbl.mem loop.Ir.Cfg.body exit_b.Ir.Block.id);
      Alcotest.(check (list int)) "latches" [ body.Ir.Block.id ] loop.Ir.Cfg.latches
  | loops -> Alcotest.failf "expected 1 loop, got %d" (List.length loops)

let test_verify_catches_bad_target () =
  let f, _, _, _, _ = mk_diamond () in
  let p = Ir.Program.mk () in
  Ir.Program.add_func p f;
  Alcotest.(check int) "clean" 0 (List.length (Ir.Verify.program p));
  (Ir.Func.entry_block f).Ir.Block.term <- I.Jmp 999;
  Alcotest.(check bool) "bad target caught" true (Ir.Verify.program p <> [])

let test_verify_unknown_call () =
  (* Built by hand: the frontend rejects calls to undefined functions. *)
  let f = Ir.Func.mk ~name:"main" ~modname:"m" ~params:[ 0 ] in
  f.Ir.Func.nregs <- 2;
  let entry = Ir.Func.entry_block f in
  Ir.Block.add entry
    (I.mk (I.Call { I.c_ret = Some 1; c_callee = "nosuch"; c_args = [ T.Reg 0 ]; c_probe = 0 }) Ir.Dloc.none);
  Ir.Block.set_term entry (I.Ret (T.Reg 1));
  let p = Ir.Program.mk () in
  Ir.Program.add_func p f;
  Alcotest.(check bool) "unknown callee flagged" true (Ir.Verify.program p <> [])

let test_callgraph () =
  let p =
    F.Lower.compile
      {|
      fn leaf(x) { return x + 1; }
      fn mid(x) { return leaf(x) * 2; }
      fn main(a) { return mid(a) + leaf(a); }
      |}
  in
  let cg = Ir.Callgraph.build p in
  Alcotest.(check (list string)) "callees of main" [ "mid"; "leaf" ]
    (Ir.Callgraph.callees cg "main");
  Alcotest.(check bool) "leaf before mid (bottom-up)" true
    (let bu = Ir.Callgraph.bottom_up cg in
     let idx n = Option.get (List.find_index (String.equal n) bu) in
     idx "leaf" < idx "mid" && idx "mid" < idx "main");
  Alcotest.(check bool) "no recursion" false (Ir.Callgraph.is_recursive cg "mid")

let test_callgraph_recursion () =
  let p = F.Lower.compile "fn r(x) { if (x <= 0) { return 0; } return r(x - 1); } fn main(a) { return r(a); }" in
  let cg = Ir.Callgraph.build p in
  Alcotest.(check bool) "self recursion detected" true (Ir.Callgraph.is_recursive cg "r");
  Alcotest.(check bool) "main not recursive" false (Ir.Callgraph.is_recursive cg "main")

let test_func_copy_independent () =
  let f, _, _, _, _ = mk_diamond () in
  let g = Ir.Func.copy f in
  (Ir.Func.entry_block g).Ir.Block.count <- 42L;
  Alcotest.(check int64) "copy does not alias" 0L (Ir.Func.entry_block f).Ir.Block.count;
  Vec.clear (Ir.Func.entry_block g).Ir.Block.instrs;
  Alcotest.(check int) "instrs not aliased" 1
    (Vec.length (Ir.Func.entry_block f).Ir.Block.instrs)

let test_block_body_equal () =
  let _f, _, a, b, _ = mk_diamond () in
  Alcotest.(check bool) "different movs differ" false (Ir.Block.body_equal a b);
  (Vec.get b.Ir.Block.instrs 0).I.op <- I.Mov (2, T.Imm 1L);
  Alcotest.(check bool) "identical bodies equal" true (Ir.Block.body_equal a b)

let suite =
  ( "ir",
    [
      Alcotest.test_case "guid" `Quick test_guid;
      Alcotest.test_case "dloc frames" `Quick test_dloc_frames;
      Alcotest.test_case "successors" `Quick test_successors;
      Alcotest.test_case "defs/uses" `Quick test_defs_uses;
      Alcotest.test_case "rpo and preds" `Quick test_rpo_and_preds;
      Alcotest.test_case "dominators" `Quick test_dominators;
      Alcotest.test_case "natural loops" `Quick test_natural_loops;
      Alcotest.test_case "verify bad target" `Quick test_verify_catches_bad_target;
      Alcotest.test_case "verify unknown call" `Quick test_verify_unknown_call;
      Alcotest.test_case "callgraph" `Quick test_callgraph;
      Alcotest.test_case "callgraph recursion" `Quick test_callgraph_recursion;
      Alcotest.test_case "func copy independent" `Quick test_func_copy_independent;
      Alcotest.test_case "block body equal" `Quick test_block_body_equal;
    ] )
