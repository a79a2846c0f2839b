(* VM semantics and PMU model. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module Cg = Csspgo_codegen
module Mach = Cg.Mach
module Vm = Csspgo_vm
module Opt = Csspgo_opt

let build ?(probes = false) ?(config = Opt.Config.o2_nopgo) src =
  let p = F.Lower.compile src in
  if probes then Csspgo_core.Pseudo_probe.insert p;
  Opt.Pass.optimize ~config p;
  Cg.Emit.emit ~options:Cg.Emit.default_options p

let test_arith_semantics () =
  let bin = build "fn main(a, b) { return (a * b + a / b - a % b) ^ (a & b) | (a << 2); }" in
  let run a b =
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ a; b ]).Vm.Machine.ret_value
  in
  let expect a b =
    let open Int64 in
    logor
      (logxor (sub (add (mul a b) (div a b)) (rem a b)) (logand a b))
      (shift_left a 2)
  in
  List.iter
    (fun (a, b) -> Alcotest.(check int64) "arith" (expect a b) (run a b))
    [ (17L, 5L); (100L, 3L); (7L, 7L); (123456L, 789L) ]

let test_division_by_zero_total () =
  let bin = build "fn main(a) { return a / 0 + a % 0; }" in
  Alcotest.(check int64) "div by zero is 0" 0L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 5L ]).Vm.Machine.ret_value

let test_array_wraps () =
  let bin = build "global g[8];\nfn main(a) { g[a] = 42; return g[a % 8]; }" in
  (* index 10 wraps to 2 for both store and load *)
  Alcotest.(check int64) "wrapped index" 42L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 10L ]).Vm.Machine.ret_value

let test_fuel_trap () =
  let bin = build "fn main(a) { let s = 0; let i = 0; while (i < a) { s = s + 1; i = i + 1; } return s; }" in
  Alcotest.(check bool) "fuel exhaustion traps" true
    (match Vm.Machine.run ~pmu:None ~fuel:100L bin ~entry:"main" ~args:[ 1000000L ] with
    | exception Vm.Machine.Trap _ -> true
    | _ -> false)

let test_fuel_edges () =
  (* [return 7] is a single [ret]: one unit of fuel runs it, none traps
     before it executes. *)
  let bin = build "fn main() { return 7; }" in
  Alcotest.(check int) "single instruction" 1 (Array.length bin.Mach.insts);
  let run fuel = Vm.Machine.run ~pmu:None ~fuel bin ~entry:"main" in
  Alcotest.(check int64) "fuel 1 runs" 7L (run 1L).Vm.Machine.ret_value;
  List.iter
    (fun fuel ->
      Alcotest.(check bool)
        (Printf.sprintf "fuel %Ld traps" fuel)
        true
        (match run fuel with exception Vm.Machine.Trap _ -> true | _ -> false))
    [ 0L; -1L; Int64.min_int ];
  (* The largest budget must not wrap into an immediate trap. *)
  let loop =
    build "fn main(a) { let s = 0; let i = 0; while (i < a) { s = s + i; i = i + 1; } return s; }"
  in
  let r = Vm.Machine.run ~pmu:None ~fuel:Int64.max_int loop ~entry:"main" ~args:[ 1000L ] in
  Alcotest.(check int64) "fuel max_int runs" 499500L r.Vm.Machine.ret_value;
  let exact = Vm.Machine.run ~pmu:None ~fuel:r.Vm.Machine.instructions loop ~entry:"main" ~args:[ 1000L ] in
  Alcotest.(check int64) "fuel = instruction count suffices" 499500L exact.Vm.Machine.ret_value;
  Alcotest.(check bool) "one short traps" true
    (match
       Vm.Machine.run ~pmu:None ~fuel:(Int64.pred r.Vm.Machine.instructions) loop ~entry:"main"
         ~args:[ 1000L ]
     with
    | exception Vm.Machine.Trap _ -> true
    | _ -> false)

(* The interpreter evaluates ALU ops itself (unboxed); its semantics must be
   the constant folder's, [Ir.Types.eval_binop] / [eval_cmpop]. Operands
   are [main]'s arguments so nothing folds at compile time. *)
let arith_programs =
  lazy
    (let binops =
       Ir.Types.
         [
           (Add, "+"); (Sub, "-"); (Mul, "*"); (Div, "/"); (Rem, "%"); (And, "&"); (Or, "|");
           (Xor, "^"); (Shl, "<<"); (Shr, ">>");
         ]
     and cmpops =
       Ir.Types.[ (Eq, "=="); (Ne, "!="); (Lt, "<"); (Le, "<="); (Gt, ">"); (Ge, ">=") ]
     in
     let prog sym = build (Printf.sprintf "fn main(a, b) { return a %s b; }" sym) in
     let has_op bin pred =
       Array.exists (fun (i : Mach.inst) -> pred i.Mach.i_op) bin.Mach.insts
     in
     List.map
       (fun (op, sym) ->
         let bin = prog sym in
         if not (has_op bin (function Mach.MArith (o, _, _, _) -> o = op | _ -> false)) then
           Alcotest.failf "no %s instruction in the compiled program" sym;
         (sym, bin, Ir.Types.eval_binop op))
       binops
     @ List.map
         (fun (op, sym) ->
           let bin = prog sym in
           if not (has_op bin (function Mach.MCmp (o, _, _, _) -> o = op | _ -> false)) then
             Alcotest.failf "no %s instruction in the compiled program" sym;
           (sym, bin, Ir.Types.eval_cmpop op))
         cmpops)

let prop_arith_matches_ir =
  let edge = [ 0L; 1L; -1L; 2L; 63L; 64L; 65L; -63L; -64L; 127L; Int64.min_int; Int64.max_int ] in
  let operand = QCheck.Gen.(frequency [ (1, oneofl edge); (1, int64); (1, map Int64.of_int small_signed_int) ]) in
  let n_ops = 16 in
  QCheck.Test.make ~name:"vm binop/cmpop = Ir.Types.eval_*" ~count:500
    (QCheck.make
       ~print:(fun (k, a, b) -> Printf.sprintf "op#%d a=%Ld b=%Ld" k a b)
       QCheck.Gen.(triple (int_bound (n_ops - 1)) operand operand))
    (fun (k, a, b) ->
      let sym, bin, eval = List.nth (Lazy.force arith_programs) k in
      let got = (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ a; b ]).Vm.Machine.ret_value in
      let want = eval a b in
      if Int64.equal got want then true
      else QCheck.Test.fail_reportf "%Ld %s %Ld: vm %Ld, ir %Ld" a sym b got want)

let test_arith_edges () =
  let edge = [ 0L; -1L; 1L; 63L; 64L; -1L; -64L; Int64.min_int; Int64.max_int ] in
  List.iter
    (fun (sym, bin, eval) ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.(check int64)
                (Printf.sprintf "%Ld %s %Ld" a sym b)
                (eval a b)
                (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ a; b ]).Vm.Machine.ret_value)
            edge)
        edge)
    (Lazy.force arith_programs)

let test_lbr_records_branches () =
  let bin = build "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }" in
  let r =
    Vm.Machine.run
      ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 200 })
      bin ~entry:"main" ~args:[ 2000L ]
  in
  Alcotest.(check bool) "samples collected" true (List.length r.Vm.Machine.samples > 3);
  List.iter
    (fun (s : Vm.Machine.sample) ->
      Alcotest.(check bool) "lbr bounded" true (Array.length s.Vm.Machine.s_lbr <= 16);
      (* consecutive entries form plausible ranges: target <= next source for
         linear runs (guaranteed by construction inside one run) *)
      Array.iter
        (fun (src, tgt) ->
          if src = 0 || tgt = 0 then Alcotest.fail "zero LBR entry")
        s.Vm.Machine.s_lbr)
    r.Vm.Machine.samples

let test_stack_samples_have_callers () =
  let src =
    {|
    fn inner(n) { let s = 0; let i = 0; while (i < n) { s = s + i * 3; i = i + 1; } return s; }
    fn outer(n) { return inner(n) + 1; }
    fn main(n) { let t = 0; let k = 0; while (k < 50) { t = t + outer(n); k = k + 1; } return t; }
    |}
  in
  (* Force no inlining so the call chain exists physically. *)
  let bin = build ~config:Opt.Config.o0 src in
  let r =
    Vm.Machine.run
      ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 100 })
      bin ~entry:"main" ~args:[ 40L ]
  in
  let deep =
    List.exists (fun (s : Vm.Machine.sample) -> Array.length s.Vm.Machine.s_stack >= 3)
      r.Vm.Machine.samples
  in
  Alcotest.(check bool) "some sample sees main->outer->inner" true deep

let test_counters_exact () =
  let src = "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }" in
  let p = F.Lower.compile src in
  let im = Csspgo_core.Instrument.instrument p in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let r = Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 123L ] in
  let counts = Csspgo_core.Instrument.block_counts im r.Vm.Machine.counters in
  (* The loop body block must have executed exactly 123 times. *)
  let has_123 = Hashtbl.fold (fun _ c acc -> acc || Int64.equal c 123L) counts false in
  Alcotest.(check bool) "counter shows 123 iterations" true has_123;
  (* entry executed once *)
  let guid = Ir.Guid.of_name "main" in
  Alcotest.(check (option int64)) "entry once" (Some 1L)
    (Hashtbl.find_opt counts (guid, 0))

let test_value_profiles_captured () =
  let src = "global d[4];\nfn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i / d[0]; i = i + 1; } return s; }" in
  let p = F.Lower.compile src in
  let vals = Csspgo_core.Instrument.instrument_values p in
  Alcotest.(check int) "one site" 1 vals.Csspgo_core.Instrument.n_sites;
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let r =
    Vm.Machine.run ~pmu:None ~globals_init:[ ("d", [| 7L; 0L; 0L; 0L |]) ] bin ~entry:"main"
      ~args:[ 50L ]
  in
  (match Hashtbl.find_opt r.Vm.Machine.value_profiles 0 with
  | Some hist ->
      Alcotest.(check (option int64)) "divisor 7 seen 50 times" (Some 50L)
        (Hashtbl.find_opt hist 7L)
  | None -> Alcotest.fail "no histogram")

let test_determinism () =
  let bin = build Csspgo_workloads.Suite.vecop_example in
  let run () =
    let r = Vm.Machine.run ~pmu:(Some Vm.Machine.default_pmu) bin ~entry:"main" ~args:[ 256L; 40L ] in
    (r.Vm.Machine.cycles, r.Vm.Machine.instructions, r.Vm.Machine.ret_value,
     List.length r.Vm.Machine.samples)
  in
  Alcotest.(check bool) "identical reruns" true (run () = run ())

let test_probes_cost_no_instructions () =
  let src = Csspgo_workloads.Suite.vecop_example in
  let plain = build src in
  let probed = build ~probes:true src in
  let run bin =
    let r = Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 128L; 10L ] in
    (r.Vm.Machine.ret_value, r.Vm.Machine.instructions)
  in
  let rv1, n1 = run plain and rv2, n2 = run probed in
  Alcotest.(check int64) "same result" rv1 rv2;
  (* Pseudo-probes may block a merge or forwarding (slightly different code)
     but must not add counter-like work: within 2%. *)
  let ratio = Int64.to_float n2 /. Int64.to_float n1 in
  if ratio > 1.02 then Alcotest.failf "probes added %.1f%% instructions" ((ratio -. 1.) *. 100.)

let test_instrumentation_is_expensive () =
  let src = Csspgo_workloads.Suite.vecop_example in
  let plain = build src in
  let p = F.Lower.compile src in
  let _ = Csspgo_core.Instrument.instrument p in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let instrumented = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let cycles bin =
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 128L; 10L ]).Vm.Machine.cycles
  in
  let c1 = cycles plain and c2 = cycles instrumented in
  Alcotest.(check bool) "counters slow the binary by >20%" true
    (Int64.to_float c2 > 1.2 *. Int64.to_float c1)

let test_switch_dispatch () =
  let src = {|
fn main(op) {
  switch (op) {
    case 0: return 10;
    case 1: return 20;
    case 7: return 70;
    default: return 1;
  }
}
|} in
  let bin = build src in
  let run v = (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ v ]).Vm.Machine.ret_value in
  Alcotest.(check int64) "case 0" 10L (run 0L);
  Alcotest.(check int64) "case 7" 70L (run 7L);
  Alcotest.(check int64) "default" 1L (run 99L);
  Alcotest.(check int64) "negative scrutinee" 1L (run (-3L))

let test_tail_call_semantics () =
  (* Deep tail-recursive countdown must not change results under TCE. *)
  let src = "fn down(n, acc) { if (n <= 0) { return acc; } return down(n - 1, acc + n); }\nfn main(a) { return down(a, 0); }" in
  let bin = build src in
  Alcotest.(check int64) "sum 1..1000" 500500L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 1000L ]).Vm.Machine.ret_value;
  (* The tail call swaps its parameters: arguments must all be read from
     the caller before the reused frame is overwritten. *)
  let src = "fn gcd(a, b) { if (b == 0) { return a; } return gcd(b, a % b); }\nfn main(a, b) { return gcd(a, b); }" in
  let bin = build src in
  Alcotest.(check bool) "gcd is a tail call" true
    (Array.exists
       (fun (i : Mach.inst) -> match i.Mach.i_op with Mach.MTail_call _ -> true | _ -> false)
       bin.Mach.insts);
  Alcotest.(check int64) "gcd 1071 462" 21L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ 1071L; 462L ]).Vm.Machine.ret_value

let test_lbr_depth_config () =
  let src = "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }" in
  let bin = build src in
  let r =
    Vm.Machine.run
      ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 100; lbr_depth = 32 })
      bin ~entry:"main" ~args:[ 5000L ]
  in
  let full = List.exists (fun (s : Vm.Machine.sample) -> Array.length s.Vm.Machine.s_lbr = 32)
      r.Vm.Machine.samples in
  Alcotest.(check bool) "32-deep LBR fills" true full;
  List.iter
    (fun (s : Vm.Machine.sample) ->
      if Array.length s.Vm.Machine.s_lbr > 32 then Alcotest.fail "LBR overflow")
    r.Vm.Machine.samples

let test_pebs_suppresses_skid () =
  (* With PEBS on, skid_prob must have no effect: identical samples. *)
  let src = "fn f(x) { return x * 2 + 1; }\nfn main(n) { let s = 0; let i = 0; while (i < n) { s = s + f(i); i = i + 1; } return s; }" in
  let bin = build ~config:Opt.Config.o0 src in
  let run skid =
    (Vm.Machine.run
       ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 97; pebs = true; skid_prob = skid })
       bin ~entry:"main" ~args:[ 2000L ])
      .Vm.Machine.samples
  in
  Alcotest.(check int) "same sample count" (List.length (run 0.0)) (List.length (run 0.9));
  Alcotest.(check bool) "identical stacks" true
    (List.for_all2
       (fun (a : Vm.Machine.sample) (b : Vm.Machine.sample) ->
         a.Vm.Machine.s_stack = b.Vm.Machine.s_stack)
       (run 0.0) (run 0.9))

let test_globals_init_shapes () =
  let src = "global g[4];\nfn main() { return g[0] + g[1] + g[2] + g[3]; }" in
  let bin = build src in
  let run init =
    (Vm.Machine.run ~pmu:None ~globals_init:[ ("g", init) ] bin ~entry:"main")
      .Vm.Machine.ret_value
  in
  Alcotest.(check int64) "exact" 10L (run [| 1L; 2L; 3L; 4L |]);
  Alcotest.(check int64) "short init zero-pads" 3L (run [| 1L; 2L |]);
  Alcotest.(check int64) "long init truncates" 10L (run [| 1L; 2L; 3L; 4L; 99L |]);
  Alcotest.(check int64) "missing init zeros" 0L
    (Vm.Machine.run ~pmu:None bin ~entry:"main").Vm.Machine.ret_value

let test_negative_index_wraps () =
  let src = "global g[8];\nfn main(a) { g[6] = 42; return g[a]; }" in
  let bin = build src in
  (* -2 mod 8 -> 6 under the VM's non-negative wrap *)
  Alcotest.(check int64) "negative index" 42L
    (Vm.Machine.run ~pmu:None bin ~entry:"main" ~args:[ -2L ]).Vm.Machine.ret_value

(* Input digests are memoized per input list, which is only sound if a
   run never writes back into the arrays it was initialized from. *)
let test_globals_init_unchanged () =
  let src = "global g[4];\nfn main(a) { g[0] = a; g[a % 4] = g[1] + 7; return g[0] + g[3]; }" in
  let bin = build src in
  let init = [| 1L; 2L; 3L; 4L; 5L |] in
  let before = Array.copy init in
  List.iter
    (fun a ->
      ignore (Vm.Machine.run ~pmu:None ~globals_init:[ ("g", init) ] bin ~entry:"main" ~args:[ a ]))
    [ 0L; 3L; 42L ];
  Alcotest.(check (array int64)) "globals_init untouched" before init

let suite =
  ( "vm",
    [
      Alcotest.test_case "arith semantics" `Quick test_arith_semantics;
      Alcotest.test_case "division by zero" `Quick test_division_by_zero_total;
      Alcotest.test_case "array wrapping" `Quick test_array_wraps;
      Alcotest.test_case "fuel trap" `Quick test_fuel_trap;
      Alcotest.test_case "fuel edges" `Quick test_fuel_edges;
      Alcotest.test_case "arith edge values" `Quick test_arith_edges;
      QCheck_alcotest.to_alcotest prop_arith_matches_ir;
      Alcotest.test_case "lbr records" `Quick test_lbr_records_branches;
      Alcotest.test_case "stack samples" `Quick test_stack_samples_have_callers;
      Alcotest.test_case "counters exact" `Quick test_counters_exact;
      Alcotest.test_case "value profiles" `Quick test_value_profiles_captured;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "probes near zero cost" `Quick test_probes_cost_no_instructions;
      Alcotest.test_case "instrumentation expensive" `Quick test_instrumentation_is_expensive;
      Alcotest.test_case "switch dispatch" `Quick test_switch_dispatch;
      Alcotest.test_case "tail call semantics" `Quick test_tail_call_semantics;
      Alcotest.test_case "lbr depth config" `Quick test_lbr_depth_config;
      Alcotest.test_case "pebs suppresses skid" `Quick test_pebs_suppresses_skid;
      Alcotest.test_case "globals init shapes" `Quick test_globals_init_shapes;
      Alcotest.test_case "negative index wraps" `Quick test_negative_index_wraps;
      Alcotest.test_case "globals_init arrays unchanged" `Quick test_globals_init_unchanged;
    ] )
