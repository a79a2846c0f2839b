(* The paper's contribution: probes, checksums/drift, correlation,
   Algorithm 1 reconstruction, missing frames, pre-inliner, annotation,
   quality metric, driver end-to-end. *)
module F = Csspgo_frontend
module Ir = Csspgo_ir
module I = Ir.Instr
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Mach = Cg.Mach
module Vm = Csspgo_vm
module P = Csspgo_profile
module PP = P.Probe_profile
module CP = P.Ctx_profile
module Core = Csspgo_core
module D = Core.Driver
module W = Csspgo_workloads
open Csspgo_support

let probe_count_in (p : Ir.Program.t) =
  let n = ref 0 in
  Ir.Program.iter_funcs
    (fun f ->
      Ir.Func.iter_blocks
        (fun b -> Vec.iter (fun i -> if I.is_probe i then incr n) b.Ir.Block.instrs)
        f)
    p;
  !n

let test_probe_insertion () =
  let p = F.Lower.compile W.Suite.vecop_example in
  Core.Pseudo_probe.insert p;
  Ir.Verify.check_exn p;
  Alcotest.(check bool) "probes present" true (probe_count_in p > 0);
  (* Every reachable block has a block probe, entry probe is #1. *)
  Ir.Program.iter_funcs
    (fun f ->
      Alcotest.(check int)
        (f.Ir.Func.name ^ " entry probe is #1")
        1
        (Ir.Block.probe_id (Ir.Func.entry_block f));
      Ir.Func.iter_blocks
        (fun b ->
          if Ir.Block.probe_id b = 0 then
            Alcotest.failf "%s/bb%d lacks a block probe" f.Ir.Func.name b.Ir.Block.id)
        f;
      (* Every call has a callsite probe. *)
      Ir.Func.iter_blocks
        (fun b ->
          Vec.iter
            (fun (i : I.t) ->
              match i.I.op with
              | I.Call { c_probe; _ } when c_probe = 0 -> Alcotest.fail "call without probe"
              | _ -> ())
            b.Ir.Block.instrs)
        f)
    p;
  Alcotest.(check bool) "double insertion rejected" true
    (match Core.Pseudo_probe.insert p with
    | exception Invalid_argument _ -> true
    | _ -> false)

let drift_base = "fn hot(a) {\n  let x = a * 3;\n  return x + 1;\n}\nfn main(a) { return hot(a); }"

let test_checksum_drift () =
  let checksum_of src =
    let p = F.Lower.compile src in
    Core.Pseudo_probe.insert p;
    (Ir.Program.func p "hot").Ir.Func.checksum
  in
  let base = checksum_of drift_base in
  (* Comment-only edits keep the checksum (the §III.A source-drift story). *)
  let with_comment =
    "fn hot(a) {\n  // a helpful comment\n  let x = a * 3;\n  return x + 1;\n}\nfn main(a) { return hot(a); }"
  in
  Alcotest.(check int64) "comment-only edit keeps checksum" base (checksum_of with_comment);
  (* Straight-line edits keep the CFG, and thus the checksum. *)
  let with_stmt =
    "fn hot(a) {\n  let y = a + 0;\n  let x = a * 3;\n  return x + y - a;\n}\nfn main(a) { return hot(a); }"
  in
  Alcotest.(check int64) "straight-line edit keeps checksum" base (checksum_of with_stmt);
  (* A control-flow change must invalidate it. *)
  let with_if =
    "fn hot(a) {\n  let x = a * 3;\n  if (a > 0) { x = x + 1; }\n  return x + 1;\n}\nfn main(a) { return hot(a); }"
  in
  Alcotest.(check bool) "CFG change breaks checksum" true
    (not (Int64.equal base (checksum_of with_if)))

let test_stale_profile_rejected () =
  (* Profile collected on one CFG must be rejected on a different CFG. *)
  let mk src =
    let p = F.Lower.compile src in
    Core.Pseudo_probe.insert p;
    p
  in
  let old_p = mk drift_base in
  let profile = PP.create () in
  let guid = (Ir.Program.func old_p "hot").Ir.Func.guid in
  let fe = PP.get_or_add profile guid ~name:"hot" in
  fe.PP.fe_checksum <- (Ir.Program.func old_p "hot").Ir.Func.checksum;
  PP.add_probe fe 1 100L;
  let new_p =
    mk
      "fn hot(a) {\n  let x = a * 3;\n  if (a > 0) { x = x + 1; }\n  return x + 1;\n}\nfn main(a) { return hot(a); }"
  in
  let stales = Core.Annotate.probes profile new_p in
  Alcotest.(check int) "one stale function" 1 (List.length stales);
  Alcotest.(check string) "it is hot" "hot" (List.hd stales).Core.Annotate.sf_name;
  Alcotest.(check bool) "hot left unannotated" false
    (Ir.Program.func new_p "hot").Ir.Func.annotated

let run_probe_profiling src args =
  let p = F.Lower.compile src in
  Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let r =
    Vm.Machine.run
      ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 101 })
      bin ~entry:"main" ~args
  in
  (refp, bin, r.Vm.Machine.samples)

let test_probe_correlation_sums_copies () =
  (* A loop that static unrolling duplicates: probe counts must reflect the
     true frequency (copies summed), the §III.A code-duplication claim. *)
  let src =
    "fn main(n) { let s = 0; let i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }"
  in
  let refp, bin, samples = run_probe_profiling src [ 5000L ] in
  (* the binary must contain duplicated probes (same id twice) *)
  let ids = Hashtbl.create 8 in
  let dup = ref false in
  Array.iter
    (fun (pr : Mach.probe_rec) ->
      let key = (pr.Mach.pr_func, pr.Mach.pr_id) in
      if Hashtbl.mem ids key then dup := true else Hashtbl.replace ids key ())
    bin.Mach.probes;
  Alcotest.(check bool) "unroll duplicated probes" true !dup;
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with
    | Some f -> f.Ir.Func.checksum
    | None -> 0L
  in
  let prof = Core.Probe_corr.correlate ~checksum_of bin samples in
  let main_fe = Option.get (PP.get prof (Ir.Guid.of_name "main")) in
  (* Loop-body probe count must be close to entry * n-scale: at least find a
     probe whose count dwarfs probe #1's. *)
  let p1 = PP.probe_count main_fe 1 in
  let hottest = Hashtbl.fold (fun _ c acc -> Int64.max c acc) main_fe.PP.fe_probes 0L in
  Alcotest.(check bool) "loop probe much hotter than entry" true
    (Int64.to_float hottest > 50. *. Int64.to_float (Int64.max p1 1L))

let cs_src = {|
fn leaf_a(x) { let s = 0; let i = 0; while (i < 40) { s = s + x * i; i = i + 1; } return s; }
fn leaf_b(x) { let s = 0; let i = 0; while (i < 40) { s = s + x + i; i = i + 1; } return s; }
fn dispatch(x, k) {
  if (k == 0) { return leaf_a(x); }
  return leaf_b(x);
}
fn caller_a(x) { return dispatch(x, 0); }
fn caller_b(x) { return dispatch(x, 1); }
fn main(n) {
  let t = 0;
  let r = 0;
  while (t < n) {
    r = r + caller_a(t) + caller_b(t);
    t = t + 1;
  }
  return r;
}
|}

let reconstruct_cs () =
  let p = F.Lower.compile cs_src in
  Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  (* keep call structure: no inlining *)
  Opt.Pass.optimize ~config:{ Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none } p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let r =
    Vm.Machine.run
      ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 101 })
      bin ~entry:"main" ~args:[ 120L ]
  in
  let name_of g = Option.map (fun f -> f.Ir.Func.name) (Ir.Program.find_func_by_guid refp g) in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  (* dispatch makes its calls in tail position, so the TCE missing-frame
     inferrer is required for complete contexts. *)
  let missing = Core.Missing_frame.build bin r.Vm.Machine.samples in
  Core.Ctx_reconstruct.reconstruct ~name_of ~missing ~checksum_of bin r.Vm.Machine.samples

let test_ctx_reconstruction_separates_contexts () =
  (* The Fig. 3 story: dispatch under caller_a only reaches leaf_a, and
     under caller_b only leaf_b. Algorithm 1 must recover that. *)
  let trie, stats = reconstruct_cs () in
  Alcotest.(check int) "no misaligned samples with PEBS" 0
    stats.Core.Ctx_reconstruct.st_dropped_misaligned;
  let g = Ir.Guid.of_name in
  let ctx_has_samples leaf pred =
    match CP.find_node trie ~leaf:(g leaf) pred with
    | Some n -> Int64.compare n.CP.n_prof.PP.fe_total 0L > 0
    | None -> false
  in
  let under caller ctx = List.exists (fun (f, _) -> Ir.Guid.equal f (g caller)) ctx in
  Alcotest.(check bool) "leaf_a under caller_a" true
    (ctx_has_samples "leaf_a" (under "caller_a"));
  Alcotest.(check bool) "leaf_b under caller_b" true
    (ctx_has_samples "leaf_b" (under "caller_b"));
  Alcotest.(check bool) "leaf_a never under caller_b" false
    (ctx_has_samples "leaf_a" (under "caller_b"));
  Alcotest.(check bool) "leaf_b never under caller_a" false
    (ctx_has_samples "leaf_b" (under "caller_a"))

let test_ctx_totals_match_flat () =
  (* Merging every context into base must agree with flat probe correlation
     on per-function totals (within the extra newest-run attribution). *)
  let p = F.Lower.compile cs_src in
  Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let r =
    Vm.Machine.run
      ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 101 })
      bin ~entry:"main" ~args:[ 120L ]
  in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  let flat = Core.Probe_corr.correlate ~checksum_of bin r.Vm.Machine.samples in
  let trie, _ = Core.Ctx_reconstruct.reconstruct ~checksum_of bin r.Vm.Machine.samples in
  ignore (CP.trim_cold trie ~threshold:Int64.max_int);
  let flat_total = PP.total_samples flat in
  let trie_total = CP.total_samples trie in
  let ratio = Int64.to_float trie_total /. Int64.to_float (Int64.max flat_total 1L) in
  if ratio < 0.95 || ratio > 1.15 then
    Alcotest.failf "context totals diverge from flat: %.3f (flat=%Ld trie=%Ld)" ratio
      flat_total trie_total

let tail_call_src = {|
fn worker(x) { let s = 0; let i = 0; while (i < 60) { s = s + x * i; i = i + 1; } return s; }
fn springboard(x) { return worker(x + 1); }
fn main(n) {
  let t = 0;
  let k = 0;
  while (k < n) {
    t = t + springboard(k);
    k = k + 1;
  }
  return t;
}
|}

let test_missing_frame_inference () =
  (* springboard tail-calls worker, so stack samples in worker skip it; the
     tail-call graph must recover the gap (>2/3 recovered in the paper). *)
  let p = F.Lower.compile tail_call_src in
  Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  Opt.Pass.optimize ~config:{ Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none } p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  (* confirm a tail call was emitted *)
  let has_tail =
    Array.exists
      (fun (i : Mach.inst) -> match i.Mach.i_op with Mach.MTail_call _ -> true | _ -> false)
      bin.Mach.insts
  in
  Alcotest.(check bool) "TCE fired" true has_tail;
  let r =
    Vm.Machine.run
      ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 101 })
      bin ~entry:"main" ~args:[ 100L ]
  in
  let mf = Core.Missing_frame.build bin r.Vm.Machine.samples in
  Alcotest.(check bool) "tail edges found" true (Core.Missing_frame.n_edges mf > 0);
  let g = Ir.Guid.of_name in
  (match Core.Missing_frame.resolve mf ~from_func:(g "springboard") ~to_func:(g "worker") with
  | Some [ _addr ] -> ()
  | Some [] -> Alcotest.fail "expected a one-hop chain"
  | Some _ -> Alcotest.fail "chain too long"
  | None -> Alcotest.fail "unique path not found");
  (* Reconstruction with the inferrer should resolve gaps. *)
  let name_of gd = Option.map (fun f -> f.Ir.Func.name) (Ir.Program.find_func_by_guid refp gd) in
  let checksum_of gd =
    match Ir.Program.find_func_by_guid refp gd with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  let trie, stats =
    Core.Ctx_reconstruct.reconstruct ~name_of ~missing:mf ~checksum_of bin r.Vm.Machine.samples
  in
  Alcotest.(check bool) "gaps resolved" true (stats.Core.Ctx_reconstruct.st_gaps_resolved > 0);
  (* worker's context should include springboard *)
  let found =
    CP.find_node trie ~leaf:(g "worker") (fun ctx ->
        List.exists (fun (f, _) -> Ir.Guid.equal f (g "springboard")) ctx)
  in
  Alcotest.(check bool) "springboard frame recovered" true (found <> None)

let test_size_extract () =
  let p = F.Lower.compile "fn tiny(x) { return x + 1; }\nfn main(a) { return tiny(a) * 2; }" in
  Core.Pseudo_probe.insert p;
  Opt.Pass.optimize ~config:Opt.Config.o2_nopgo p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let sizes = Core.Size_extract.compute bin in
  (* tiny got inlined into main: its context size exists; main has a base size *)
  let g = Ir.Guid.of_name in
  Alcotest.(check bool) "main base size" true
    (match Core.Size_extract.base_size sizes (g "main") with Some s -> s > 0 | None -> false);
  Alcotest.(check bool) "tiny has some context size" true
    (Core.Size_extract.avg_inline_size sizes (g "tiny") <> None)

let test_preinliner_marks_hot_chain () =
  let w = W.Suite.adretriever in
  let pbin, samples =
    (* probed profiling build sampled over the training inputs *)
    let options = D.default_options in
    let prog = F.Lower.compile w.D.w_source in
    Core.Pseudo_probe.insert prog;
    Opt.Pass.optimize ~config:options.D.opt_profiling prog;
    let bin = Cg.Emit.emit ~options:options.D.emit_opts prog in
    let log = Vm.Sample_log.create () in
    List.iter
      (fun (spec : D.run_spec) ->
        ignore
          (Vm.Machine.run ~pmu:(Some options.D.pmu)
             ~sink:(Vm.Sample_log.sink log) ~globals_init:spec.D.rs_globals
             ~args:spec.D.rs_args bin ~entry:w.D.w_entry))
      w.D.w_train;
    (bin, Vm.Sample_log.to_samples log)
  in
  let refp =
    let p = F.Lower.compile w.D.w_source in
    Core.Pseudo_probe.insert p;
    p
  in
  let name_of g = Option.map (fun f -> f.Ir.Func.name) (Ir.Program.find_func_by_guid refp g) in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  let trie, _ = Core.Ctx_reconstruct.reconstruct ~name_of ~checksum_of pbin samples in
  ignore (CP.trim_cold trie ~threshold:8L);
  let sizes = Core.Size_extract.compute pbin in
  let decisions = Core.Preinliner.run trie sizes in
  Alcotest.(check bool) "some decisions" true (decisions <> []);
  (* hottest chain: probe under lookup_batch *)
  Alcotest.(check bool) "probe inlined somewhere" true
    (List.exists
       (fun (d : Core.Preinliner.decision) -> String.equal d.Core.Preinliner.d_callee_name "probe")
       decisions);
  (* after the run, unmarked contexts are merged: every remaining context
     node with samples must be marked inlined *)
  CP.iter_nodes trie (fun ctx node ->
      if ctx <> [] && Int64.compare node.CP.n_prof.PP.fe_total 0L > 0 && not node.CP.n_inlined
      then Alcotest.fail "unmarked context retained samples after pre-inliner")

let test_quality_metric () =
  let mk counts =
    let p = F.Lower.compile "fn main(a) { if (a > 0) { return 1; } return 2; }" in
    Ir.Program.iter_funcs
      (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f))
      p;
    let f = Ir.Program.func p "main" in
    List.iteri
      (fun i c ->
        match Ir.Func.find_block f i with
        | Some b -> b.Ir.Block.count <- c
        | None -> ())
      counts;
    f.Ir.Func.annotated <- true;
    p
  in
  let truth = mk [ 100L; 90L; 10L ] in
  Alcotest.(check (float 0.0001)) "identical = 1" 1.0
    (Core.Quality.block_overlap ~truth (mk [ 100L; 90L; 10L ]));
  Alcotest.(check (float 0.0001)) "scaled identical = 1" 1.0
    (Core.Quality.block_overlap ~truth (mk [ 200L; 180L; 20L ]));
  let skewed = Core.Quality.block_overlap ~truth (mk [ 100L; 10L; 90L ]) in
  Alcotest.(check bool) "skewed < 1" true (skewed < 0.7)

(* Degenerate inputs the report surface feeds the metric: unexecuted
   programs, single-block functions, and profiles at very different sample
   rates must not divide by zero or reward count magnitude. *)
let test_quality_edge_cases () =
  let mk counts =
    let p = F.Lower.compile "fn main(a) { if (a > 0) { return 1; } return 2; }" in
    Ir.Program.iter_funcs
      (fun f -> ignore (Opt.Simplify.run ~config:Opt.Config.o2_nopgo f))
      p;
    let f = Ir.Program.func p "main" in
    List.iteri
      (fun i c ->
        match Ir.Func.find_block f i with
        | Some b -> b.Ir.Block.count <- c
        | None -> ())
      counts;
    f.Ir.Func.annotated <- true;
    p
  in
  let main p = Ir.Program.func p "main" in
  (* zero total count on either side is "no data", not overlap 0 *)
  Alcotest.(check bool) "zero-count truth -> None" true
    (Core.Quality.func_overlap ~truth:(main (mk [ 0L; 0L; 0L ]))
       (main (mk [ 1L; 1L; 1L ]))
    = None);
  Alcotest.(check bool) "zero-count candidate -> None" true
    (Core.Quality.func_overlap ~truth:(main (mk [ 1L; 1L; 1L ]))
       (main (mk [ 0L; 0L; 0L ]))
    = None);
  Alcotest.(check (float 0.0001)) "both sides unexecuted -> 0.0" 0.0
    (Core.Quality.block_overlap ~truth:(mk [ 0L; 0L; 0L ]) (mk [ 0L; 0L; 0L ]));
  (* a single executed block always overlaps itself fully *)
  let single counts =
    let p = F.Lower.compile "fn main(a) { return a; }" in
    let f = Ir.Program.func p "main" in
    List.iteri
      (fun i c ->
        match Ir.Func.find_block f i with
        | Some b -> b.Ir.Block.count <- c
        | None -> ())
      counts;
    f.Ir.Func.annotated <- true;
    p
  in
  (match
     Core.Quality.func_overlap
       ~truth:(main (single [ 7L ]))
       (main (single [ 1_000_000L ]))
   with
  | Some d -> Alcotest.(check (float 0.0001)) "single block = 1" 1.0 d
  | None -> Alcotest.fail "single-block overlap missing");
  (* the metric compares shapes, not magnitudes: a 100x-cheaper sampling
     run with the same distribution scores 1.0 ... *)
  (match
     Core.Quality.func_overlap
       ~truth:(main (mk [ 100L; 100L; 0L ]))
       (main (mk [ 1L; 1L; 0L ]))
   with
  | Some d -> Alcotest.(check (float 0.0001)) "scaled asymmetry = 1" 1.0 d
  | None -> Alcotest.fail "scaled overlap missing");
  (* ... while misplaced mass costs exactly the misplaced fraction *)
  match
    Core.Quality.func_overlap
      ~truth:(main (mk [ 100L; 0L; 0L ]))
      (main (mk [ 50L; 50L; 0L ]))
  with
  | Some d -> Alcotest.(check (float 0.0001)) "half misplaced = 0.5" 0.5 d
  | None -> Alcotest.fail "asymmetric overlap missing"

let test_value_spec () =
  let src = "global d[4];\nfn main(n) { let s = 0; let i = 0; while (i < n) { s = s + (i + 100) / d[0]; i = i + 1; } return s; }" in
  let p = F.Lower.compile src in
  let vals = Core.Instrument.instrument_values p in
  let fresh = F.Lower.compile src in
  (* simulate a 100%-dominant histogram for site 0 *)
  let hist = Hashtbl.create 4 in
  Hashtbl.replace hist 0 (Hashtbl.create 4);
  Hashtbl.replace (Hashtbl.find hist 0) 9L 10000L;
  let dominant = Core.Instrument.dominant_values vals hist ~min_count:100L ~min_ratio:0.9 in
  Alcotest.(check int) "one dominant" 1 (Hashtbl.length dominant);
  let n = Core.Value_spec.apply fresh dominant in
  Alcotest.(check int) "one site specialized" 1 n;
  Ir.Verify.check_exn fresh;
  let eval prog d0 =
    let bin = Cg.Emit.emit ~options:Cg.Emit.default_options prog in
    (Vm.Machine.run ~pmu:None ~globals_init:[ ("d", [| d0; 0L; 0L; 0L |]) ] bin ~entry:"main"
       ~args:[ 50L ])
      .Vm.Machine.ret_value
  in
  let plain = F.Lower.compile src in
  (* fast path (d0 = 9) and slow path (d0 = 5) both preserved *)
  Alcotest.(check int64) "fast path semantics" (eval plain 9L) (eval fresh 9L);
  Alcotest.(check int64) "slow path semantics" (eval plain 5L) (eval fresh 5L)

let test_driver_all_variants_smoke () =
  (* End-to-end on the quickstart program: every variant builds and the
     optimized binaries compute identical results. *)
  let w =
    {
      D.w_name = "vecop";
      w_source = W.Suite.vecop_example;
      w_entry = "main";
      w_train =
        [ { D.rs_args = [ 256L; 30L ];
            rs_globals = [ ("va", Array.init 1024 Int64.of_int); ("vb", Array.init 1024 (fun i -> Int64.of_int (i * 3))) ] } ];
      w_eval =
        [ { D.rs_args = [ 256L; 40L ];
            rs_globals = [ ("va", Array.init 1024 (fun i -> Int64.of_int (i + 7))); ("vb", Array.init 1024 (fun i -> Int64.of_int (i * 5))) ] } ];
    }
  in
  let results =
    List.map
      (fun v ->
        let o = D.run_variant v w in
        let spec = List.hd w.D.w_eval in
        let r =
          Vm.Machine.run ~pmu:None ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
            o.D.o_binary ~entry:"main"
        in
        (v, r.Vm.Machine.ret_value, o))
      [ D.Nopgo; D.Instr_pgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]
  in
  let _, ref_val, _ = List.hd results in
  List.iter
    (fun (v, value, o) ->
      Alcotest.(check int64) (D.variant_name v ^ " result") ref_val value;
      Alcotest.(check bool) (D.variant_name v ^ " no stales") true (o.D.o_stales = []))
    results;
  (* probe metadata only for probe variants *)
  let get v = List.find (fun (v', _, _) -> v = v') results in
  let _, _, full = get D.Csspgo_full in
  let _, _, af = get D.Autofdo in
  Alcotest.(check bool) "csspgo has probe metadata" true (full.D.o_probe_meta_size > 0);
  Alcotest.(check int) "autofdo has none" 0 af.D.o_probe_meta_size

let test_skid_drops_samples () =
  (* Without PEBS, some samples must be detected as misaligned and dropped. *)
  let p = F.Lower.compile cs_src in
  Core.Pseudo_probe.insert p;
  let refp = Ir.Program.copy p in
  Opt.Pass.optimize ~config:{ Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none } p;
  let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
  let r =
    Vm.Machine.run
      ~pmu:(Some { Vm.Machine.default_pmu with sample_period = 101; pebs = false; skid_prob = 0.8 })
      bin ~entry:"main" ~args:[ 120L ]
  in
  let checksum_of g =
    match Ir.Program.find_func_by_guid refp g with Some f -> f.Ir.Func.checksum | None -> 0L
  in
  let _, stats = Core.Ctx_reconstruct.reconstruct ~checksum_of bin r.Vm.Machine.samples in
  Alcotest.(check bool) "skid causes drops" true
    (stats.Core.Ctx_reconstruct.st_dropped_misaligned > 0)

(* Feed-level Algorithm 1: hand-built LBR/stack samples over a no-inline
   build, checked against the exact trie they must produce. [spring]
   tail-calls [mid], so a stack that passes through it has a frame gap. *)
let feed_src = {|
fn leaf(x) { let s = 0; let i = 0; while (i < x) { s = s + i * x; i = i + 1; } return s; }
fn mid(x) { let r = leaf(x); return r + 1; }
fn spring(x) { return mid(x + 1); }
fn jump(x) { let r = spring(x); return r + 2; }
fn outer(x) { let r = leaf(x); return r + 4; }
fn deep(x) { if (x <= 0) { let z = leaf(3); return z + 5; } let r = deep(x - 1); return r + 1; }
fn main(n) { let a = jump(n); let b = outer(n); let c = deep(n); return a + b + c; }
|}

type feed_fixture = {
  fx_bin : Mach.binary;
  fx_ix : Csspgo_profgen.Bindex.t;
  fx_name_of : Ir.Guid.t -> string option;
  fx_checksum_of : Ir.Guid.t -> int64;
}

let feed_fixture =
  lazy
    (let p = F.Lower.compile feed_src in
     Core.Pseudo_probe.insert p;
     let refp = Ir.Program.copy p in
     Opt.Pass.optimize ~config:{ Opt.Config.o2_nopgo with inline_mode = Opt.Config.Inline_none } p;
     let bin = Cg.Emit.emit ~options:Cg.Emit.default_options p in
     let find = Ir.Program.find_func_by_guid refp in
     {
       fx_bin = bin;
       fx_ix = Csspgo_profgen.Bindex.create bin;
       fx_name_of = (fun g -> Option.map (fun f -> f.Ir.Func.name) (find g));
       fx_checksum_of = (fun g -> match find g with Some f -> f.Ir.Func.checksum | None -> 0L);
     })

let entry fx name =
  match Mach.entry_addr fx.fx_bin (Ir.Guid.of_name name) with
  | Some a -> a
  | None -> Alcotest.failf "no function %s" name

(* The (call address, return address) of [caller]'s call to [callee]. *)
let call_site fx ~tail caller callee =
  let insts = fx.fx_bin.Mach.insts in
  let found = ref None in
  Array.iteri
    (fun i (inst : Mach.inst) ->
      let in_caller = String.equal fx.fx_bin.Mach.funcs.(inst.Mach.i_func).Mach.bf_name caller in
      match inst.Mach.i_op with
      | (Mach.MCall c | Mach.MTail_call c)
        when in_caller && !found = None
             && String.equal c.Mach.m_callee_name callee
             && (match inst.Mach.i_op with Mach.MTail_call _ -> tail | _ -> not tail) ->
          found := Some (inst.Mach.i_addr, if i + 1 < Array.length insts then insts.(i + 1).Mach.i_addr else -1)
      | _ -> ())
    insts;
  match !found with
  | Some s -> s
  | None -> Alcotest.failf "no %scall %s -> %s" (if tail then "tail " else "") caller callee

let ret_of fx name =
  let fi = ref (-1) in
  Array.iteri (fun i (f : Mach.bfunc) -> if String.equal f.Mach.bf_name name then fi := i) fx.fx_bin.Mach.funcs;
  match
    Array.find_opt
      (fun (inst : Mach.inst) ->
        inst.Mach.i_func = !fi && match inst.Mach.i_op with Mach.MRet _ -> true | _ -> false)
      fx.fx_bin.Mach.insts
  with
  | Some inst -> inst.Mach.i_addr
  | None -> Alcotest.failf "no ret in %s" name

let n_probes fx range = List.length (Core.Probe_corr.probes_in_range fx.fx_bin range)

(* Feed hand-built samples; return the trie rendered one line per node
   ("ctx funcs total"), the stats and the metrics snapshot. *)
let feed_samples ?missing fx samples =
  let obs = Csspgo_obs.Metrics.create ~shards:1 () in
  let st =
    Core.Ctx_reconstruct.start ~name_of:fx.fx_name_of ?missing ~checksum_of:fx.fx_checksum_of ~obs
      fx.fx_ix
  in
  List.iter
    (fun (lbr, stack) ->
      let lbr = Array.of_list lbr and stack = Array.of_list stack in
      Core.Ctx_reconstruct.feed st ~lbr ~lbr_len:(Array.length lbr) ~stack
        ~stack_len:(Array.length stack))
    samples;
  let trie, stats = Core.Ctx_reconstruct.finish st in
  let name g = Option.value (fx.fx_name_of g) ~default:"?" in
  let nodes = ref [] in
  CP.iter_nodes trie (fun ctx node ->
      nodes :=
        Printf.sprintf "%s %Ld"
          (String.concat "@" (List.map (fun (f, _) -> name f) ctx @ [ node.CP.n_name ]))
          node.CP.n_prof.PP.fe_total
        :: !nodes);
  (trie, List.sort compare !nodes, stats, Csspgo_obs.Metrics.snapshot obs)

let check_stats (s : Core.Ctx_reconstruct.stats) (samples, dropped, resolved, failed) =
  Alcotest.(check (list int))
    "samples/dropped/resolved/failed" [ samples; dropped; resolved; failed ]
    Core.Ctx_reconstruct.
      [ s.st_samples; s.st_dropped_misaligned; s.st_gaps_resolved; s.st_gaps_failed ]

let nodes = Alcotest.(check (list string)) "trie nodes"

let test_feed_push_pop () =
  (* main calls outer, outer calls leaf, leaf returns: undoing the return
     pushes outer->leaf, undoing outer's call pops back to main->outer. *)
  let fx = Lazy.force feed_fixture in
  let c_main, ra_main = call_site fx ~tail:false "main" "outer" in
  let c_outer, ra_outer = call_site fx ~tail:false "outer" "leaf" in
  let r_leaf = ret_of fx "leaf" in
  let lbr = [ (c_main, entry fx "outer"); (c_outer, entry fx "leaf"); (r_leaf, ra_outer) ] in
  (* Three copies: the repeats must count like the first occurrence. *)
  let trie, got, stats, _ = feed_samples fx (List.init 3 (fun _ -> (lbr, [ ra_outer; ra_main ]))) in
  check_stats stats (3, 0, 0, 0);
  let outer_n = 3 * (n_probes fx (ra_outer, ra_outer) + n_probes fx (entry fx "outer", c_outer)) in
  let leaf_n = 3 * n_probes fx (entry fx "leaf", r_leaf) in
  Alcotest.(check bool) "ranges hold probes" true (outer_n > 0 && leaf_n > 0);
  nodes
    [ "main 0"; Printf.sprintf "main@outer %d" outer_n; Printf.sprintf "main@outer@leaf %d" leaf_n ]
    got;
  (* outer's call to leaf lies in the popped-to range and counts there. *)
  match CP.find_node trie ~leaf:(Ir.Guid.of_name "outer") (fun _ -> true) with
  | None -> Alcotest.fail "no outer node"
  | Some n ->
      let site = (Mach.inst_at fx.fx_bin c_outer |> Option.get).Mach.i_cs_probe in
      Alcotest.(check (list (pair string int64)))
        "outer's call counted" [ ("leaf", 3L) ]
        (List.map
           (fun (g, c) -> (Option.value (fx.fx_name_of g) ~default:"?", c))
           (PP.call_counts n.CP.n_prof site))

let test_feed_pop_empty () =
  (* A sample with no callers whose LBR still holds a call: undoing it
     leaves the empty caller stack empty, so both ranges land in base
     profiles. *)
  let fx = Lazy.force feed_fixture in
  let c_main, _ = call_site fx ~tail:false "main" "outer" in
  let lbr = [ (1, entry fx "main"); (c_main, entry fx "outer") ] in
  let _, got, stats, _ = feed_samples fx [ (lbr, [ entry fx "outer" ]) ] in
  check_stats stats (1, 0, 0, 0);
  nodes
    [
      Printf.sprintf "main %d" (n_probes fx (entry fx "main", c_main));
      Printf.sprintf "outer %d" (n_probes fx (entry fx "outer", entry fx "outer"));
    ]
    got

let test_feed_deep_stack () =
  (* 69 recursive deep frames under main: the context is kept whole, the
     depth histogram clamps the observation to 63. *)
  let fx = Lazy.force feed_fixture in
  let _, ra_main = call_site fx ~tail:false "main" "deep" in
  let _, ra_deep = call_site fx ~tail:false "deep" "deep" in
  let c_leaf, ra_leaf = call_site fx ~tail:false "deep" "leaf" in
  let stack = (entry fx "leaf" :: ra_leaf :: List.init 68 (fun _ -> ra_deep)) @ [ ra_main ] in
  Alcotest.(check int) "stack depth" 71 (List.length stack);
  let _, got, stats, snap =
    feed_samples fx [ ([ (c_leaf, entry fx "leaf") ], stack) ]
  in
  check_stats stats (1, 0, 0, 0);
  let chain = String.concat "@" ("main" :: List.init 69 (fun _ -> "deep")) in
  let chains = List.init 70 (fun k -> String.concat "@" ("main" :: List.init k (fun _ -> "deep"))) in
  nodes
    (List.sort compare
       (Printf.sprintf "%s@leaf %d" chain (n_probes fx (entry fx "leaf", entry fx "leaf"))
       :: List.map (fun c -> c ^ " 0") chains))
    got;
  match Csspgo_obs.Metrics.find_histogram snap "ctx.context-depth" with
  | None -> Alcotest.fail "no depth histogram"
  | Some h ->
      Alcotest.(check (list int)) "clamped to 63" [ 1; 63 ]
        [ h.Csspgo_obs.Metrics.h_count; h.Csspgo_obs.Metrics.h_sum ]

let test_feed_gaps () =
  let fx = Lazy.force feed_fixture in
  let _, ra_main = call_site fx ~tail:false "main" "jump" in
  let _, ra_jump = call_site fx ~tail:false "jump" "spring" in
  let c_mid, ra_mid = call_site fx ~tail:false "mid" "leaf" in
  let t_spring, _ = call_site fx ~tail:true "spring" "mid" in
  let missing =
    let b = Core.Missing_frame.start fx.fx_ix in
    Core.Missing_frame.feed b ~lbr:[| (t_spring, entry fx "mid") |] ~lbr_len:1;
    Core.Missing_frame.finish b
  in
  (* Caller-level gap, resolved: jump calls spring but the next frame is
     mid (spring tail-called it); the tail-call edge restores spring. *)
  let _, got, stats, snap =
    feed_samples ~missing fx
      [ ([ (c_mid, entry fx "leaf") ], [ entry fx "leaf"; ra_mid; ra_jump; ra_main ]) ]
  in
  check_stats stats (1, 0, 1, 0);
  Alcotest.(check (option int)) "one inferred frame" (Some 1)
    (Csspgo_obs.Metrics.find_counter snap "ctx.inferred-frames");
  nodes
    [
      "main 0";
      "main@jump 0";
      "main@jump@spring 0";
      "main@jump@spring@mid 0";
      Printf.sprintf "main@jump@spring@mid@leaf %d" (n_probes fx (entry fx "leaf", entry fx "leaf"));
    ]
    got;
  (* Leaf-level gap, failed: the range runs in mid while jump's call
     expects spring, and without the table the outer context is cut. *)
  let _, got, stats, _ =
    feed_samples fx [ ([ (t_spring, entry fx "mid") ], [ entry fx "mid"; ra_jump; ra_main ]) ]
  in
  check_stats stats (1, 0, 0, 1);
  nodes [ Printf.sprintf "mid %d" (n_probes fx (entry fx "mid", entry fx "mid")) ] got

let test_feed_misaligned () =
  (* The leaf frame is in outer but the last branch landed in leaf. *)
  let fx = Lazy.force feed_fixture in
  let c_outer, ra_outer = call_site fx ~tail:false "outer" "leaf" in
  let _, got, stats, _ = feed_samples fx [ ([ (c_outer, entry fx "leaf") ], [ ra_outer ]) ] in
  check_stats stats (1, 1, 0, 0);
  nodes [] got

let test_feed_repeat_allocates_nothing () =
  (* A repeated sample whose range bumps nothing runs on interned caller
     states and a memo hit: the reconstructor allocates no word for it. *)
  let fx = Lazy.force feed_fixture in
  let _, ra_main = call_site fx ~tail:false "main" "outer" in
  let c_outer, ra_outer = call_site fx ~tail:false "outer" "leaf" in
  let quiet =
    Array.find_opt
      (fun (inst : Mach.inst) ->
        String.equal fx.fx_bin.Mach.funcs.(inst.Mach.i_func).Mach.bf_name "leaf"
        && n_probes fx (inst.Mach.i_addr, inst.Mach.i_addr) = 0
        && inst.Mach.i_cs_probe = 0)
      fx.fx_bin.Mach.insts
  in
  let a = match quiet with Some i -> i.Mach.i_addr | None -> Alcotest.fail "no quiet address" in
  let st =
    Core.Ctx_reconstruct.start ~name_of:fx.fx_name_of ~checksum_of:fx.fx_checksum_of fx.fx_ix
  in
  let lbr = [| (c_outer, a) |] and stack = [| a; ra_outer; ra_main |] in
  let feed () = Core.Ctx_reconstruct.feed st ~lbr ~lbr_len:1 ~stack ~stack_len:3 in
  feed ();
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for _ = 1 to 1000 do
    feed ()
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "words per 1000 repeats" 0. (w2 -. w1 -. (w1 -. w0));
  let _, stats = Core.Ctx_reconstruct.finish st in
  check_stats stats (1001, 0, 0, 0)

let suite =
  ( "core",
    [
      Alcotest.test_case "probe insertion" `Quick test_probe_insertion;
      Alcotest.test_case "checksum drift" `Quick test_checksum_drift;
      Alcotest.test_case "stale profile rejected" `Quick test_stale_profile_rejected;
      Alcotest.test_case "probe correlation sums copies" `Quick test_probe_correlation_sums_copies;
      Alcotest.test_case "algorithm 1 separates contexts" `Quick test_ctx_reconstruction_separates_contexts;
      Alcotest.test_case "context totals match flat" `Quick test_ctx_totals_match_flat;
      Alcotest.test_case "missing frame inference" `Quick test_missing_frame_inference;
      Alcotest.test_case "algorithm 3 sizes" `Quick test_size_extract;
      Alcotest.test_case "algorithm 2 pre-inliner" `Slow test_preinliner_marks_hot_chain;
      Alcotest.test_case "block overlap metric" `Quick test_quality_metric;
      Alcotest.test_case "overlap edge cases" `Quick test_quality_edge_cases;
      Alcotest.test_case "value specialization" `Quick test_value_spec;
      Alcotest.test_case "driver all variants" `Slow test_driver_all_variants_smoke;
      Alcotest.test_case "skid detection" `Quick test_skid_drops_samples;
      Alcotest.test_case "feed: return push, call pop" `Quick test_feed_push_pop;
      Alcotest.test_case "feed: call pop on empty stack" `Quick test_feed_pop_empty;
      Alcotest.test_case "feed: stack deeper than 64" `Quick test_feed_deep_stack;
      Alcotest.test_case "feed: caller and leaf gaps" `Quick test_feed_gaps;
      Alcotest.test_case "feed: misaligned sample dropped" `Quick test_feed_misaligned;
      Alcotest.test_case "feed: repeat allocates nothing" `Quick test_feed_repeat_allocates_nothing;
    ] )
