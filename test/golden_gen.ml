(* Golden-file generator for [Profile.Text_io].

   Builds one small hand-written profile of each kind and prints its
   canonical rendering to stdout. The dune rules in this directory diff the
   output against the checked-in files under golden/; a formatting change
   shows up as a readable diff and is accepted with `dune promote`. *)

module P = Csspgo_profile
module Guid = Csspgo_ir.Guid
module Vm = Csspgo_vm
module Ls = Csspgo_support.Label_set

let g = Guid.of_name

let probe () =
  let t = P.Probe_profile.create () in
  let main = P.Probe_profile.get_or_add t (g "main") ~name:"main" in
  main.P.Probe_profile.fe_head <- 1L;
  main.P.Probe_profile.fe_checksum <- 0x1f2e3d4cL;
  P.Probe_profile.add_probe main 1 120L;
  P.Probe_profile.add_probe main 2 80L;
  P.Probe_profile.add_probe main 4 40L;
  P.Probe_profile.add_call main 4 (g "hot") 38L;
  P.Probe_profile.add_call main 4 (g "cold") 2L;
  let hot = P.Probe_profile.get_or_add t (g "hot") ~name:"hot" in
  hot.P.Probe_profile.fe_head <- 38L;
  hot.P.Probe_profile.fe_checksum <- 0xbeefL;
  P.Probe_profile.add_probe hot 1 38L;
  P.Probe_profile.add_probe hot 2 3800L;
  let cold = P.Probe_profile.get_or_add t (g "cold") ~name:"cold" in
  cold.P.Probe_profile.fe_head <- 2L;
  P.Probe_profile.add_probe cold 1 2L;
  P.Text_io.(to_string (Probe_prof t))

let ctx () =
  let t = P.Ctx_profile.create () in
  let main = P.Ctx_profile.base t (g "main") ~name:"main" in
  main.P.Ctx_profile.n_prof.P.Probe_profile.fe_head <- 1L;
  main.P.Ctx_profile.n_prof.P.Probe_profile.fe_checksum <- 0x1f2e3d4cL;
  P.Probe_profile.add_probe main.P.Ctx_profile.n_prof 1 120L;
  P.Probe_profile.add_probe main.P.Ctx_profile.n_prof 4 40L;
  P.Probe_profile.add_call main.P.Ctx_profile.n_prof 4 (g "hot") 40L;
  (match
     P.Ctx_profile.node_at t ~path:[ (((g "main"), 4), g "hot", "hot") ]
   with
  | None -> assert false
  | Some node ->
      node.P.Ctx_profile.n_inlined <- true;
      node.P.Ctx_profile.n_prof.P.Probe_profile.fe_head <- 40L;
      node.P.Ctx_profile.n_prof.P.Probe_profile.fe_checksum <- 0xbeefL;
      P.Probe_profile.add_probe node.P.Ctx_profile.n_prof 1 40L;
      P.Probe_profile.add_probe node.P.Ctx_profile.n_prof 2 4000L);
  P.Text_io.(to_string (Ctx_prof t))

let line () =
  let t = P.Line_profile.create () in
  let main = P.Line_profile.get_or_add t (g "main") ~name:"main" in
  main.P.Line_profile.fe_head <- 1L;
  P.Line_profile.add_line main (1, 0) 120L;
  P.Line_profile.add_line main (3, 0) 80L;
  P.Line_profile.add_line main (3, 1) 40L;
  P.Line_profile.add_call main (5, 0) (g "hot") 40L;
  let hot = P.Line_profile.get_or_add t (g "hot") ~name:"hot" in
  hot.P.Line_profile.fe_head <- 40L;
  P.Line_profile.add_line hot (0, 0) 40L;
  P.Line_profile.add_line hot (2, 0) 4000L;
  P.Text_io.(to_string (Line_prof t))

(* The .bprof fixtures pin the binary wire format the same way: the blob
   for each kind is checked in byte-for-byte, so any encoder change — even
   a compatible one — must be an explicit `dune promote`, and a version
   bump that breaks decoding of the pinned v1 blobs fails the diff rules'
   sibling test in [Test_binary_io]. *)
let binary text = P.Binary_io.encode (P.Text_io.of_string text)

(* A small hand-written labeled sample log: two tenants, a label run that
   returns to an already-interned set, and a chunk size that splits the
   stream mid-run. Its v3 blob pins the label-section wire format; the v2
   blob of its unlabeled copy pins the lossless downgrade framing. *)
let cslg () =
  let log = Vm.Sample_log.create () in
  let add lbr stack =
    let lbr = Array.of_list lbr and stack = Array.of_list stack in
    Vm.Sample_log.add log ~lbr ~lbr_len:(Array.length lbr) ~stack
      ~stack_len:(Array.length stack)
  in
  let acme = Ls.of_list [ ("tenant", "acme"); ("endpoint", "adfinder") ] in
  Vm.Sample_log.set_label log acme;
  add [ (10, 20); (22, 30) ] [ 30; 7 ];
  add [ (30, 10) ] [ 12 ];
  Vm.Sample_log.set_label log (Ls.of_list [ ("tenant", "zeta") ]);
  add [ (40, 44) ] [ 44; 9; 3 ];
  Vm.Sample_log.set_label log acme;
  add [] [ 50 ];
  log

(* VM digest: every suite workload's train and eval specs, each run under
   four PMU modes (off, PEBS, no-PEBS with skid, 32-deep LBR), print one
   line of the run's counters plus an FNV-1a digest of the full sample
   stream (every LBR pair and stack address, in delivery order). An
   instrumented build adds its counter array and sorted value-profile
   histograms. Any change to the interpreter's cycle model, branch
   recording or sampling shows up as a line diff. *)
module Core = Csspgo_core
module Vm_run = Vm.Machine

let vm_build ~instr src =
  let p = Csspgo_frontend.Lower.compile src in
  if instr then begin
    ignore (Core.Instrument.instrument p);
    ignore (Core.Instrument.instrument_values p)
  end
  else Core.Pseudo_probe.insert p;
  Csspgo_opt.Pass.optimize ~config:Csspgo_opt.Config.o2_nopgo p;
  Csspgo_codegen.Emit.emit ~options:Csspgo_codegen.Emit.default_options p

let vm_modes =
  let d = Vm_run.default_pmu in
  [
    ("off", None);
    ("pebs", Some d);
    ("skid", Some { d with Vm_run.pebs = false });
    ("lbr32", Some { d with Vm_run.lbr_depth = 32 });
  ]

let vm_digest () =
  let buf = Buffer.create 4096 in
  let module F = Csspgo_support.Fnv in
  List.iter
    (fun (w : Core.Driver.workload) ->
      let bin = vm_build ~instr:false w.Core.Driver.w_source in
      let sets = [ ("train", w.Core.Driver.w_train); ("eval", w.Core.Driver.w_eval) ] in
      List.iter
        (fun (set, specs) ->
          List.iter
            (fun (mode, pmu) ->
              let h = ref F.init in
              let sink =
                {
                  Vm_run.on_sample =
                    (fun ~lbr ~lbr_len ~stack ~stack_len ->
                      h := F.int !h lbr_len;
                      for i = 0 to lbr_len - 1 do
                        let s, t = lbr.(i) in
                        h := F.int (F.int !h s) t
                      done;
                      h := F.int !h stack_len;
                      for i = 0 to stack_len - 1 do
                        h := F.int !h stack.(i)
                      done);
                  on_labels = Vm_run.no_labels;
                }
              in
              List.iteri
                (fun k (spec : Core.Driver.run_spec) ->
                  let r =
                    Vm_run.run ~pmu ~sink ~globals_init:spec.Core.Driver.rs_globals
                      ~args:spec.Core.Driver.rs_args bin ~entry:w.Core.Driver.w_entry
                  in
                  Printf.bprintf buf
                    "%s %s#%d %s cycles=%Ld instructions=%Ld icache_misses=%Ld \
                     taken=%Ld mispredicts=%Ld samples=%d ret=%Ld stream=%016Lx\n"
                    w.Core.Driver.w_name set k mode r.Vm_run.cycles r.Vm_run.instructions
                    r.Vm_run.icache_misses r.Vm_run.taken_branches r.Vm_run.mispredicts
                    r.Vm_run.n_samples r.Vm_run.ret_value !h)
                specs)
            vm_modes)
        sets;
      (* Instrumented build, PMU off: exact counters and value profiles. *)
      let ibin = vm_build ~instr:true w.Core.Driver.w_source in
      List.iteri
        (fun k (spec : Core.Driver.run_spec) ->
          let r =
            Vm_run.run ~pmu:None ~globals_init:spec.Core.Driver.rs_globals
              ~args:spec.Core.Driver.rs_args ibin ~entry:w.Core.Driver.w_entry
          in
          Printf.bprintf buf "%s train#%d instr cycles=%Ld instructions=%Ld ret=%Ld\n"
            w.Core.Driver.w_name k r.Vm_run.cycles r.Vm_run.instructions r.Vm_run.ret_value;
          Printf.bprintf buf "  counters";
          Array.iter (fun c -> Printf.bprintf buf " %Ld" c) r.Vm_run.counters;
          Buffer.add_char buf '\n';
          let sites =
            List.sort compare
              (Hashtbl.fold (fun s _ acc -> s :: acc) r.Vm_run.value_profiles [])
          in
          List.iter
            (fun site ->
              let hist = Hashtbl.find r.Vm_run.value_profiles site in
              let kvs =
                List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) hist [])
              in
              Printf.bprintf buf "  valprof site=%d" site;
              List.iter (fun (v, c) -> Printf.bprintf buf " %Ld:%Ld" v c) kvs;
              Buffer.add_char buf '\n')
            sites)
        w.Core.Driver.w_train)
    Csspgo_workloads.Suite.all;
  Buffer.contents buf

(* Context-reconstruction digest: every suite workload's probed profiling
   build (the driver's default recipe) plus a no-inline adfinder build,
   whose tail calls leave real frame gaps. Each is sampled over its train
   specs under PEBS and under no-PEBS skid, and Algorithm 1 replays the
   log with missing-frame inference on and off. One line per case: the
   FNV of the canonical Text_io context text, the four reconstruction
   stats, the inferred-frames counter and the context-depth histogram.
   The same case run through [Par_corr] at three shards must print the
   same line. *)
let ctx_digest () =
  let module D = Core.Driver in
  let module Pg = Csspgo_profgen in
  let module M = Csspgo_obs.Metrics in
  let module F = Csspgo_support.Fnv in
  let buf = Buffer.create 4096 in
  let d = D.default_options in
  let no_inline = { d.D.opt_profiling with Csspgo_opt.Config.inline_mode = Csspgo_opt.Config.Inline_none } in
  let builds =
    List.map (fun w -> (w, "o2", d.D.opt_profiling)) Csspgo_workloads.Suite.all
    @ [ (Csspgo_workloads.Suite.adfinder, "noinline", no_inline) ]
  in
  let pmus = [ ("pebs", d.D.pmu); ("skid", { d.D.pmu with Vm_run.pebs = false }) ] in
  List.iter
    (fun ((w : D.workload), build, config) ->
      let refp = Csspgo_frontend.Lower.compile w.D.w_source in
      Core.Pseudo_probe.insert refp;
      let prog = Csspgo_ir.Program.copy refp in
      Csspgo_opt.Pass.optimize ~config prog;
      let bin = Csspgo_codegen.Emit.emit ~options:d.D.emit_opts prog in
      let ix = Pg.Bindex.create bin in
      let find = Csspgo_ir.Program.find_func_by_guid refp in
      let name_of g = Option.map (fun f -> f.Csspgo_ir.Func.name) (find g) in
      let checksum_of g =
        match find g with Some f -> f.Csspgo_ir.Func.checksum | None -> 0L
      in
      List.iter
        (fun (mode, pmu) ->
          let log = Vm.Sample_log.create () in
          List.iter
            (fun (spec : D.run_spec) ->
              ignore
                (Vm_run.run ~pmu:(Some pmu) ~sink:(Vm.Sample_log.sink log)
                   ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args bin
                   ~entry:w.D.w_entry))
            w.D.w_train;
          let mf =
            let b = Core.Missing_frame.start ix in
            Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack:_ ~stack_len:_ ->
                Core.Missing_frame.feed b ~lbr ~lbr_len);
            Core.Missing_frame.finish b
          in
          List.iter
            (fun mf_on ->
              let missing = if mf_on then Some mf else None in
              let line (trie, (s : Core.Ctx_reconstruct.stats)) obs =
                let snap = M.snapshot obs in
                let inferred =
                  Option.value (M.find_counter snap "ctx.inferred-frames") ~default:0
                in
                let depth =
                  match M.find_histogram snap "ctx.context-depth" with
                  | None -> "-"
                  | Some h ->
                      Printf.sprintf "n%d/s%d/%s" h.M.h_count h.M.h_sum
                        (String.concat ","
                           (List.map (fun (b, c) -> Printf.sprintf "%d:%d" b c) h.M.h_nonzero))
                in
                Printf.sprintf
                  "%s %s %s mf=%s text=%016Lx samples=%d dropped=%d resolved=%d \
                   failed=%d inferred=%d depth=%s"
                  w.D.w_name build mode
                  (if mf_on then "on" else "off")
                  (F.hash_string (P.Text_io.to_string (P.Text_io.Ctx_prof trie)))
                  s.Core.Ctx_reconstruct.st_samples s.Core.Ctx_reconstruct.st_dropped_misaligned
                  s.Core.Ctx_reconstruct.st_gaps_resolved s.Core.Ctx_reconstruct.st_gaps_failed
                  inferred depth
              in
              let serial =
                let obs = M.create ~shards:1 () in
                let st = Core.Ctx_reconstruct.start ~name_of ?missing ~checksum_of ~obs ix in
                Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
                    Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
                let ((_, s) as r) = Core.Ctx_reconstruct.finish st in
                if build = "noinline" && mf_on && s.Core.Ctx_reconstruct.st_gaps_resolved = 0
                then failwith "ctx-digest: no-inline adfinder resolved no tail-call gap";
                line r obs
              in
              let sharded =
                let obs = M.create ~shards:1 () in
                let chunk = (Vm.Sample_log.n_samples log + 2) / 3 in
                let shards = Core.Par_corr.shards_of_log ~chunk log in
                if List.length shards <> 3 then failwith "ctx-digest: expected three shards";
                line
                  (Core.Par_corr.reconstruct ~name_of ?missing ~checksum_of ~obs ~jobs:3 ix
                     shards)
                  obs
              in
              Buffer.add_string buf serial;
              Buffer.add_char buf '\n';
              if not (String.equal serial sharded) then
                Printf.bprintf buf "par3 differs: %s\n" sharded)
            [ true; false ])
        pmus)
    builds;
  Buffer.contents buf

let () =
  set_binary_mode_out stdout true;
  match Sys.argv.(1) with
  | "probe" -> print_string (probe ())
  | "ctx" -> print_string (ctx ())
  | "line" -> print_string (line ())
  | "probe-bin" -> print_string (binary (probe ()))
  | "ctx-bin" -> print_string (binary (ctx ()))
  | "line-bin" -> print_string (binary (line ()))
  | "cslg-v3" -> print_string (Vm.Sample_log.encode ~chunk:2 (cslg ()))
  | "cslg-v2" ->
      print_string (Vm.Sample_log.encode ~chunk:2 (Vm.Sample_log.unlabeled (cslg ())))
  | "vm" -> print_string (vm_digest ())
  | "ctx-digest" -> print_string (ctx_digest ())
  | s -> failwith ("golden_gen: unknown kind " ^ s)
  | exception _ ->
      failwith
        "usage: golden_gen (probe|ctx|line|probe-bin|ctx-bin|line-bin|cslg-v3|cslg-v2|vm|ctx-digest)"
