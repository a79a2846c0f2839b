(* Layer-by-layer replay of one [Driver.Plan] (cache off), calling each
   layer's public functions in the order [Plan.run] calls them and timing
   every call on a [Meter] recorder. The replay returns the digests the
   traced run compares against [Plan.run] on the same plan, so the
   per-layer times describe the real pipeline rather than a drifting
   copy. *)

module Ir = Csspgo_ir
module Fnv = Csspgo_support.Fnv
module Frontend = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Pg = Csspgo_profgen
module Core = Csspgo_core
module D = Core.Driver
module Plan = D.Plan

(* Deterministic work counters gathered alongside the times. *)
type counts = {
  mutable vm_instructions : int64;
  mutable vm_samples : int;
  mutable ctx_samples : int;
  mutable ctx_dropped : int;
  mutable gaps_resolved : int;
  mutable gaps_failed : int;
  mutable text_bytes : int;  (* profile text written *)
  mutable opt_funcs : int;
  mutable code_bytes : int;  (* text bytes emitted by codegen *)
  mutable decisions : int;
}

let counts () =
  {
    vm_instructions = 0L;
    vm_samples = 0;
    ctx_samples = 0;
    ctx_dropped = 0;
    gaps_resolved = 0;
    gaps_failed = 0;
    text_bytes = 0;
    opt_funcs = 0;
    code_bytes = 0;
    decisions = 0;
  }

type result = {
  profile_digest : int64;  (* FNV-1a over the plan's correlate payloads *)
  binary_digest : int64;
  eval : D.eval;
}

let digest_string acc s = Fnv.int64 acc (Fnv.hash_string s)
let binary_digest (b : Cg.Mach.binary) = Fnv.hash_string (Marshal.to_string b [])

let count_funcs prog =
  let n = ref 0 in
  Ir.Program.iter_funcs (fun _ -> incr n) prog;
  !n

type prof = Lines of P.Line_profile.t | Probes of P.Probe_profile.t
  | Ctx of P.Ctx_profile.t * P.Probe_profile.t
  | Counters of (Ir.Guid.t * Ir.Types.label, int64) Hashtbl.t * (Core.Instrument.vsite_key, int64) Hashtbl.t

let run (m : Meter.t) (c : counts) (plan : Plan.t) =
  let span name f = Meter.span m name f in
  let w = plan.Plan.pl_workload in
  let compile src = span "frontend" (fun () -> Frontend.Lower.compile src) in
  let emit ~options prog =
    let bin = span "codegen" (fun () -> Cg.Emit.emit ~options prog) in
    c.code_bytes <- c.code_bytes + bin.Cg.Mach.text_size;
    bin
  in
  let optimize ~config prog =
    span "opt" (fun () -> Opt.Pass.optimize ~config prog);
    c.opt_funcs <- c.opt_funcs + count_funcs prog
  in
  let ref_info =
    lazy
      (span "ref-info" (fun () ->
           let refp = compile w.D.w_source in
           span "instrument" (fun () -> Core.Pseudo_probe.insert refp);
           let names = Ir.Guid.Tbl.create 64 and checksums = Ir.Guid.Tbl.create 64 in
           Ir.Program.iter_funcs
             (fun f ->
               Ir.Guid.Tbl.replace names f.Ir.Func.guid f.Ir.Func.name;
               Ir.Guid.Tbl.replace checksums f.Ir.Func.guid f.Ir.Func.checksum)
             refp;
           (names, checksums)))
  in
  let name_of g = Ir.Guid.Tbl.find_opt (fst (Lazy.force ref_info)) g in
  let checksum_of g =
    Option.value (Ir.Guid.Tbl.find_opt (snd (Lazy.force ref_info)) g) ~default:0L
  in
  (* VM runs: PMU-on runs are the sampled profile run, PMU-off runs the
     evaluation (and the instrumented training run). *)
  let run_specs ~pmu ?sink bin ~entry specs =
    let name = if pmu = None then "vm.eval" else "vm.sampled" in
    List.map
      (fun (spec : D.run_spec) ->
        let r =
          span name (fun () ->
              Vm.Machine.run ~pmu ?sink ~globals_init:spec.D.rs_globals ~args:spec.D.rs_args
                bin ~entry)
        in
        c.vm_instructions <- Int64.add c.vm_instructions r.Vm.Machine.instructions;
        c.vm_samples <- c.vm_samples + r.Vm.Machine.n_samples;
        r)
      specs
  in
  let write_text p =
    let text = span "profile.text_write" (fun () -> P.Text_io.to_string p) in
    c.text_bytes <- c.text_bytes + String.length text;
    (* The warm rerun's cache-decoding path reads every correlated text
       back; the replay times that parse too and checks the round trip. *)
    let back = span "profile.text_read" (fun () -> P.Text_io.read (P.Text_io.kind_of p) text) in
    if P.Text_io.to_string back <> text then failwith "Text_io round trip changed the profile";
    text
  in
  let compile_spec = ref None and instr_spec = ref None in
  let prof_run = ref None in
  let profile = ref None in
  let payload_digest = ref Fnv.init in
  let rebuild_source = w.D.w_source in
  let final = ref None and eval_out = ref None in
  let exec = function
    | Plan.Compile cs -> compile_spec := Some cs
    | Plan.Instrument is -> instr_spec := Some is
    | Plan.Profile_run ps ->
        let cs = Option.get !compile_spec in
        let prog = compile cs.Plan.c_source in
        if cs.Plan.c_probes then span "instrument" (fun () -> Core.Pseudo_probe.insert prog);
        let instr =
          Option.map
            (fun (is : Plan.instrument_spec) ->
              span "instrument" (fun () ->
                  let im =
                    if is.Plan.i_counters then Core.Instrument.instrument prog
                    else { Core.Instrument.counter_of = Hashtbl.create 1; n_counters = 0 }
                  in
                  let vals =
                    if is.Plan.i_values then Core.Instrument.instrument_values prog
                    else { Core.Instrument.site_of = Hashtbl.create 1; n_sites = 0 }
                  in
                  (im, vals)))
            !instr_spec
        in
        optimize ~config:ps.Plan.p_config prog;
        let bin = emit ~options:ps.Plan.p_emit prog in
        let agg = Pg.Ranges.create () in
        let log = Vm.Sample_log.create () in
        let mb =
          Option.map
            (fun _ ->
              let ix = span "profgen.bindex" (fun () -> Pg.Bindex.create bin) in
              span "corr.missing_frame" (fun () -> Core.Missing_frame.start ix))
            ps.Plan.p_pmu
        in
        let cb name f = Meter.span ~keep:false m name f in
        let sink =
          {
            Vm.Machine.on_sample =
              (fun ~lbr ~lbr_len ~stack ~stack_len ->
                cb "profgen.ranges" (fun () -> Pg.Ranges.feed agg ~lbr ~lbr_len);
                (match mb with
                | Some mb ->
                    cb "corr.missing_frame" (fun () -> Core.Missing_frame.feed mb ~lbr ~lbr_len)
                | None -> ());
                cb "sample_log.add" (fun () ->
                    Vm.Sample_log.add log ~lbr ~lbr_len ~stack ~stack_len));
            on_labels = Vm.Sample_log.set_label log;
          }
        in
        let runs = run_specs ~pmu:ps.Plan.p_pmu ~sink bin ~entry:ps.Plan.p_entry ps.Plan.p_train in
        Vm.Sample_log.compact log;
        (* Counter and value-profile accumulation exactly as the driver's
           [run_specs] folds them, so the counter profile marshals to the
           same bytes. *)
        let counters = ref None and values = Hashtbl.create 8 in
        List.iter
          (fun (r : Vm.Machine.result) ->
            (match !counters with
            | None -> counters := Some r.Vm.Machine.counters
            | Some cs ->
                Array.iteri
                  (fun i x -> if i < Array.length cs then cs.(i) <- Int64.add cs.(i) x)
                  r.Vm.Machine.counters);
            Hashtbl.iter
              (fun site hist ->
                let dst =
                  match Hashtbl.find_opt values site with
                  | Some dst -> dst
                  | None ->
                      let dst = Hashtbl.create 8 in
                      Hashtbl.replace values site dst;
                      dst
                in
                Hashtbl.iter
                  (fun v n ->
                    Hashtbl.replace dst v
                      (Int64.add n (Option.value (Hashtbl.find_opt dst v) ~default:0L)))
                  hist)
              r.Vm.Machine.value_profiles)
          runs;
        let missing =
          Option.map (fun mb -> span "corr.missing_frame" (fun () -> Core.Missing_frame.finish mb)) mb
        in
        prof_run := Some (bin, agg, log, missing, !counters, values, instr)
    | Plan.Correlate { Plan.x_correlator } -> (
        let bin, agg, log, missing, counters, values, instr = Option.get !prof_run in
        let index = lazy (span "profgen.bindex" (fun () -> Pg.Bindex.create bin)) in
        let probe_flat () =
          let pp =
            span "corr.probe" (fun () ->
                Core.Probe_corr.correlate_agg ~name_of ~index:(Lazy.force index) ~checksum_of
                  bin agg)
          in
          payload_digest := digest_string !payload_digest (write_text (P.Text_io.Probe_prof pp));
          pp
        in
        match x_correlator with
        | Plan.Corr_lines ->
            let lp =
              span "profgen.dwarf_corr" (fun () ->
                  Pg.Dwarf_corr.correlate_agg ~name_of ~index:(Lazy.force index) bin agg)
            in
            payload_digest := digest_string !payload_digest (write_text (P.Text_io.Line_prof lp));
            profile := Some (Lines lp)
        | Plan.Corr_probes -> profile := Some (Probes (probe_flat ()))
        | Plan.Corr_ctx { cc_missing_frames; cc_trim_threshold } ->
            let missing = if cc_missing_frames then missing else None in
            let trie, stats =
              span "corr.ctx" (fun () ->
                  let st =
                    Core.Ctx_reconstruct.start ~name_of ?missing ~checksum_of (Lazy.force index)
                  in
                  Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
                      Core.Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
                  Core.Ctx_reconstruct.finish st)
            in
            c.ctx_samples <- c.ctx_samples + stats.Core.Ctx_reconstruct.st_samples;
            c.ctx_dropped <- c.ctx_dropped + stats.Core.Ctx_reconstruct.st_dropped_misaligned;
            c.gaps_resolved <- c.gaps_resolved + stats.Core.Ctx_reconstruct.st_gaps_resolved;
            c.gaps_failed <- c.gaps_failed + stats.Core.Ctx_reconstruct.st_gaps_failed;
            if Int64.compare cc_trim_threshold 0L > 0 then
              span "profile.trim" (fun () ->
                  ignore (P.Ctx_profile.trim_cold trie ~threshold:cc_trim_threshold));
            let text = write_text (P.Text_io.Ctx_prof trie) in
            (* The driver caches the context trie as its text marshaled
               with the reconstruction stats; digest the same payload. *)
            payload_digest :=
              digest_string !payload_digest (Marshal.to_string (text, stats) []);
            let flat = probe_flat () in
            profile := Some (Ctx (trie, flat))
        | Plan.Corr_counters { cn_min_count; cn_min_ratio } ->
            let im, vals = Option.get instr in
            let v =
              span "corr.counters" (fun () ->
                  let counts =
                    Core.Instrument.block_counts im
                      (Option.value counters
                         ~default:(Array.make im.Core.Instrument.n_counters 0L))
                  in
                  ( counts,
                    Core.Instrument.dominant_values vals values ~min_count:cn_min_count
                      ~min_ratio:cn_min_ratio ))
            in
            payload_digest := digest_string !payload_digest (Marshal.to_string v []);
            profile := Some (Counters (fst v, snd v)))
    | Plan.Preinline { Plan.pi_config } -> (
        match !profile with
        | Some (Ctx (trie, _)) ->
            span "preinliner" (fun () ->
                match pi_config with
                | Some config ->
                    let bin, _, _, _, _, _, _ = Option.get !prof_run in
                    let sizes = Core.Size_extract.compute bin in
                    c.decisions <-
                      c.decisions + List.length (Core.Preinliner.run ~config trie sizes)
                | None -> ignore (P.Ctx_profile.trim_cold trie ~threshold:Int64.max_int));
            (* The plan re-serializes the pre-inlined trie. *)
            ignore (span "profile.text_write" (fun () -> P.Text_io.to_string (P.Text_io.Ctx_prof trie)))
        | _ -> ())
    | Plan.Rebuild rs ->
        let prog = compile rebuild_source in
        if rs.Plan.r_probes then span "instrument" (fun () -> Core.Pseudo_probe.insert prog);
        Option.iter (fun config -> optimize ~config prog) rs.Plan.r_prepass;
        span "annotate" (fun () ->
            match !profile with
            | None -> ()
            | Some (Lines lp) -> Core.Annotate.lines lp prog
            | Some (Probes pp) -> ignore (Core.Annotate.probes pp prog)
            | Some (Ctx (trie, _)) -> ignore (Core.Annotate.ctx trie prog)
            | Some (Counters (counts, dominant)) ->
                Core.Annotate.exact counts prog;
                ignore (Core.Value_spec.apply prog dominant));
        (* The quality copy: a fresh probed lowering annotated with the flat
           profile (context shapes), or a copy of the annotated IR. *)
        (match !profile with
        | Some (Ctx (_, flat)) ->
            let qp = compile rebuild_source in
            span "instrument" (fun () -> Core.Pseudo_probe.insert qp);
            span "annotate" (fun () -> ignore (Core.Annotate.probes flat qp))
        | _ -> ignore (Ir.Program.copy prog));
        span "profile.fingerprint" (fun () ->
            match !profile with
            | Some (Lines lp) -> ignore (P.Fingerprint.merged (P.Text_io.Line_prof lp))
            | Some (Probes pp) -> ignore (P.Fingerprint.merged (P.Text_io.Probe_prof pp))
            | Some (Ctx (trie, _)) -> ignore (P.Fingerprint.merged (P.Text_io.Ctx_prof trie))
            | Some (Counters _) | None -> ());
        (* The incremental rebuild engine on a cold cache: the program-level
           prefix, then every function through the per-function pipeline. *)
        let config = rs.Plan.r_config in
        span "opt" (fun () ->
            if Opt.Pass.prepare ~config prog then begin
              let steps = Opt.Pass.steps_of_config config in
              Ir.Program.iter_funcs
                (fun f ->
                  c.opt_funcs <- c.opt_funcs + 1;
                  Opt.Pass.optimize_func_with ~config ~steps ~program:prog f)
                prog;
              if config.Opt.Config.verify_between_passes && Ir.Verify.program prog <> [] then
                failwith "replay: IR broken after the incremental pipeline"
            end);
        final := Some (emit ~options:rs.Plan.r_emit prog)
    | Plan.Evaluate es ->
        let runs = run_specs ~pmu:None (Option.get !final) ~entry:es.Plan.e_entry es.Plan.e_eval in
        let sum f = List.fold_left (fun acc r -> Int64.add acc (f r)) 0L runs in
        eval_out :=
          Some
            {
              D.ev_cycles = sum (fun r -> r.Vm.Machine.cycles);
              ev_instructions = sum (fun r -> r.Vm.Machine.instructions);
              ev_icache_misses = sum (fun r -> r.Vm.Machine.icache_misses);
              ev_taken_branches = sum (fun r -> r.Vm.Machine.taken_branches);
            }
    | Plan.Use_profile _ | Plan.Stale_apply _ ->
        invalid_arg "Replay.run: only Plan.make stage lists are replayed"
  in
  List.iter
    (fun st -> span ("stage." ^ Plan.stage_name st) (fun () -> exec st))
    plan.Plan.pl_stages;
  {
    profile_digest = !payload_digest;
    binary_digest = binary_digest (Option.get !final);
    eval = Option.get !eval_out;
  }
