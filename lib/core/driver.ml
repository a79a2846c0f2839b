module Ir = Csspgo_ir
module Fnv = Csspgo_support.Fnv
module Frontend = Csspgo_frontend
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Pg = Csspgo_profgen
module Obs = Csspgo_obs

type run_spec = {
  rs_args : int64 list;
  rs_globals : (string * int64 array) list;
}

type workload = {
  w_name : string;
  w_source : string;
  w_entry : string;
  w_train : run_spec list;
  w_eval : run_spec list;
}

type variant = Nopgo | Instr_pgo | Autofdo | Csspgo_probe_only | Csspgo_full

let variant_name = function
  | Nopgo -> "no-pgo"
  | Instr_pgo -> "instr-pgo"
  | Autofdo -> "autofdo"
  | Csspgo_probe_only -> "csspgo-probe-only"
  | Csspgo_full -> "csspgo"

type options = {
  pmu : Vm.Machine.pmu;
  opt_profiling : Opt.Config.t;
  opt_final : Opt.Config.t;
  emit_opts : Cg.Emit.options;
  trim_threshold : int64;
  preinline : Preinliner.config option;
  use_missing_frame_inference : bool;
}

let default_options =
  {
    pmu = { Vm.Machine.default_pmu with sample_period = 1009 };
    opt_profiling = Opt.Config.o2_nopgo;
    opt_final = Opt.Config.o2;
    emit_opts = Cg.Emit.default_options;
    trim_threshold = 8L;
    preinline = Some Preinliner.default_config;
    use_missing_frame_inference = true;
  }

type eval = {
  ev_cycles : int64;
  ev_instructions : int64;
  ev_icache_misses : int64;
  ev_taken_branches : int64;
}

type outcome = {
  o_variant : variant;
  o_eval : eval;
  o_text_size : int;
  o_debug_size : int;
  o_probe_meta_size : int;
  o_profiling_cycles : int64;
  o_annotated : Ir.Program.t;
  o_stales : Annotate.stale list;
  o_recon_stats : Ctx_reconstruct.stats option;
  o_preinline_decisions : Preinliner.decision list;
  o_binary : Cg.Mach.binary;
  o_profile_size : int;
  o_stale_report : Stale_match.report option;
}

let compile (w : workload) = Frontend.Lower.compile w.w_source

(* Reference program carrying pseudo-probe checksums and symbol names. *)
let reference (w : workload) =
  let p = compile w in
  Pseudo_probe.insert p;
  p

type runs = {
  r_samples : Vm.Machine.sample list;
  r_n_samples : int;
  r_cycles : int64;
  r_instrs : int64;
  r_imiss : int64;
  r_branches : int64;
  r_counters : int64 array option;
  r_values : (int, (int64, int64) Hashtbl.t) Hashtbl.t;
}

let run_specs ?(pmu = None) ?sink ?debug_poison ?obs (bin : Cg.Mach.binary) ~entry specs =
  (* Collect mode accumulates newest-first and reverses once at the end;
     the old [acc @ r.samples] was quadratic in the number of runs. *)
  let acc =
    List.fold_left
      (fun acc spec ->
        let r =
          Vm.Machine.run ~pmu ?sink ?debug_poison ?obs ~globals_init:spec.rs_globals
            ~args:spec.rs_args bin ~entry
        in
        let counters =
          match acc.r_counters with
          | None -> Some r.Vm.Machine.counters
          | Some cs ->
              Array.iteri
                (fun i c -> if i < Array.length cs then cs.(i) <- Int64.add cs.(i) c)
                r.Vm.Machine.counters;
              Some cs
        in
        Hashtbl.iter
          (fun site hist ->
            let dst =
              match Hashtbl.find_opt acc.r_values site with
              | Some dst -> dst
              | None ->
                  let dst = Hashtbl.create 8 in
                  Hashtbl.replace acc.r_values site dst;
                  dst
            in
            Hashtbl.iter
              (fun v c ->
                Hashtbl.replace dst v
                  (Int64.add c (Option.value (Hashtbl.find_opt dst v) ~default:0L)))
              hist)
          r.Vm.Machine.value_profiles;
        {
          acc with
          r_samples = List.rev_append r.Vm.Machine.samples acc.r_samples;
          r_n_samples = acc.r_n_samples + r.Vm.Machine.n_samples;
          r_cycles = Int64.add acc.r_cycles r.Vm.Machine.cycles;
          r_instrs = Int64.add acc.r_instrs r.Vm.Machine.instructions;
          r_imiss = Int64.add acc.r_imiss r.Vm.Machine.icache_misses;
          r_branches = Int64.add acc.r_branches r.Vm.Machine.taken_branches;
          r_counters = counters;
        })
      {
        r_samples = [];
        r_n_samples = 0;
        r_cycles = 0L;
        r_instrs = 0L;
        r_imiss = 0L;
        r_branches = 0L;
        r_counters = None;
        r_values = Hashtbl.create 8;
      }
      specs
  in
  { acc with r_samples = List.rev acc.r_samples }

let evaluate_opts (bin : Cg.Mach.binary) (w : workload) =
  let r = run_specs ~pmu:None bin ~entry:w.w_entry w.w_eval in
  {
    ev_cycles = r.r_cycles;
    ev_instructions = r.r_instrs;
    ev_icache_misses = r.r_imiss;
    ev_taken_branches = r.r_branches;
  }

let evaluate bin w = evaluate_opts bin w

(* ------------------------------------------------------------------ *)
(* Staged build plans: the supported surface for running variants.     *)

module Plan = struct
  type compile_spec = { c_source : string; c_probes : bool }
  type instrument_spec = { i_counters : bool; i_values : bool }

  type profile_run_spec = {
    p_config : Opt.Config.t;
    p_emit : Cg.Emit.options;
    p_pmu : Vm.Machine.pmu option;
    p_entry : string;
    p_train : run_spec list;
  }

  type correlator =
    | Corr_lines
    | Corr_probes
    | Corr_ctx of { cc_missing_frames : bool; cc_trim_threshold : int64 }
    | Corr_counters of { cn_min_count : int64; cn_min_ratio : float }

  type correlate_spec = { x_correlator : correlator }
  type preinline_spec = { pi_config : Preinliner.config option }

  type rebuild_spec = {
    r_probes : bool;
    r_prepass : Opt.Config.t option;
    r_config : Opt.Config.t;
    r_emit : Cg.Emit.options;
  }

  type evaluate_spec = { e_entry : string; e_eval : run_spec list }

  type stale_spec = { st_source : string; st_probes : bool }
  type use_spec = { u_text : string; u_flat_text : string option }

  type stage =
    | Compile of compile_spec
    | Instrument of instrument_spec
    | Profile_run of profile_run_spec
    | Correlate of correlate_spec
    | Use_profile of use_spec
    | Stale_apply of stale_spec
    | Preinline of preinline_spec
    | Rebuild of rebuild_spec
    | Evaluate of evaluate_spec

  type t = {
    pl_variant : variant;
    pl_workload : workload;
    pl_options : options;
    pl_stages : stage list;
  }

  let make ?(options = default_options) ~variant (w : workload) =
    let compile ~probes = Compile { c_source = w.w_source; c_probes = probes } in
    let profile_run ~pmu =
      Profile_run
        {
          p_config = options.opt_profiling;
          p_emit = options.emit_opts;
          p_pmu = pmu;
          p_entry = w.w_entry;
          p_train = w.w_train;
        }
    in
    let rebuild ~probes ~prepass =
      Rebuild
        {
          r_probes = probes;
          r_prepass = prepass;
          r_config = options.opt_final;
          r_emit = options.emit_opts;
        }
    in
    let evaluate = Evaluate { e_entry = w.w_entry; e_eval = w.w_eval } in
    let stages =
      match variant with
      | Nopgo ->
          [ rebuild ~probes:false ~prepass:(Some options.opt_profiling); evaluate ]
      | Autofdo ->
          [
            compile ~probes:false;
            profile_run ~pmu:(Some options.pmu);
            Correlate { x_correlator = Corr_lines };
            rebuild ~probes:false ~prepass:None;
            evaluate;
          ]
      | Csspgo_probe_only ->
          [
            compile ~probes:true;
            profile_run ~pmu:(Some options.pmu);
            Correlate { x_correlator = Corr_probes };
            rebuild ~probes:true ~prepass:None;
            evaluate;
          ]
      | Csspgo_full ->
          [
            compile ~probes:true;
            profile_run ~pmu:(Some options.pmu);
            Correlate
              {
                x_correlator =
                  Corr_ctx
                    {
                      cc_missing_frames = options.use_missing_frame_inference;
                      cc_trim_threshold = options.trim_threshold;
                    };
              };
            Preinline { pi_config = options.preinline };
            rebuild ~probes:true ~prepass:None;
            evaluate;
          ]
      | Instr_pgo ->
          [
            compile ~probes:false;
            Instrument { i_counters = true; i_values = true };
            profile_run ~pmu:None;
            Correlate
              {
                x_correlator =
                  Corr_counters { cn_min_count = 5000L; cn_min_ratio = 0.90 };
              };
            rebuild ~probes:false ~prepass:None;
            evaluate;
          ]
    in
    { pl_variant = variant; pl_workload = w; pl_options = options; pl_stages = stages }

  (* The stale-profile plan: profile build N (the workload source), then
     rebuild build N+1 ([stale_source]) against the matched profile. The
     matcher runs between correlation and pre-inlining so the pre-inliner
     decides on the trie the new build will actually replay. *)
  let make_stale ?(options = default_options) ~variant ~stale_source (w : workload) =
    (match variant with
    | Nopgo | Instr_pgo ->
        invalid_arg "Plan.make_stale: only sampling variants can go stale"
    | Autofdo | Csspgo_probe_only | Csspgo_full -> ());
    let base = make ~options ~variant w in
    let probes =
      match variant with Csspgo_probe_only | Csspgo_full -> true | _ -> false
    in
    let stages =
      List.concat_map
        (function
          | Correlate _ as st ->
              [ st; Stale_apply { st_source = stale_source; st_probes = probes } ]
          | st -> [ st ])
        base.pl_stages
    in
    { base with pl_stages = stages }

  (* Profile-injection plans: rebuild [w.w_source] against an externally
     produced (fleet-merged, train-carried) profile. The profile shape
     picks the variant so caching, annotation and quality accounting all
     behave exactly as the sampled equivalent would. *)
  let make_with_profile ?(options = default_options) ~profile ?flat (w : workload) =
    let kind = P.Text_io.kind_of profile in
    let variant =
      match kind with
      | P.Text_io.Line -> Autofdo
      | P.Text_io.Probe -> Csspgo_probe_only
      | P.Text_io.Ctx -> Csspgo_full
    in
    let probes = match kind with P.Text_io.Line -> false | _ -> true in
    let use =
      Use_profile
        {
          u_text = P.Text_io.to_string profile;
          u_flat_text =
            Option.map (fun f -> P.Text_io.to_string (P.Text_io.Probe_prof f)) flat;
        }
    in
    let rebuild =
      Rebuild
        {
          r_probes = probes;
          r_prepass = None;
          r_config = options.opt_final;
          r_emit = options.emit_opts;
        }
    in
    let evaluate = Evaluate { e_entry = w.w_entry; e_eval = w.w_eval } in
    let stages =
      match kind with
      | P.Text_io.Ctx -> [ use; Preinline { pi_config = options.preinline }; rebuild; evaluate ]
      | _ -> [ use; rebuild; evaluate ]
    in
    { pl_variant = variant; pl_workload = w; pl_options = options; pl_stages = stages }

  type hooks = {
    memo :
      'a.
      kind:string ->
      key:string list ->
      ser:('a -> string) ->
      de:(string -> 'a) ->
      (unit -> 'a) ->
      'a;
    stat : name:string -> int -> unit;
    span : 'a. name:string -> (unit -> 'a) -> 'a;
    metrics : Obs.Metrics.t;
    jobs : int;
  }

  let default_hooks =
    {
      memo = (fun ~kind:_ ~key:_ ~ser:_ ~de:_ f -> f ());
      stat = (fun ~name:_ _ -> ());
      span = (fun ~name:_ f -> f ());
      metrics = Obs.Metrics.null;
      jobs = 1;
    }

  let stage_name = function
    | Compile _ -> "compile"
    | Instrument _ -> "instrument"
    | Profile_run _ -> "profile-run"
    | Correlate _ -> "correlate"
    | Use_profile _ -> "use-profile"
    | Stale_apply _ -> "stale-apply"
    | Preinline _ -> "preinline"
    | Rebuild _ -> "rebuild"
    | Evaluate _ -> "evaluate"

  (* Rough serialized-size estimates (one row per entry), shared by the
     Correlate and Use_profile stages. *)
  let line_profile_size (lp : P.Line_profile.t) =
    Ir.Guid.Tbl.fold
      (fun _ fe acc ->
        acc + 24
        + (12 * Hashtbl.length fe.P.Line_profile.fe_lines)
        + (18 * Hashtbl.length fe.P.Line_profile.fe_calls))
      lp.P.Line_profile.funcs 0

  let probe_profile_size (pp : P.Probe_profile.t) =
    Ir.Guid.Tbl.fold
      (fun _ fe acc ->
        acc + 24
        + (10 * Hashtbl.length fe.P.Probe_profile.fe_probes)
        + (18 * Hashtbl.length fe.P.Probe_profile.fe_calls))
      pp.P.Probe_profile.funcs 0

  (* Fingerprints for cache keys: FNV-1a over the Marshal image of a spec.
     Every spec type is a closure-free record, so this is total. *)
  let fp_string s = Printf.sprintf "%Lx" (Fnv.hash_string s)
  let fp v = fp_string (Marshal.to_string v [])
  (* Marshal keeps sharing: a box reachable twice is written once and
     then referenced, so the bytes (and every key or digest over them)
     depend on physical sharing, not just on values. The instr-PGO
     correlate payload holds the VM's counter array, whose zero entries
     are one shared [0L]; fresh boxes would change its digest. *)
  let mser v = Marshal.to_string v []
  let mde s = Marshal.from_string s 0

  type instrumentation = { in_map : Instrument.t; in_vals : Instrument.values }

  (* The raw sample list is gone: the profiling run streams every sample
     through a tee sink into (a) the range/branch aggregate, (b) the
     missing-frame tail-call table, and (c) a compact flat-int log that
     context reconstruction replays once the missing table is complete.
     Peak live memory is the aggregate + log words, not boxed samples.

     The run is memoized as two cache entries. The summary is what every
     later stage reads; the sampled data is only read by a Correlate stage
     whose own entry misses, so a warm plan never decodes it. *)
  type run_summary = {
    pr_bin : Cg.Mach.binary;
    pr_n_samples : int;
    pr_log_words : int;
    pr_cycles : int64;
    pr_instr : instrumentation option;
  }

  type run_samples = {
    pr_agg : Pg.Ranges.agg;
    pr_missing : Missing_frame.t option;  (* present when the PMU sampled *)
    pr_log : Vm.Sample_log.t;
    pr_counters : int64 array option;
    pr_values : (int, (int64, int64) Hashtbl.t) Hashtbl.t;
  }

  type ref_info = {
    ri_names : string Ir.Guid.Tbl.t;
    ri_checksums : int64 Ir.Guid.Tbl.t;
  }

  type profile_data =
    | Prof_lines of P.Line_profile.t
    | Prof_probes of P.Probe_profile.t
    | Prof_ctx of { x_trie : P.Ctx_profile.t; x_flat : P.Probe_profile.t }
    | Prof_counters of {
        x_counts : (Ir.Guid.t * Ir.Types.label, int64) Hashtbl.t;
        x_dominant : (Instrument.vsite_key, int64) Hashtbl.t;
      }

  let run ?(hooks = default_hooks) (plan : t) =
    let w = plan.pl_workload in
    let src_fp = fp_string w.w_source in
    (* Reference program symbol names and pseudo-probe CFG checksums, shared
       by every correlator of this workload. Memoized under the source hash:
       identical sources across variants (and fuzz seeds) hit. *)
    let ref_info_cell = ref None in
    let ref_info () =
      match !ref_info_cell with
      | Some ri -> ri
      | None ->
          let ri =
            hooks.memo ~kind:"ref-info" ~key:[ src_fp ] ~ser:mser ~de:mde (fun () ->
                let refp = reference w in
                let names = Ir.Guid.Tbl.create 64 in
                let checksums = Ir.Guid.Tbl.create 64 in
                Ir.Program.iter_funcs
                  (fun f ->
                    Ir.Guid.Tbl.replace names f.Ir.Func.guid f.Ir.Func.name;
                    Ir.Guid.Tbl.replace checksums f.Ir.Func.guid f.Ir.Func.checksum)
                  refp;
                { ri_names = names; ri_checksums = checksums })
          in
          ref_info_cell := Some ri;
          ri
    in
    let name_of g = Ir.Guid.Tbl.find_opt (ref_info ()).ri_names g in
    let checksum_of g =
      Option.value (Ir.Guid.Tbl.find_opt (ref_info ()).ri_checksums g) ~default:0L
    in
    (* Probe/function checksums are first-class cache-key material: any CFG
       drift in the reference invalidates correlated profiles derived from
       it, so a stale cache degrades to recorrelation, never to wrong data. *)
    let checksum_digest () =
      let ri = ref_info () in
      Ir.Guid.Tbl.fold (fun g c acc -> (g, c) :: acc) ri.ri_checksums []
      |> List.sort compare
      |> List.fold_left (fun acc (g, c) -> Fnv.int64 (Fnv.int64 acc g) c) Fnv.init
      |> Printf.sprintf "%Lx"
    in
    let compile_spec = ref None in
    let instr_spec = ref None in
    let prof = ref None in
    let prof_key = ref [] in
    let profile = ref None in
    let profile_ser = ref "" in
    let profile_size = ref 0 in
    let recon = ref None in
    let decisions = ref [] in
    let stales = ref [] in
    (* Source the final build compiles; Stale_apply retargets it at the
       drifted "version N+1" while the profile stays from version N. *)
    let rebuild_source = ref w.w_source in
    let stale_report = ref None in
    let annotated = ref None in
    let final = ref None in
    let final_key = ref [] in
    let eval_out = ref None in
    let exec = function
      | Compile cs -> compile_spec := Some cs
      | Instrument is -> instr_spec := Some is
      | Profile_run ps ->
          (* The version elements keep marshaled entries of an older shape
             from being unsafely decoded. Correlate keys extend [prof_key],
             which still names the single entry the run once was, so
             correlated profiles cached before the split stay valid. *)
          let key = [ src_fp; fp !compile_spec; fp !instr_spec; fp ps ] in
          prof_key := "stream-v2" :: key;
          let run_profiling () =
            let cs =
              match !compile_spec with
              | Some cs -> cs
              | None -> invalid_arg "Plan.run: Profile_run before Compile"
            in
            let prog = Frontend.Lower.compile cs.c_source in
            if cs.c_probes then Pseudo_probe.insert prog;
            let instr =
              match !instr_spec with
              | None -> None
              | Some is ->
                  let im =
                    if is.i_counters then Instrument.instrument prog
                    else { Instrument.counter_of = Hashtbl.create 1; n_counters = 0 }
                  in
                  let vals =
                    if is.i_values then Instrument.instrument_values prog
                    else { Instrument.site_of = Hashtbl.create 1; n_sites = 0 }
                  in
                  Some { in_map = im; in_vals = vals }
            in
            Opt.Pass.optimize ~config:ps.p_config prog;
            let bin = Cg.Emit.emit ~options:ps.p_emit prog in
            let agg = Pg.Ranges.create () in
            let log = Vm.Sample_log.create () in
            let mb =
              match ps.p_pmu with
              | Some _ -> Some (Missing_frame.start ~obs:hooks.metrics (Pg.Bindex.create bin))
              | None -> None
            in
            let sink =
              {
                Vm.Machine.on_sample =
                  (fun ~lbr ~lbr_len ~stack ~stack_len ->
                    Pg.Ranges.feed agg ~lbr ~lbr_len;
                    (match mb with
                    | Some mb -> Missing_frame.feed mb ~lbr ~lbr_len
                    | None -> ());
                    Vm.Sample_log.add log ~lbr ~lbr_len ~stack ~stack_len);
                on_labels = Vm.Sample_log.set_label log;
              }
            in
            let r =
              run_specs ~pmu:ps.p_pmu ~sink ~obs:hooks.metrics bin ~entry:ps.p_entry ps.p_train
            in
            Vm.Sample_log.compact log;
            ( {
                pr_bin = bin;
                pr_n_samples = r.r_n_samples;
                pr_log_words = Vm.Sample_log.words log;
                pr_cycles = r.r_cycles;
                pr_instr = instr;
              },
              {
                pr_agg = agg;
                pr_missing = Option.map Missing_frame.finish mb;
                pr_log = log;
                pr_counters = r.r_counters;
                pr_values = r.r_values;
              } )
          in
          let fresh = ref None in
          let summary =
            hooks.memo ~kind:"profile-run" ~key:("run-summary-v1" :: key) ~ser:mser ~de:mde
              (fun () ->
                let summary, samples = run_profiling () in
                fresh := Some samples;
                summary)
          in
          (* On a summary hit whose samples entry is gone, the profiling
             run reruns; it is deterministic, so it rebuilds equal data. *)
          let samples =
            lazy
              (hooks.memo ~kind:"profile-samples" ~key:("run-samples-v1" :: key) ~ser:mser
                 ~de:mde (fun () ->
                   match !fresh with Some samples -> samples | None -> snd (run_profiling ())))
          in
          hooks.stat ~name:"profile-run.samples" summary.pr_n_samples;
          hooks.stat ~name:"profile-run.log-words" summary.pr_log_words;
          prof := Some (summary, samples)
      | Correlate { x_correlator } ->
          let po, samples =
            match !prof with
            | Some p -> p
            | None -> invalid_arg "Plan.run: Correlate before Profile_run"
          in
          (* Forced only inside the memo thunks below, i.e. on a miss. *)
          let sampled () = Lazy.force samples in
          (* Dense per-binary index for the streaming correlators; built
             once per Correlate stage, shared by every consumer below. *)
          let index = lazy (Pg.Bindex.create po.pr_bin) in
          (* Correlated profiles cache as canonical Text_io dumps; the memo
             thunk also hands back the freshly built value so the cache-off
             path never round-trips through text. *)
          let memo_profile ~tag ~kind_p build =
            let built = ref None in
            let text =
              hooks.memo ~kind:"correlate"
                ~key:(!prof_key @ [ tag; checksum_digest () ])
                ~ser:Fun.id ~de:Fun.id
                (fun () ->
                  let p = build () in
                  built := Some p;
                  P.Text_io.to_string p)
            in
            let p = match !built with Some p -> p | None -> P.Text_io.read kind_p text in
            (p, text)
          in
          (* Probe-level (context-merged) correlation, shared between
             [Corr_probes] and the flat quality baseline of [Corr_ctx]. *)
          let probe_flat () =
            match
              memo_profile ~tag:"probes" ~kind_p:P.Text_io.Probe (fun () ->
                  P.Text_io.Probe_prof
                    (Probe_corr.correlate_agg ~name_of ~index:(Lazy.force index)
                       ~checksum_of ~obs:hooks.metrics po.pr_bin (sampled ()).pr_agg))
            with
            | P.Text_io.Probe_prof pp, text -> (pp, text)
            | _ -> assert false
          in
          (match x_correlator with
          | Corr_lines ->
              let lp, text =
                match
                  memo_profile ~tag:"lines" ~kind_p:P.Text_io.Line (fun () ->
                      P.Text_io.Line_prof
                        (Pg.Dwarf_corr.correlate_agg ~name_of ~index:(Lazy.force index)
                           ~obs:hooks.metrics po.pr_bin (sampled ()).pr_agg))
                with
                | P.Text_io.Line_prof lp, text -> (lp, text)
                | _ -> assert false
              in
              profile := Some (Prof_lines lp);
              profile_ser := text;
              profile_size := line_profile_size lp
          | Corr_probes ->
              let pp, text = probe_flat () in
              profile := Some (Prof_probes pp);
              profile_ser := text;
              profile_size := probe_profile_size pp
          | Corr_ctx { cc_missing_frames; cc_trim_threshold } ->
              let built = ref None in
              let text, stats =
                hooks.memo ~kind:"correlate"
                  ~key:
                    (!prof_key
                    @ [ "ctx"; fp (cc_missing_frames, cc_trim_threshold); checksum_digest () ])
                  ~ser:mser ~de:mde
                  (fun () ->
                    (* The tail-call table was built online during the
                       profiling run; reconstruction replays the compact
                       log against it (Algorithm 1 needs the complete table
                       before the first sample is attributed). With
                       [hooks.jobs > 1] the replay shards on chunk
                       boundaries and reduces under the Merge laws — the
                       sharded result is byte-identical to serial, so the
                       memo key above deliberately excludes the job
                       count. *)
                    let sm = sampled () in
                    let missing = if cc_missing_frames then sm.pr_missing else None in
                    let trie, stats =
                      if hooks.jobs > 1 then
                        Par_corr.reconstruct ~name_of ?missing ~checksum_of
                          ~obs:hooks.metrics ~metrics:hooks.metrics
                          ~jobs:hooks.jobs (Lazy.force index)
                          (Par_corr.shards_of_log sm.pr_log)
                      else begin
                        let st =
                          Ctx_reconstruct.start ~name_of ?missing ~checksum_of
                            ~obs:hooks.metrics (Lazy.force index)
                        in
                        Vm.Sample_log.iter sm.pr_log
                          (fun ~lbr ~lbr_len ~stack ~stack_len ->
                            Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
                        Ctx_reconstruct.finish st
                      end
                    in
                    if Int64.compare cc_trim_threshold 0L > 0 then
                      ignore (P.Ctx_profile.trim_cold trie ~threshold:cc_trim_threshold);
                    built := Some trie;
                    (P.Text_io.to_string (P.Text_io.Ctx_prof trie), stats))
              in
              let trie =
                match !built with
                | Some trie -> trie
                | None -> (
                    match P.Text_io.read P.Text_io.Ctx text with
                    | P.Text_io.Ctx_prof trie -> trie
                    | _ -> assert false)
              in
              let flat, _ = probe_flat () in
              (* Reconstruction stats fire through the hook even on cache
                 hits — they are part of the memoized value, so the numbers
                 a warm run reports match the cold run that built it. *)
              hooks.stat ~name:"correlate.recon-samples" stats.Ctx_reconstruct.st_samples;
              hooks.stat ~name:"correlate.recon-dropped"
                stats.Ctx_reconstruct.st_dropped_misaligned;
              hooks.stat ~name:"correlate.gaps-resolved"
                stats.Ctx_reconstruct.st_gaps_resolved;
              hooks.stat ~name:"correlate.gaps-failed"
                stats.Ctx_reconstruct.st_gaps_failed;
              recon := Some stats;
              profile := Some (Prof_ctx { x_trie = trie; x_flat = flat });
              profile_ser := text
          | Corr_counters { cn_min_count; cn_min_ratio } ->
              let inst =
                match po.pr_instr with
                | Some i -> i
                | None -> invalid_arg "Plan.run: Corr_counters without Instrument"
              in
              let v =
                hooks.memo ~kind:"correlate"
                  ~key:(!prof_key @ [ "counters"; fp (cn_min_count, cn_min_ratio) ])
                  ~ser:mser ~de:mde
                  (fun () ->
                    let sm = sampled () in
                    let counts =
                      Instrument.block_counts inst.in_map
                        (Option.value sm.pr_counters
                           ~default:(Array.make inst.in_map.Instrument.n_counters 0L))
                    in
                    let dominant =
                      Instrument.dominant_values inst.in_vals sm.pr_values
                        ~min_count:cn_min_count ~min_ratio:cn_min_ratio
                    in
                    (counts, dominant))
              in
              let counts, dominant = v in
              profile := Some (Prof_counters { x_counts = counts; x_dominant = dominant });
              profile_ser := mser v;
              profile_size := 8 * inst.in_map.Instrument.n_counters);
          hooks.stat ~name:"correlate.profile-bytes" (String.length !profile_ser)
      | Use_profile us ->
          (* Adopt an externally merged profile as this plan's correlated
             profile. The text is already canonical, so it doubles as the
             serialized form the caches key on. *)
          (match P.Text_io.of_string us.u_text with
          | P.Text_io.Line_prof lp ->
              profile := Some (Prof_lines lp);
              profile_size := line_profile_size lp
          | P.Text_io.Probe_prof pp ->
              profile := Some (Prof_probes pp);
              profile_size := probe_profile_size pp
          | P.Text_io.Ctx_prof trie ->
              let flat =
                match us.u_flat_text with
                | Some t -> (
                    match P.Text_io.read P.Text_io.Probe t with
                    | P.Text_io.Probe_prof pp -> pp
                    | _ -> assert false)
                | None -> P.Merge.flatten_ctx trie
              in
              profile := Some (Prof_ctx { x_trie = trie; x_flat = flat });
              profile_size := P.Ctx_profile.size_bytes trie);
          profile_ser := us.u_text;
          hooks.stat ~name:"correlate.profile-bytes" (String.length !profile_ser)
      | Stale_apply ss ->
          (* The match target is the *pre-optimization* IR of the new build,
             probed for the probe variants so checksums and callsite ids
             exist to anchor on. *)
          let target = Frontend.Lower.compile ss.st_source in
          if ss.st_probes then Pseudo_probe.insert target;
          let rep =
            match !profile with
            | Some (Prof_lines lp) ->
                let lp', rep = Stale_match.match_line ~obs:hooks.metrics ~target lp in
                profile := Some (Prof_lines lp');
                rep
            | Some (Prof_probes pp) ->
                let pp', rep = Stale_match.match_probe ~obs:hooks.metrics ~target pp in
                profile := Some (Prof_probes pp');
                rep
            | Some (Prof_ctx { x_trie; x_flat }) ->
                let trie', rep = Stale_match.match_ctx ~obs:hooks.metrics ~target x_trie in
                (* The flat quality baseline must survive the same drift; its
                   verdicts would double-count the trie's, so no obs here. *)
                let flat', _ = Stale_match.match_probe ~target x_flat in
                profile := Some (Prof_ctx { x_trie = trie'; x_flat = flat' });
                rep
            | Some (Prof_counters _) | None ->
                invalid_arg "Plan.run: Stale_apply requires a correlated sampling profile"
          in
          stale_report := Some rep;
          rebuild_source := ss.st_source;
          hooks.stat ~name:"stale.counts-recovered"
            (Int64.to_int rep.Stale_match.r_recovered);
          hooks.stat ~name:"stale.counts-dropped"
            (Int64.to_int rep.Stale_match.r_dropped_counts)
      | Preinline { pi_config } -> (
          match !profile with
          | Some (Prof_ctx { x_trie; _ }) ->
              (match pi_config with
              | Some cfg ->
                  let sizes =
                    match !prof with
                    | Some (po, _) -> Size_extract.compute po.pr_bin
                    | None ->
                        (* Injected-profile plan (Use_profile): no profiling
                           binary in this plan. Rebuild the probed
                           profiling-shape binary of the rebuild source —
                           the shape fleet instances were sampling — for
                           the inline cost extraction. *)
                        hooks.memo ~kind:"preinline-sizes"
                          ~key:
                            [
                              fp_string !rebuild_source;
                              fp (plan.pl_options.opt_profiling, plan.pl_options.emit_opts);
                            ]
                          ~ser:mser ~de:mde
                          (fun () ->
                            let prog = Frontend.Lower.compile !rebuild_source in
                            Pseudo_probe.insert prog;
                            Opt.Pass.optimize ~config:plan.pl_options.opt_profiling prog;
                            Size_extract.compute
                              (Cg.Emit.emit ~options:plan.pl_options.emit_opts prog))
                  in
                  decisions := Preinliner.run ~config:cfg x_trie sizes
              | None ->
                  (* Without the pre-inliner every context merges into base. *)
                  ignore (P.Ctx_profile.trim_cold x_trie ~threshold:Int64.max_int);
                  decisions := []);
              profile_size := P.Ctx_profile.size_bytes x_trie
          | _ -> () (* no context trie: nothing to pre-inline *))
      | Rebuild rs ->
          let prog = Frontend.Lower.compile !rebuild_source in
          if rs.r_probes then Pseudo_probe.insert prog;
          (match rs.r_prepass with
          | Some config -> Opt.Pass.optimize ~config prog
          | None -> ());
          (match !profile with
          | None -> ()
          | Some (Prof_lines lp) -> Annotate.lines lp prog
          | Some (Prof_probes pp) -> stales := Annotate.probes pp prog
          | Some (Prof_ctx { x_trie; _ }) -> stales := Annotate.ctx x_trie prog
          | Some (Prof_counters { x_counts; x_dominant }) ->
              Annotate.exact x_counts prog;
              (* Value-profile-guided divisor specialization:
                 instrumentation-only. *)
              ignore (Value_spec.apply prog x_dominant));
          (* The annotated pre-opt IR doubles as the quality oracle. For
             context profiles it must share the truth CFG, so it cannot be
             the replayed (inlined) IR: annotate a fresh copy with the flat
             (context-merged) probe profile from the same samples — the same
             correlation mechanism Table I's "CSSPGO" row measures. *)
          (match !profile with
          | Some (Prof_ctx { x_flat; _ }) ->
              let qp = Frontend.Lower.compile !rebuild_source in
              Pseudo_probe.insert qp;
              ignore (Annotate.probes x_flat qp);
              annotated := Some qp
          | _ -> annotated := Some (Ir.Program.copy prog));
          (* Key the whole-binary cache on the merged per-function profile
             fingerprint where one exists: equal fingerprints mean no
             function drifted, so a rebuild against a refreshed-but-equal
             profile reuses the cached artifact outright (0 recompiles).
             Exact counter profiles keep the raw text hash. *)
          let profile_fp =
            match !profile with
            | Some (Prof_lines lp) ->
                Printf.sprintf "pfp:%Lx" (P.Fingerprint.merged (P.Text_io.Line_prof lp))
            | Some (Prof_probes pp) ->
                Printf.sprintf "pfp:%Lx" (P.Fingerprint.merged (P.Text_io.Probe_prof pp))
            | Some (Prof_ctx { x_trie; _ }) ->
                Printf.sprintf "pfp:%Lx" (P.Fingerprint.merged (P.Text_io.Ctx_prof x_trie))
            | Some (Prof_counters _) | None -> fp_string !profile_ser
          in
          let key = [ fp_string !rebuild_source; fp rs; profile_fp ] in
          final_key := key;
          let bin =
            hooks.memo ~kind:"final-build" ~key ~ser:mser ~de:mde (fun () ->
                (* The whole-binary entry missed: the profile (or source)
                   drifted. Run the program-level pipeline prefix, then
                   recompile per function through a second-level cache
                   keyed on each function's post-inline annotated image —
                   functions the drift did not reach digest identically
                   and splice their cached optimized bodies back in. *)
                let config = rs.r_config in
                if Opt.Pass.prepare ~config prog then begin
                  let steps = Opt.Pass.steps_of_config config in
                  let pipeline_fp = fp (config, steps) in
                  let recompiled = ref 0 and reused = ref 0 in
                  Ir.Program.iter_funcs
                    (fun f ->
                      let fkey =
                        [
                          "fv1";
                          pipeline_fp;
                          Printf.sprintf "%Lx" f.Ir.Func.guid;
                          Printf.sprintf "%Lx" (Ir.Func.digest f);
                        ]
                      in
                      let fresh = ref false in
                      let f' =
                        hooks.memo ~kind:"func-opt" ~key:fkey ~ser:mser ~de:mde
                          (fun () ->
                            fresh := true;
                            Opt.Pass.optimize_func_with ~config ~steps ~program:prog f;
                            f)
                      in
                      if !fresh then incr recompiled
                      else begin
                        incr reused;
                        Ir.Program.add_func prog f'
                      end)
                    prog;
                  hooks.stat ~name:"rebuild.funcs-recompiled" !recompiled;
                  hooks.stat ~name:"rebuild.funcs-reused" !reused;
                  if config.Opt.Config.verify_between_passes then begin
                    match Ir.Verify.program prog with
                    | [] -> ()
                    | errs ->
                        failwith
                          (Format.asprintf "@[<v>after incremental pipeline:@ %a@]"
                             (Format.pp_print_list Ir.Verify.pp_error)
                             errs)
                  end
                end;
                Cg.Emit.emit ~options:rs.r_emit prog)
          in
          final := Some bin
      | Evaluate es ->
          let bin =
            match !final with
            | Some bin -> bin
            | None -> invalid_arg "Plan.run: Evaluate before Rebuild"
          in
          let ev =
            hooks.memo ~kind:"evaluate" ~key:(!final_key @ [ fp es ]) ~ser:mser ~de:mde
              (fun () ->
                let r =
                  run_specs ~pmu:None ~obs:hooks.metrics bin ~entry:es.e_entry es.e_eval
                in
                {
                  ev_cycles = r.r_cycles;
                  ev_instructions = r.r_instrs;
                  ev_icache_misses = r.r_imiss;
                  ev_taken_branches = r.r_branches;
                })
          in
          eval_out := Some ev
    in
    List.iter
      (fun st -> hooks.span ~name:(stage_name st) (fun () -> exec st))
      plan.pl_stages;
    match (!final, !eval_out, !annotated) with
    | Some bin, Some ev, Some ann ->
        {
          o_variant = plan.pl_variant;
          o_eval = ev;
          o_text_size = bin.Cg.Mach.text_size;
          o_debug_size = bin.Cg.Mach.debug_size;
          o_probe_meta_size = bin.Cg.Mach.probe_meta_size;
          o_profiling_cycles = (match !prof with Some (po, _) -> po.pr_cycles | None -> 0L);
          o_annotated = ann;
          o_stales = !stales;
          o_recon_stats = !recon;
          o_preinline_decisions = !decisions;
          o_binary = bin;
          o_profile_size = !profile_size;
          o_stale_report = !stale_report;
        }
    | _ -> invalid_arg "Plan.run: plan must end with Rebuild and Evaluate stages"
end

let run_variant ?options variant (w : workload) =
  Plan.run (Plan.make ?options ~variant w)

(* ------------------------------------------------------------------ *)
(* Byte-identity oracle: the same profiling build and training inputs,
   pushed through either the materialized (sample-list) pipeline or the
   streaming (sink + aggregate + log-replay) pipeline, must produce equal
   canonical Text_io dumps. The VM is deterministic, so running it twice
   with different consumers observes the identical sample stream. *)

let profile_pipeline_texts ?(options = default_options) ~streaming variant (w : workload) =
  match variant with
  | Nopgo | Instr_pgo -> []
  | Autofdo | Csspgo_probe_only | Csspgo_full ->
      let probes = match variant with Autofdo -> false | _ -> true in
      let refp = reference w in
      let names = Ir.Guid.Tbl.create 64 in
      let checksums = Ir.Guid.Tbl.create 64 in
      Ir.Program.iter_funcs
        (fun f ->
          Ir.Guid.Tbl.replace names f.Ir.Func.guid f.Ir.Func.name;
          Ir.Guid.Tbl.replace checksums f.Ir.Func.guid f.Ir.Func.checksum)
        refp;
      let name_of g = Ir.Guid.Tbl.find_opt names g in
      let checksum_of g = Option.value (Ir.Guid.Tbl.find_opt checksums g) ~default:0L in
      let prog = compile w in
      if probes then Pseudo_probe.insert prog;
      Opt.Pass.optimize ~config:options.opt_profiling prog;
      let bin = Cg.Emit.emit ~options:options.emit_opts prog in
      let trim trie =
        if Int64.compare options.trim_threshold 0L > 0 then
          ignore (P.Ctx_profile.trim_cold trie ~threshold:options.trim_threshold)
      in
      if streaming then begin
        let ix = Pg.Bindex.create bin in
        let agg = Pg.Ranges.create () in
        let log = Vm.Sample_log.create () in
        let mb = Missing_frame.start ix in
        let sink =
          {
            Vm.Machine.on_sample =
              (fun ~lbr ~lbr_len ~stack ~stack_len ->
                Pg.Ranges.feed agg ~lbr ~lbr_len;
                Missing_frame.feed mb ~lbr ~lbr_len;
                Vm.Sample_log.add log ~lbr ~lbr_len ~stack ~stack_len);
            on_labels = Vm.Sample_log.set_label log;
          }
        in
        (* debug_poison: the oracle also proves our own sinks never alias
           the scratch buffers. *)
        ignore
          (run_specs ~pmu:(Some options.pmu) ~sink ~debug_poison:true bin
             ~entry:w.w_entry w.w_train);
        let flat_probes () =
          P.Text_io.to_string
            (P.Text_io.Probe_prof
               (Probe_corr.correlate_agg ~name_of ~index:ix ~checksum_of bin agg))
        in
        match variant with
        | Autofdo ->
            [
              ( "lines",
                P.Text_io.to_string
                  (P.Text_io.Line_prof (Pg.Dwarf_corr.correlate_agg ~name_of ~index:ix bin agg))
              );
            ]
        | Csspgo_probe_only -> [ ("probes", flat_probes ()) ]
        | _ ->
            let missing =
              if options.use_missing_frame_inference then Some (Missing_frame.finish mb)
              else None
            in
            let st = Ctx_reconstruct.start ~name_of ?missing ~checksum_of ix in
            Vm.Sample_log.iter log (fun ~lbr ~lbr_len ~stack ~stack_len ->
                Ctx_reconstruct.feed st ~lbr ~lbr_len ~stack ~stack_len);
            let trie, _ = Ctx_reconstruct.finish st in
            trim trie;
            [
              ("ctx", P.Text_io.to_string (P.Text_io.Ctx_prof trie));
              ("probes", flat_probes ());
            ]
      end
      else begin
        let r = run_specs ~pmu:(Some options.pmu) bin ~entry:w.w_entry w.w_train in
        let samples = r.r_samples in
        let flat_probes () =
          P.Text_io.to_string
            (P.Text_io.Probe_prof (Probe_corr.correlate ~name_of ~checksum_of bin samples))
        in
        match variant with
        | Autofdo ->
            [
              ( "lines",
                P.Text_io.to_string
                  (P.Text_io.Line_prof (Pg.Dwarf_corr.correlate ~name_of bin samples)) );
            ]
        | Csspgo_probe_only -> [ ("probes", flat_probes ()) ]
        | _ ->
            let missing =
              if options.use_missing_frame_inference then Some (Missing_frame.build bin samples)
              else None
            in
            let trie, _ = Ctx_reconstruct.reconstruct ~name_of ?missing ~checksum_of bin samples in
            trim trie;
            [
              ("ctx", P.Text_io.to_string (P.Text_io.Ctx_prof trie));
              ("probes", flat_probes ());
            ]
      end
