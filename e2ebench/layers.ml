(* The traced run's instruments: the per-layer metric catalogue, the
   traced plan hooks, the fleet trace reader and the fleet serve replay. *)

module Fnv = Csspgo_support.Fnv
module Vm = Csspgo_vm
module P = Csspgo_profile
module D = Csspgo_core.Driver
module Plan = D.Plan
module Cache = Csspgo_orchestrator.Cache
module Fl = Csspgo_fleet
module Obs = Csspgo_obs
module Json = Obs.Json

(* --- catalogue ---------------------------------------------------------------- *)

(* Timed layers: each "<name>.s" (self time) has a "<name>.alloc_mwords"
   twin taken at the same span boundaries. Fleet phases come from the
   library's own spans, which carry no allocation counts; their twin is
   the whole train's. *)
let timed_layers =
  [
    "stage.profile-run"; "stage.correlate"; "stage.preinline"; "stage.rebuild"; "stage.evaluate";
    "stage.use-profile"; "vm.sampled"; "vm.eval"; "corr.ctx"; "corr.probe"; "corr.missing_frame";
    "corr.par"; "profile.trim"; "profile.text_write"; "profile.text_read"; "profile.merge";
    "profile.fingerprint"; "orchestrator.find"; "orchestrator.store"; "orchestrator.decode";
    "sample_log.add"; "sample_log.encode"; "sample_log.decode"; "fleet.train"; "profgen.ranges";
    "profgen.dwarf_corr"; "profgen.bindex"; "preinliner"; "annotate"; "frontend"; "opt"; "codegen";
  ]

let fleet_phases = [ "build"; "serve"; "drain"; "correlate"; "merge"; "rebuild" ]

(* (name, unit, better) of every other per-layer metric. *)
let other_metrics =
  List.map (fun p -> ("fleet." ^ p ^ ".s", "s", "lower")) fleet_phases
  @ [
      ("stage.coverage", "ratio", "higher");
      ("trace.overhead_pct", "%", "lower");
      ("vm.instructions", "count", "lower");
      ("vm.minstr_per_s", "Minstr/s", "higher");
      ("vm.samples", "count", "higher");
      ("vm.alloc_words_per_kinstr", "words/kinstr", "lower");
      ("corr.ctx.us_per_sample", "us", "lower");
      ("corr.ctx.samples", "count", "higher");
      ("corr.ctx.kept_ratio", "ratio", "higher");
      ("corr.gap_resolved_ratio", "ratio", "higher");
      ("profile.text_bytes", "B", "lower");
      ("orchestrator.hits", "count", "higher");
      ("orchestrator.misses", "count", "lower");
      ("orchestrator.hit_ratio", "ratio", "higher");
      ("orchestrator.bytes_read", "B", "lower");
      ("orchestrator.bytes_written", "B", "lower");
      ("sample_log.bytes", "B", "lower");
      ("sample_log.decode_mb_per_s", "MB/s", "higher");
      ("fleet.samples", "count", "higher");
      ("fleet.batches", "count", "lower");
      ("fleet.bytes", "B", "lower");
      ("sched.tasks", "count", "lower");
      ("sched.steals", "count", "lower");
      ("sched.queue_depth", "count", "lower");
      ("preinliner.decisions", "count", "higher");
      ("opt.funcs", "count", "lower");
      ("codegen.text_bytes", "B", "lower");
      ("host.nproc", "count", "higher");
      ("host.cpu_loop_ms", "ms", "lower");
      ("host.cpu_loop_spread", "ratio", "lower");
    ]

let catalogue =
  List.concat_map
    (fun l -> [ (l ^ ".s", "s", "lower"); (l ^ ".alloc_mwords", "Mwords", "lower") ])
    timed_layers
  @ other_metrics

(* A workload fills the layers it runs; the rest read 0. *)
type values = (string, float) Hashtbl.t

let set (v : values) name x = Hashtbl.replace v name (if Float.is_finite x then x else 0.0)

(* Self time and self allocation of a recorder's spans. *)
let set_self v (m : Meter.t) layer =
  set v (layer ^ ".s") (Meter.self_s m layer);
  set v (layer ^ ".alloc_mwords") (Meter.self_words m layer /. 1e6)

let set_total v (m : Meter.t) layer =
  set v (layer ^ ".s") (Meter.total_s m layer);
  set v (layer ^ ".alloc_mwords") (Meter.total_words m layer /. 1e6)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- traced plan hooks ------------------------------------------------------- *)

type orch = {
  mutable hits : int;
  mutable misses : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let orch () = { hits = 0; misses = 0; bytes_read = 0; bytes_written = 0 }

(* Stage spans go to an [Obs.Trace] track and to the recorder; the memo
   hook runs the cache's find / decode / store under their own spans, with
   [Cache.memo]'s semantics (an undecodable payload recomputes); the stat
   hook sums the plan's counters; the metrics registry is live. Every
   correlate-stage payload is digested into [digest]. *)
let traced_hooks ~(m : Meter.t) ~track ~reg ~stats ~(o : orch) ~digest cache =
  let record s = digest := Fnv.int64 !digest (Fnv.hash_string s) in
  {
    Plan.memo =
      (fun ~kind ~key ~ser ~de f ->
        let recompute () =
          let v = f () in
          Meter.span m "orchestrator.store" (fun () ->
              let s = ser v in
              if kind = "correlate" then record s;
              o.misses <- o.misses + 1;
              o.bytes_written <- o.bytes_written + String.length s;
              Cache.store cache ~kind ~key s);
          v
        in
        match Meter.span m "orchestrator.find" (fun () -> Cache.find cache ~kind ~key) with
        | None -> recompute ()
        | Some s -> (
            match Meter.span m "orchestrator.decode" (fun () -> de s) with
            | v ->
                if kind = "correlate" then record s;
                o.hits <- o.hits + 1;
                o.bytes_read <- o.bytes_read + String.length s;
                v
            | exception _ -> recompute ()));
    stat =
      (fun ~name n ->
        Hashtbl.replace stats name (n + Option.value (Hashtbl.find_opt stats name) ~default:0));
    span =
      (fun ~name f ->
        Obs.Trace.with_span track name (fun () -> Meter.span m ("stage." ^ name) f));
    metrics = reg;
    jobs = 1;
  }

let stage_names = [ "compile"; "instrument"; "profile-run"; "correlate"; "use-profile"; "preinline"; "rebuild"; "evaluate" ]

(* Stage figures of a traced pass: inclusive stage times, and the share of
   plan wall time the stage spans cover. *)
let set_stages v (m : Meter.t) =
  List.iter (fun s -> set_total v m ("stage." ^ s)) stage_names;
  let staged = List.fold_left (fun a s -> a +. Meter.total_s m ("stage." ^ s)) 0.0 stage_names in
  set v "stage.coverage" (ratio staged (Meter.total_s m "plan"))

let set_orchestrator v (ms : Meter.t list) (o : orch) =
  List.iter
    (fun l ->
      let sum f = List.fold_left (fun a m -> a +. f m ("orchestrator." ^ l)) 0.0 ms in
      set v ("orchestrator." ^ l ^ ".s") (sum Meter.self_s);
      set v ("orchestrator." ^ l ^ ".alloc_mwords") (sum Meter.self_words /. 1e6))
    [ "find"; "store"; "decode" ];
  set v "orchestrator.hits" (float_of_int o.hits);
  set v "orchestrator.misses" (float_of_int o.misses);
  set v "orchestrator.hit_ratio" (ratio (float_of_int o.hits) (float_of_int (o.hits + o.misses)));
  set v "orchestrator.bytes_read" (float_of_int o.bytes_read);
  set v "orchestrator.bytes_written" (float_of_int o.bytes_written)

(* Layer figures of a plan replay. *)
let set_replay v (r : Meter.t) (c : Replay.counts) =
  List.iter (set_self v r)
    [
      "vm.sampled"; "vm.eval"; "corr.ctx"; "corr.probe"; "corr.missing_frame"; "profile.trim";
      "profile.text_write"; "profile.text_read"; "profile.fingerprint"; "sample_log.add";
      "profgen.ranges"; "profgen.dwarf_corr"; "profgen.bindex"; "preinliner"; "annotate";
      "frontend"; "opt"; "codegen";
    ];
  let vm_s = Meter.self_s r "vm.sampled" +. Meter.self_s r "vm.eval" in
  let vm_words = Meter.self_words r "vm.sampled" +. Meter.self_words r "vm.eval" in
  let instrs = Int64.to_float c.Replay.vm_instructions in
  set v "vm.instructions" instrs;
  set v "vm.samples" (float_of_int c.Replay.vm_samples);
  set v "vm.minstr_per_s" (ratio instrs vm_s /. 1e6);
  set v "vm.alloc_words_per_kinstr" (ratio vm_words (instrs /. 1000.0));
  let samples = float_of_int c.Replay.ctx_samples in
  set v "corr.ctx.samples" samples;
  set v "corr.ctx.us_per_sample" (ratio (Meter.self_s r "corr.ctx") samples *. 1e6);
  set v "corr.ctx.kept_ratio" (ratio (samples -. float_of_int c.Replay.ctx_dropped) samples);
  set v "corr.gap_resolved_ratio"
    (ratio (float_of_int c.Replay.gaps_resolved)
       (float_of_int (c.Replay.gaps_resolved + c.Replay.gaps_failed)));
  set v "profile.text_bytes" (float_of_int c.Replay.text_bytes);
  set v "preinliner.decisions" (float_of_int c.Replay.decisions);
  set v "opt.funcs" (float_of_int c.Replay.opt_funcs);
  set v "codegen.text_bytes" (float_of_int c.Replay.code_bytes)

(* --- fleet ---------------------------------------------------------------------- *)

(* Wall time of each "fleet-<phase>" span of a train's trace. Every such
   span sits alone on its own track, so its begin and end events are
   adjacent in the export. *)
let fleet_phase_times tr =
  let times = Hashtbl.create 8 and open_ = Hashtbl.create 8 in
  let field k e = Json.member k e in
  (match Json.member "traceEvents" (Obs.Trace.to_json tr) with
  | Some (Json.List events) ->
      List.iter
        (fun e ->
          match (field "name" e, field "ph" e, field "ts" e) with
          | Some (Json.String name), Some (Json.String ph), Some (Json.Int ts)
            when String.length name > 6 && String.sub name 0 6 = "fleet-" -> (
              let phase = String.sub name 6 (String.length name - 6) in
              match ph with
              | "B" -> Hashtbl.replace open_ phase ts
              | "E" ->
                  let t0 = Option.value (Hashtbl.find_opt open_ phase) ~default:ts in
                  Hashtbl.replace times phase
                    (Option.value (Hashtbl.find_opt times phase) ~default:0.0
                    +. (float_of_int (ts - t0) /. 1e6))
              | _ -> ())
          | _ -> ())
        events
  | _ -> ());
  fun phase -> Option.value (Hashtbl.find_opt times phase) ~default:0.0

(* The sample-log path of the fleet, replayed for generation 0's canary:
   one instance serves the whole request stream with the PMU on, records
   into CSLG batches (flushed every [f_batch_requests] requests), the
   batches decode back into chunks, and the chunks go through the sharded
   correlator. At duty 1.0 the stream is the cohort's reassembled log, so
   the profile must equal the one the train correlated for that version.
   Returns the replayed profile and the bytes encoded. *)
let serve_replay (r : Meter.t) (c : Replay.counts) (cfg : Fl.Train.config) (w : D.workload) ~source =
  let sim = cfg.Fl.Train.t_fleet in
  let options = sim.Fl.Sim.f_options in
  let built = Fl.Build.profiling_build ~options ~shape:sim.Fl.Sim.f_shape ~source in
  let requests = List.concat (List.init sim.Fl.Sim.f_request_copies (fun _ -> w.D.w_train)) in
  let log = ref (Vm.Sample_log.create ()) and blobs = ref [] and pending = ref 0 in
  let flush () =
    if !pending > 0 then begin
      if Vm.Sample_log.n_samples !log > 0 then begin
        Vm.Sample_log.compact !log;
        blobs := Meter.span r "sample_log.encode" (fun () -> Vm.Sample_log.encode !log) :: !blobs
      end;
      log := Vm.Sample_log.create ();
      pending := 0
    end
  in
  List.iter
    (fun (spec : D.run_spec) ->
      let l = !log in
      let sink =
        {
          Vm.Machine.on_sample =
            (fun ~lbr ~lbr_len ~stack ~stack_len ->
              Meter.span ~keep:false r "sample_log.add" (fun () ->
                  Vm.Sample_log.add l ~lbr ~lbr_len ~stack ~stack_len));
          on_labels = Vm.Sample_log.set_label l;
        }
      in
      let res =
        Meter.span r "vm.sampled" (fun () ->
            Vm.Machine.run ~pmu:(Some options.D.pmu) ~sink ~globals_init:spec.D.rs_globals
              ~args:spec.D.rs_args built.Fl.Build.vb_bin ~entry:w.D.w_entry)
      in
      c.Replay.vm_instructions <- Int64.add c.Replay.vm_instructions res.Vm.Machine.instructions;
      c.Replay.vm_samples <- c.Replay.vm_samples + res.Vm.Machine.n_samples;
      incr pending;
      if !pending >= sim.Fl.Sim.f_batch_requests then flush ())
    requests;
  flush ();
  let blobs = List.rev !blobs in
  let chunks =
    List.concat_map
      (fun b ->
        match Meter.span r "sample_log.decode" (fun () -> Vm.Sample_log.decode_chunks b) with
        | Ok cs -> cs
        | Error _ -> failwith "replayed CSLG batch does not decode")
      blobs
  in
  let profile, _flat =
    Meter.span r "corr.par" (fun () ->
        Fl.Build.correlate_chunks ~jobs:sim.Fl.Sim.f_jobs ~options ~shape:sim.Fl.Sim.f_shape built
          chunks)
  in
  (profile, List.fold_left (fun a b -> a + String.length b) 0 blobs)
