(* The end-to-end PGO pipeline benchmark. One process runs one workload:

     main.exe --workload W --seed N --seconds S --trace 0|1 --dir DIR

   It sets up (inputs, one discarded warm-up repetition), repeats the
   workload's cold and warm passes for S seconds, checks every output
   outside the timed region, and prints one JSON result line last: the
   end-to-end metrics with --trace 0, the per-layer metrics of a separate
   traced run with --trace 1. Detail files go to DIR/_out. *)

module Fnv = Csspgo_support.Fnv
module Ir = Csspgo_ir
module Opt = Csspgo_opt
module Cg = Csspgo_codegen
module Vm = Csspgo_vm
module P = Csspgo_profile
module Core = Csspgo_core
module D = Core.Driver
module Plan = D.Plan
module W = Csspgo_workloads
module Cache = Csspgo_orchestrator.Cache
module Fl = Csspgo_fleet
module Obs = Csspgo_obs
module Json = Obs.Json

(* --- arguments ------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10
let trace = ref 0
let dir = ref "e2ebench"
let write_expected = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W report-servers | report-haas | fleet-hhvm");
      ("--seed", Arg.Set_int seed, "N input seed (0: the suite sources unchanged)");
      ("--seconds", Arg.Set_int seconds, "S how long the timed repetitions run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--dir", Arg.Set_string dir, "DIR the benchmark directory (expected files, _out)");
      ("--write-expected", Arg.Set write_expected, " rewrite the expected outputs (seed 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1"

let out_dir () =
  let d = Filename.concat !dir "_out" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* --- host noise: a fixed CPU loop, timed a dozen times --------------------- *)

let cpu_loop () =
  let samples =
    List.init 12 (fun _ ->
        snd
          (Meter.timed (fun () ->
               let h = ref Fnv.init in
               for i = 1 to 400_000 do
                 h := Fnv.int !h i
               done;
               ignore (Sys.opaque_identity !h))))
  in
  (Meter.median samples *. 1e3, Meter.iqr_share samples)

(* --- inputs ---------------------------------------------------------------- *)

let variants = [ D.Nopgo; D.Instr_pgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full ]
(* The -O0 build of a source, and its runs on a workload's eval inputs. *)
let o0_binary source =
  let prog = Csspgo_frontend.Lower.compile source in
  Opt.Pass.optimize ~config:Opt.Config.o0 prog;
  Cg.Emit.emit ~options:Cg.Emit.default_options prog

let eval_runs bin (w : D.workload) =
  List.map
    (fun (s : D.run_spec) ->
      Vm.Machine.run ~pmu:None ~globals_init:s.D.rs_globals ~args:s.D.rs_args bin ~entry:w.D.w_entry)
    w.D.w_eval

let ret_values bin w = List.map (fun r -> r.Vm.Machine.ret_value) (eval_runs bin w)

let eval_instructions (w : D.workload) =
  List.fold_left
    (fun a r -> a +. Int64.to_float r.Vm.Machine.instructions)
    0.0
    (eval_runs (o0_binary w.D.w_source) w)

(* The default seed runs the suite sources unchanged; any other seed
   drifts every report program by one seeded edit, so a claim can be
   rechecked on sources it was not tuned on. An edit can retarget or
   delete a program's hot path (on adranker 5 of 12 one-edit draws drop
   the eval run from 1.74M to under 0.1M instructions), which would make the
   seed pick a different workload rather than a different version of the
   same one; such a draw is replaced by the next sub-seed's, keeping only
   drifts whose -O0 eval instruction count stays within 5% of the
   unchanged source's. *)
let drift_edits = 1
let drift_tolerance = 0.05
let drift_attempts = 16

let seeded_program i (w : D.workload) =
  if !seed = 0 then w
  else
    let base = eval_instructions w in
    let rec draw k =
      if k = drift_attempts then w
      else
        let s = Fnv.int (Fnv.int (Int64.of_int !seed) i) k in
        let v =
          { w with D.w_source = (W.Drift.apply ~seed:s ~edits:drift_edits w.D.w_source).W.Drift.dr_source }
        in
        if Float.abs ((eval_instructions v /. base) -. 1.0) <= drift_tolerance then v else draw (k + 1)
    in
    draw 0

let report_programs = function
  | "report-servers" -> [ W.Suite.adranker; W.Suite.adretriever; W.Suite.adfinder; W.Suite.hhvm ]
  | "report-haas" -> [ W.Suite.haas ]
  | w -> invalid_arg ("unknown report workload " ^ w)

(* 16 instances over 2 versions in flight, 2 generations, duty 1.0, 2
   collector shards — the fleet CLI's mapping — on one scheduler domain.
   At [f_jobs = 2] the heap peak depends on the parallel schedule
   (top_heap_words spread 33% over five runs) and so does the allocation
   count (by a few hundred words); serially both repeat exactly for a
   seed, and this domain's exact allocation count covers all of it. The
   scheduler and the sharded correlator still run, on one domain. *)
let fleet_config () =
  let base = Fl.Train.default and sim = Fl.Sim.default in
  {
    base with
    Fl.Train.t_generations = 2;
    t_skew = 1;
    t_cohort = 8;
    t_drift_seed = (if !seed = 0 then base.Fl.Train.t_drift_seed else Int64.of_int !seed);
    t_fleet =
      {
        sim with
        Fl.Sim.f_shards = 2;
        f_duty = 1.0;
        f_jobs = 1;
        f_request_copies = 8;
        f_seed = (if !seed = 0 then sim.Fl.Sim.f_seed else Fnv.int 0x5eedL !seed);
      };
  }

(* --- plan hooks ------------------------------------------------------------ *)

(* The hooks of the timed passes: memoization through the orchestrator
   cache and nothing else, as [Orchestrate.run_matrix ~jobs:1] runs plans.
   [train] accumulates the wall time of the training stages: the
   profiling run and the correlation that turns its samples into a
   profile. *)
let cache_hooks ?(train = ref 0.0) cache =
  {
    Plan.memo = (fun ~kind ~key ~ser ~de f -> Cache.memo cache ~kind ~key ~ser ~de f);
    stat = (fun ~name:_ _ -> ());
    span =
      (fun ~name f ->
        if name <> "profile-run" && name <> "correlate" then f ()
        else
          let r, dt = Meter.timed f in
          train := !train +. dt;
          r);
    metrics = Obs.Metrics.null;
    jobs = 1;
  }

(* Like [cache_hooks], also digesting every correlate-stage payload (the
   canonical profile text the cache stores) into [digest]. *)
let capture_hooks cache digest =
  let record s = digest := Fnv.int64 !digest (Fnv.hash_string s) in
  {
    (cache_hooks cache) with
    Plan.memo =
      (fun ~kind ~key ~ser ~de f ->
        if kind <> "correlate" then Cache.memo cache ~kind ~key ~ser ~de f
        else
          Cache.memo cache ~kind ~key
            ~ser:(fun v ->
              let s = ser v in
              record s;
              s)
            ~de:(fun s ->
              record s;
              de s)
            f);
  }

(* --- output checks --------------------------------------------------------- *)

(* Failures are counted, never raised: an exception or a mismatch is one
   failed operation. *)
let attempted = ref 0
let failed = ref 0

let attempt what f =
  incr attempted;
  match f () with
  | Ok () -> ()
  | Error msg ->
      incr failed;
      say "FAIL %s: %s" what msg
  | exception e ->
      incr failed;
      say "FAIL %s: %s" what (Printexc.to_string e)

(* Every optimized binary must return what the -O0 build of the same
   source returns, on every eval input. *)
let check_returns what (w : D.workload) bin o0 =
  attempt (what ^ " return values") (fun () ->
      if ret_values bin w = o0 then Ok () else Error "differs from the -O0 build")

let expected_path () = Filename.concat (Filename.concat !dir "expected") (!workload ^ ".txt")

(* For the default seed, the output lines must equal the expected file;
   each differing line is one failed operation. *)
let check_expected lines =
  if !seed = 0 then
    if !write_expected then begin
      let oc = open_out (expected_path ()) in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      say "wrote %s" (expected_path ())
    end
    else
      let ic = open_in (expected_path ()) in
      let want = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
      close_in ic;
      if List.length want <> List.length lines then begin
        incr attempted;
        incr failed;
        say "FAIL expected %d output lines, got %d" (List.length want) (List.length lines)
      end
      else
        List.iter2
          (fun w l ->
            attempt "expected output" (fun () ->
                if w = l then Ok () else Error (Printf.sprintf "want %S, got %S" w l)))
          want lines

(* --- results ---------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let finite x = if Float.is_finite x then x else 0.0
let mwords w = w /. 1e6

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let host = lazy (Domain.recommended_domain_count (), cpu_loop ())

let emit_result ~detail metrics =
  let obj =
    Json.Obj
      (List.map
         (fun x ->
           (x.name, Json.Obj [ ("value", Json.Float (finite x.value)); ("unit", Json.String x.unit_) ]))
         metrics)
  in
  let nproc, (loop_ms, loop_spread) = Lazy.force host in
  let side =
    Json.Obj
      ([
         ("workload", Json.String !workload);
         ("seed", Json.Int !seed);
         ("seconds", Json.Int !seconds);
         ("trace", Json.Int !trace);
         ("nproc", Json.Int nproc);
         ("cpu_loop_ms", Json.Float loop_ms);
         ("cpu_loop_spread", Json.Float loop_spread);
         ("attempted", Json.Int !attempted);
         ("failed", Json.Int !failed);
         ("metrics", obj);
       ]
      @ detail)
  in
  let path =
    Filename.concat (out_dir ()) (Printf.sprintf "%s-seed%d-trace%d.json" !workload !seed !trace)
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string side));
  say "host: nproc %d, cpu loop %.2f ms (spread %.1f%%); details in %s" nproc loop_ms
    (100.0 *. loop_spread) path;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", obj);
          ]))

(* Repeat [rep] until one more repetition would overrun [seconds], but
   at least [min_reps] times. *)
let min_reps = 2

let repeat rep =
  let t0 = Meter.now_ns () in
  let rec go acc n =
    let r, dt = Meter.timed rep in
    let acc = (r, dt) :: acc in
    let elapsed = Meter.secs_since t0 in
    if n + 1 >= min_reps && elapsed +. dt > float_of_int !seconds then List.rev acc else go acc (n + 1)
  in
  go [] 0

(* --- report workloads -------------------------------------------------------- *)

type plan_out = {
  po_plan : Plan.t;
  po_outcome : D.outcome;
  po_digest : int64;  (* FNV-1a over the plan's correlate payloads *)
}

let label (p : Plan.t) = p.Plan.pl_workload.D.w_name ^ "/" ^ D.variant_name p.Plan.pl_variant

(* What every repetition must reproduce exactly. *)
let fingerprint (o : D.outcome) =
  (o.D.o_eval.D.ev_cycles, o.D.o_eval.D.ev_instructions, o.D.o_text_size)

let fresh_cache path =
  if Sys.file_exists path then ignore (Cache.clear_dir path);
  Cache.create ~dir:path ()

let report_setup () =
  let programs = List.mapi seeded_program (report_programs !workload) in
  let plans =
    List.concat_map (fun w -> List.map (fun variant -> Plan.make ~variant w) variants) programs
  in
  let cache_dir = Filename.concat (out_dir ()) ("cache-" ^ !workload) in
  (programs, plans, cache_dir)

(* The discarded warm-up repetition: a cold pass that also captures the
   profile digests, then the warm pass. *)
let report_warmup plans cache_dir =
  let cache = fresh_cache cache_dir in
  let cold =
    List.map
      (fun p ->
        let digest = ref Fnv.init in
        let o = Plan.run ~hooks:(capture_hooks cache digest) p in
        { po_plan = p; po_outcome = o; po_digest = !digest })
      plans
  in
  let hooks = cache_hooks (Cache.create ~dir:cache_dir ()) in
  let warm = List.map (Plan.run ~hooks) plans in
  (cold, warm)

let overlap_vs_truth cold (o : plan_out) =
  let w = o.po_plan.Plan.pl_workload in
  let truth =
    List.find
      (fun x -> x.po_plan.Plan.pl_workload == w && x.po_plan.Plan.pl_variant = D.Instr_pgo)
      cold
  in
  Core.Quality.block_overlap ~truth:truth.po_outcome.D.o_annotated o.po_outcome.D.o_annotated

let report_lines cold =
  List.map
    (fun o ->
      let c, i, t = fingerprint o.po_outcome in
      Printf.sprintf "%s cycles=%Ld instructions=%Ld text=%d overlap=%.6f profile=%016Lx"
        (label o.po_plan) c i t (overlap_vs_truth cold o) o.po_digest)
    cold

(* The deterministic companions, from the warm-up's outcomes. *)
let report_quality programs cold =
  let find w v =
    List.find
      (fun x -> x.po_plan.Plan.pl_workload == w && x.po_plan.Plan.pl_variant = v)
      cold
  in
  let cs = List.map (fun w -> find w D.Csspgo_full) programs in
  let speedups =
    List.map2
      (fun w c ->
        Int64.to_float (find w D.Nopgo).po_outcome.D.o_eval.D.ev_cycles
        /. Int64.to_float c.po_outcome.D.o_eval.D.ev_cycles)
      programs cs
  in
  let n = float_of_int (List.length programs) in
  let geomean = exp (List.fold_left (fun a s -> a +. log s) 0.0 speedups /. n) in
  let overlap = List.fold_left (fun a c -> a +. overlap_vs_truth cold c) 0.0 cs /. n in
  let text = List.fold_left (fun a c -> a + c.po_outcome.D.o_text_size) 0 cs in
  [
    m "code_speedup" "ratio" geomean;
    m "profile_overlap" "ratio" overlap;
    m "text_bytes" "B" (float_of_int text);
  ]

(* Outputs of the warm-up: expected lines for the default seed, and
   -O0 return values on every seed. *)
let report_check programs cold warm =
  check_expected (report_lines cold);
  List.iter
    (fun (w : D.workload) ->
      let o0 = ret_values (o0_binary w.D.w_source) w in
      List.iter
        (fun o ->
          if o.po_plan.Plan.pl_workload == w then
            check_returns (label o.po_plan) w o.po_outcome.D.o_binary o0)
        cold)
    programs;
  List.iter2
    (fun c (o : D.outcome) ->
      attempt (label c.po_plan ^ " warm rerun") (fun () ->
          if fingerprint o = fingerprint c.po_outcome then Ok () else Error "differs from the cold pass"))
    cold warm

(* One timed repetition: every plan cold on an empty disk cache (with
   cache writes), then [warm_passes] times every plan against that warm
   cache, each pass through a fresh handle so every hit is read back from
   disk. A warm plan takes milliseconds, so it gets more samples. Each plan
   execution is a timed unit whose result is its outcome's fingerprint
   ([None] when it raised) and the wall time of its training stages. *)
let warm_passes = 5

let report_rep plans cache_dir () =
  if Sys.file_exists cache_dir then ignore (Cache.clear_dir cache_dir);
  let pass () =
    let cache = Cache.create ~dir:cache_dir () in
    Meter.timed_units
      (List.map
         (fun p () ->
           let train = ref 0.0 in
           match Plan.run ~hooks:(cache_hooks ~train cache) p with
           | o -> (Some (fingerprint o), !train)
           | exception e ->
               say "FAIL %s: %s" (label p) (Printexc.to_string e);
               (None, !train))
         plans)
  in
  let cold = pass () in
  (cold, List.init warm_passes (fun _ -> pass ()))

(* Every plan execution of every timed pass is one attempted operation;
   it fails when it raised or its outcome differs from the warm-up's. *)
let account_reps ~what expected results =
  List.iter
    (fun got ->
      List.iter2
        (fun want (u : _ Meter.unit_run) ->
          attempt what (fun () ->
              match fst u.Meter.result with
              | Some g when g = want -> Ok ()
              | Some _ -> Error "outcome differs from the warm-up repetition"
              | None -> Error "raised"))
        expected got)
    results

(* Each unit's median over the repetitions, summed over the units: a slow
   spell during one plan's run moves that plan's sample only. *)
let sum_of_medians f (reps : _ Meter.unit_run list list) =
  match reps with
  | [] -> 0.0
  | first :: _ ->
      List.fold_left ( +. ) 0.0
        (List.mapi (fun i _ -> Meter.median (List.map (fun r -> f (List.nth r i)) reps)) first)

let total_words units = List.fold_left (fun a u -> a +. u.Meter.words) 0.0 units

(* Set-up wall time, bracketed by the reference kernel like a timed unit. *)
let setup_timer () =
  Meter.reference ();
  let t0 = Meter.now_ns () in
  fun () ->
    let wall = Meter.secs_since t0 in
    Meter.reference ();
    wall

let timing_detail name xs =
  (name, Json.Obj [ ("n", Json.Int (List.length xs)); ("samples", Json.List (List.map (fun x -> Json.Float x) xs)) ])

(* The four time metrics, from wall times scaled to nominal host speed;
   the detail keeps the wall times, the scale and the kernel's samples. *)
let time_metrics ~setup ~pipeline ~warm ~train =
  let k = Meter.host_scale () in
  ( [
      ("wall_s", Json.Obj (List.map (fun (n, x) -> (n, Json.Float x)) [ ("setup_s", setup); ("pipeline_s", pipeline); ("warm_s", warm); ("train_s", train) ]));
      ("host_scale", Json.Float k);
      timing_detail "reference_s" !Meter.reference_samples;
    ],
    [
      m "setup_s" "s" (setup *. k);
      m "pipeline_s" "s" (pipeline *. k);
      m "warm_s" "s" (warm *. k);
      m "train_s" "s" (train *. k);
    ] )

(* Allocation per repetition must repeat exactly; a disagreement is one
   failed operation. *)
let alloc_detail words =
  let exact = List.for_all (fun w -> w = List.hd words) words in
  attempt "allocation repeats" (fun () ->
      if exact then Ok () else Error "allocation differs between repetitions");
  [ timing_detail "alloc_words" words; ("alloc_exact", Json.Bool exact) ]

let report_untraced () =
  let programs, plans, cache_dir = report_setup () in
  let setup_done = setup_timer () in
  let cold, warm = report_warmup plans cache_dir in
  let setup_s = setup_done () in
  let peak = peak_heap_mb () in
  let reps = List.map fst (repeat (report_rep plans cache_dir)) in
  let fps = List.map (fun c -> fingerprint c.po_outcome) cold in
  account_reps ~what:"timed plan" fps (List.concat_map (fun (c, w) -> c :: w) reps);
  report_check programs cold warm;
  let colds = List.map fst reps and warms = List.concat_map snd reps in
  let wall u = u.Meter.wall_s in
  let pipeline = sum_of_medians wall colds and warm_s = sum_of_medians wall warms in
  let words = List.map (fun (c, w) -> total_words (List.concat (c :: w))) reps in
  say "%s: %d repetitions, cold %.3f s, warm %.3f s (sums of per-plan medians)" !workload
    (List.length reps) pipeline warm_s;
  let detail, times =
    time_metrics ~setup:setup_s ~pipeline ~warm:warm_s ~train:(sum_of_medians (fun u -> snd u.Meter.result) colds)
  in
  emit_result
    ~detail:
      ((("repetitions", Json.Int (List.length reps))
       :: timing_detail "cold_wall_s" (List.concat_map (List.map wall) colds)
       :: detail)
      @ alloc_detail words)
    (times
    @ [
       m "alloc_mwords" "Mwords" (mwords (Meter.median words));
       m "peak_heap_mb" "MB" peak;
     ]
    @ report_quality programs cold)

(* --- fleet workload ------------------------------------------------------------ *)

let fleet_program = W.Suite.hhvm

(* A release build through the orchestrator cache, cold (with cache
   writes) and then warm: generation 0's fleet profile rebuilt on its
   source. Generation 0 is the one release the seed does not drift (at
   duty 1.0 the duty seed changes nothing either), so the build's cost
   does not vary with the seed; a later generation's carried profile
   changes size with the drift, and its warm build time by up to 40%. *)
let release_plan cfg (g : Fl.Train.generation) =
  Plan.make_with_profile ~options:cfg.Fl.Train.t_fleet.Fl.Sim.f_options ~profile:g.Fl.Train.g_profile
    { fleet_program with D.w_source = g.Fl.Train.g_source }

let last_gen gens = List.nth gens (List.length gens - 1)

let gen_line (g : Fl.Train.generation) =
  let c, i, t = fingerprint g.Fl.Train.g_outcome in
  Printf.sprintf
    "gen%d speedup=%.6f overlap=%.6f cycles=%Ld instructions=%Ld text=%d profile=%016Lx samples=%d bytes=%d"
    g.Fl.Train.g_id g.Fl.Train.g_speedup
    (Option.value g.Fl.Train.g_overlap ~default:0.0)
    c i t
    (Fnv.hash_string (P.Text_io.to_string g.Fl.Train.g_profile))
    g.Fl.Train.g_fleet.Fl.Sim.fs_samples g.Fl.Train.g_fleet.Fl.Sim.fs_bytes

(* One repetition, as timed units: the release build on an empty cache
   and [warm_builds / 2] times on the warm cache, a two-generation train,
   then [warm_builds / 2] more warm builds. A warm build takes about 12 ms,
   and the host's speed shifts for whole seconds, so the warm builds sit
   on both sides of the train to sample two moments some seconds apart.
   A unit's result is [None] when it raised. *)
let warm_builds = 20

let guarded what f () =
  match f () with
  | r -> Some r
  | exception e ->
      say "FAIL %s: %s" what (Printexc.to_string e);
      None

let release_build cache_dir plan () =
  fingerprint (Plan.run ~hooks:(cache_hooks (Cache.create ~dir:cache_dir ())) plan)

let fleet_rep cfg cache_dir plan () =
  if Sys.file_exists cache_dir then ignore (Cache.clear_dir cache_dir);
  let builds n =
    Meter.timed_units (List.init n (fun _ -> guarded "release build" (release_build cache_dir plan)))
  in
  let before = builds (1 + (warm_builds / 2)) in
  let train = List.hd (Meter.timed_units [ guarded "train" (fun () -> Fl.Train.run cfg fleet_program) ]) in
  (train, before @ builds (warm_builds / 2))

let fleet_quality gens =
  let g = last_gen gens in
  [
    m "code_speedup" "ratio" g.Fl.Train.g_speedup;
    m "profile_overlap" "ratio" (Option.value g.Fl.Train.g_overlap ~default:0.0);
    m "text_bytes" "B" (float_of_int g.Fl.Train.g_outcome.D.o_text_size);
  ]

let fleet_check gens =
  check_expected (List.map gen_line gens);
  List.iter
    (fun (g : Fl.Train.generation) ->
      let w = { fleet_program with D.w_source = g.Fl.Train.g_source } in
      check_returns (Printf.sprintf "gen%d" g.Fl.Train.g_id) w g.Fl.Train.g_outcome.D.o_binary
        (ret_values (o0_binary w.D.w_source) w))
    gens

(* The generations and the release builds of a repetition must reproduce
   the warm-up's exactly: every generation line, and the release build's
   outcome must equal the train's own rebuild of generation 0. Each
   generation and each build is one attempted operation. *)
let fleet_account want ((train : _ Meter.unit_run), builds) =
  (match train.Meter.result with
  | None -> List.iter (fun _ -> attempt "generation" (fun () -> Error "the train raised")) want
  | Some gens ->
      let lines = List.map gen_line gens in
      if List.length lines <> List.length want then
        attempt "generations" (fun () ->
            Error (Printf.sprintf "%d generations, want %d" (List.length lines) (List.length want)))
      else
        List.iter2
          (fun w l -> attempt "generation" (fun () -> if w = l then Ok () else Error ("got " ^ l)))
          want lines);
  let rebuilt =
    match train.Meter.result with Some (g0 :: _) -> Some (fingerprint g0.Fl.Train.g_outcome) | _ -> None
  in
  List.iteri
    (fun i (u : _ Meter.unit_run) ->
      attempt
        (if i = 0 then "release build (cold)" else "release build (warm)")
        (fun () ->
          match (u.Meter.result, rebuilt) with
          | Some fp, Some want when fp = want -> Ok ()
          | Some _, _ -> Error "differs from the train's rebuild"
          | None, _ -> Error "raised"))
    builds

(* What the timed figures need of a repetition, once it is accounted:
   the wall times of the train and the builds, and the allocation. *)
type fleet_sample = { train_s : float; cold_s : float; warm_s : float list; words : float }

let fleet_sample ((train : _ Meter.unit_run), builds) =
  match builds with
  | cold :: warm ->
      {
        train_s = train.Meter.wall_s;
        cold_s = cold.Meter.wall_s;
        warm_s = List.map (fun u -> u.Meter.wall_s) warm;
        words = train.Meter.words +. total_words builds;
      }
  | [] -> invalid_arg "fleet_sample"

(* The warm-up repetition: a train, whose generations every timed
   repetition must reproduce, then its generation 0's release build cold
   and warm; each build must reproduce the train's own rebuild. *)
let fleet_warmup cfg cache_dir =
  let gens = Fl.Train.run cfg fleet_program in
  let plan = release_plan cfg (List.hd gens) in
  let rebuilt = fingerprint (List.hd gens).Fl.Train.g_outcome in
  if Sys.file_exists cache_dir then ignore (Cache.clear_dir cache_dir);
  for _ = 0 to warm_builds do
    attempt "release build (warm-up)" (fun () ->
        if release_build cache_dir plan () = rebuilt then Ok () else Error "differs from the train's rebuild")
  done;
  (gens, plan)

let fleet_untraced () =
  let setup_done = setup_timer () in
  let cfg = fleet_config () in
  let cache_dir = Filename.concat (out_dir ()) ("cache-" ^ !workload) in
  let gens, plan = fleet_warmup cfg cache_dir in
  let setup_s = setup_done () in
  let peak = peak_heap_mb () in
  let want = List.map gen_line gens in
  let reps =
    repeat (fun () ->
        let r = fleet_rep cfg cache_dir plan () in
        fleet_account want r;
        fleet_sample r)
    |> List.map fst
  in
  fleet_check gens;
  let col f = List.map f reps in
  let pipeline_s = col (fun r -> r.train_s +. r.cold_s) and train_s = col (fun r -> r.train_s) in
  let warm_s = List.concat_map (fun r -> r.warm_s) reps and words = col (fun r -> r.words) in
  say "%s: %d repetitions, train %.3f s, release build warm %.4f s (medians)" !workload
    (List.length reps) (Meter.median train_s) (Meter.median warm_s);
  let detail, times =
    time_metrics ~setup:setup_s ~pipeline:(Meter.median pipeline_s) ~warm:(Meter.median warm_s)
      ~train:(Meter.median train_s)
  in
  emit_result
    ~detail:
      ([ timing_detail "pipeline_wall_s" pipeline_s; timing_detail "warm_wall_s" warm_s; timing_detail "train_wall_s" train_s ]
      @ detail @ alloc_detail words)
    (times
    @ [
       m "alloc_mwords" "Mwords" (mwords (Meter.median words));
       m "peak_heap_mb" "MB" peak;
     ]
    @ fleet_quality gens)

(* --- traced runs ----------------------------------------------------------------- *)

(* BENCHMARK.json's per_layer list must name exactly the catalogue's
   metrics, with the same units and directions. *)
let check_per_layer_list () =
  attempt "per_layer list in BENCHMARK.json" (fun () ->
      let path = Filename.concat (Filename.dirname !dir) "BENCHMARK.json" in
      let doc = Json.parse_exn (In_channel.with_open_text path In_channel.input_all) in
      let field k o = match Json.member k o with Some (Json.String s) -> s | _ -> "" in
      let listed =
        match Option.bind (Json.member "per_layer" doc) Json.to_list with
        | Some l -> List.map (fun o -> (field "name" o, field "unit" o, field "better" o)) l
        | None -> []
      in
      let missing = List.filter (fun e -> not (List.mem e listed)) Layers.catalogue in
      let extra = List.filter (fun e -> not (List.mem e Layers.catalogue)) listed in
      let names l = String.concat ", " (List.map (fun (n, _, _) -> n) l) in
      if missing <> [] then Error ("not listed: " ^ names missing)
      else if extra <> [] then Error ("listed but not measured: " ^ names extra)
      else Ok ())

(* The per-layer result: every catalogue metric, 0 for layers the
   workload does not run. *)
let emit_layers ~detail (v : Layers.values) =
  check_per_layer_list ();
  let nproc, (loop_ms, loop_spread) = Lazy.force host in
  Layers.set v "host.nproc" (float_of_int nproc);
  Layers.set v "host.cpu_loop_ms" loop_ms;
  Layers.set v "host.cpu_loop_spread" loop_spread;
  emit_result ~detail
    (List.map
       (fun (name, unit_, _) -> m name unit_ (Option.value (Hashtbl.find_opt v name) ~default:0.0))
       Layers.catalogue)

(* Spans stay in memory until the run ends; then the stage spans go out
   as a Chrome trace and the replay's layer spans as a JSON list. *)
let write_traces tr (r : Meter.t) =
  let base = Filename.concat (out_dir ()) (Printf.sprintf "%s-seed%d" !workload !seed) in
  Out_channel.with_open_text (base ^ ".trace.json") (fun oc ->
      output_string oc (Obs.Trace.to_chrome_json tr));
  let spans =
    List.map
      (fun (sp : Meter.span) ->
        Json.Obj
          [
            ("name", Json.String sp.Meter.sp_name);
            ("parent", Json.String sp.Meter.sp_parent);
            ("start_ns", Json.Int (Int64.to_int sp.Meter.sp_start_ns));
            ("dur_ns", Json.Int (Int64.to_int sp.Meter.sp_dur_ns));
            ("words", Json.Float sp.Meter.sp_words);
          ])
      (Meter.spans r)
  in
  Out_channel.with_open_text (base ^ ".spans.json") (fun oc ->
      output_string oc (Json.to_string (Json.List spans)));
  [ ("trace_file", Json.String (base ^ ".trace.json")); ("spans_file", Json.String (base ^ ".spans.json")) ]

(* One traced pass of [plans] through [cache]; [before] runs ahead of
   each plan. *)
let traced_pass ?(before = ignore) ~tr ~reg ~stats ~o ~cache plans =
  let m = Meter.create () in
  let outs =
    List.mapi
      (fun i p ->
        before p;
        let track = Obs.Trace.track tr ~tid:i ~name:(label p) in
        let digest = ref Fnv.init in
        let hooks = Layers.traced_hooks ~m ~track ~reg ~stats ~o ~digest cache in
        let out =
          Meter.span m "plan" (fun () -> Obs.Trace.with_span track (label p) (fun () -> Plan.run ~hooks p))
        in
        (out, !digest))
      plans
  in
  (m, outs)

let stats_detail stats =
  ( "plan_stats",
    Json.Obj
      (Hashtbl.fold (fun k n acc -> (k, Json.Int n) :: acc) stats [] |> List.sort compare) )

let overhead_pct ~untraced ~traced = 100.0 *. Layers.ratio (traced -. untraced) untraced

let report_traced () =
  let programs, plans, cache_dir = report_setup () in
  let cold, warm = report_warmup plans cache_dir in
  report_check programs cold warm;
  (* The traced cold pass runs each plan untraced on a cache of its own
     first, so the overhead compares the same work seconds apart. *)
  let reference = fresh_cache (cache_dir ^ "-untraced") and untraced = ref 0.0 in
  let before p =
    untraced := !untraced +. snd (Meter.timed (fun () -> Plan.run ~hooks:(cache_hooks reference) p))
  in
  ignore (fresh_cache cache_dir);
  let tr = Obs.Trace.create () and reg = Obs.Metrics.create () in
  let stats = Hashtbl.create 16 and o = Layers.orch () in
  let m_cold, traced_cold =
    traced_pass ~before ~tr ~reg ~stats ~o ~cache:(Cache.create ~metrics:reg ~dir:cache_dir ()) plans
  in
  let m_warm, _ =
    traced_pass ~tr:(Obs.Trace.create ()) ~reg ~stats:(Hashtbl.create 16) ~o
      ~cache:(Cache.create ~metrics:reg ~dir:cache_dir ()) plans
  in
  (* The replay must reproduce the traced pass: correlate payloads, final
     binary and evaluation of every plan. *)
  let r = Meter.create () and c = Replay.counts () in
  List.iter2
    (fun p ((out : D.outcome), digest) ->
      attempt ("replay " ^ label p) (fun () ->
          let res = Replay.run r c p in
          if res.Replay.profile_digest <> digest then Error "profile digest differs from Plan.run"
          else if res.Replay.binary_digest <> Replay.binary_digest out.D.o_binary then
            Error "final binary differs from Plan.run"
          else if res.Replay.eval <> out.D.o_eval then Error "evaluation differs from Plan.run"
          else Ok ()))
    plans traced_cold;
  let v = Hashtbl.create 128 in
  Layers.set_stages v m_cold;
  Layers.set v "trace.overhead_pct" (overhead_pct ~untraced:!untraced ~traced:(Meter.total_s m_cold "plan"));
  Layers.set_orchestrator v [ m_cold; m_warm ] o;
  Layers.set_replay v r c;
  emit_layers ~detail:(stats_detail stats :: write_traces tr r) v

let fleet_traced () =
  let cfg = fleet_config () in
  let cache_dir = Filename.concat (out_dir ()) ("cache-" ^ !workload) in
  let gens, plan = fleet_warmup cfg cache_dir in
  fleet_check gens;
  let _, untraced = Meter.timed (fun () -> Fl.Train.run cfg fleet_program) in
  let tr = Obs.Trace.create () and reg = Obs.Metrics.create () in
  let a0 = Meter.alloc_words () in
  let traced_gens, traced = Meter.timed (fun () -> Fl.Train.run ~trace:tr ~metrics:reg cfg fleet_program) in
  let train_words = Meter.alloc_words () -. a0 in
  attempt "traced train" (fun () ->
      if List.map gen_line traced_gens = List.map gen_line gens then Ok ()
      else Error "generations differ from the untraced train");
  let v = Hashtbl.create 128 in
  let phase = Layers.fleet_phase_times tr in
  List.iter (fun p -> Layers.set v ("fleet." ^ p ^ ".s") (phase p)) (List.filter (( <> ) "rebuild") Layers.fleet_phases);
  (* Everything of the train outside its fleet windows: forward matching,
     carry merges, the rebuilds and their no-PGO and truth builds. *)
  Layers.set v "fleet.rebuild.s"
    (traced -. List.fold_left (fun a p -> a +. phase p) 0.0 [ "build"; "serve"; "drain"; "correlate"; "merge" ]);
  Layers.set v "fleet.train.s" traced;
  Layers.set v "fleet.train.alloc_mwords" (train_words /. 1e6);
  Layers.set v "trace.overhead_pct" (overhead_pct ~untraced ~traced);
  let snap = Obs.Metrics.snapshot reg in
  let counter n = float_of_int (Option.value (Obs.Metrics.find_counter snap n) ~default:0) in
  Layers.set v "fleet.samples" (counter "fleet.samples");
  Layers.set v "fleet.batches" (counter "fleet.batches");
  Layers.set v "fleet.bytes" (counter "collector.bytes");
  Layers.set v "sched.tasks" (counter "sched.tasks");
  Layers.set v "sched.steals" (counter "sched.steals");
  Layers.set v "sched.queue_depth"
    (float_of_int (Option.value (Obs.Metrics.find_gauge snap "sched.queue-depth") ~default:0));
  (* The release build, traced cold then warm. *)
  ignore (fresh_cache cache_dir);
  let stats = Hashtbl.create 16 and o = Layers.orch () in
  let m_cold, _ =
    traced_pass ~tr:(Obs.Trace.create ()) ~reg ~stats ~o ~cache:(Cache.create ~dir:cache_dir ()) [ plan ]
  in
  let m_warm, _ =
    traced_pass ~tr:(Obs.Trace.create ()) ~reg ~stats:(Hashtbl.create 16) ~o
      ~cache:(Cache.create ~dir:cache_dir ()) [ plan ]
  in
  Layers.set_stages v m_cold;
  Layers.set_orchestrator v [ m_cold; m_warm ] o;
  (* The sample-log replay of generation 0, and the carry merge of
     generation 1, each checked against the train. *)
  let r = Meter.create () and c = Replay.counts () in
  let g0 = List.hd gens in
  attempt "serve replay" (fun () ->
      let profile, bytes = Layers.serve_replay r c cfg fleet_program ~source:g0.Fl.Train.g_source in
      Layers.set v "sample_log.bytes" (float_of_int bytes);
      Layers.set v "sample_log.decode_mb_per_s"
        (Layers.ratio (float_of_int bytes /. 1e6) (Meter.self_s r "sample_log.decode"));
      let want = (List.hd g0.Fl.Train.g_fleet.Fl.Sim.fs_per_version).Fl.Sim.pv_profile in
      if P.Text_io.to_string profile = P.Text_io.to_string want then Ok ()
      else Error "replayed profile differs from the train's generation-0 profile");
  (match gens with
  | g0 :: g1 :: _ ->
      attempt "carry merge replay" (fun () ->
          let target = g1.Fl.Train.g_fleet.Fl.Sim.fs_target.Fl.Build.vb_target in
          let matched, _ = Fl.Build.match_onto ~target g0.Fl.Train.g_profile in
          let merged =
            Meter.span r "profile.merge" (fun () ->
                P.Merge.weighted ~kind:P.Text_io.Ctx
                  [
                    (cfg.Fl.Train.t_carry_weight, matched);
                    (cfg.Fl.Train.t_fresh_weight, g1.Fl.Train.g_fleet.Fl.Sim.fs_profile);
                  ])
          in
          let text = Meter.span r "profile.text_write" (fun () -> P.Text_io.to_string merged) in
          if text = P.Text_io.to_string g1.Fl.Train.g_profile then Ok ()
          else Error "replayed carry merge differs from the train's generation-1 profile")
  | _ -> ());
  List.iter (Layers.set_self v r) [ "sample_log.add"; "sample_log.encode"; "sample_log.decode"; "corr.par"; "profile.merge" ];
  Layers.set_self v r "vm.sampled";
  let instrs = Int64.to_float c.Replay.vm_instructions in
  Layers.set v "vm.instructions" instrs;
  Layers.set v "vm.samples" (float_of_int c.Replay.vm_samples);
  Layers.set v "vm.minstr_per_s" (Layers.ratio instrs (Meter.self_s r "vm.sampled") /. 1e6);
  Layers.set v "vm.alloc_words_per_kinstr"
    (Layers.ratio (Meter.self_words r "vm.sampled") (instrs /. 1000.0));
  emit_layers ~detail:(stats_detail stats :: write_traces tr r) v

let () =
  match (!workload, !trace) with
  | ("report-servers" | "report-haas"), 0 -> report_untraced ()
  | ("report-servers" | "report-haas"), 1 -> report_traced ()
  | "fleet-hhvm", 0 -> fleet_untraced ()
  | "fleet-hhvm", 1 -> fleet_traced ()
  | w, t ->
      prerr_endline (Printf.sprintf "unknown workload %S or trace level %d" w t);
      exit 2
