(* The orchestrator: work-stealing scheduler determinism, the
   content-addressed artifact cache (including deliberate poisoning), and
   the staged plan surface it schedules.

   Cache directories live under the test's working directory (dune's
   sandbox), so reruns start by clearing them. *)

module D = Csspgo_core.Driver
module O = Csspgo_orchestrator
module W = Csspgo_workloads

let variants =
  [ D.Nopgo; D.Autofdo; D.Csspgo_probe_only; D.Csspgo_full; D.Instr_pgo ]

let w = W.Suite.adranker

(* Everything a build produces, at byte granularity. [o_annotated] is
   excluded: hashtable marshal images are layout-sensitive even when every
   annotation in them is equal. *)
let digest (o : D.outcome) =
  ( Marshal.to_string o.D.o_binary [],
    o.D.o_eval,
    o.D.o_text_size,
    o.D.o_debug_size,
    o.D.o_probe_meta_size,
    o.D.o_profiling_cycles,
    o.D.o_profile_size )

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let dir_contents dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let fresh_cache dir =
  if Sys.file_exists dir then ignore (O.Cache.clear_dir dir);
  O.Cache.create ~dir ()

(* --- scheduler ------------------------------------------------------- *)

let test_scheduler_map () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "-j %d preserves input order" jobs)
        expect
        (O.Scheduler.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 7 ];
  match O.Scheduler.map ~jobs:3 (fun x -> if x = 5 then failwith "boom" else x) xs with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "worker exception must propagate to the caller"

(* --- plan surface ---------------------------------------------------- *)

let test_plan_shapes () =
  let stages v = (D.Plan.make ~variant:v w).D.Plan.pl_stages in
  let has p v = List.exists p (stages v) in
  let correlators v =
    List.filter_map
      (function D.Plan.Correlate c -> Some c.D.Plan.x_correlator | _ -> None)
      (stages v)
  in
  List.iter
    (fun v ->
      match List.rev (stages v) with
      | D.Plan.Evaluate _ :: D.Plan.Rebuild _ :: _ -> ()
      | _ ->
          Alcotest.failf "%s plan does not end with Rebuild; Evaluate"
            (D.variant_name v))
    variants;
  Alcotest.(check bool) "no-pgo never profiles" false
    (has (function D.Plan.Profile_run _ -> true | _ -> false) D.Nopgo);
  Alcotest.(check bool) "instr-pgo instruments" true
    (has (function D.Plan.Instrument _ -> true | _ -> false) D.Instr_pgo);
  Alcotest.(check bool) "full csspgo pre-inlines" true
    (has (function D.Plan.Preinline _ -> true | _ -> false) D.Csspgo_full);
  (match correlators D.Autofdo with
  | [ D.Plan.Corr_lines ] -> ()
  | _ -> Alcotest.fail "autofdo must correlate by DWARF lines");
  (match correlators D.Csspgo_probe_only with
  | [ D.Plan.Corr_probes ] -> ()
  | _ -> Alcotest.fail "probe-only must correlate by probes");
  (match correlators D.Csspgo_full with
  | [ D.Plan.Corr_ctx _ ] -> ()
  | _ -> Alcotest.fail "full csspgo must reconstruct contexts");
  match correlators D.Instr_pgo with
  | [ D.Plan.Corr_counters _ ] -> ()
  | _ -> Alcotest.fail "instr-pgo must correlate exact counters"

let test_malformed_plans () =
  let p = D.Plan.make ~variant:D.Csspgo_probe_only w in
  let raises stages =
    match D.Plan.run { p with D.Plan.pl_stages = stages } with
    | exception Invalid_argument _ -> true
    | (_ : D.outcome) -> false
  in
  Alcotest.(check bool) "empty plan rejected" true (raises []);
  Alcotest.(check bool) "profiling without a compile stage rejected" true
    (raises
       (List.filter
          (function D.Plan.Compile _ -> false | _ -> true)
          p.D.Plan.pl_stages))

(* --- stats accumulator ordering -------------------------------------- *)

let test_stats_list_ordering () =
  (* stats_list promises name-sorted output whatever order (and from
     whatever domains) the counters arrived in — the hash table underneath
     has no usable iteration order. *)
  let stats = O.Orchestrate.create_stats () in
  let hooks = O.Orchestrate.hooks ~stats (O.Cache.create ()) in
  let stat name n = hooks.D.Plan.stat ~name n in
  List.iter
    (fun (name, n) -> stat name n)
    [ ("zeta", 1); ("alpha", 2); ("mid", 3); ("zeta", 10); ("alpha", 20) ];
  Alcotest.(check (list (pair string int)))
    "sorted by name, totals summed"
    [ ("alpha", 22); ("mid", 3); ("zeta", 11) ]
    (O.Orchestrate.stats_list stats);
  (* concurrent bumps from several domains land in the same sorted shape *)
  let stats2 = O.Orchestrate.create_stats () in
  let hooks2 = O.Orchestrate.hooks ~stats:stats2 (O.Cache.create ()) in
  let names = [ "w"; "q"; "a"; "m" ] in
  let ds =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            List.iteri
              (fun j name -> hooks2.D.Plan.stat ~name ((i * 10) + j))
              names))
  in
  List.iter Domain.join ds;
  Alcotest.(check (list string))
    "names sorted after parallel feed" [ "a"; "m"; "q"; "w" ]
    (List.map fst (O.Orchestrate.stats_list stats2))

(* --- determinism: 1 / 2 / 4 domains --------------------------------- *)

let test_determinism_across_jobs () =
  let matrix dir jobs =
    let cache = fresh_cache dir in
    O.Orchestrate.run_plans ~cache ~jobs
      (List.map (fun v -> D.Plan.make ~variant:v w) variants)
  in
  let d1 = List.map digest (matrix "orch-cache-j1" 1) in
  let d2 = List.map digest (matrix "orch-cache-j2" 2) in
  let d4 = List.map digest (matrix "orch-cache-j4" 4) in
  Alcotest.(check bool) "-j 2 outcomes byte-identical to serial" true (d1 = d2);
  Alcotest.(check bool) "-j 4 outcomes byte-identical to serial" true (d1 = d4);
  (* The cached artifacts — binaries, canonical profile text dumps, eval
     results — must be byte-identical files too, whatever the schedule. *)
  let c1 = dir_contents "orch-cache-j1" in
  Alcotest.(check bool) "-j 2 cache entries byte-identical" true
    (c1 = dir_contents "orch-cache-j2");
  Alcotest.(check bool) "-j 4 cache entries byte-identical" true
    (c1 = dir_contents "orch-cache-j4");
  Alcotest.(check bool) "cache is not vacuously empty" true (c1 <> [])

(* --- cache: warm reuse, poisoning, healing --------------------------- *)

let test_cache_poisoning () =
  let dir = "orch-cache-poison" in
  let plan = D.Plan.make ~variant:D.Csspgo_probe_only w in
  let run cache = D.Plan.run ~hooks:(O.Orchestrate.hooks cache) plan in
  let c0 = fresh_cache dir in
  let o0 = run c0 in
  Alcotest.(check bool) "cold run stores entries" true
    ((O.Cache.stats c0).O.Cache.stores > 0);
  (* a fresh cache instance serves the whole plan from disk *)
  let c1 = O.Cache.create ~dir () in
  let o1 = run c1 in
  let s1 = O.Cache.stats c1 in
  Alcotest.(check int) "warm run misses nothing" 0 s1.O.Cache.misses;
  Alcotest.(check bool) "warm run hits" true (s1.O.Cache.hits > 0);
  Alcotest.(check bool) "warm outcome byte-identical" true (digest o0 = digest o1);
  (* flip one payload byte in every entry on disk *)
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let b = Bytes.of_string (read_file path) in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc)
    (Sys.readdir dir);
  (* every lookup now fails its digest: detected, deleted, recomputed *)
  let c2 = O.Cache.create ~dir () in
  let o2 = run c2 in
  let s2 = O.Cache.stats c2 in
  Alcotest.(check bool) "poisoned entries detected" true (s2.O.Cache.corrupt > 0);
  Alcotest.(check bool) "poisoned stages rebuilt" true (s2.O.Cache.stores > 0);
  Alcotest.(check bool) "rebuilt outcome byte-identical" true
    (digest o0 = digest o2);
  (* and the rebuild healed the cache in place *)
  let c3 = O.Cache.create ~dir () in
  let o3 = run c3 in
  let s3 = O.Cache.stats c3 in
  Alcotest.(check int) "healed: no corruption left" 0 s3.O.Cache.corrupt;
  Alcotest.(check int) "healed: no misses left" 0 s3.O.Cache.misses;
  Alcotest.(check bool) "healed outcome byte-identical" true
    (digest o0 = digest o3)

(* --- lazy profile-run samples ---------------------------------------- *)

(* The profiling run caches as a small summary plus its sampled data. A
   warm plan whose Correlate entries all hit must never look the samples
   up, and the summary must still carry what the stats report: the
   profile-run and correlate counters equal the cold run's. (The rebuild
   counters fire only when the final build recompiles, so they are not
   compared.) With the samples and the correlated profiles deleted, the
   correlate misses rerun the deterministic profiling run. *)
let test_warm_run_skips_samples () =
  let dir = "orch-cache-lazy-samples" in
  let plan = D.Plan.make ~variant:D.Csspgo_full w in
  let run cache =
    let stats = O.Orchestrate.create_stats () in
    let base = O.Orchestrate.hooks ~stats cache in
    let kinds = ref [] in
    (* The whole-plan entry would answer first; bypass it so the stage
       memos under test are the ones consulted. *)
    let memo ~kind ~key ~ser ~de f =
      kinds := kind :: !kinds;
      if String.equal kind "plan" then f () else base.D.Plan.memo ~kind ~key ~ser ~de f
    in
    let o = D.Plan.run ~hooks:{ base with D.Plan.memo } plan in
    let counters =
      List.filter
        (fun (name, _) -> not (String.starts_with ~prefix:"rebuild." name))
        (O.Orchestrate.stats_list stats)
    in
    (o, counters, !kinds)
  in
  let o0, s0, k0 = run (fresh_cache dir) in
  Alcotest.(check bool) "cold run stores the samples" true (List.mem "profile-samples" k0);
  Alcotest.(check bool) "profile-run counters fired" true
    (List.mem_assoc "profile-run.samples" s0 && List.mem_assoc "correlate.recon-samples" s0);
  let o1, s1, k1 = run (O.Cache.create ~dir ()) in
  Alcotest.(check bool) "warm run reads the summary" true (List.mem "profile-run" k1);
  Alcotest.(check bool) "warm run never looks up the samples" false
    (List.mem "profile-samples" k1);
  Alcotest.(check (list (pair string int))) "warm counters equal cold" s0 s1;
  Alcotest.(check bool) "warm outcome byte-identical" true (digest o0 = digest o1);
  Array.iter
    (fun f ->
      if List.exists (fun prefix -> String.starts_with ~prefix f) [ "profile-samples."; "correlate." ]
      then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  let c2 = O.Cache.create ~dir () in
  let o2, s2, k2 = run c2 in
  Alcotest.(check bool) "correlate miss looks up the samples" true
    (List.mem "profile-samples" k2);
  Alcotest.(check (list (pair string int))) "rerun counters equal cold" s0 s2;
  Alcotest.(check bool) "rerun outcome byte-identical" true (digest o0 = digest o2)

(* --- cache entry layout ---------------------------------------------- *)

(* Entries are written as header then payload, and read back the same
   way, with no whole-entry blob: the bytes on disk must stay the
   four-line layout earlier caches wrote, so existing cache directories
   remain valid. An entry cut inside its header is corrupt. *)
let test_cache_entry_layout () =
  let dir = "orch-cache-layout" in
  let c = fresh_cache dir in
  let key = [ "k1"; "k2" ] and payload = "payload\nwith\x00\xffbytes" in
  O.Cache.store c ~kind:"demo" ~key payload;
  let path = Option.get (O.Cache.entry_path c ~kind:"demo" ~key) in
  let header =
    [
      "csspgo-cache 1";
      "demo";
      "k1\x1fk2";
      Printf.sprintf "%Lx" (Csspgo_support.Fnv.hash_string payload);
    ]
  in
  Alcotest.(check string) "entry bytes" (String.concat "\n" (header @ [ payload ]))
    (read_file path);
  Alcotest.(check (option string)) "read back" (Some payload)
    (O.Cache.find (O.Cache.create ~dir ()) ~kind:"demo" ~key);
  (* the digest line without its newline *)
  let header_only = String.concat "\n" header in
  let oc = open_out_bin path in
  output_string oc header_only;
  close_out oc;
  let c2 = O.Cache.create ~dir () in
  Alcotest.(check (option string)) "truncated header is a miss" None
    (O.Cache.find c2 ~kind:"demo" ~key);
  Alcotest.(check int) "and counts as corrupt" 1 (O.Cache.stats c2).O.Cache.corrupt

(* --- whole-plan entries --------------------------------------------- *)

(* Runs [plan] through [cache], recording every memo kind looked up and
   every stat emitted, in order. With [bypass_plan] the whole-plan entry
   is skipped, so the stages answer from their own entries. *)
let traced_run ?(bypass_plan = false) cache plan =
  let base = O.Orchestrate.hooks cache in
  let kinds = ref [] and stats = ref [] in
  let memo ~kind ~key ~ser ~de f =
    kinds := kind :: !kinds;
    if bypass_plan && String.equal kind "plan" then f ()
    else base.D.Plan.memo ~kind ~key ~ser ~de f
  in
  let stat ~name v = stats := (name, v) :: !stats in
  let o = D.Plan.run ~hooks:{ base with D.Plan.memo; stat } plan in
  (o, List.rev !kinds, List.rev !stats)

(* A fully warm plan is one cache read, of kind "plan" (so no correlate
   or profile-run entry is read), and reports the stats the stage path
   would report on the same warm cache. *)
let test_warm_plan_one_read () =
  let dir = "orch-cache-plan" in
  ignore (fresh_cache dir);
  List.iter
    (fun variant ->
      let plan = D.Plan.make ~variant w in
      let name = D.variant_name variant in
      let o0, _, _ = traced_run (O.Cache.create ~dir ()) plan in
      let c1 = O.Cache.create ~dir () in
      let o1, k1, s1 = traced_run c1 plan in
      Alcotest.(check (list string)) (name ^ ": one lookup, of kind plan") [ "plan" ] k1;
      let st = O.Cache.stats c1 in
      Alcotest.(check (pair int int)) (name ^ ": one hit, no miss") (1, 0)
        (st.O.Cache.hits, st.O.Cache.misses);
      let _, k2, s2 = traced_run ~bypass_plan:true (O.Cache.create ~dir ()) plan in
      Alcotest.(check bool) (name ^ ": the bypassed run reads the stages") true
        (List.mem "final-build" k2 && List.mem "evaluate" k2);
      Alcotest.(check (list (pair string int))) (name ^ ": stats equal the stage path") s2 s1;
      Alcotest.(check bool) (name ^ ": warm outcome equals cold") true (digest o0 = digest o1))
    variants

(* A damaged plan entry is detected by its digest, the plan is rebuilt
   through the stages (all of which still hit), and the entry is written
   back. *)
let test_plan_entry_corruption () =
  let dir = "orch-cache-plan-corrupt" in
  let plan = D.Plan.make ~variant:D.Csspgo_full w in
  let o0, _, _ = traced_run (fresh_cache dir) plan in
  let plan_file () =
    match List.filter (String.starts_with ~prefix:"plan.") (Array.to_list (Sys.readdir dir)) with
    | [ f ] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one plan entry, found %d" (List.length fs)
  in
  let rewrite f =
    let path = plan_file () in
    let b = f (read_file path) in
    let oc = open_out_bin path in
    output_string oc b;
    close_out oc
  in
  let truncate s = String.sub s 0 (String.length s / 2) in
  let flip s =
    let b = Bytes.of_string s in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  List.iter
    (fun (what, damage) ->
      rewrite damage;
      let c = O.Cache.create ~dir () in
      let o, k, _ = traced_run c plan in
      let st = O.Cache.stats c in
      Alcotest.(check int) (what ^ ": detected") 1 st.O.Cache.corrupt;
      Alcotest.(check bool) (what ^ ": rebuilt through the stages") true
        (List.mem "correlate" k && List.mem "final-build" k);
      Alcotest.(check int) (what ^ ": only the plan entry is rewritten") 1 st.O.Cache.stores;
      Alcotest.(check bool) (what ^ ": rebuilt outcome equals cold") true (digest o0 = digest o);
      let c' = O.Cache.create ~dir () in
      let o', k', _ = traced_run c' plan in
      let st' = O.Cache.stats c' in
      Alcotest.(check (list string)) (what ^ ": healed") [ "plan" ] k';
      Alcotest.(check (pair int int)) (what ^ ": healed entry hits") (1, 0)
        (st'.O.Cache.hits, st'.O.Cache.corrupt);
      Alcotest.(check bool) (what ^ ": healed outcome equals cold") true (digest o0 = digest o'))
    [ ("truncated", truncate); ("flipped byte", flip) ]

exception Plan_key of string list

(* The key a plan's whole-plan entry is looked up under; nothing runs. *)
let plan_key plan =
  let hooks =
    {
      D.Plan.default_hooks with
      D.Plan.memo =
        (fun ~kind ~key ~ser:_ ~de:_ _ ->
          if String.equal kind "plan" then raise (Plan_key key)
          else Alcotest.failf "%s looked up before the plan entry" kind);
    }
  in
  match D.Plan.run ~hooks plan with
  | exception Plan_key key -> key
  | _ -> Alcotest.fail "the plan was not memoized"

let copy_specs =
  List.map (fun (s : D.run_spec) ->
      {
        D.rs_args = List.map (fun a -> Int64.add a 0L) s.D.rs_args;
        rs_globals = List.map (fun (n, a) -> (n ^ "", Array.copy a)) s.D.rs_globals;
      })

let test_plan_key () =
  let base = plan_key (D.Plan.make ~variant:D.Csspgo_full w) in
  let differs what plan =
    Alcotest.(check bool) (what ^ " changes the key") false (base = plan_key plan)
  in
  let bumped =
    match copy_specs w.D.w_eval with
    | ({ D.rs_globals = (n, a) :: gs; _ } as s) :: rest ->
        a.(Array.length a / 2) <- Int64.succ a.(Array.length a / 2);
        { s with D.rs_globals = (n, a) :: gs } :: rest
    | _ -> Alcotest.fail "adranker's eval input has a global array"
  in
  differs "one eval input element" (D.Plan.make ~variant:D.Csspgo_full { w with D.w_eval = bumped });
  differs "trim_threshold"
    (D.Plan.make
       ~options:{ D.default_options with D.trim_threshold = 9L }
       ~variant:D.Csspgo_full w);
  differs "the variant" (D.Plan.make ~variant:D.Csspgo_probe_only w);
  differs "the sampling period"
    (D.Plan.make
       ~options:
         {
           D.default_options with
           D.pmu = { D.default_options.D.pmu with Csspgo_vm.Machine.sample_period = 997 };
         }
       ~variant:D.Csspgo_full w);
  (* an option no stage spec of an injected-profile plan carries: the
     pre-inliner's sizing build reads it from the options *)
  let injected options =
    D.Plan.make_with_profile ?options
      ~profile:(Csspgo_profile.Text_io.Ctx_prof (Csspgo_profile.Ctx_profile.create ()))
      w
  in
  Alcotest.(check bool) "the profiling pipeline of an injected plan changes the key" false
    (plan_key (injected None)
    = plan_key
        (injected
           (Some
              {
                D.default_options with
                D.opt_profiling = { D.default_options.D.opt_profiling with Csspgo_opt.Config.unroll_factor = 3 };
              })));
  Alcotest.(check (list string)) "structurally equal inputs give the same key" base
    (plan_key
       (D.Plan.make ~variant:D.Csspgo_full
          { w with D.w_train = copy_specs w.D.w_train; w_eval = copy_specs w.D.w_eval }))

let suite =
  ( "orchestrator",
    [
      Alcotest.test_case "scheduler map is order-preserving" `Quick
        test_scheduler_map;
      Alcotest.test_case "plan stage lists per variant" `Quick test_plan_shapes;
      Alcotest.test_case "malformed plans rejected" `Quick test_malformed_plans;
      Alcotest.test_case "stats_list is name-sorted" `Quick
        test_stats_list_ordering;
      Alcotest.test_case "1/2/4 domains byte-identical" `Slow
        test_determinism_across_jobs;
      Alcotest.test_case "cache poisoning degrades to rebuild" `Quick
        test_cache_poisoning;
      Alcotest.test_case "warm run never decodes profile-run samples" `Quick
        test_warm_run_skips_samples;
      Alcotest.test_case "cache entry bytes keep their layout" `Quick
        test_cache_entry_layout;
      Alcotest.test_case "a warm plan is one cache read" `Quick test_warm_plan_one_read;
      Alcotest.test_case "damaged plan entries rebuild and heal" `Quick
        test_plan_entry_corruption;
      Alcotest.test_case "plan keys follow every input" `Quick test_plan_key;
    ] )
