(* Profile data structures: line profiles, probe profiles, context trie. *)
module Ir = Csspgo_ir
module P = Csspgo_profile
module LP = P.Line_profile
module PP = P.Probe_profile
module T = P.Text_io
module CP = P.Ctx_profile

let g name = Ir.Guid.of_name name

(* Per-shape wrappers over the unified [Text_io] surface: serialization
   always goes through [to_string]/[read]; these just wrap/unwrap the
   shape constructors for the round-trip tests below. *)
let probe_to_string t = P.Text_io.to_string (P.Text_io.Probe_prof t)
let line_to_string t = P.Text_io.to_string (P.Text_io.Line_prof t)
let ctx_to_string t = P.Text_io.to_string (P.Text_io.Ctx_prof t)

let read_probe s =
  match P.Text_io.read P.Text_io.Probe s with
  | P.Text_io.Probe_prof t -> t
  | _ -> assert false

let read_line s =
  match P.Text_io.read P.Text_io.Line s with
  | P.Text_io.Line_prof t -> t
  | _ -> assert false

let read_ctx s =
  match P.Text_io.read P.Text_io.Ctx s with
  | P.Text_io.Ctx_prof t -> t
  | _ -> assert false

let test_line_profile_max () =
  let t = LP.create () in
  let fe = LP.get_or_add t (g "f") ~name:"f" in
  LP.set_line_max fe (3, 0) 10L;
  LP.set_line_max fe (3, 0) 7L;
  Alcotest.(check int64) "max keeps 10" 10L (LP.line_count fe (3, 0));
  LP.set_line_max fe (3, 0) 12L;
  Alcotest.(check int64) "max raises to 12" 12L (LP.line_count fe (3, 0));
  LP.add_call fe (3, 0) (g "callee") 5L;
  LP.add_call fe (3, 0) (g "callee") 6L;
  Alcotest.(check (list (pair int64 int64))) "call counts sum"
    [ (g "callee", 11L) ]
    (LP.call_counts fe (3, 0))

let test_probe_profile_sum () =
  let t = PP.create () in
  let fe = PP.get_or_add t (g "f") ~name:"f" in
  PP.add_probe fe 1 10L;
  PP.add_probe fe 1 7L;
  Alcotest.(check int64) "probes sum" 17L (PP.probe_count fe 1);
  Alcotest.(check int64) "total" 17L fe.PP.fe_total

let mk_trie () =
  let t = CP.create () in
  (* main -> (site 3) foo -> (site 2) bar, plus base foo *)
  let path =
    [ ((g "main", 3), g "foo", "foo"); ((g "foo", 2), g "bar", "bar") ]
  in
  let bar_node = Option.get (CP.node_at t ~path) in
  PP.add_probe bar_node.CP.n_prof 1 100L;
  let foo_node = Option.get (CP.node_at t ~path:[ ((g "main", 3), g "foo", "foo") ]) in
  PP.add_probe foo_node.CP.n_prof 1 50L;
  let base_foo = CP.base t (g "foo") ~name:"foo" in
  PP.add_probe base_foo.CP.n_prof 1 7L;
  t

let test_trie_structure () =
  let t = mk_trie () in
  Alcotest.(check int) "node count" 4 (CP.n_nodes t);
  Alcotest.(check int64) "total samples" 157L (CP.total_samples t);
  let found =
    CP.find_node t ~leaf:(g "bar") (fun ctx ->
        ctx = [ (g "main", 3); (g "foo", 2) ])
  in
  Alcotest.(check bool) "deep context resolvable" true (found <> None)

let test_promote_to_base () =
  let t = mk_trie () in
  let main = CP.base t (g "main") ~name:"main" in
  CP.promote_to_base t ~parent:main ~key:(3, g "foo");
  (* foo's context merged into base foo; bar context re-rooted under base foo *)
  let base_foo = CP.base t (g "foo") ~name:"foo" in
  Alcotest.(check int64) "merged counts" 57L (PP.probe_count base_foo.CP.n_prof 1);
  Alcotest.(check bool) "bar now under base foo" true
    (Hashtbl.mem base_foo.CP.n_children (2, g "bar"));
  (* no double counting on repeated promotion *)
  CP.promote_to_base t ~parent:main ~key:(3, g "foo");
  Alcotest.(check int64) "idempotent" 57L (PP.probe_count base_foo.CP.n_prof 1);
  Alcotest.(check int64) "conserved" 157L (CP.total_samples t)

let test_trim_cold_conserves () =
  let t = mk_trie () in
  let before = CP.total_samples t in
  let removed = CP.trim_cold t ~threshold:Int64.max_int in
  Alcotest.(check bool) "contexts removed" true (removed > 0);
  Alcotest.(check int64) "samples conserved" before (CP.total_samples t);
  (* everything is now in base profiles *)
  CP.iter_nodes t (fun ctx node ->
      if ctx <> [] && Int64.compare node.CP.n_prof.PP.fe_total 0L > 0 then
        Alcotest.fail "non-base counts remain after full trim")

let test_trim_cold_keeps_hot () =
  let t = mk_trie () in
  let removed = CP.trim_cold t ~threshold:60L in
  (* bar subtree total = 100 stays; foo node itself is parent of bar so its
     subtree total is 150 -> stays *)
  ignore removed;
  Alcotest.(check bool) "hot context survives" true
    (CP.find_node t ~leaf:(g "bar") (fun ctx -> List.length ctx = 2) <> None)

let test_size_bytes_grows () =
  let t = mk_trie () in
  let s1 = CP.size_bytes t in
  let deep_path =
    [ ((g "main", 3), g "foo", "foo");
      ((g "foo", 2), g "bar", "bar");
      ((g "bar", 9), g "baz", "baz") ]
  in
  let n = Option.get (CP.node_at t ~path:deep_path) in
  PP.add_probe n.CP.n_prof 1 1L;
  Alcotest.(check bool) "size grows with contexts" true (CP.size_bytes t > s1)

(* --- text serialization round trips --------------------------------- *)

let test_probe_roundtrip () =
  let t = PP.create () in
  let fe = PP.get_or_add t (g "f") ~name:"f" in
  fe.PP.fe_head <- 12L;
  fe.PP.fe_checksum <- 0xDEADL;
  PP.add_probe fe 1 100L;
  PP.add_probe fe 3 7L;
  PP.add_call fe 2 (g "callee") 55L;
  let s = probe_to_string t in
  let t2 = read_probe s in
  let fe2 = Option.get (PP.get t2 (g "f")) in
  Alcotest.(check int64) "head" 12L fe2.PP.fe_head;
  Alcotest.(check int64) "checksum" 0xDEADL fe2.PP.fe_checksum;
  Alcotest.(check int64) "probe 1" 100L (PP.probe_count fe2 1);
  Alcotest.(check int64) "probe 3" 7L (PP.probe_count fe2 3);
  Alcotest.(check (list (pair int64 int64))) "calls" [ (g "callee", 55L) ]
    (PP.call_counts fe2 2);
  (* stable: serializing again yields identical text *)
  Alcotest.(check string) "canonical" s (probe_to_string t2)

let test_ctx_roundtrip () =
  let t = mk_trie () in
  (* add an inline mark and a head count for coverage *)
  (match CP.find_node t ~leaf:(g "bar") (fun ctx -> List.length ctx = 2) with
  | Some n ->
      n.CP.n_inlined <- true;
      n.CP.n_prof.PP.fe_head <- 9L
  | None -> Alcotest.fail "bar context missing");
  let s = CP.total_samples t in
  let text = ctx_to_string t in
  let t2 = read_ctx text in
  Alcotest.(check int64) "samples preserved" s (CP.total_samples t2);
  Alcotest.(check int) "node count preserved" (CP.n_nodes t) (CP.n_nodes t2);
  (match CP.find_node t2 ~leaf:(g "bar") (fun ctx -> List.length ctx = 2) with
  | Some n ->
      Alcotest.(check bool) "inline mark preserved" true n.CP.n_inlined;
      Alcotest.(check int64) "head preserved" 9L n.CP.n_prof.PP.fe_head
  | None -> Alcotest.fail "bar context lost");
  Alcotest.(check string) "canonical" text (ctx_to_string t2)

let test_line_roundtrip () =
  let t = LP.create () in
  let fe = LP.get_or_add t (g "f") ~name:"f" in
  fe.LP.fe_head <- 4L;
  LP.set_line_max fe (2, 0) 40L;
  LP.set_line_max fe (3, 1) 7L;
  LP.add_call fe (2, 0) (g "callee") 33L;
  let text = line_to_string t in
  let t2 = read_line text in
  let fe2 = Option.get (LP.get t2 (g "f")) in
  Alcotest.(check int64) "line 2.0" 40L (LP.line_count fe2 (2, 0));
  Alcotest.(check int64) "line 3.1" 7L (LP.line_count fe2 (3, 1));
  Alcotest.(check int64) "head" 4L fe2.LP.fe_head;
  Alcotest.(check string) "canonical" text (line_to_string t2)

let test_text_io_errors () =
  let fails s = match read_probe s with
    | exception P.Text_io.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "orphan probe" true (fails "probe 1 5");
  Alcotest.(check bool) "junk" true (fails "wibble");
  Alcotest.(check bool) "bad int" true
    (fails "function f guid=ff total=0 head=0 checksum=0\n probe x 5");
  (* comments and blank lines are fine *)
  Alcotest.(check bool) "comments ok" false
    (fails "# header\n\nfunction f guid=ff total=0 head=0 checksum=0\n probe 1 5 # hot")

(* --- the unified reader/writer interface ---------------------------- *)

let test_unified_detect_and_roundtrip () =
  let probe =
    let t = PP.create () in
    let fe = PP.get_or_add t (g "f") ~name:"f" in
    fe.PP.fe_checksum <- 0xBEEFL;
    PP.add_probe fe 1 10L;
    P.Text_io.Probe_prof t
  in
  let line =
    let t = LP.create () in
    let fe = LP.get_or_add t (g "f") ~name:"f" in
    LP.set_line_max fe (1, 0) 5L;
    P.Text_io.Line_prof t
  in
  let ctx = P.Text_io.Ctx_prof (mk_trie ()) in
  List.iter
    (fun p ->
      let kn = P.Text_io.kind_name (P.Text_io.kind_of p) in
      let s = P.Text_io.to_string p in
      (* sniffing recovers the kind without being told *)
      Alcotest.(check (option string)) (kn ^ " sniffed") (Some kn)
        (Option.map P.Text_io.kind_name (P.Text_io.detect_kind s));
      let p2 = P.Text_io.of_string s in
      Alcotest.(check string) (kn ^ " kind stable") kn
        (P.Text_io.kind_name (P.Text_io.kind_of p2));
      Alcotest.(check string) (kn ^ " canonical") s (P.Text_io.to_string p2);
      Alcotest.(check int64) (kn ^ " samples") (P.Text_io.total_samples p)
        (P.Text_io.total_samples p2))
    [ probe; line; ctx ]

let test_unified_empty_input () =
  Alcotest.(check (option string)) "no records -> no kind" None
    (Option.map P.Text_io.kind_name (P.Text_io.detect_kind "# nothing\n"));
  match P.Text_io.of_string "# nothing\n" with
  | exception P.Text_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "recordless input must not parse"

let prop_probe_roundtrip =
  QCheck.Test.make ~name:"probe profile text round-trips" ~count:100
    QCheck.(list (pair (int_range 1 40) (int_range 1 100000)))
    (fun pairs ->
      let t = PP.create () in
      let fe = PP.get_or_add t (g "f") ~name:"f" in
      List.iter (fun (id, c) -> PP.add_probe fe id (Int64.of_int c)) pairs;
      let t2 = read_probe (probe_to_string t) in
      PP.total_samples t2 = PP.total_samples t)

(* Generator-driven round-trips over whole profiles: build a random
   multi-function profile through the public API, then require the
   canonical text to survive print -> parse -> print unchanged (the
   writers sort, so the text form is canonical and string equality is
   full structural equality). Empty profiles arise from the empty spec
   list; the context property also exercises cold-trimmed tries. *)

let fname i = Printf.sprintf "fn%d" i

let fentry_spec_gen =
  QCheck.(
    pair
      (pair (int_range 0 5) (int_range 0 1000))
      (pair
         (small_list (pair (int_range 1 60) (int_range 1 100_000)))
         (small_list (triple (int_range 1 60) (int_range 0 5) (int_range 1 5000)))))

let prop_probe_profile_roundtrip =
  QCheck.Test.make ~name:"probe profiles round-trip (multi-function)" ~count:200
    QCheck.(small_list fentry_spec_gen)
    (fun specs ->
      let t = PP.create () in
      List.iter
        (fun ((fi, head), (probes, calls)) ->
          let fe = PP.get_or_add t (g (fname fi)) ~name:(fname fi) in
          fe.PP.fe_head <- Int64.of_int head;
          fe.PP.fe_checksum <- Int64.of_int (fi * 7919);
          List.iter (fun (id, c) -> PP.add_probe fe id (Int64.of_int c)) probes;
          List.iter
            (fun (site, callee, c) ->
              PP.add_call fe site (g (fname callee)) (Int64.of_int c))
            calls)
        specs;
      let s = probe_to_string t in
      String.equal s (probe_to_string (read_probe s)))

let prop_line_profile_roundtrip =
  QCheck.Test.make ~name:"line profiles round-trip (multi-function)" ~count:200
    QCheck.(small_list fentry_spec_gen)
    (fun specs ->
      let t = LP.create () in
      List.iter
        (fun ((fi, head), (lines, calls)) ->
          let fe = LP.get_or_add t (g (fname fi)) ~name:(fname fi) in
          fe.LP.fe_head <- Int64.of_int head;
          List.iter
            (fun (l, c) -> LP.add_line fe (l, l mod 3) (Int64.of_int c))
            lines;
          List.iter
            (fun (l, callee, c) ->
              LP.add_call fe (l, l mod 3) (g (fname callee)) (Int64.of_int c))
            calls)
        specs;
      let s = line_to_string t in
      String.equal s (line_to_string (read_line s)))

let ctx_spec_gen =
  (* one context: a root function, a chain of (callsite, callee) frames,
     probe counts at the leaf, and the pre-inliner mark *)
  QCheck.(
    pair
      (pair (int_range 0 3) (small_list (pair (int_range 1 9) (int_range 0 3))))
      (pair (small_list (pair (int_range 1 30) (int_range 1 10_000))) bool))

let prop_ctx_profile_roundtrip =
  QCheck.Test.make ~name:"context profiles round-trip (incl. cold-trimmed)"
    ~count:200
    QCheck.(pair (small_list ctx_spec_gen) (option (int_range 1 5000)))
    (fun (specs, trim) ->
      let t = CP.create () in
      List.iter
        (fun ((root_fi, frames), (probes, inlined)) ->
          let node =
            match frames with
            | [] -> CP.base t (g (fname root_fi)) ~name:(fname root_fi)
            | _ ->
                let path =
                  List.rev
                    (fst
                       (List.fold_left
                          (fun (acc, parent) (site, child_fi) ->
                            ( ((g (fname parent), site), g (fname child_fi),
                               fname child_fi)
                              :: acc,
                              child_fi ))
                          ([], root_fi) frames))
                in
                Option.get (CP.node_at t ~path)
          in
          node.CP.n_inlined <- inlined;
          List.iter
            (fun (id, c) -> PP.add_probe node.CP.n_prof id (Int64.of_int c))
            probes)
        specs;
      (match trim with
      | Some threshold -> ignore (CP.trim_cold t ~threshold:(Int64.of_int threshold))
      | None -> ());
      let s = ctx_to_string t in
      String.equal s (ctx_to_string (read_ctx s)))

let prop_merge_fentry_conserves =
  QCheck.Test.make ~name:"merge_fentry conserves probe totals" ~count:100
    QCheck.(list (pair (int_range 1 20) (int_range 1 1000)))
    (fun pairs ->
      let a =
        { PP.fe_total = 0L; fe_head = 0L; fe_probes = Hashtbl.create 8;
          fe_calls = Hashtbl.create 1; fe_checksum = 0L }
      in
      let b =
        { PP.fe_total = 0L; fe_head = 0L; fe_probes = Hashtbl.create 8;
          fe_calls = Hashtbl.create 1; fe_checksum = 0L }
      in
      List.iteri
        (fun i (id, c) ->
          PP.add_probe (if i mod 2 = 0 then a else b) id (Int64.of_int c))
        pairs;
      let total = Int64.add a.PP.fe_total b.PP.fe_total in
      CP.merge_fentry ~into:a b;
      Int64.equal a.PP.fe_total total)

(* --- reader edge cases, pinned against the list-based reader -------- *)

(* Each malformed input with the [Parse_error] message and line the
   list-based reader (split into lines, then into words) reported. The
   single-pass reader must agree on every row: which record is unknown,
   which token is bad, and which check fires first. *)
let parse_error_table =
  [
    (Some T.Probe, "function f guid=zz total=1 head=1 checksum=0", ("bad hex \"zz\"", 1));
    (Some T.Probe, "function f gid=1 total=1 head=1 checksum=0", ("expected guid=<value>, got \"gid=1\"", 1));
    (Some T.Probe, "function f guid=1 total=1 head=x checksum=0", ("bad integer \"x\"", 1));
    (Some T.Probe, "function f guid=1 total=1 head=1 checksum=g", ("bad hex \"g\"", 1));
    (Some T.Probe, "function f guid=1 tot=1 head=1 checksum=0", ("expected total=<value>, got \"tot=1\"", 1));
    (Some T.Probe, "function f guid=1 total=1 head=1 checksum=0 extra", ("unknown record \"function\"", 1));
    (Some T.Probe, " probe 1 2", ("probe record outside function", 1));
    (Some T.Probe, " call 1 2 3", ("call record outside function", 1));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe x 2", ("bad int \"x\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe x y", ("bad integer \"y\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n call 1 zz 3", ("bad hex \"zz\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n call a zz q", ("bad integer \"q\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n call a zz 3", ("bad hex \"zz\"", 2));
    (Some T.Probe, "function f guid=1\n", ("unknown record \"function\"", 1));
    (Some T.Probe, "bogus 1 2", ("unknown record \"bogus\"", 1));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n\n  # comment\n probe 1 2 # trailing\n probe 1", ("unknown record \"probe\"", 5));
    (Some T.Probe, "function f guid=1=2 total=1 head=1 checksum=0", ("expected guid=<value>, got \"guid=1=2\"", 1));
    (Some T.Probe, "function f guid= total=1 head=1 checksum=0", ("bad hex \"\"", 1));
    (Some T.Probe, "function f =1a total=1 head=1 checksum=0", ("expected guid=<value>, got \"=1a\"", 1));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe 1 99999999999999999999", ("bad integer \"99999999999999999999\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe 99999999999999999999 1", ("bad int \"99999999999999999999\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n call 1 1ffffffffffffffff 1", ("bad hex \"1ffffffffffffffff\"", 2));
    (Some T.Probe, "function\tf guid=1 total=1 head=1 checksum=0", ("unknown record \"function\\tf\"", 1));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe 1 2\r\n", ("bad integer \"2\\r\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n call 1 +ff 2", ("bad hex \"+ff\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n call 1 0x1f 2", ("bad hex \"0x1f\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n call 1 -1 2", ("bad hex \"-1\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe 1 -", ("bad integer \"-\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe 1 _1", ("bad integer \"_1\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe 1 0x", ("bad integer \"0x\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n call 1 _f 2", ("bad hex \"_f\"", 2));
    (Some T.Probe, "function f guid=1a total=1 head=1 checksum=0\n probe 1 1.5", ("bad integer \"1.5\"", 2));
    (Some T.Ctx, " probe 1 2", ("record outside context", 1));
    (Some T.Ctx, " head 1", ("record outside context", 1));
    (Some T.Ctx, " frame 1 2", ("frame outside context header", 1));
    (Some T.Ctx, "context f guid=1a\n head 1\n frame 2 3", ("frame outside context header", 3));
    (Some T.Ctx, "context f guid=1a\n frame zz q", ("bad int \"q\"", 2));
    (Some T.Ctx, "context f guid=1a\n frame zz 1", ("bad hex \"zz\"", 2));
    (Some T.Ctx, "context f guid=1a\n head x", ("bad integer \"x\"", 2));
    (Some T.Ctx, "context f guid=1a\n checksum x", ("bad hex \"x\"", 2));
    (Some T.Ctx, "context f\n", ("unknown record \"context\"", 1));
    (Some T.Ctx, "context f gu=1", ("expected guid=<value>, got \"gu=1\"", 1));
    (Some T.Ctx, "context f guid=q", ("bad hex \"q\"", 1));
    (Some T.Ctx, "context f guid=1a\n probe a b", ("bad integer \"b\"", 2));
    (Some T.Ctx, "context f guid=1a\n call 1 2", ("unknown record \"call\"", 2));
    (Some T.Ctx, "context f guid=1a\n call a b c", ("bad integer \"c\"", 2));
    (Some T.Ctx, "context f guid=1a\n frame 1 2 3", ("unknown record \"frame\"", 2));
    (Some T.Ctx, "context f guid=1a\n head 1 2", ("unknown record \"head\"", 2));
    (Some T.Ctx, "context f guid=1a\n bogus", ("unknown record \"bogus\"", 2));
    (Some T.Ctx, "context f guid=1a\n probe 1 2\ncontext f guid=1a\n frame 2 x", ("bad int \"x\"", 4));
    (Some T.Line, "function f guid=1a total=1 head=1\n line 1 2", ("bad line key \"1\"", 2));
    (Some T.Line, "function f guid=1a total=1 head=1\n line 1.2.3 4", ("bad line key \"1.2.3\"", 2));
    (Some T.Line, "function f guid=1a total=1 head=1\n line a.b c", ("bad integer \"c\"", 2));
    (Some T.Line, "function f guid=1a total=1 head=1\n line a.b 1", ("bad int \"b\"", 2));
    (Some T.Line, "function f guid=1a total=1 head=1\n callline 1.x zz 3", ("bad hex \"zz\"", 2));
    (Some T.Line, "function f guid=1a total=1 head=1\n callline 1.x zz q", ("bad integer \"q\"", 2));
    (Some T.Line, "function f guid=1a total=1 head=1\n callline y.x 1 3", ("bad int \"x\"", 2));
    (Some T.Line, " line 1.2 3", ("line record outside function", 1));
    (Some T.Line, " callline 1.2 3 4", ("callline record outside function", 1));
    (Some T.Line, "function f guid=1 total=1 head=1 checksum=2", ("unknown record \"function\"", 1));
    (Some T.Line, "function f guid=1 total=1 hd=1", ("expected head=<value>, got \"hd=1\"", 1));
    (Some T.Line, "function f guid=x total=1 head=1", ("bad hex \"x\"", 1));
    (Some T.Line, "function f guid=1a total=1 head=1\n probe 1 2", ("unknown record \"probe\"", 2));
    (None, "", ("empty profile text: cannot detect kind", 0));
    (None, "# only a comment\n\n   \n", ("empty profile text: cannot detect kind", 0));
    (None, "garbage", ("unknown record \"garbage\"", 1));
    (None, "\n\nfunction f guid=1 total=1 head=1 xchecksum=0", ("unknown record \"function\"", 3));
    (None, "function f guid=1 total=1 head=1 checksum=q", ("bad hex \"q\"", 1));
    (None, "context", ("unknown record \"context\"", 1));
    (None, "   function", ("unknown record \"function\"", 1));
  ]

(* Inputs outside the canonical form that the list-based reader accepted
   (prefixed, signed and underscored numbers, 16-digit hex, comments,
   repeated and out-of-order records), with its canonical rendering. *)
let accepted_table =
  [
    (Some T.Probe, "function f guid=1A total=9 head=+5 checksum=DEAD_beef\n probe 0x10 1_000\n probe 0b11 0o17\n call 1_0 f_f -3\n probe 16 1\n  \n#x\nfunction g guid=ffffffffffffffff total=xy head=0u7 checksum=00\n probe 1 -9223372036854775808\n probe 2 9223372036854775807\n call 3 8000000000000000 123456789012345678\n", "function g guid=ffffffffffffffff total=-1 head=7 checksum=0\n probe 1 -9223372036854775808\n probe 2 9223372036854775807\n call 3 8000000000000000 123456789012345678\nfunction f guid=1a total=1016 head=5 checksum=deadbeef\n probe 3 15\n probe 16 1001\n call 10 ff -3\n");
    (Some T.Ctx, "context b guid=2 inlined\n frame 1 3\n probe 1 2\ncontext a guid=1\n head 4\n checksum ff\n probe 1 1\ncontext c guid=3 x y inlined\n frame 1 3\n frame 2 5\n call 7 9 1\ncontext b guid=2\n frame 1 3\n probe 1 5\ncontext d guid=4\n frame 1 3\n frame 2 5\n frame 3 1\ncontext z guid=1a\n frame 1 4\n", "context a guid=1\n head 4\n checksum ff\n probe 1 1\ncontext b guid=2 inlined\n frame 1 3\n head 0\n checksum 0\n probe 1 7\ncontext c guid=3 inlined\n frame 1 3\n frame 2 5\n head 0\n checksum 0\n call 7 9 1\ncontext d guid=4\n frame 1 3\n frame 2 5\n frame 3 1\n head 0\n checksum 0\ncontext z guid=1a\n frame 1 4\n head 0\n checksum 0\n");
    (Some T.Line, "function f guid=1 total=3 head=2\n line 1.0 5\n line 1.0 3\n line 0x2.0b1 7\n callline 3.0 ab 4\n callline 3.0 ab 4\n", "function f guid=1 total=12 head=2\n line 1.0 5\n line 2.1 7\n callline 3.0 ab 8\n");
    (None, "\n# lead\ncontext a guid=1\n probe 1 1\n", "context a guid=1\n head 0\n checksum 0\n probe 1 1\n");
    (Some T.Ctx, "context x guid=9\n frame 7 2\n frame 5 3\n probe 1 1\ncontext y guid=8\n frame 7 2\n frame 5 4\ncontext w guid=6\n frame 7 1\n", "context 7 guid=7\n head 0\n checksum 0\ncontext w guid=6\n frame 7 1\n head 0\n checksum 0\ncontext 5 guid=5\n frame 7 2\n head 0\n checksum 0\ncontext x guid=9\n frame 7 2\n frame 5 3\n head 0\n checksum 0\n probe 1 1\ncontext y guid=8\n frame 7 2\n frame 5 4\n head 0\n checksum 0\n");
  ]

let test_parse_error_table () =
  List.iter
    (fun (kind, input, (msg, line)) ->
      match T.of_string ?kind input with
      | _ -> Alcotest.failf "accepted %S" input
      | exception T.Parse_error (m, l) ->
          Alcotest.(check (pair string int)) (Printf.sprintf "%S" input) (msg, line) (m, l))
    parse_error_table;
  List.iter
    (fun (kind, input, canonical) ->
      Alcotest.(check string) (Printf.sprintf "%S" input) canonical
        (T.to_string (T.of_string ?kind input)))
    accepted_table

(* Deep contexts that share prefixes: each context takes a prefix of one
   long chain (up to 40 frames) and extends it with a short private
   suffix. Reading the canonical text back must reproduce it, and so must
   reading its context blocks in a shuffled order, which defeats the
   reader's reuse of the previous context's path at every block. *)
let deep_ctx_gen =
  let step = QCheck.Gen.(pair (int_range 1 4) (int_range 0 3)) in
  QCheck.Gen.(
    triple (int_range 0 3)
      (list_size (int_range 0 40) step)
      (list_size (int_range 1 12)
         (triple (int_range 0 40) (list_size (int_range 0 6) step) (int_range 0 1000))))

let context_blocks text =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun blocks line ->
         match blocks with
         | cur :: rest when not (String.starts_with ~prefix:"context " line) ->
             (cur ^ line ^ "\n") :: rest
         | _ -> (line ^ "\n") :: blocks)
       []
  |> List.rev

let prop_deep_ctx_roundtrip =
  QCheck.Test.make ~name:"deep shared-prefix context profiles round-trip in any block order"
    ~count:200
    (QCheck.make deep_ctx_gen)
    (fun (root_fi, chain, branches) ->
      let t = CP.create () in
      List.iter
        (fun (cut, suffix, c) ->
          let frames = List.filteri (fun i _ -> i < cut) chain @ suffix in
          let node =
            List.fold_left
              (fun parent (site, fi) ->
                CP.attach t ~parent:(Some parent) ~site (g (fname fi)) ~name:(fname fi))
              (CP.base t (g (fname root_fi)) ~name:(fname root_fi))
              frames
          in
          node.CP.n_inlined <- c mod 3 = 0;
          PP.add_probe node.CP.n_prof (1 + (c mod 7)) (Int64.of_int c);
          if c mod 5 = 0 then PP.add_call node.CP.n_prof 2 (g (fname (c mod 4))) 3L)
        branches;
      let s = ctx_to_string t in
      let blocks = Array.of_list (context_blocks (String.sub s 0 (String.length s - 1))) in
      let rng = Random.State.make [| Hashtbl.hash s |] in
      for i = Array.length blocks - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let b = blocks.(i) in
        blocks.(i) <- blocks.(j);
        blocks.(j) <- b
      done;
      String.equal s (ctx_to_string (read_ctx s))
      && String.equal s (ctx_to_string (read_ctx (String.concat "" (Array.to_list blocks)))))

let suite =
  ( "profile",
    [
      Alcotest.test_case "line profile max heuristic" `Quick test_line_profile_max;
      Alcotest.test_case "probe profile sums" `Quick test_probe_profile_sum;
      Alcotest.test_case "trie structure" `Quick test_trie_structure;
      Alcotest.test_case "promote to base" `Quick test_promote_to_base;
      Alcotest.test_case "trim cold conserves" `Quick test_trim_cold_conserves;
      Alcotest.test_case "trim keeps hot" `Quick test_trim_cold_keeps_hot;
      Alcotest.test_case "size estimate" `Quick test_size_bytes_grows;
      Alcotest.test_case "probe text roundtrip" `Quick test_probe_roundtrip;
      Alcotest.test_case "ctx text roundtrip" `Quick test_ctx_roundtrip;
      Alcotest.test_case "line text roundtrip" `Quick test_line_roundtrip;
      Alcotest.test_case "text parse errors" `Quick test_text_io_errors;
      Alcotest.test_case "text reader error and grammar table" `Quick test_parse_error_table;
      Alcotest.test_case "unified io detects and round-trips" `Quick
        test_unified_detect_and_roundtrip;
      Alcotest.test_case "unified io rejects recordless input" `Quick
        test_unified_empty_input;
      QCheck_alcotest.to_alcotest prop_probe_roundtrip;
      QCheck_alcotest.to_alcotest prop_probe_profile_roundtrip;
      QCheck_alcotest.to_alcotest prop_line_profile_roundtrip;
      QCheck_alcotest.to_alcotest prop_ctx_profile_roundtrip;
      QCheck_alcotest.to_alcotest prop_deep_ctx_roundtrip;
      QCheck_alcotest.to_alcotest prop_merge_fentry_conserves;
    ] )
