module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module Vm = Csspgo_vm
module P = Csspgo_profile
module Pg = Csspgo_profgen

type stats = {
  st_samples : int;
  st_dropped_misaligned : int;
  st_gaps_resolved : int;
  st_gaps_failed : int;
}

type stream = {
  sm_feed :
    lbr:(int * int) array -> lbr_len:int -> stack:int array -> stack_len:int -> unit;
  sm_finish : unit -> P.Ctx_profile.t * stats;
}

(* One frame of a reconstructed caller path, linked to the frame outside
   it: function [pe_func] calling out at callsite probe [pe_site]. Its
   trie node (the function's profile in the context its outer frames
   name) is resolved on first use, so the trie only ever gets the nodes
   some attribution reaches. *)
type pelem = {
  pe_outer : pelem option;
  pe_func : Ir.Guid.t;
  pe_site : int;
  mutable pe_node : P.Ctx_profile.node option;
}

(* A caller state: the path reconstructed from a caller-stack prefix
   (innermost frame last), the function the innermost call statically
   targets, and the gap-counter deltas bridging that prefix costs. States
   are hash-consed on (outer state, return address), so samples sharing a
   caller prefix share its state; [cs_id] is -1 for a state built after
   the intern table filled up, which then takes no part in memoization. *)
type cstate = {
  cs_id : int;
  cs_path : pelem option;
  cs_expected : Ir.Guid.t option;
  cs_resolved : int;
  cs_failed : int;
  cs_inferred : int;
}

(* A place a range attributes to: inline frames below the caller path,
   then the function whose profile is bumped. *)
type target = { tg_frames : (Ir.Guid.t * int) list; tg_func : Ir.Guid.t }

(* What one linear range (lo, hi) holds, computed once per range: the
   function containing [lo], probe hits and callsite targets. *)
type range = {
  rg_id : int;
  rg_leaf : Ir.Guid.t option;
  rg_probes : (target * int) array;
  rg_calls : (target * int * Ir.Guid.t) array;
}

type bump =
  | Probe of P.Probe_profile.fentry * int
  | Call of P.Probe_profile.fentry * int * Ir.Guid.t

(* The attribution of one range under one caller state: the trie bumps
   in order, the gap-counter deltas, and how often it repeated since its
   bumps were last applied. *)
type memo = {
  m_bumps : bump array;
  m_resolved : int;
  m_failed : int;
  m_inferred : int;
  mutable m_repeats : int;
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Two non-negative values below 2^31 in one int key; -1 otherwise. *)
let pack a b = if a < 0 || b < 0 || a > 0x7fffffff || b > 0x7fffffff then -1 else (a lsl 31) lor b

(* Memo entries and interned states are keyed on program structure (ranges
   x distinct caller prefixes), not on sample count; both are capped
   defensively. Past a cap everything is recomputed, with the same result. *)
let memo_cap = 1 lsl 16
let state_cap = 1 lsl 20

let start ?(name_of = fun _ -> None) ?missing ~checksum_of
    ?(obs = Csspgo_obs.Metrics.null) (ix : Pg.Bindex.t) =
  let b = Pg.Bindex.binary ix in
  let trie = P.Ctx_profile.create () in
  let name_for guid =
    Option.value (name_of guid) ~default:(Format.asprintf "%a" Ir.Guid.pp guid)
  in
  let dropped = ref 0 in
  let gaps_resolved = ref 0 in
  let gaps_failed = ref 0 in
  let n_samples = ref 0 in
  (* Telemetry accumulated locally and flushed once in [finish]; the
     feed path never touches the registry, so attribution (and the
     byte-identity oracle it feeds) is unchanged by observation. *)
  let inferred = ref 0 in
  let depth_hist = Array.make 64 0 in
  (* One trie step: the root for [guid] under no parent, else the
     parent's child at callsite [site]. The name is only computed for a
     node created here: [name_of] can be a scan of the program. *)
  let child parent site guid =
    match parent with
    | None -> (
        match Ir.Guid.Tbl.find_opt trie.P.Ctx_profile.roots guid with
        | Some n -> n
        | None -> P.Ctx_profile.base trie guid ~name:(name_for guid))
    | Some (p : P.Ctx_profile.node) -> (
        match Hashtbl.find_opt p.P.Ctx_profile.n_children (site, guid) with
        | Some n -> n
        | None ->
            P.Ctx_profile.attach trie ~parent:(Some p) ~site guid ~name:(name_for guid))
  in
  let rec node_of e =
    match e.pe_node with
    | Some n -> n
    | None ->
        let n =
          match e.pe_outer with
          | None -> child None 0 e.pe_func
          | Some o -> child (Some (node_of o)) o.pe_site e.pe_func
        in
        e.pe_node <- Some n;
        n
  in
  let target_node path tg =
    let rec go parent site = function
      | [] -> child parent site tg.tg_func
      | (f, s) :: rest -> go (Some (child parent site f)) s rest
    in
    match path with
    | None -> go None 0 tg.tg_frames
    | Some e -> go (Some (node_of e)) e.pe_site tg.tg_frames
  in
  let ensure_checksum (node : P.Ctx_profile.node) =
    let fe = node.P.Ctx_profile.n_prof in
    if Int64.equal fe.P.Probe_profile.fe_checksum 0L then
      fe.P.Probe_profile.fe_checksum <- checksum_of node.P.Ctx_profile.n_func
  in
  let extend path frames =
    List.fold_left
      (fun outer (f, s) -> Some { pe_outer = outer; pe_func = f; pe_site = s; pe_node = None })
      path frames
  in
  (* Bridge a tail-call gap between the function the path expects next
     and [to_func]: splice in the unique missing-frame chain, or truncate
     the outer context. Returns the new path and its gap deltas. *)
  let bridge path expected ~to_func =
    match expected with
    | Some exp when not (Ir.Guid.equal exp to_func) -> (
        match Option.bind missing (fun mf -> Missing_frame.resolve mf ~from_func:exp ~to_func) with
        | Some chain ->
            let path =
              List.fold_left
                (fun path addr ->
                  let ti = Pg.Bindex.idx_of_addr ix addr in
                  if ti >= 0 then extend path (Pg.Bindex.level_path ix ti) else path)
                path chain
            in
            (path, 1, 0, List.length chain)
        | None -> (None, 0, 1, 0))
    | _ -> (path, 0, 0, 0)
  in
  let root =
    { cs_id = 0; cs_path = None; cs_expected = None; cs_resolved = 0; cs_failed = 0; cs_inferred = 0 }
  in
  let states = Itbl.create 1024 in
  let n_states = ref 1 in
  (* The caller state one return address further in. *)
  let step st ret =
    let key = if st.cs_id < 0 then -1 else pack st.cs_id ret in
    match if key < 0 then raise_notrace Not_found else Itbl.find states key with
    | s -> s
    | exception Not_found ->
        let path, expected, dr, df, di =
          match Pg.Bindex.call_idx_before ix ret with
          | -1 -> (None, None, 0, 0, 0)
          | ci ->
              let path, dr, df, di =
                bridge st.cs_path st.cs_expected ~to_func:(Pg.Bindex.container ix ci)
              in
              (extend path (Pg.Bindex.level_path ix ci), Pg.Bindex.callee ix ci, dr, df, di)
        in
        let interned = key >= 0 && !n_states < state_cap in
        let s =
          {
            cs_id = (if interned then !n_states else -1);
            cs_path = path;
            cs_expected = expected;
            cs_resolved = st.cs_resolved + dr;
            cs_failed = st.cs_failed + df;
            cs_inferred = st.cs_inferred + di;
          }
        in
        if interned then begin
          incr n_states;
          Itbl.add states key s
        end;
        s
  in
  let ranges = Itbl.create 1024 in
  let range_of lo hi =
    let key = pack lo hi in
    match if key < 0 then raise_notrace Not_found else Itbl.find ranges key with
    | r -> r
    | exception Not_found ->
        let probes =
          List.map
            (fun (pr : Mach.probe_rec) ->
              let frames =
                List.rev_map (fun cs -> (cs.Ir.Dloc.cs_func, cs.Ir.Dloc.cs_probe)) pr.Mach.pr_chain
              in
              ({ tg_frames = frames; tg_func = pr.Mach.pr_func }, pr.Mach.pr_id))
            (Probe_corr.probes_in_range b (lo, hi))
        in
        (* A call counts toward its owner context: the call's level path
           up to, and naming, the innermost inline frame. *)
        let calls = ref [] in
        Pg.Bindex.iter_range ix (lo, hi) (fun ii ->
            let cs = Pg.Bindex.cs_probe ix ii in
            if cs > 0 then
              match (Pg.Bindex.callee ix ii, List.rev (Pg.Bindex.level_path ix ii)) with
              | Some callee, (owner, _) :: rev_prefix ->
                  calls :=
                    ({ tg_frames = List.rev rev_prefix; tg_func = owner }, cs, callee) :: !calls
              | _ -> ());
        let r =
          {
            rg_id = (if key < 0 then -1 else Itbl.length ranges);
            rg_leaf = Pg.Bindex.func_guid_of_addr ix lo;
            rg_probes = Array.of_list probes;
            rg_calls = Array.of_list (List.rev !calls);
          }
        in
        if key >= 0 then Itbl.add ranges key r;
        r
  in
  (* Resolve one range under one caller state: the leaf-level gap (tail
     calls between the innermost caller and the range), then the trie
     node of every probe hit and callsite target. *)
  let resolve st r =
    let path, dr, df, di =
      match r.rg_leaf with
      | Some leaf -> bridge st.cs_path st.cs_expected ~to_func:leaf
      | None -> (st.cs_path, 0, 0, 0)
    in
    let node tg =
      let n = target_node path tg in
      ensure_checksum n;
      n.P.Ctx_profile.n_prof
    in
    let probes = Array.map (fun (tg, id) -> Probe (node tg, id)) r.rg_probes in
    let calls = Array.map (fun (tg, cs, callee) -> Call (node tg, cs, callee)) r.rg_calls in
    {
      m_bumps = Array.append probes calls;
      m_resolved = st.cs_resolved + dr;
      m_failed = st.cs_failed + df;
      m_inferred = st.cs_inferred + di;
      m_repeats = 0;
    }
  in
  let apply m n =
    let n = Int64.of_int n in
    let bumps = m.m_bumps in
    for i = 0 to Array.length bumps - 1 do
      match Array.unsafe_get bumps i with
      | Probe (fe, id) -> P.Probe_profile.add_probe fe id n
      | Call (fe, cs, callee) -> P.Probe_profile.add_call fe cs callee n
    done
  in
  let count_gaps m =
    gaps_resolved := !gaps_resolved + m.m_resolved;
    gaps_failed := !gaps_failed + m.m_failed;
    inferred := !inferred + m.m_inferred
  in
  (* Hot loops repeat the same (range, caller state) pairs for thousands
     of samples. The first occurrence applies its bumps (so every trie
     node and count key is created in sample order); a repeat only counts
     itself, and [flush] applies each pair's bumps once, scaled by its
     repeats. Counts are additive and trie nodes stable once created, so
     this is bit-identical to bumping per sample. *)
  let memo = Itbl.create 1024 in
  let attribute lo hi st =
    if lo > 0 && hi >= lo then begin
      let r = range_of lo hi in
      let key = if st.cs_id < 0 || r.rg_id < 0 then -1 else pack st.cs_id r.rg_id in
      match if key < 0 then raise_notrace Not_found else Itbl.find memo key with
      | m ->
          count_gaps m;
          m.m_repeats <- m.m_repeats + 1
      | exception Not_found ->
          let m = resolve st r in
          count_gaps m;
          apply m 1;
          if key >= 0 && Itbl.length memo < memo_cap then Itbl.add memo key m
    end
  in
  let flush () =
    Itbl.iter
      (fun _ m ->
        if m.m_repeats > 0 then begin
          apply m m.m_repeats;
          m.m_repeats <- 0
        end)
      memo
  in
  (* The caller states of the current sample, outermost first; [top]
     indexes the innermost. *)
  let stk = ref (Array.make 64 root) in
  let feed ~lbr ~lbr_len ~stack ~stack_len =
    incr n_samples;
    if lbr_len > 0 && stack_len > 0 then begin
      let _, last_tgt = lbr.(lbr_len - 1) in
      (* Synchronization check: the sampled leaf frame must live in the
         function the last LBR branch landed in. *)
      let aligned =
        let ia = Pg.Bindex.idx_of_addr ix stack.(0) and ic = Pg.Bindex.idx_of_addr ix last_tgt in
        if ia >= 0 && ic >= 0 then
          Ir.Guid.equal (Pg.Bindex.container ix ia) (Pg.Bindex.container ix ic)
        else
          match
            (Pg.Bindex.func_guid_of_addr ix stack.(0), Pg.Bindex.func_guid_of_addr ix last_tgt)
          with
          | Some a, Some c -> Ir.Guid.equal a c
          | _ -> false
      in
      if not aligned then incr dropped
      else begin
        let d = min (stack_len - 1) 63 in
        depth_hist.(d) <- depth_hist.(d) + 1;
        if Array.length !stk < stack_len + lbr_len then
          stk := Array.make (2 * (stack_len + lbr_len)) root;
        let stk = !stk in
        let top = ref 0 in
        for i = stack_len - 1 downto 1 do
          stk.(!top + 1) <- step stk.(!top) stack.(i);
          incr top
        done;
        (* Newest run: from the last branch target to the sampled ip. *)
        attribute last_tgt stack.(0) stk.(!top);
        (* Walk branches newest -> oldest, undoing each one: a call pops
           the innermost caller, a return pushes the returned-to one. *)
        for i = lbr_len - 1 downto 1 do
          let cur_src, cur_tgt = lbr.(i) in
          let _, older_tgt = lbr.(i - 1) in
          (match Pg.Bindex.kind_of_addr ix cur_src with
          | Pg.Bindex.K_call -> if !top > 0 then decr top
          | Pg.Bindex.K_ret ->
              stk.(!top + 1) <- step stk.(!top) cur_tgt;
              incr top
          | Pg.Bindex.K_tail_call | Pg.Bindex.K_other -> ());
          attribute older_tgt cur_src stk.(!top)
        done
      end
    end
  in
  let finish () =
    flush ();
    (let module M = Csspgo_obs.Metrics in
     M.bump (M.counter obs "ctx.samples") !n_samples;
     M.bump (M.counter obs "ctx.dropped-misaligned") !dropped;
     M.bump (M.counter obs "ctx.gaps-resolved") !gaps_resolved;
     M.bump (M.counter obs "ctx.gaps-failed") !gaps_failed;
     M.bump (M.counter obs "ctx.inferred-frames") !inferred;
     let h = M.histogram obs "ctx.context-depth" in
     Array.iteri (fun d count -> if count > 0 then M.observe_n h d count) depth_hist);
    ( trie,
      {
        st_samples = !n_samples;
        st_dropped_misaligned = !dropped;
        st_gaps_resolved = !gaps_resolved;
        st_gaps_failed = !gaps_failed;
      } )
  in
  { sm_feed = feed; sm_finish = finish }

let feed s ~lbr ~lbr_len ~stack ~stack_len = s.sm_feed ~lbr ~lbr_len ~stack ~stack_len
let finish s = s.sm_finish ()

let reconstruct ?name_of ?missing ~checksum_of (b : Mach.binary) samples =
  let st = start ?name_of ?missing ~checksum_of (Pg.Bindex.create b) in
  List.iter
    (fun (s : Vm.Machine.sample) ->
      st.sm_feed ~lbr:s.Vm.Machine.s_lbr
        ~lbr_len:(Array.length s.Vm.Machine.s_lbr)
        ~stack:s.Vm.Machine.s_stack
        ~stack_len:(Array.length s.Vm.Machine.s_stack))
    samples;
  st.sm_finish ()
