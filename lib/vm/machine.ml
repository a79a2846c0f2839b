open Csspgo_support
module Ir = Csspgo_ir
module Mach = Csspgo_codegen.Mach
module T = Ir.Types

type pmu = {
  sample_period : int;
  lbr_depth : int;
  pebs : bool;
  skid_prob : float;
  seed : int64;
}

let default_pmu =
  { sample_period = 9973; lbr_depth = 16; pebs = true; skid_prob = 0.35; seed = 42L }

type sample = {
  s_lbr : (int * int) array;
  s_stack : int array;
}

type sink = {
  on_sample :
    lbr:(int * int) array -> lbr_len:int -> stack:int array -> stack_len:int -> unit;
  on_labels : Csspgo_support.Label_set.t -> unit;
}

let no_labels (_ : Csspgo_support.Label_set.t) = ()

type result = {
  cycles : int64;
  instructions : int64;
  ret_value : int64;
  samples : sample list;
  n_samples : int;
  counters : int64 array;
  icache_misses : int64;
  taken_branches : int64;
  mispredicts : int64;
  value_profiles : (int, (int64, int64) Hashtbl.t) Hashtbl.t;
}

exception Trap of string

(* ------------------------------------------------------------------ *)
(* Unboxed storage. Register files, spill slots and globals are int64
   words in [Bytes], read and written through the native-endian
   primitives: a value read and immediately written back, or fed to an
   arithmetic primitive, is never boxed. The byte order is internal. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* ------------------------------------------------------------------ *)
(* Decoded representation: names and guids resolved to dense indices,
   addresses resolved to instruction indices, and every static branch's
   LBR record built once.

   An operand is one int: [r] for register r, [n_phys + s] for spill slot
   s (both are word indices into the current frame; a slot beyond the
   frame reads as 0), and [-1 - k] for the k-th immediate of the constant
   pool. A location ([Mach.loc]) uses the same word index, or -1 for
   "none". *)

type dcall = {
  c_entry : int;            (* entry instruction index *)
  c_words : int;            (* callee frame size, words *)
  c_params : int array;     (* callee parameter locations *)
  c_args : int array;       (* operands *)
  c_ret : int;              (* caller location receiving the result; -1 = none *)
  c_cost : int;
  c_pair : int * int;       (* LBR record *)
}

type dop =
  | DArith of { op : T.binop; d : int; a : int; b : int; cost : int }
  | DCmp of { op : T.cmpop; d : int; a : int; b : int }
  | DSelect of { d : int; c : int; a : int; b : int }
  | DMov of { d : int; a : int }  (* also spill loads *)
  | DLoad of { d : int; g : int; i : int }
  | DStore of { g : int; i : int; v : int }
  | DSpill_st of { slot : int; r : int }
  | DCall of dcall
  | DTail_call of dcall
  | DRet of { a : int; cost : int }
  | DJmp of { t : int; pair : int * int }
  | DJcc of { c : int; pol : bool; t : int; pair : int * int }
  | DSwitch of {
      a : int;
      cost : int;
      keys : int64 array;
      tgts : int array;
      pairs : (int * int) array;
      dflt : int;
      dpair : int * int;
    }
  | DInc of int
  | DValprof of { site : int; a : int }
  | DNop

type decoded = {
  dops : dop array;
  kpool : Bytes.t;           (* immediates, 8 bytes each *)
  iaddr : int array;
  line0 : int array;         (* first and last i-cache line each instruction spans *)
  line1 : int array;
  fn_words : int array;      (* per function: frame size in words *)
  fn_params : int array array;
  entry_idx : int Ir.Guid.Tbl.t;
}

let frame_words (f : Mach.bfunc) = Mach.n_phys + max f.Mach.bf_nslots 1
let loc_word = function Mach.LReg p -> p | Mach.LSpill s -> Mach.n_phys + s

let decode (b : Mach.binary) =
  let insts = b.Mach.insts in
  let n_inst = Array.length insts in
  let gindex = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace gindex name i) b.Mach.globals;
  let entry_idx = Ir.Guid.Tbl.create 64 in
  let func_by_guid = Ir.Guid.Tbl.create 64 in
  Array.iteri
    (fun i (f : Mach.bfunc) ->
      Ir.Guid.Tbl.replace func_by_guid f.Mach.bf_guid i;
      match Hashtbl.find_opt b.Mach.addr_index f.Mach.bf_start with
      | Some idx -> Ir.Guid.Tbl.replace entry_idx f.Mach.bf_guid idx
      | None -> ())
    b.Mach.funcs;
  let fn_words = Array.map frame_words b.Mach.funcs in
  let fn_params =
    Array.map (fun (f : Mach.bfunc) -> Array.map loc_word f.Mach.bf_param_locs) b.Mach.funcs
  in
  let consts = Buffer.create 64 in
  let operand = function
    | Mach.OReg r -> r
    | Mach.OSpill s -> Mach.n_phys + s
    | Mach.OImm v ->
        let k = Buffer.length consts / 8 in
        Buffer.add_int64_ne consts v;
        -1 - k
  in
  let is_spill = function Mach.OSpill _ -> true | _ -> false in
  let idx_of_addr addr =
    match Hashtbl.find_opt b.Mach.addr_index addr with
    | Some i -> i
    | None -> raise (Trap (Printf.sprintf "jump to unmapped address 0x%x" addr))
  in
  let pair src_idx tgt_idx =
    (insts.(src_idx).Mach.i_addr, if tgt_idx < n_inst then insts.(tgt_idx).Mach.i_addr else 0)
  in
  let decode_call i base_cost (c : Mach.mcall) =
    let fi =
      match Ir.Guid.Tbl.find_opt func_by_guid c.Mach.m_callee with
      | Some i -> i
      | None -> raise (Trap ("call to unknown function " ^ c.Mach.m_callee_name))
    in
    let entry =
      match Ir.Guid.Tbl.find_opt entry_idx c.Mach.m_callee with
      | Some i -> i
      | None -> raise (Trap ("function with no code: " ^ c.Mach.m_callee_name))
    in
    {
      c_entry = entry;
      c_words = fn_words.(fi);
      c_params = fn_params.(fi);
      c_args = Array.of_list (List.map operand c.Mach.m_args);
      c_ret = (match c.Mach.m_ret with Some l -> loc_word l | None -> -1);
      (* +1 per spill-slot argument *)
      c_cost = base_cost + List.length (List.filter is_spill c.Mach.m_args);
      c_pair = pair i entry;
    }
  in
  let dops =
    Array.mapi
      (fun i (inst : Mach.inst) ->
        match inst.Mach.i_op with
        | Mach.MArith (op, d, a, b') ->
            (* Division by a compile-time constant is strength-reduced
               (multiply/shift sequence), far cheaper than a full divide. *)
            let cost =
              match (op, b') with
              | (T.Div | T.Rem), Mach.OImm _ -> 4
              | (T.Div | T.Rem), _ -> 20
              | T.Mul, _ -> 3
              | _ -> 1
            in
            DArith { op; d; a = operand a; b = operand b'; cost }
        | Mach.MCmp (op, d, a, b') -> DCmp { op; d; a = operand a; b = operand b' }
        | Mach.MSelect (d, c, a, b') -> DSelect { d; c; a = operand a; b = operand b' }
        | Mach.MMov (d, a) -> DMov { d; a = operand a }
        | Mach.MLoad (d, g, ix) -> DLoad { d; g = Hashtbl.find gindex g; i = operand ix }
        | Mach.MStore (g, ix, v) ->
            DStore { g = Hashtbl.find gindex g; i = operand ix; v = operand v }
        | Mach.MSpill_ld (d, s) -> DMov { d; a = Mach.n_phys + s }
        | Mach.MSpill_st (s, r) -> DSpill_st { slot = Mach.n_phys + s; r }
        | Mach.MCall c -> DCall (decode_call i 14 c)
        | Mach.MTail_call c -> DTail_call (decode_call i 10 c)
        | Mach.MRet o -> DRet { a = operand o; cost = (if is_spill o then 6 else 5) }
        | Mach.MJmp a ->
            let t = idx_of_addr a in
            DJmp { t; pair = pair i t }
        | Mach.MJcc (c, pol, a) ->
            let t = idx_of_addr a in
            DJcc { c; pol; t; pair = pair i t }
        | Mach.MSwitch (o, cases, d) ->
            let tgts = Array.of_list (List.map (fun (_, a) -> idx_of_addr a) cases) in
            let dflt = idx_of_addr d in
            DSwitch
              {
                a = operand o;
                cost = (if is_spill o then 8 else 5);
                keys = Array.of_list (List.map fst cases);
                tgts;
                pairs = Array.map (pair i) tgts;
                dflt;
                dpair = pair i dflt;
              }
        | Mach.MInc c -> DInc c
        | Mach.MValprof (site, o) -> DValprof { site; a = operand o }
        | Mach.MNop -> DNop)
      insts
  in
  let iaddr = Array.map (fun (inst : Mach.inst) -> inst.Mach.i_addr) insts in
  {
    dops;
    kpool = Buffer.to_bytes consts;
    iaddr;
    line0 = Array.map (fun a -> a lsr 6) iaddr;
    line1 =
      Array.map (fun (inst : Mach.inst) -> (inst.Mach.i_addr + inst.Mach.i_size - 1) lsr 6) insts;
    fn_words;
    fn_params;
    entry_idx;
  }

(* ------------------------------------------------------------------ *)
(* Operand reads and ALU semantics. These live here, not in [Ir.Types]:
   the dev profile compiles every module [-opaque], so a call into another
   module is never inlined and always returns a boxed int64. Inlined, they
   compile to unboxed reads and arithmetic. The arithmetic must agree with
   [Ir.Types.eval_binop] / [eval_cmpop] (the constant folder's semantics);
   a property test pins that. *)

let[@inline] read mem base words kpool o =
  if o >= 0 then if o < words then get64 mem (base + (o lsl 3)) else 0L
  else get64 kpool ((-1 - o) lsl 3)

let[@inline] binop op (a : int64) (b : int64) =
  match op with
  | T.Add -> Int64.add a b
  | T.Sub -> Int64.sub a b
  | T.Mul -> Int64.mul a b
  | T.Div -> if b = 0L then 0L else Int64.div a b
  | T.Rem -> if b = 0L then 0L else Int64.rem a b
  | T.And -> Int64.logand a b
  | T.Or -> Int64.logor a b
  | T.Xor -> Int64.logxor a b
  | T.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | T.Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)

let[@inline] cmpop op (a : int64) (b : int64) =
  let r =
    match op with
    | T.Eq -> a = b
    | T.Ne -> a <> b
    | T.Lt -> a < b
    | T.Le -> a <= b
    | T.Gt -> a > b
    | T.Ge -> a >= b
  in
  if r then 1L else 0L

let no_pair = (-1, -1)

let rec find_src src = function
  | [] -> no_pair
  | ((s, _) as p) :: rest -> if s = src then p else find_src src rest

(* ------------------------------------------------------------------ *)

let icache_lines = 512 (* 512 * 64B = 32 KiB, direct-mapped *)

(* Kinds of the last control transfer, for skid simulation. Each is the
   number of newest frames a skidded stack walk drops. *)
let k_call = 2
let k_other = 1
let k_ret = 0

let run ?(pmu = Some default_pmu) ?(globals_init = []) ?(args = [])
    ?(fuel = 2_000_000_000L) ?sink ?labels ?(debug_poison = false) ?obs
    (b : Mach.binary) ~entry =
  let dc = decode b in
  let dops = dc.dops and kpool = dc.kpool and iaddr = dc.iaddr in
  let line0 = dc.line0 and line1 = dc.line1 in
  let n_inst = Array.length dops in
  (* Globals. *)
  let gmem =
    Array.of_list
      (List.map
         (fun (name, size) ->
           let n = max size 1 in
           let m = Bytes.make (8 * n) '\000' in
           (match List.assoc_opt name globals_init with
           | Some init ->
               for k = 0 to min (Array.length init) n - 1 do
                 set64 m (8 * k) init.(k)
               done
           | None -> ());
           m)
         b.Mach.globals)
  in
  let counters = Array.make (max b.Mach.n_counters 1) 0 in
  let value_profiles : (int, (int64, int64) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  (* Entry function. *)
  let entry_guid = Ir.Guid.of_name entry in
  let entry_fidx =
    let r = ref (-1) in
    Array.iteri
      (fun i (f : Mach.bfunc) -> if Ir.Guid.equal f.Mach.bf_guid entry_guid then r := i)
      b.Mach.funcs;
    if !r < 0 then raise (Trap ("no entry function " ^ entry));
    !r
  in
  let entry_ip =
    match Ir.Guid.Tbl.find_opt dc.entry_idx entry_guid with
    | Some i -> i
    | None -> raise (Trap ("entry function has no code: " ^ entry))
  in
  (* The frame stack. Frames sit back to back in [mem]; frame [d] spans
     [fs_words.(d)] words from byte [fs_base.(d)]. [sp] is the top frame,
     whose base and size are cached in [base] and [words]. A frame is
     zeroed when entered, so unwritten registers and slots read 0. *)
  let mem = ref (Bytes.create (8 * 64 * frame_words b.Mach.funcs.(entry_fidx))) in
  let fs_base = ref (Array.make 64 0) in
  let fs_words = ref (Array.make 64 0) in
  let fs_ret_pc = ref (Array.make 64 0) in      (* instruction index; -1 = entry *)
  let fs_ret_dst = ref (Array.make 64 0) in     (* caller location; -1 = none *)
  let sp = ref 0 in
  let base = ref 0 in
  let words = ref dc.fn_words.(entry_fidx) in
  let grow a = a := Array.append !a (Array.make (Array.length !a) 0) in
  (* Make room for a frame of [w] words at byte [at] and zero it. *)
  let enter_frame at w =
    let need = at + (8 * w) in
    if need > Bytes.length !mem then begin
      let m = Bytes.create (max need (2 * Bytes.length !mem)) in
      Bytes.blit !mem 0 m 0 at;
      mem := m
    end;
    Bytes.fill !mem at (8 * w) '\000'
  in
  enter_frame 0 !words;
  !fs_words.(0) <- !words;
  !fs_ret_pc.(0) <- -1;
  (* Bind entry arguments. *)
  let params = dc.fn_params.(entry_fidx) in
  List.iteri
    (fun k v ->
      if k < Array.length params && params.(k) < !words then set64 !mem (params.(k) lsl 3) v)
    args;
  let targs = ref (Bytes.create 64) in  (* tail-call argument scratch *)
  let ip = ref entry_ip in
  let cycles = ref 0 in
  let instructions = ref 0 in
  let icache_misses = ref 0 in
  let taken_branches = ref 0 in
  let mispredicts = ref 0 in
  let ret_value = ref 0L in
  let running = ref true in
  let fuel =
    if Int64.compare fuel (Int64.of_int max_int) >= 0 then max_int else Int64.to_int fuel
  in
  (* PMU state. The ring holds shared pairs: taken branches store the
     record built at decode; returns build theirs once (see [ret_pairs]). *)
  let lbr_depth = match pmu with Some p -> max p.lbr_depth 1 | None -> 16 in
  let lbr = Array.make lbr_depth (0, 0) in
  let lbr_len = ref 0 in
  let lbr_pos = ref 0 in
  let last_kind = ref k_other in
  (* Streaming sample delivery: the ring and frame chain are flushed into
     reusable scratch buffers and handed to the sink. Nothing per-sample
     survives the callback unless the sink copies it. *)
  let lbr_scratch = Array.make lbr_depth (0, 0) in
  let stack_scratch = ref (Array.make 64 0) in
  let n_samples = ref 0 in
  let collected = ref [] in
  let the_sink =
    match sink with
    | Some s -> s
    | None ->
        (* Collect sink: reproduces the historical [sample list]. *)
        {
          on_sample =
            (fun ~lbr ~lbr_len ~stack ~stack_len ->
              collected :=
                { s_lbr = Array.sub lbr 0 lbr_len; s_stack = Array.sub stack 0 stack_len }
                :: !collected);
          on_labels = no_labels;
        }
  in
  (* The request's label set is announced through the sink once, before
     the first sample: every sample this run flushes carries it. *)
  (match labels with Some ls -> the_sink.on_labels ls | None -> ());
  let poison_pair = (min_int, min_int) in
  let period = match pmu with Some p when p.sample_period > 0 -> p.sample_period | _ -> 0 in
  let next_sample = ref (if period > 0 then period else max_int) in
  let rng = Rng.create (match pmu with Some p -> p.seed | None -> 1L) in
  let record_branch kind pair =
    incr taken_branches;
    lbr.(!lbr_pos) <- pair;
    lbr_pos := if !lbr_pos + 1 = lbr_depth then 0 else !lbr_pos + 1;
    if !lbr_len < lbr_depth then incr lbr_len;
    last_kind := kind
  in
  (* A return's LBR record depends on the dynamic return point, so it is
     built at run time, once: each return point keeps the records of the
     returns that reached it. *)
  let ret_pairs = Array.make (n_inst + 1) [] in
  let icache = Array.make icache_lines (-1) in
  let predictor = Array.make (max n_inst 1) 1 in
  let ensure_stack_scratch cap =
    if cap > Array.length !stack_scratch then begin
      let a = Array.make (max cap (2 * Array.length !stack_scratch)) 0 in
      Array.blit !stack_scratch 0 a 0 (Array.length !stack_scratch);
      stack_scratch := a
    end
  in
  (* Write the frame walk (leaf first) into the scratch; returns its length. *)
  let walk_stack cur_addr =
    ensure_stack_scratch (2 + !sp);
    let sbuf = !stack_scratch and ret_pc = !fs_ret_pc in
    sbuf.(0) <- cur_addr;
    let n = ref 1 and d = ref !sp in
    while !d >= 0 && ret_pc.(!d) >= 0 do
      let pc = ret_pc.(!d) in
      sbuf.(!n) <- (if pc < n_inst then iaddr.(pc) else 0);
      incr n;
      decr d
    done;
    !n
  in
  let take_sample () =
    incr n_samples;
    let cur_addr = if !ip < n_inst then iaddr.(!ip) else 0 in
    let stack_len = walk_stack cur_addr in
    let stack_len =
      match pmu with
      | Some p when (not p.pebs) && !lbr_len > 0 && Rng.chance rng p.skid_prob ->
          (* Stack lags the LBR by one control transfer: the skidded walk is
             [src] prepended to the walk with the newest k frames dropped
             (k = 2 after a call, 0 after a return, 1 otherwise), computed
             in place on the scratch. *)
          let src, _ = lbr.((!lbr_pos - 1 + lbr_depth) mod lbr_depth) in
          ensure_stack_scratch (stack_len + 1);
          let sbuf = !stack_scratch in
          let k = !last_kind in
          let kept = max 0 (stack_len - k) in
          if k = 0 then
            for i = stack_len - 1 downto 0 do
              sbuf.(i + 1) <- sbuf.(i)
            done
          else if k >= 2 then
            for i = 0 to kept - 1 do
              sbuf.(i + 1) <- sbuf.(k + i)
            done;
          (* k = 1: [src] replaces the leaf in place. *)
          sbuf.(0) <- src;
          kept + 1
      | _ -> stack_len
    in
    (* Flush the LBR ring oldest-first into the scratch. *)
    let n = !lbr_len in
    for i = 0 to n - 1 do
      let pos = (!lbr_pos - n + i + lbr_depth) mod lbr_depth in
      lbr_scratch.(i) <- lbr.(pos)
    done;
    the_sink.on_sample ~lbr:lbr_scratch ~lbr_len:n ~stack:!stack_scratch ~stack_len;
    if debug_poison then begin
      (* Catch sinks that alias the scratch instead of copying. *)
      Array.fill lbr_scratch 0 (Array.length lbr_scratch) poison_pair;
      Array.fill !stack_scratch 0 (Array.length !stack_scratch) min_int
    end
  in
  (* Push a frame for [c] above the current one; arguments are read from
     the caller, which the new frame does not overlap. *)
  let call c i =
    let caller = !base and cw = !words in
    let nb = caller + (8 * cw) in
    enter_frame nb c.c_words;
    let m = !mem in
    let args = c.c_args and params = c.c_params in
    for k = 0 to min (Array.length args) (Array.length params) - 1 do
      if params.(k) < c.c_words then
        set64 m (nb + (params.(k) lsl 3)) (read m caller cw kpool args.(k))
    done;
    incr sp;
    if !sp = Array.length !fs_base then begin
      grow fs_base;
      grow fs_words;
      grow fs_ret_pc;
      grow fs_ret_dst
    end;
    !fs_base.(!sp) <- nb;
    !fs_words.(!sp) <- c.c_words;
    !fs_ret_pc.(!sp) <- i + 1;
    !fs_ret_dst.(!sp) <- c.c_ret;
    base := nb;
    words := c.c_words
  in
  (* Replace the current frame by one for [c]: it keeps the caller's return
     point, and the caller never appears in stack walks again (the TCE
     missing-frame behaviour). Arguments go through [targs] first because
     the new frame reuses the old one's words. *)
  let tail_call c =
    let fb = !base and m = !mem and args = c.c_args in
    let n = Array.length args in
    if 8 * n > Bytes.length !targs then targs := Bytes.create (16 * n);
    let t = !targs in
    for k = 0 to n - 1 do
      set64 t (k lsl 3) (read m fb !words kpool args.(k))
    done;
    enter_frame fb c.c_words;
    let m = !mem and params = c.c_params in
    for k = 0 to min n (Array.length params) - 1 do
      if params.(k) < c.c_words then set64 m (fb + (params.(k) lsl 3)) (get64 t (k lsl 3))
    done;
    !fs_words.(!sp) <- c.c_words;
    words := c.c_words
  in
  while !running do
    if !instructions >= fuel then raise (Trap "fuel exhausted");
    let i = !ip in
    if i < 0 || i >= n_inst then raise (Trap (Printf.sprintf "ip out of text: %d" i));
    (* Fetch: touch every 64-byte line the instruction spans. *)
    for line = line0.(i) to line1.(i) do
      let set = line land (icache_lines - 1) in
      if icache.(set) <> line then begin
        icache.(set) <- line;
        incr icache_misses;
        cycles := !cycles + 20
      end
    done;
    incr instructions;
    let m = !mem and fb = !base and w = !words in
    let next = ref (i + 1) in
    (match dops.(i) with
    | DArith { op; d; a; b; cost } ->
        cycles := !cycles + cost;
        set64 m (fb + (d lsl 3)) (binop op (read m fb w kpool a) (read m fb w kpool b))
    | DCmp { op; d; a; b } ->
        incr cycles;
        set64 m (fb + (d lsl 3)) (cmpop op (read m fb w kpool a) (read m fb w kpool b))
    | DSelect { d; c; a; b } ->
        incr cycles;
        set64 m
          (fb + (d lsl 3))
          (if get64 m (fb + (c lsl 3)) <> 0L then read m fb w kpool a else read m fb w kpool b)
    | DMov { d; a } ->
        incr cycles;
        set64 m (fb + (d lsl 3)) (read m fb w kpool a)
    | DLoad { d; g; i = idx } ->
        cycles := !cycles + 3;
        let gm = gmem.(g) in
        let n = Bytes.length gm lsr 3 in
        let k = Int64.to_int (read m fb w kpool idx) in
        let k = if k >= 0 && k < n then k else ((k mod n) + n) mod n in
        set64 m (fb + (d lsl 3)) (get64 gm (k lsl 3))
    | DStore { g; i = idx; v } ->
        cycles := !cycles + 3;
        let gm = gmem.(g) in
        let n = Bytes.length gm lsr 3 in
        let k = Int64.to_int (read m fb w kpool idx) in
        let k = if k >= 0 && k < n then k else ((k mod n) + n) mod n in
        set64 gm (k lsl 3) (read m fb w kpool v)
    | DSpill_st { slot; r } ->
        (* L1-resident, store-forwarded: effectively pipelined. *)
        incr cycles;
        if slot < w then set64 m (fb + (slot lsl 3)) (get64 m (fb + (r lsl 3)))
    | DCall c ->
        (* Call overhead models prologue/epilogue and frame setup. *)
        cycles := !cycles + c.c_cost;
        call c i;
        record_branch k_call c.c_pair;
        next := c.c_entry
    | DTail_call c ->
        cycles := !cycles + c.c_cost;
        tail_call c;
        record_branch k_call c.c_pair;
        next := c.c_entry
    | DRet { a; cost } ->
        cycles := !cycles + cost;
        let v = read m fb w kpool a in
        if !sp = 0 then begin
          ret_value := v;
          running := false;
          record_branch k_ret (iaddr.(i), iaddr.(i))
        end
        else begin
          let ret_pc = !fs_ret_pc.(!sp) and dst = !fs_ret_dst.(!sp) in
          decr sp;
          base := !fs_base.(!sp);
          words := !fs_words.(!sp);
          if dst >= 0 && dst < !words then set64 m (!base + (dst lsl 3)) v;
          let seen = ret_pairs.(ret_pc) in
          let pair = find_src iaddr.(i) seen in
          let pair =
            if pair != no_pair then pair
            else begin
              let p = (iaddr.(i), if ret_pc < n_inst then iaddr.(ret_pc) else 0) in
              ret_pairs.(ret_pc) <- p :: seen;
              p
            end
          in
          record_branch k_ret pair;
          next := ret_pc
        end
    | DJmp { t; pair } ->
        cycles := !cycles + 3;
        record_branch k_other pair;
        next := t
    | DJcc { c; pol; t; pair } ->
        let taken = get64 m (fb + (c lsl 3)) <> 0L = pol in
        (* Per-branch 2-bit saturating predictor: biased branches predict
           near-perfectly after warmup; data-dependent alternating branches
           pay the 12-cycle flush. *)
        let st = predictor.(i) in
        let predicted_taken = st >= 2 in
        if taken <> predicted_taken then begin
          incr mispredicts;
          cycles := !cycles + 12
        end;
        predictor.(i) <- (if taken then min 3 (st + 1) else max 0 (st - 1));
        if taken then begin
          cycles := !cycles + 3;
          record_branch k_other pair;
          next := t
        end
        else incr cycles
    | DSwitch { a; cost; keys; tgts; pairs; dflt; dpair } ->
        cycles := !cycles + cost;
        let v = read m fb w kpool a in
        let n = Array.length keys in
        let k = ref 0 in
        while !k < n && not (Int64.equal keys.(!k) v) do
          incr k
        done;
        if !k < n then begin
          record_branch k_other pairs.(!k);
          next := tgts.(!k)
        end
        else begin
          record_branch k_other dpair;
          next := dflt
        end
    | DInc c ->
        cycles := !cycles + 5;
        counters.(c) <- counters.(c) + 1
    | DValprof { site; a } ->
        cycles := !cycles + 5;
        let v = read m fb w kpool a in
        let tbl =
          match Hashtbl.find_opt value_profiles site with
          | Some tbl -> tbl
          | None ->
              let tbl = Hashtbl.create 8 in
              Hashtbl.replace value_profiles site tbl;
              tbl
        in
        Hashtbl.replace tbl v
          (Int64.add 1L (Option.value (Hashtbl.find_opt tbl v) ~default:0L))
    | DNop -> incr cycles);
    ip := !next;
    (* Sampling: fire when the cycle counter crosses the period. *)
    if !running && !cycles >= !next_sample then begin
      take_sample ();
      next_sample := if period > 0 then !next_sample + period else max_int
    end
  done;
  (* Telemetry fires once per run, off the interpreter loop. The rate
     histogram uses virtual cycles (samples per Mcycle), so it is as
     deterministic as the run itself. *)
  (match obs with
  | Some m when Csspgo_obs.Metrics.enabled m ->
      let module M = Csspgo_obs.Metrics in
      M.incr (M.counter m "vm.runs");
      M.bump (M.counter m "vm.samples-flushed") !n_samples;
      M.bump (M.counter m "vm.instructions") !instructions;
      M.bump (M.counter m "vm.cycles") !cycles;
      if !n_samples > 0 && !cycles > 0 then
        M.observe (M.histogram m "vm.samples-per-mcycle") (!n_samples * 1_000_000 / !cycles)
  | _ -> ());
  {
    cycles = Int64.of_int !cycles;
    instructions = Int64.of_int !instructions;
    ret_value = !ret_value;
    samples = List.rev !collected;
    n_samples = !n_samples;
    (* Zero counters stay the one shared [0L] box: marshaled profiles
       (instr-PGO's correlate payload) encode shared boxes as
       back-references, so fresh zero boxes would change their bytes. *)
    counters = Array.map (fun c -> if c = 0 then 0L else Int64.of_int c) counters;
    icache_misses = Int64.of_int !icache_misses;
    taken_branches = Int64.of_int !taken_branches;
    mispredicts = Int64.of_int !mispredicts;
    value_profiles;
  }
