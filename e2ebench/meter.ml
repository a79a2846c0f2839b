(* Timers, allocation counters and the in-memory span recorder of the
   traced run. Every span records wall time and the words allocated
   between its boundaries; a span's self figures exclude the spans nested
   inside it. *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Words allocated by this domain so far: the exact minor-heap count plus
   the blocks allocated directly in the major heap (major words minus
   promotions, which the minor count already holds). [Gc.counters]'
   own minor figure is sampled, so it is not used. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- host speed reference ----------------------------------------------- *)

(* On a shared host the speed of memory-bound work drifts by up to 2x
   over tens of seconds (other tenants contend for caches and memory
   bandwidth), while an ALU-only loop stays within a few percent; a wall
   time taken alone says as much about the neighbours as about the code.
   So a fixed kernel of the benchmark's own runs between timed units,
   and the run's times are scaled by the kernel's nominal time over its
   median time in the run. The kernel mixes work as the pipeline does:
   about 40% cache-resident arithmetic and 60% memory-bound work
   (minor-heap churn with some promotion, random reads over 64 MB). A
   memory-only kernel swung about twice as much as the pipeline's own
   times did. The table lives outside the OCaml heap, so [top_heap_words]
   does not see it. *)
let ref_table = Bigarray.Array1.init Bigarray.int Bigarray.c_layout (8 * 1024 * 1024) (fun i -> i)
let ref_ring = Array.make 65536 [||]

let reference_kernel () =
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to 50_000 do
    x := ((!x * 1103515245) + 12345) land 0x7fffff;
    acc := !acc + Bigarray.Array1.unsafe_get ref_table !x;
    let b = Array.make 6 i in
    if i land 7 = 0 then ref_ring.(!x land 0xffff) <- b
  done;
  let y = ref (!acc lor 1) in
  for _ = 1 to 650_000 do
    y := !y lxor (!y lsl 13);
    y := !y lxor (!y lsr 7);
    y := !y lxor (!y lsl 17)
  done;
  ignore (Sys.opaque_identity !y)

(* The kernel's median time on a 2-core 2.0 GHz Xeon VM. Scaled times are
   in seconds at that speed. *)
let reference_nominal_s = 0.0085

let reference_samples = ref []
let last_reference = ref 0L

let reference () =
  reference_samples := snd (timed reference_kernel) :: !reference_samples;
  last_reference := now_ns ()

(* The kernel runs at most every quarter second, so that the samples
   weigh every part of the run by its time, however short its units. *)
let reference_every_s = 0.25
let maybe_reference () = if secs_since !last_reference >= reference_every_s then reference ()

(* A timed unit: its result, wall time and the words it allocated. *)
type 'a unit_run = { result : 'a; wall_s : float; words : float }

(* Runs [fs] in order, each after a full major collection (so each starts
   from the same heap state), with the reference kernel due before the
   first and after every one. The kernel's allocation is left out of the
   units'. *)
let timed_units fs =
  maybe_reference ();
  List.map
    (fun f ->
      Gc.full_major ();
      let a0 = alloc_words () in
      let result, wall_s = timed f in
      let w = alloc_words () -. a0 in
      maybe_reference ();
      { result; wall_s; words = w })
    fs

(* Quartile spread as a share of the median, with Python's
   [statistics.quantiles(n=4)] (exclusive) interpolation. *)
let iqr_share xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let q p =
      let m = float_of_int (n + 1) *. p in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let d = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. d)
    in
    let med = median xs in
    if med = 0.0 then 0.0 else (q 0.75 -. q 0.25) /. med

(* --- span recorder ------------------------------------------------------ *)

type acc = {
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable total_words : float;
  mutable self_words : float;
}

type frame = {
  f_name : string;
  f_t0 : int64;
  f_a0 : float;
  mutable f_child_s : float;
  mutable f_child_words : float;
}

(* A finished span: the coarse ones are kept for the trace file. *)
type span = {
  sp_name : string;
  sp_parent : string;
  sp_start_ns : int64;
  sp_dur_ns : int64;
  sp_words : float;
}

type t = {
  accs : (string, acc) Hashtbl.t;
  mutable stack : frame list;
  mutable spans : span list;  (* newest first *)
  origin : int64;
  mutable overhead_words : float;  (* the recorder's own allocation per span *)
}

let acc t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; total_s = 0.0; self_s = 0.0; total_words = 0.0; self_words = 0.0 } in
      Hashtbl.replace t.accs name a;
      a

let close t ~keep fr =
  let t1 = now_ns () in
  let dur_ns = Int64.sub t1 fr.f_t0 in
  let dt = Int64.to_float dur_ns /. 1e9 in
  let dw = alloc_words () -. fr.f_a0 in
  let a = acc t fr.f_name in
  a.calls <- a.calls + 1;
  a.total_s <- a.total_s +. dt;
  a.self_s <- a.self_s +. (dt -. fr.f_child_s);
  a.total_words <- a.total_words +. dw;
  a.self_words <- a.self_words +. (dw -. fr.f_child_words -. t.overhead_words);
  t.stack <- List.tl t.stack;
  (match t.stack with
  | parent :: _ ->
      parent.f_child_s <- parent.f_child_s +. dt;
      parent.f_child_words <- parent.f_child_words +. dw
  | [] -> ());
  if keep then
    t.spans <-
      {
        sp_name = fr.f_name;
        sp_parent = (match t.stack with p :: _ -> p.f_name | [] -> "");
        sp_start_ns = Int64.sub fr.f_t0 t.origin;
        sp_dur_ns = dur_ns;
        sp_words = dw;
      }
      :: t.spans

(* [keep:false] aggregates without storing the span: for the per-sample
   sink callbacks, of which a run makes hundreds of thousands. *)
let span ?(keep = true) t name f =
  let fr =
    { f_name = name; f_t0 = now_ns (); f_a0 = alloc_words (); f_child_s = 0.0; f_child_words = 0.0 }
  in
  t.stack <- fr :: t.stack;
  match f () with
  | r ->
      close t ~keep fr;
      r
  | exception e ->
      close t ~keep fr;
      raise e

(* A recorder whose spans report their self allocation net of the words
   the recorder itself allocates per span, measured on empty spans. *)
let create () =
  let t =
    { accs = Hashtbl.create 64; stack = []; spans = []; origin = now_ns (); overhead_words = 0.0 }
  in
  span ~keep:false t "calibrate" ignore;
  Hashtbl.reset t.accs;
  for _ = 1 to 8 do
    span ~keep:false t "calibrate" ignore
  done;
  let a = acc t "calibrate" in
  t.overhead_words <- a.self_words /. float_of_int a.calls;
  Hashtbl.reset t.accs;
  t

let get f t name = match Hashtbl.find_opt t.accs name with Some a -> f a | None -> 0.0
let self_s = get (fun a -> a.self_s)
let self_words = get (fun a -> a.self_words)
let total_s = get (fun a -> a.total_s)
let total_words = get (fun a -> a.total_words)

let spans t = List.rev t.spans

(* The scale from this run's wall times to nominal host speed. *)
let host_scale () = reference_nominal_s /. median !reference_samples
