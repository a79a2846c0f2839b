module Ir = Csspgo_ir
module PP = Probe_profile
module CP = Ctx_profile
module LP = Line_profile
module Vec = Csspgo_support.Vec

exception Parse_error of string * int

(* ------------------------------------------------------------------ *)
(* Writers. Deterministic: entries sorted by key.                      *)

let sorted_probes (fe : PP.fentry) =
  Hashtbl.fold (fun id c acc -> (id, c) :: acc) fe.PP.fe_probes [] |> List.sort compare

let sorted_calls (fe : PP.fentry) =
  Hashtbl.fold
    (fun site tbl acc ->
      Hashtbl.fold (fun callee c acc -> (site, callee, c) :: acc) tbl acc)
    fe.PP.fe_calls []
  |> List.sort compare

(* The writers append to one [Buffer] with allocation-free number
   rendering; the output is byte-identical to the [%d]/[%Ld]/[%Lx]
   formats. *)

let rec add_digits b base n =
  if n >= base then add_digits b base (n / base);
  Buffer.add_char b (String.unsafe_get "0123456789abcdef" (n mod base))

let add_int b n =
  if n >= 0 then add_digits b 10 n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b 10 (-n)
  end

let add_int64 b v =
  let n = Int64.to_int v in
  if Int64.equal (Int64.of_int n) v then add_int b n
  else Buffer.add_string b (Int64.to_string v)

(* Unsigned, lowercase, no leading zeros: [%Lx]. *)
let add_hex b v =
  let hi = Int64.to_int (Int64.shift_right_logical v 32) in
  let lo = Int64.to_int v land 0xffff_ffff in
  if hi = 0 then add_digits b 16 lo
  else begin
    add_digits b 16 hi;
    for k = 7 downto 0 do
      Buffer.add_char b (String.unsafe_get "0123456789abcdef" ((lo lsr (4 * k)) land 15))
    done
  end

let write_fentry b (fe : PP.fentry) =
  List.iter
    (fun (id, c) ->
      Buffer.add_string b " probe ";
      add_int b id;
      Buffer.add_char b ' ';
      add_int64 b c;
      Buffer.add_char b '\n')
    (sorted_probes fe);
  List.iter
    (fun (site, callee, c) ->
      Buffer.add_string b " call ";
      add_int b site;
      Buffer.add_char b ' ';
      add_hex b callee;
      Buffer.add_char b ' ';
      add_int64 b c;
      Buffer.add_char b '\n')
    (sorted_calls fe)

(* "function <name> guid=<hex> total=<n> head=<n>", shared by the probe
   and line writers. *)
let add_function_header b name guid ~total ~head =
  Buffer.add_string b "function ";
  Buffer.add_string b name;
  Buffer.add_string b " guid=";
  add_hex b guid;
  Buffer.add_string b " total=";
  add_int64 b total;
  Buffer.add_string b " head=";
  add_int64 b head

let name_or_guid names guid =
  Option.value (Ir.Guid.Tbl.find_opt names guid) ~default:(Printf.sprintf "%Lx" guid)

let write_probe b (t : PP.t) =
  let guids = Ir.Guid.Tbl.fold (fun g _ acc -> g :: acc) t.PP.funcs [] in
  List.iter
    (fun guid ->
      let fe = Ir.Guid.Tbl.find t.PP.funcs guid in
      add_function_header b (name_or_guid t.PP.names guid) guid ~total:fe.PP.fe_total
        ~head:fe.PP.fe_head;
      Buffer.add_string b " checksum=";
      add_hex b fe.PP.fe_checksum;
      Buffer.add_char b '\n';
      write_fentry b fe)
    (List.sort Ir.Guid.compare guids)

let write_ctx b (t : CP.t) =
  CP.iter_nodes t (fun ctx node ->
      Buffer.add_string b "context ";
      Buffer.add_string b node.CP.n_name;
      Buffer.add_string b " guid=";
      add_hex b node.CP.n_func;
      if node.CP.n_inlined then Buffer.add_string b " inlined";
      Buffer.add_char b '\n';
      List.iter
        (fun (g, site) ->
          Buffer.add_string b " frame ";
          add_hex b g;
          Buffer.add_char b ' ';
          add_int b site;
          Buffer.add_char b '\n')
        ctx;
      Buffer.add_string b " head ";
      add_int64 b node.CP.n_prof.PP.fe_head;
      Buffer.add_string b "\n checksum ";
      add_hex b node.CP.n_prof.PP.fe_checksum;
      Buffer.add_char b '\n';
      write_fentry b node.CP.n_prof)

let write_line b (t : LP.t) =
  let add_key b (l, d) =
    add_int b l;
    Buffer.add_char b '.';
    add_int b d
  in
  let guids = Ir.Guid.Tbl.fold (fun g _ acc -> g :: acc) t.LP.funcs [] in
  List.iter
    (fun guid ->
      let fe = Ir.Guid.Tbl.find t.LP.funcs guid in
      add_function_header b (name_or_guid t.LP.names guid) guid ~total:fe.LP.fe_total
        ~head:fe.LP.fe_head;
      Buffer.add_char b '\n';
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) fe.LP.fe_lines []
      |> List.sort compare
      |> List.iter (fun (k, c) ->
             Buffer.add_string b " line ";
             add_key b k;
             Buffer.add_char b ' ';
             add_int64 b c;
             Buffer.add_char b '\n');
      Hashtbl.fold
        (fun k tbl acc -> Hashtbl.fold (fun g c acc -> (k, g, c) :: acc) tbl acc)
        fe.LP.fe_calls []
      |> List.sort compare
      |> List.iter (fun (k, g, c) ->
             Buffer.add_string b " callline ";
             add_key b k;
             Buffer.add_char b ' ';
             add_hex b g;
             Buffer.add_char b ' ';
             add_int64 b c;
             Buffer.add_char b '\n'))
    (List.sort Ir.Guid.compare guids)


(* ------------------------------------------------------------------ *)
(* Readers: one pass over the string. [next_line] records the current
   line's words as offset pairs (split on ' ', '#' starts a comment,
   blank lines skipped); numbers parse in place, and only a token that is
   not plain decimal or hex goes through [Int64.of_string_opt], which
   defines the accepted grammar. A token is copied out only for a name
   or an error message. Argument parsing order matches the list-based
   reader this replaced (right to left within a record), so each
   malformed input reports the same message and line. *)

type scan = {
  s : string;
  mutable pos : int;  (* start of the next line; > length at the end *)
  mutable no : int;  (* 1-based number of the current line *)
  mutable n : int;  (* words on the current line *)
  mutable starts : int array;
  mutable stops : int array;
}

let scanner s = { s; pos = 0; no = 0; n = 0; starts = Array.make 8 0; stops = Array.make 8 0 }

let push_word sc a b =
  if sc.n = Array.length sc.starts then begin
    let grow arr = Array.append arr (Array.make (Array.length arr) 0) in
    sc.starts <- grow sc.starts;
    sc.stops <- grow sc.stops
  end;
  sc.starts.(sc.n) <- a;
  sc.stops.(sc.n) <- b;
  sc.n <- sc.n + 1

(* Advance to the next line holding at least one word; [false] at the
   end of the text. *)
let rec next_line sc =
  let s = sc.s in
  let len = String.length s in
  if sc.pos > len then false
  else begin
    sc.no <- sc.no + 1;
    sc.n <- 0;
    let i = ref sc.pos in
    let start = ref (-1) in
    let comment = ref false in
    while !i < len && String.unsafe_get s !i <> '\n' do
      (if not !comment then
         match String.unsafe_get s !i with
         | ' ' | '#' as c ->
             if !start >= 0 then push_word sc !start !i;
             start := -1;
             if c = '#' then comment := true
         | _ -> if !start < 0 then start := !i);
      incr i
    done;
    if !start >= 0 then push_word sc !start !i;
    sc.pos <- !i + 1;
    sc.n > 0 || next_line sc
  end

let word sc k = String.sub sc.s sc.starts.(k) (sc.stops.(k) - sc.starts.(k))

(* [s.[a .. b-1]] equals [lit]. *)
let matches s a b lit =
  let n = String.length lit in
  b - a = n
  &&
  let i = ref 0 in
  while !i < n && s.[a + !i] = lit.[!i] do
    incr i
  done;
  !i = n

let is sc k lit = matches sc.s sc.starts.(k) sc.stops.(k) lit

let fail no fmt = Format.kasprintf (fun m -> raise (Parse_error (m, no))) fmt

(* [-]?[0-9]{1,18} fits the native int; anything else is [min_int]. *)
let plain_dec s a b =
  let neg = a < b && s.[a] = '-' in
  let a = if neg then a + 1 else a in
  if b - a < 1 || b - a > 18 then min_int
  else begin
    let v = ref 0 and i = ref a in
    while !i < b && (match s.[!i] with '0' .. '9' -> true | _ -> false) do
      v := (!v * 10) + Char.code s.[!i] - 48;
      incr i
    done;
    if !i < b then min_int else if neg then - !v else !v
  end

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* [0-9a-fA-F]{1,15} as a non-negative int; anything else is [-1]. *)
let plain_hex s a b =
  if b - a < 1 || b - a > 15 then -1
  else begin
    let v = ref 0 and i = ref a in
    while !i < b && hex_digit s.[!i] >= 0 do
      v := (!v lsl 4) lor hex_digit s.[!i];
      incr i
    done;
    if !i < b then -1 else !v
  end

let int_at sc a b =
  let v = plain_dec sc.s a b in
  if v <> min_int then v
  else
    let w = String.sub sc.s a (b - a) in
    match int_of_string_opt w with Some v -> v | None -> fail sc.no "bad int %S" w

let int64_at sc a b =
  let v = plain_dec sc.s a b in
  if v <> min_int then Int64.of_int v
  else
    let w = String.sub sc.s a (b - a) in
    match Int64.of_string_opt w with Some v -> v | None -> fail sc.no "bad integer %S" w

let hex_at sc a b =
  let v = plain_hex sc.s a b in
  if v >= 0 then Int64.of_int v
  else
    (* 16 digits (GUIDs and checksums use all 64 bits): the top digit
       shifts in as an int64 over the other 15. *)
    let top = if b - a = 16 then hex_digit sc.s.[a] else -1 in
    let rest = if top >= 0 then plain_hex sc.s (a + 1) b else -1 in
    if rest >= 0 then Int64.logor (Int64.shift_left (Int64.of_int top) 60) (Int64.of_int rest)
    else
      let w = String.sub sc.s a (b - a) in
      match Int64.of_string_opt ("0x" ^ w) with Some v -> v | None -> fail sc.no "bad hex %S" w

let int_of sc k = int_at sc sc.starts.(k) sc.stops.(k)
let int64_of sc k = int64_at sc sc.starts.(k) sc.stops.(k)
let hex_of sc k = hex_at sc sc.starts.(k) sc.stops.(k)

(* First index of [c] in [s.[a .. b-1]], or [-1]. *)
let index_in s c a b =
  let i = ref a in
  while !i < b && s.[!i] <> c do
    incr i
  done;
  if !i < b then !i else -1

(* Word [k] must read [key=<value>] with exactly one '='; returns where
   the value starts (it ends with the word). *)
let kv sc k key =
  let a = sc.starts.(k) and b = sc.stops.(k) in
  let eq = index_in sc.s '=' a b in
  if not (eq >= 0 && matches sc.s a eq key && index_in sc.s '=' (eq + 1) b < 0) then
    fail sc.no "expected %s=<value>, got %S" key (word sc k);
  eq + 1

let hex_kv sc k key = hex_at sc (kv sc k key) sc.stops.(k)
let int64_kv sc k key = int64_at sc (kv sc k key) sc.stops.(k)

let unknown sc = fail sc.no "unknown record %S" (word sc 0)

let read_probe_impl s =
  let t = PP.create () in
  let sc = scanner s in
  let cur = ref None in
  let fentry what =
    match !cur with Some fe -> fe | None -> fail sc.no "%s record outside function" what
  in
  while next_line sc do
    if is sc 0 "function" && sc.n = 6 then begin
      let guid = hex_kv sc 2 "guid" in
      let fe = PP.get_or_add t guid ~name:(word sc 1) in
      ignore (kv sc 3 "total");
      fe.PP.fe_head <- int64_kv sc 4 "head";
      fe.PP.fe_checksum <- hex_kv sc 5 "checksum";
      cur := Some fe
    end
    else if is sc 0 "probe" && sc.n = 3 then begin
      let fe = fentry "probe" in
      let c = int64_of sc 2 in
      PP.add_probe fe (int_of sc 1) c
    end
    else if is sc 0 "call" && sc.n = 4 then begin
      let fe = fentry "call" in
      let c = int64_of sc 3 in
      let callee = hex_of sc 2 in
      PP.add_call fe (int_of sc 1) callee c
    end
    else unknown sc
  done;
  t

(* Context headers resolve lazily, at the first record that needs the
   node (or the next header, or the end), as the list-based reader did,
   so trie nodes are created in the same order. A context shares its
   longest path prefix with the one before it — in the canonical
   pre-order text, all of it but the last step — so resolution walks
   only the new suffix. *)
let read_ctx_impl s =
  let t = CP.create () in
  let sc = scanner s in
  let cur = ref None in
  (* the pending header (name, guid, inlined); its frames outermost first *)
  let pending = ref None in
  let frames = Vec.create () in
  (* the last resolved path: [path] holds the root and the node after
     each step, [steps] each step's (callsite probe, callee guid) *)
  let path = Vec.create () and steps = Vec.create () in
  let reset root =
    Vec.clear path;
    Vec.clear steps;
    Vec.push path root
  in
  let resolve (name, guid, inlined) =
    let n = Vec.length frames in
    let node =
      if n = 0 then begin
        reset (CP.base t guid ~name);
        Vec.last path
      end
      else begin
        let g0, _ = Vec.get frames 0 in
        if Vec.is_empty path || not (Int64.equal (Vec.get path 0).CP.n_func g0) then
          reset
            (match Ir.Guid.Tbl.find_opt t.CP.roots g0 with
            | Some root -> root
            | None -> CP.base t g0 ~name:(Printf.sprintf "%Lx" g0));
        (* Step j leaves frame j's function at its callsite for frame
           j+1's function; the last step enters the leaf. *)
        let step j =
          (snd (Vec.get frames j), if j = n - 1 then guid else fst (Vec.get frames (j + 1)))
        in
        let common = ref 0 in
        while
          !common < min n (Vec.length steps)
          &&
          let s1, g1 = Vec.get steps !common and s2, g2 = step !common in
          s1 = s2 && Int64.equal g1 g2
        do
          incr common
        done;
        while Vec.length steps > !common do
          ignore (Vec.pop steps);
          ignore (Vec.pop path)
        done;
        for j = !common to n - 1 do
          let ((site, g) as key) = step j in
          let cname = if j = n - 1 then name else Printf.sprintf "%Lx" g in
          Vec.push path (CP.attach t ~parent:(Some (Vec.last path)) ~site g ~name:cname);
          Vec.push steps key
        done;
        Vec.last path
      end
    in
    node.CP.n_name <- name;
    if inlined then node.CP.n_inlined <- true;
    cur := Some node;
    pending := None;
    Vec.clear frames
  in
  let node () =
    Option.iter resolve !pending;
    match !cur with Some n -> n | None -> fail sc.no "record outside context"
  in
  while next_line sc do
    if is sc 0 "context" && sc.n >= 3 then begin
      Option.iter resolve !pending;
      cur := None;
      let guid = hex_kv sc 2 "guid" in
      let inlined = ref false in
      for k = 3 to sc.n - 1 do
        if is sc k "inlined" then inlined := true
      done;
      pending := Some (word sc 1, guid, !inlined)
    end
    else if is sc 0 "frame" && sc.n = 3 then begin
      if Option.is_none !pending then fail sc.no "frame outside context header";
      let site = int_of sc 2 in
      Vec.push frames (hex_of sc 1, site)
    end
    else if is sc 0 "head" && sc.n = 2 then begin
      let n = node () in
      n.CP.n_prof.PP.fe_head <- int64_of sc 1
    end
    else if is sc 0 "checksum" && sc.n = 2 then begin
      let n = node () in
      n.CP.n_prof.PP.fe_checksum <- hex_of sc 1
    end
    else if is sc 0 "probe" && sc.n = 3 then begin
      let c = int64_of sc 2 in
      let id = int_of sc 1 in
      PP.add_probe (node ()).CP.n_prof id c
    end
    else if is sc 0 "call" && sc.n = 4 then begin
      let c = int64_of sc 3 in
      let callee = hex_of sc 2 in
      let site = int_of sc 1 in
      PP.add_call (node ()).CP.n_prof site callee c
    end
    else unknown sc
  done;
  Option.iter resolve !pending;
  t

let read_line_impl s =
  let t = LP.create () in
  let sc = scanner s in
  let cur = ref None in
  let fentry what =
    match !cur with Some fe -> fe | None -> fail sc.no "%s record outside function" what
  in
  (* "<line>.<disc>" with exactly one '.' *)
  let key k =
    let a = sc.starts.(k) and b = sc.stops.(k) in
    let dot = index_in sc.s '.' a b in
    if dot < 0 || index_in sc.s '.' (dot + 1) b >= 0 then
      fail sc.no "bad line key %S" (word sc k);
    let d = int_at sc (dot + 1) b in
    (int_at sc a dot, d)
  in
  while next_line sc do
    if is sc 0 "function" && sc.n = 5 then begin
      let guid = hex_kv sc 2 "guid" in
      let fe = LP.get_or_add t guid ~name:(word sc 1) in
      ignore (kv sc 3 "total");
      fe.LP.fe_head <- int64_kv sc 4 "head";
      cur := Some fe
    end
    else if is sc 0 "line" && sc.n = 3 then begin
      let fe = fentry "line" in
      let c = int64_of sc 2 in
      LP.set_line_max fe (key 1) c
    end
    else if is sc 0 "callline" && sc.n = 4 then begin
      let fe = fentry "callline" in
      let c = int64_of sc 3 in
      let callee = hex_of sc 2 in
      LP.add_call fe (key 1) callee c
    end
    else unknown sc
  done;
  t

(* ------------------------------------------------------------------ *)
(* Unified interface.                                                  *)

type kind = Line | Probe | Ctx

type profile =
  | Line_prof of LP.t
  | Probe_prof of PP.t
  | Ctx_prof of CP.t

let kind_name = function Line -> "line" | Probe -> "probe" | Ctx -> "ctx"
let kind_of = function Line_prof _ -> Line | Probe_prof _ -> Probe | Ctx_prof _ -> Ctx

let to_string p =
  let b = Buffer.create 4096 in
  (match p with
  | Line_prof t -> write_line b t
  | Probe_prof t -> write_probe b t
  | Ctx_prof t -> write_ctx b t);
  Buffer.contents b

let read kind s =
  match kind with
  | Line -> Line_prof (read_line_impl s)
  | Probe -> Probe_prof (read_probe_impl s)
  | Ctx -> Ctx_prof (read_ctx_impl s)

let detect_kind s =
  let sc = scanner s in
  if not (next_line sc) then None
  else if is sc 0 "context" then Some Ctx
  else if is sc 0 "function" then begin
    let probe = ref false in
    for k = 1 to sc.n - 1 do
      let a = sc.starts.(k) in
      if sc.stops.(k) - a >= 9 && matches s a (a + 9) "checksum=" then probe := true
    done;
    Some (if !probe then Probe else Line)
  end
  else Some Probe (* headerless garbage: let the probe reader report it *)

let of_string ?kind s =
  match kind with
  | Some k -> read k s
  | None -> (
      match detect_kind s with
      | Some k -> read k s
      | None -> raise (Parse_error ("empty profile text: cannot detect kind", 0)))

let total_samples = function
  | Line_prof t -> LP.total_samples t
  | Probe_prof t -> PP.total_samples t
  | Ctx_prof t -> CP.total_samples t
