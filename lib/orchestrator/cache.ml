module Fnv = Csspgo_support.Fnv
module M = Csspgo_obs.Metrics

type stats = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;
}

type t = {
  cdir : string option;
  mem : (string * string, string) Hashtbl.t;  (* (kind, joined key) -> payload *)
  lock : Mutex.t;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_stores : int;
  mutable c_corrupt : int;
  (* registry handles, resolved once at creation *)
  m_hit : M.counter;
  m_miss : M.counter;
  m_store : M.counter;
  m_poisoned : M.counter;
}

let magic = "csspgo-cache 1"
let suffix = ".bin"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let create ?(metrics = M.null) ?dir () =
  Option.iter mkdir_p dir;
  {
    cdir = dir;
    mem = Hashtbl.create 64;
    lock = Mutex.create ();
    c_hits = 0;
    c_misses = 0;
    c_stores = 0;
    c_corrupt = 0;
    m_hit = M.counter metrics "cache.hit";
    m_miss = M.counter metrics "cache.miss";
    m_store = M.counter metrics "cache.store";
    m_poisoned = M.counter metrics "cache.poisoned";
  }

let dir t = t.cdir
let join_key key = String.concat "\x1f" key

let entry_file ~kind ~key =
  Printf.sprintf "%s.%Lx%s" kind (Fnv.hash_string (join_key key)) suffix

let entry_path t ~kind ~key =
  Option.map (fun d -> Filename.concat d (entry_file ~kind ~key)) t.cdir

let digest_hex payload = Printf.sprintf "%Lx" (Fnv.hash_string payload)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let with_file path f =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> Some (Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic))

(* Entry layout: four header lines (magic, kind, joined key, payload digest)
   followed by the raw payload bytes. The header and the payload are
   written and read as separate strings, so the payload is never copied
   into or out of a whole-entry blob. *)
let header ~kind ~key payload =
  String.concat "\n" [ magic; kind; join_key key; digest_hex payload; "" ]

type decoded = Payload of string | Mismatch | Corrupt

(* One '\n'-terminated header line; [None] at end of file before the
   newline. *)
let input_header_line ic =
  let b = Buffer.create 64 in
  let rec go () =
    match input_char ic with
    | '\n' -> Some (Buffer.contents b)
    | c ->
        Buffer.add_char b c;
        go ()
    | exception End_of_file -> None
  in
  go ()

let read_entry ~kind ~key ic =
  let line () = input_header_line ic in
  match line () with
  | Some m when String.equal m magic -> (
      match (line (), line (), line ()) with
      | Some k, Some kj, Some dg ->
          if not (String.equal k kind && String.equal kj (join_key key)) then
            Mismatch (* filename hash collision: someone else's entry *)
          else
            let payload = really_input_string ic (in_channel_length ic - pos_in ic) in
            if String.equal dg (digest_hex payload) then Payload payload else Corrupt
      | _ -> Corrupt)
  | _ -> Corrupt

let find t ~kind ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.mem (kind, join_key key) with
      | Some payload ->
          t.c_hits <- t.c_hits + 1;
          M.incr t.m_hit;
          Some payload
      | None -> (
          let disk =
            match entry_path t ~kind ~key with
            | None -> None
            | Some path -> (
                match with_file path (read_entry ~kind ~key) with
                | None | Some Mismatch -> None
                | Some (Payload payload) ->
                    Hashtbl.replace t.mem (kind, join_key key) payload;
                    Some payload
                | Some Corrupt ->
                    t.c_corrupt <- t.c_corrupt + 1;
                    M.incr t.m_poisoned;
                    (try Sys.remove path with Sys_error _ -> ());
                    None)
          in
          (match disk with
          | Some _ ->
              t.c_hits <- t.c_hits + 1;
              M.incr t.m_hit
          | None ->
              t.c_misses <- t.c_misses + 1;
              M.incr t.m_miss);
          disk))

let store t ~kind ~key payload =
  locked t (fun () ->
      t.c_stores <- t.c_stores + 1;
      M.incr t.m_store;
      Hashtbl.replace t.mem (kind, join_key key) payload;
      match entry_path t ~kind ~key with
      | None -> ()
      | Some path -> (
          try
            let tmp = path ^ ".tmp" in
            let oc = open_out_bin tmp in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                output_string oc (header ~kind ~key payload);
                output_string oc payload);
            Sys.rename tmp path
          with Sys_error _ -> () (* disk trouble never fails the build *)))

let memo t ~kind ~key ~ser ~de f =
  let recompute () =
    let v = f () in
    store t ~kind ~key (ser v);
    v
  in
  match find t ~kind ~key with
  | None -> recompute ()
  | Some payload -> (
      match de payload with
      | v -> v
      | exception _ ->
          locked t (fun () ->
              t.c_corrupt <- t.c_corrupt + 1;
              M.incr t.m_poisoned);
          recompute ())

let stats t =
  locked t (fun () ->
      { hits = t.c_hits; misses = t.c_misses; stores = t.c_stores; corrupt = t.c_corrupt })

(* ------------------------------------------------------------------ *)
(* Offline directory inspection.                                       *)

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_kinds : (string * int) list;
}

let is_entry name = Filename.check_suffix name suffix

let kind_of_entry name =
  let base = Filename.chop_suffix name suffix in
  match String.rindex_opt base '.' with
  | Some i -> String.sub base 0 i
  | None -> base

let scan_dir dir =
  let files = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  let kinds = Hashtbl.create 8 in
  let entries, bytes =
    List.fold_left
      (fun (n, b) name ->
        if not (is_entry name) then (n, b)
        else begin
          let k = kind_of_entry name in
          Hashtbl.replace kinds k (1 + Option.value (Hashtbl.find_opt kinds k) ~default:0);
          let sz =
            Option.value ~default:0 (with_file (Filename.concat dir name) in_channel_length)
          in
          (n + 1, b + sz)
        end)
      (0, 0) files
  in
  let d_kinds =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) kinds [] |> List.sort compare
  in
  { d_entries = entries; d_bytes = bytes; d_kinds }

let clear_dir dir =
  let files = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  List.fold_left
    (fun n name ->
      if is_entry name then (
        (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
        n + 1)
      else n)
    0 files
