(* Unit and property tests for the support library. *)
open Csspgo_support

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 3 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index -1 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v (-1)))

let test_vec_ops () =
  let v = Vec.of_list [ 5; 1; 4; 2; 3 ] in
  Vec.sort compare v;
  Alcotest.(check (list int)) "sort" [ 1; 2; 3; 4; 5 ] (Vec.to_list v);
  Vec.filter_in_place (fun x -> x mod 2 = 1) v;
  Alcotest.(check (list int)) "filter" [ 1; 3; 5 ] (Vec.to_list v);
  let w = Vec.map (fun x -> x * 10) v in
  Alcotest.(check (list int)) "map" [ 10; 30; 50 ] (Vec.to_list w);
  let c = Vec.copy v in
  Vec.push c 7;
  Alcotest.(check int) "copy independent" 3 (Vec.length v);
  Alcotest.(check int) "append target" 4 (Vec.length c)

let test_heap_order () =
  let h = Heap.of_list compare [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check (list int)) "drains descending" [ 9; 6; 5; 4; 3; 2; 1; 1 ]
    (Heap.to_sorted_list h)

let test_heap_peek () =
  let h = Heap.create compare in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Heap.push h 10;
  Heap.push h 20;
  Alcotest.(check (option int)) "peek max" (Some 20) (Heap.peek h);
  Alcotest.(check int) "length" 2 (Heap.length h)

let test_heap_duplicate_priorities () =
  (* Elements comparing equal must all come out, none lost or invented. *)
  let cmp (p, _) (q, _) = compare (p : int) q in
  let h = Heap.create cmp in
  List.iter (Heap.push h)
    [ (1, "a"); (2, "b"); (1, "c"); (2, "d"); (1, "e") ];
  Alcotest.(check int) "length with duplicates" 5 (Heap.length h);
  let drained = Heap.to_sorted_list h in
  Alcotest.(check (list int)) "priorities descending" [ 2; 2; 1; 1; 1 ]
    (List.map fst drained);
  Alcotest.(check (list string)) "payloads preserved as a set"
    [ "a"; "b"; "c"; "d"; "e" ]
    (List.sort compare (List.map snd drained))

let test_heap_pop_empty () =
  let h = Heap.create compare in
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Heap.push h 1;
  Alcotest.(check (option int)) "pop singleton" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop after drain" None (Heap.pop h);
  Alcotest.(check bool) "empty again" true (Heap.is_empty h);
  (* heap stays usable after being emptied *)
  Heap.push h 5;
  Heap.push h 3;
  Alcotest.(check (option int)) "reuse after empty" (Some 5) (Heap.pop h)

let test_vec_growth () =
  (* Push far beyond any plausible initial capacity and check contents. *)
  let v = Vec.create () in
  for i = 0 to 9999 do
    Vec.push v (i * 3)
  done;
  Alcotest.(check int) "length 10000" 10_000 (Vec.length v);
  Alcotest.(check int) "first" 0 (Vec.get v 0);
  Alcotest.(check int) "middle" (5000 * 3) (Vec.get v 5000);
  Alcotest.(check int) "last" (9999 * 3) (Vec.last v);
  (* make with an explicit size also survives growth past it *)
  let w = Vec.make 4 7 in
  for _ = 1 to 100 do
    Vec.push w 9
  done;
  Alcotest.(check int) "make + growth length" 104 (Vec.length w);
  Alcotest.(check int) "make prefix intact" 7 (Vec.get w 3);
  Alcotest.(check int) "pushed suffix intact" 9 (Vec.get w 103)

let test_vec_pop_empty () =
  let v = Vec.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Vec.pop v));
  Vec.push v 1;
  ignore (Vec.pop v);
  Alcotest.check_raises "pop after drain" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Vec.pop v));
  (* clear resets length; pop on cleared vec raises too *)
  Vec.push v 2;
  Vec.clear v;
  Alcotest.check_raises "pop after clear" (Invalid_argument "Vec.pop: empty")
    (fun () -> ignore (Vec.pop v))

let test_rng_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 1L in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    if x < 0 || x >= 10 then Alcotest.fail "Rng.int out of bounds";
    let y = Rng.int_in rng 5 8 in
    if y < 5 || y > 8 then Alcotest.fail "Rng.int_in out of bounds";
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "Rng.float out of bounds"
  done

let test_fnv_known () =
  (* FNV-1a of the empty string is the offset basis. *)
  Alcotest.(check int64) "empty" 0xCBF29CE484222325L (Fnv.hash_string "");
  Alcotest.(check bool) "distinct" true
    (not (Int64.equal (Fnv.hash_string "foo") (Fnv.hash_string "bar")));
  Alcotest.(check int64) "stable" (Fnv.hash_string "csspgo") (Fnv.hash_string "csspgo")

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.of_list compare l in
      Heap.to_sorted_list h = List.sort (fun a b -> compare b a) l)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun l -> Vec.to_list (Vec.of_list l) = l)

let prop_rng_chance_extremes =
  QCheck.Test.make ~name:"rng chance 0 and 1" ~count:50 QCheck.int64 (fun seed ->
      let rng = Rng.create seed in
      (not (Rng.chance rng 0.0)) && Rng.chance rng 1.0)

(* The byte-fold definitions the loop-form Fnv replaced, kept as the
   oracle: one closure per byte through [String.iter], and [int] as
   [int64] of the sign-extended value. *)
module Fnv_oracle = struct
  let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001B3L

  let string h s =
    let h = ref h in
    String.iter (fun c -> h := byte !h (Char.code c)) s;
    !h

  let int64 h x =
    let h = ref h in
    for i = 0 to 7 do
      h := byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
    done;
    !h

  let int h x = int64 h (Int64.of_int x)
end

let test_fnv_oracle_edges () =
  List.iter
    (fun s ->
      Alcotest.(check int64) (Printf.sprintf "string %S" s)
        (Fnv_oracle.string Fnv.init s) (Fnv.string Fnv.init s))
    [ ""; "\x00"; "\x80"; "\xff"; "\xff\x80\x7f\x00"; String.make 300 '\xfe' ];
  List.iter
    (fun x ->
      Alcotest.(check int64) (Printf.sprintf "int %d" x) (Fnv_oracle.int Fnv.init x)
        (Fnv.int Fnv.init x))
    [ 0; 1; -1; 255; 256; max_int; min_int; 1 lsl 55; -(1 lsl 56) ];
  List.iter
    (fun x ->
      Alcotest.(check int64) (Printf.sprintf "int64 %Ld" x) (Fnv_oracle.int64 Fnv.init x)
        (Fnv.int64 Fnv.init x))
    [ 0L; -1L; Int64.max_int; Int64.min_int; 0x80L; 0xff00ff00ff00ff00L ];
  Alcotest.(check int64) "substring" (Fnv.string Fnv.init "bcd")
    (Fnv.substring Fnv.init "abcde" ~pos:1 ~len:3);
  Alcotest.check_raises "substring out of range" (Invalid_argument "Fnv.substring")
    (fun () -> ignore (Fnv.substring Fnv.init "abc" ~pos:2 ~len:2))

let any_byte_string = QCheck.(string_gen Gen.(map Char.chr (int_range 0 255)))

let prop_fnv_matches_oracle =
  QCheck.Test.make ~name:"fnv string/substring/int64/int match the byte-fold oracle"
    ~count:500
    QCheck.(quad int64 any_byte_string int64 int)
    (fun (h, s, x, n) ->
      let len = String.length s in
      let pos = if len = 0 then 0 else abs n mod len in
      Int64.equal (Fnv.string h s) (Fnv_oracle.string h s)
      && Int64.equal
           (Fnv.substring h s ~pos ~len:(len - pos))
           (Fnv_oracle.string h (String.sub s pos (len - pos)))
      && Int64.equal (Fnv.int64 h x) (Fnv_oracle.int64 h x)
      && Int64.equal (Fnv.int h n) (Fnv_oracle.int h n))

(* A digest over a cache payload must not cost garbage in proportion to
   its size: hashing 1 MB allocates at most the boxed result (3 words),
   and [int]/[int64] allocate only theirs. *)
let test_fnv_allocation () =
  let s = String.init (1 lsl 20) (fun i -> Char.chr (i * 131 land 0xff)) in
  let words f =
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    f ();
    let w2 = Gc.minor_words () in
    w2 -. w1 -. (w1 -. w0)
  in
  let sink = ref 0L in
  let string_words = words (fun () -> sink := Fnv.string Fnv.init s) in
  Alcotest.(check bool) (Printf.sprintf "1 MB hash: %.0f words <= 3" string_words) true
    (string_words <= 3.);
  let x = Sys.opaque_identity 0x0123456789abcdefL in
  let int_words =
    words (fun () ->
        for i = 1 to 1000 do
          sink := Fnv.int64 (Fnv.int !sink i) x
        done)
  in
  Alcotest.(check bool) (Printf.sprintf "1000 int+int64: %.0f words <= 6000" int_words)
    true (int_words <= 6000.);
  ignore (Sys.opaque_identity !sink)

let suite =
  ( "support",
    [
      Alcotest.test_case "vec basic" `Quick test_vec_basic;
      Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
      Alcotest.test_case "vec ops" `Quick test_vec_ops;
      Alcotest.test_case "heap order" `Quick test_heap_order;
      Alcotest.test_case "heap peek" `Quick test_heap_peek;
      Alcotest.test_case "heap duplicate priorities" `Quick
        test_heap_duplicate_priorities;
      Alcotest.test_case "heap pop empty" `Quick test_heap_pop_empty;
      Alcotest.test_case "vec growth past capacity" `Quick test_vec_growth;
      Alcotest.test_case "vec pop empty" `Quick test_vec_pop_empty;
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "fnv known" `Quick test_fnv_known;
      QCheck_alcotest.to_alcotest prop_heap_sorted;
      QCheck_alcotest.to_alcotest prop_vec_roundtrip;
      QCheck_alcotest.to_alcotest prop_rng_chance_extremes;
      Alcotest.test_case "fnv matches byte-fold oracle at edges" `Quick test_fnv_oracle_edges;
      Alcotest.test_case "fnv allocates only its result" `Quick test_fnv_allocation;
      QCheck_alcotest.to_alcotest prop_fnv_matches_oracle;
    ] )
