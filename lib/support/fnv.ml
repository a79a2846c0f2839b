type t = int64

let init = 0xCBF29CE484222325L
let prime = 0x100000001B3L

(* Loop form on purpose: the state is a local [int64 ref] read and
   written only by unboxed arithmetic inside the loop, so ocamlopt keeps
   it in a register and the whole fold allocates just the boxed result.
   A [String.iter] closure capturing the ref (or a helper called per
   byte) boxes every intermediate state instead: 3 words per byte,
   since there is no flambda and dev builds compile with [-opaque]. *)
let substring h s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Fnv.substring";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let string h s = substring h s ~pos:0 ~len:(String.length s)

let int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL))
        prime
  done;
  !h

(* [int64 h (Int64.of_int x)] without boxing the argument: [asr] on the
   native int yields the same bytes as the sign-extended int64. *)
let int h x =
  let h = ref h in
  for i = 0 to 7 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int ((x asr (8 * i)) land 0xff))) prime
  done;
  !h

let hash_string s = string init s

let combine a b = int64 (int64 init a) b
