(** FNV-1a 64-bit hashing. Used for function GUIDs (like LLVM's MD5-based
    GUIDs) and for pseudo-probe CFG checksums. *)

type t = int64

val init : t

val string : t -> string -> t
(** Fold every byte of the string into the state. Allocates only the
    boxed result: hashing a 10 MB cache payload costs no garbage. *)

val substring : t -> string -> pos:int -> len:int -> t
(** [string] over the bytes [pos .. pos + len - 1] in place, without
    copying them out. Raises [Invalid_argument] on an out-of-range span. *)

val int : t -> int -> t
val int64 : t -> int64 -> t
(** Fold the 8 bytes of the value, least significant first. [int] folds
    the sign-extended [int64]. Both allocate only the boxed result. *)

val hash_string : string -> t
(** One-shot convenience: [string init s]. *)

val combine : t -> t -> t
(** Mix two digests into one; order-sensitive. *)
