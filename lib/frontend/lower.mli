(** Lowering MiniC AST to IR.

    Debug lines attached to IR instructions are *function-relative* offsets
    (statement line minus the [fn] keyword's line), mirroring AutoFDO's
    line-offset scheme: editing code above a function does not disturb its
    profile, editing inside it does.

    Language notes: variables are function-scoped; [switch] has no
    fall-through; [break]/[continue] apply to the innermost loop. *)

exception Lower_error of string * int
(** Message and absolute line of an unknown variable, [break]/[continue]
    outside a loop, or a call to a function the program does not define. *)

val lower_program : Ast.program -> Csspgo_ir.Program.t

val compile : string -> Csspgo_ir.Program.t
(** [parse] + [lower_program]. *)
