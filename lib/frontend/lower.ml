open Ast
module Ir = Csspgo_ir
module T = Ir.Types
module I = Ir.Instr

exception Lower_error of string * int

type ctx = {
  func : Ir.Func.t;
  env : (string, T.reg) Hashtbl.t;
  mutable cur : Ir.Block.t;
  mutable loops : (T.label * T.label) list;  (** (continue target, break target) *)
  fline : int;
  defined : string -> bool;  (** whether the program defines a function *)
}

let dloc ctx line = Ir.Dloc.mk ctx.func.Ir.Func.guid (max 0 (line - ctx.fline))

let emit ctx line op = Ir.Block.add ctx.cur (I.mk op (dloc ctx line))

let set_term ctx term = Ir.Block.set_term ctx.cur term

let start_block ctx b = ctx.cur <- b

let fresh ctx = Ir.Func.fresh_reg ctx.func

let lookup ctx name line =
  match Hashtbl.find_opt ctx.env name with
  | Some r -> r
  | None -> raise (Lower_error ("unknown variable " ^ name, line))

let rec lower_expr ctx (e : expr) : T.operand =
  let line = e.eline in
  match e.e with
  | Int v -> T.Imm v
  | Var name -> T.Reg (lookup ctx name line)
  | Unary (Neg, x) ->
      let xo = lower_expr ctx x in
      let d = fresh ctx in
      emit ctx line (I.Bin (T.Sub, d, T.Imm 0L, xo));
      T.Reg d
  | Unary (Not, x) ->
      let xo = lower_expr ctx x in
      let d = fresh ctx in
      emit ctx line (I.Cmp (T.Eq, d, xo, T.Imm 0L));
      T.Reg d
  | Binary (Arith op, a, b) ->
      let ao = lower_expr ctx a in
      let bo = lower_expr ctx b in
      let d = fresh ctx in
      emit ctx line (I.Bin (op, d, ao, bo));
      T.Reg d
  | Binary (Compare op, a, b) ->
      let ao = lower_expr ctx a in
      let bo = lower_expr ctx b in
      let d = fresh ctx in
      emit ctx line (I.Cmp (op, d, ao, bo));
      T.Reg d
  | Binary (Log_and, a, b) ->
      (* Short-circuit: creates a diamond, so PGO sees the branch. *)
      let result = fresh ctx in
      let ao = lower_expr ctx a in
      let ca = fresh ctx in
      emit ctx line (I.Cmp (T.Ne, ca, ao, T.Imm 0L));
      let bb_rhs = Ir.Func.fresh_block ctx.func in
      let bb_false = Ir.Func.fresh_block ctx.func in
      let bb_join = Ir.Func.fresh_block ctx.func in
      set_term ctx (I.Br (ca, bb_rhs.Ir.Block.id, bb_false.Ir.Block.id));
      start_block ctx bb_rhs;
      let bo = lower_expr ctx b in
      let cb = fresh ctx in
      emit ctx line (I.Cmp (T.Ne, cb, bo, T.Imm 0L));
      emit ctx line (I.Mov (result, T.Reg cb));
      set_term ctx (I.Jmp bb_join.Ir.Block.id);
      start_block ctx bb_false;
      emit ctx line (I.Mov (result, T.Imm 0L));
      set_term ctx (I.Jmp bb_join.Ir.Block.id);
      start_block ctx bb_join;
      T.Reg result
  | Binary (Log_or, a, b) ->
      let result = fresh ctx in
      let ao = lower_expr ctx a in
      let ca = fresh ctx in
      emit ctx line (I.Cmp (T.Ne, ca, ao, T.Imm 0L));
      let bb_true = Ir.Func.fresh_block ctx.func in
      let bb_rhs = Ir.Func.fresh_block ctx.func in
      let bb_join = Ir.Func.fresh_block ctx.func in
      set_term ctx (I.Br (ca, bb_true.Ir.Block.id, bb_rhs.Ir.Block.id));
      start_block ctx bb_true;
      emit ctx line (I.Mov (result, T.Imm 1L));
      set_term ctx (I.Jmp bb_join.Ir.Block.id);
      start_block ctx bb_rhs;
      let bo = lower_expr ctx b in
      let cb = fresh ctx in
      emit ctx line (I.Cmp (T.Ne, cb, bo, T.Imm 0L));
      emit ctx line (I.Mov (result, T.Reg cb));
      set_term ctx (I.Jmp bb_join.Ir.Block.id);
      start_block ctx bb_join;
      T.Reg result
  | Call (callee, args) ->
      if not (ctx.defined callee) then raise (Lower_error ("unknown function " ^ callee, line));
      let argops = List.map (lower_expr ctx) args in
      let d = fresh ctx in
      emit ctx line (I.Call { I.c_ret = Some d; c_callee = callee; c_args = argops; c_probe = 0 });
      T.Reg d
  | Index (arr, idx) ->
      let io = lower_expr ctx idx in
      let d = fresh ctx in
      emit ctx line (I.Load (d, arr, io));
      T.Reg d

let cond_reg ctx line (o : T.operand) =
  match o with
  | T.Reg r -> r
  | T.Imm _ ->
      let d = fresh ctx in
      emit ctx line (I.Cmp (T.Ne, d, o, T.Imm 0L));
      d

let rec lower_stmt ctx (s : stmt) : unit =
  let line = s.sline in
  match s.s with
  | Let (name, e) | Assign (name, e) ->
      let v = lower_expr ctx e in
      let r =
        match s.s with
        | Let _ ->
            let r = fresh ctx in
            Hashtbl.replace ctx.env name r;
            r
        | _ -> lookup ctx name line
      in
      emit ctx line (I.Mov (r, v))
  | Store (arr, idx, v) ->
      let io = lower_expr ctx idx in
      let vo = lower_expr ctx v in
      emit ctx line (I.Store (arr, io, vo))
  | Expr e -> ignore (lower_expr ctx e)
  | Return e ->
      let v = lower_expr ctx e in
      set_term ctx (I.Ret v);
      (* Subsequent statements in this block are unreachable; park them in a
         fresh block that simplify-cfg will delete. *)
      start_block ctx (Ir.Func.fresh_block ctx.func)
  | Break -> (
      match ctx.loops with
      | [] -> raise (Lower_error ("break outside loop", line))
      | (_, brk) :: _ ->
          set_term ctx (I.Jmp brk);
          start_block ctx (Ir.Func.fresh_block ctx.func))
  | Continue -> (
      match ctx.loops with
      | [] -> raise (Lower_error ("continue outside loop", line))
      | (cont, _) :: _ ->
          set_term ctx (I.Jmp cont);
          start_block ctx (Ir.Func.fresh_block ctx.func))
  | If (cond, then_, else_) ->
      let co = lower_expr ctx cond in
      let c = cond_reg ctx line co in
      let bb_then = Ir.Func.fresh_block ctx.func in
      let bb_join = Ir.Func.fresh_block ctx.func in
      let bb_else =
        if else_ = [] then bb_join else Ir.Func.fresh_block ctx.func
      in
      set_term ctx (I.Br (c, bb_then.Ir.Block.id, bb_else.Ir.Block.id));
      start_block ctx bb_then;
      List.iter (lower_stmt ctx) then_;
      set_term ctx (I.Jmp bb_join.Ir.Block.id);
      if else_ <> [] then begin
        start_block ctx bb_else;
        List.iter (lower_stmt ctx) else_;
        set_term ctx (I.Jmp bb_join.Ir.Block.id)
      end;
      start_block ctx bb_join
  | While (cond, body) ->
      let bb_header = Ir.Func.fresh_block ctx.func in
      let bb_body = Ir.Func.fresh_block ctx.func in
      let bb_exit = Ir.Func.fresh_block ctx.func in
      set_term ctx (I.Jmp bb_header.Ir.Block.id);
      start_block ctx bb_header;
      let co = lower_expr ctx cond in
      let c = cond_reg ctx line co in
      set_term ctx (I.Br (c, bb_body.Ir.Block.id, bb_exit.Ir.Block.id));
      start_block ctx bb_body;
      ctx.loops <- (bb_header.Ir.Block.id, bb_exit.Ir.Block.id) :: ctx.loops;
      List.iter (lower_stmt ctx) body;
      ctx.loops <- List.tl ctx.loops;
      set_term ctx (I.Jmp bb_header.Ir.Block.id);
      start_block ctx bb_exit
  | Switch (scrut, cases, default) ->
      let so = lower_expr ctx scrut in
      let bb_join = Ir.Func.fresh_block ctx.func in
      let case_blocks =
        List.map (fun (v, body) -> (v, body, Ir.Func.fresh_block ctx.func)) cases
      in
      let bb_default = Ir.Func.fresh_block ctx.func in
      set_term ctx
        (I.Switch
           ( so,
             List.map (fun (v, _, b) -> (v, b.Ir.Block.id)) case_blocks,
             bb_default.Ir.Block.id ));
      List.iter
        (fun (_, body, b) ->
          start_block ctx b;
          List.iter (lower_stmt ctx) body;
          set_term ctx (I.Jmp bb_join.Ir.Block.id))
        case_blocks;
      start_block ctx bb_default;
      List.iter (lower_stmt ctx) default;
      set_term ctx (I.Jmp bb_join.Ir.Block.id);
      start_block ctx bb_join

let lower_fn ~defined (fd : fndef) : Ir.Func.t =
  let params = List.mapi (fun i _ -> i) fd.fparams in
  let func = Ir.Func.mk ~name:fd.fname ~modname:fd.fmodule ~params in
  func.Ir.Func.nregs <- List.length params;
  let ctx =
    {
      func;
      env = Hashtbl.create 16;
      cur = Ir.Func.entry_block func;
      loops = [];
      fline = fd.fline;
      defined;
    }
  in
  List.iteri (fun i name -> Hashtbl.replace ctx.env name i) fd.fparams;
  List.iter (lower_stmt ctx) fd.fbody;
  (* Implicit [return 0] when control falls off the end. *)
  (match ctx.cur.Ir.Block.term with
  | I.Unreachable -> set_term ctx (I.Ret (T.Imm 0L))
  | _ -> ());
  (* Any parked blocks left unreachable keep Unreachable terminators; give
     them a harmless Ret so the verifier stays quiet until simplify runs. *)
  Ir.Func.iter_blocks
    (fun b ->
      match b.Ir.Block.term with
      | I.Unreachable -> Ir.Block.set_term b (I.Ret (T.Imm 0L))
      | _ -> ())
    func;
  func

let lower_program (p : program) : Ir.Program.t =
  let prog = Ir.Program.mk () in
  List.iter (fun (g, n) -> Ir.Program.add_global prog g n) p.pglobals;
  let names = Hashtbl.create 16 in
  List.iter (fun fd -> Hashtbl.replace names fd.fname ()) p.pfns;
  let defined = Hashtbl.mem names in
  List.iter (fun fd -> Ir.Program.add_func prog (lower_fn ~defined fd)) p.pfns;
  prog

let compile src = lower_program (Parser.parse src)
