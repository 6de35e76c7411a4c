(** The "dexdump" of the pipeline: renders IR method bodies into
    dexdump-format plaintext instruction lines.  BackDroid's on-the-fly
    bytecode search is a text search over exactly this output.

    One pass over the app classes appends each line's bytes to a
    {!Textstore.Builder} and, for each instruction line, one slot to an
    {!Arena.Builder}: the line's statement index, enclosing method and —
    for searchable instructions — the interned operand (callee signature,
    class descriptor, field signature or quoted string literal) and its
    category.  The search engine's postings are built from those columns
    with no text re-parsing, and because queries intern through the same
    [Descriptor] memos, an indexed operand and the query that matches it
    are the same [Sym.t]. *)

module B = Textstore.Builder
module A = Arena.Builder

let binop_mnemonic = function
  | Ir.Expr.Add -> "add-int" | Sub -> "sub-int" | Mul -> "mul-int"
  | Div -> "div-int" | Rem -> "rem-int" | Band -> "and-int" | Bor -> "or-int"
  | Bxor -> "xor-int" | Shl -> "shl-int" | Shr -> "shr-int"
  | Ushr -> "ushr-int" | Cmp -> "cmp-long"
  | Eq -> "if-eq" | Ne -> "if-ne" | Lt -> "if-lt" | Le -> "if-le"
  | Gt -> "if-gt" | Ge -> "if-ge"

let invoke_mnemonic = function
  | Ir.Expr.Virtual -> "invoke-virtual" | Special -> "invoke-direct"
  | Static -> "invoke-static" | Interface -> "invoke-interface"

(* Interned operand rendering: the interned string is spliced into the line
   text, so the symbol and the text share memory. *)
let class_op c = Sym.to_string (Descriptor.class_desc_sym c)

module Regs = Hashtbl.Make (String)

(* Per-class render state.  IR locals map to [vN] in first-use order, per
   method. *)
type st = {
  tb : B.t;
  ab : A.t;
  regs : int Regs.t;
  mutable next : int;
  mutable owner : int;  (* owner id of the method being rendered *)
  mutable stmt : int;   (* its statement being rendered *)
}

let reg st (l : Ir.Value.local) =
  match Regs.find st.regs l.id with
  | n -> n
  | exception Not_found ->
    let n = st.next in
    st.next <- n + 1;
    Regs.add st.regs l.id n;
    n

(* A value's register, or [-1] for an inline constant. *)
let bind st = function Ir.Value.Local l -> reg st l | Const _ -> -1

let str st s = B.add_string st.tb s

(* [sep] then register [vN] *)
let reg_op st sep n = str st sep; B.add_char st.tb 'v'; B.add_int st.tb n

(* [sep] then value [v], bound to register [r] by {!bind}.  An inline
   constant (real bytecode loads it with a const instruction first) shows
   as its literal, which search never targets. *)
let val_op st sep (v : Ir.Value.t) r =
  match v with
  | Local _ -> reg_op st sep r
  | Const c ->
    str st sep;
    (match c with
     | Int_c i -> str st "#int "; B.add_int st.tb i
     | Null -> str st "#null"
     | Long_c i -> str st "#long "; str st (Int64.to_string i)
     | Float_c f | Double_c f -> str st (Printf.sprintf "#float %f" f)
     | Str_c s -> str st (Printf.sprintf "%S" s)
     | Class_c cl -> str st (class_op cl))

(* Open an instruction line, "    %04x: <mnemonic>". *)
let start st mn =
  str st "    "; B.add_hex4 st.tb st.stmt; str st ": "; str st mn

(* ... followed by its destination register, or by a source value *)
let dst st mn l = start st mn; reg_op st " " (reg st l)
let src st mn v = start st mn; val_op st " " v (bind st v)

(* Close the line and add its arena slot; a keyed line's operand [sym] is
   its last operand. *)
let slot st cat sym =
  A.add st.ab ~line:(B.lines st.tb) ~stmt:st.stmt ~owner:st.owner ~cat ~sym;
  B.end_line st.tb

let close st = slot st Arena.cat_none (-1)
let keyed st cat sym =
  str st ", "; str st (Sym.to_string sym); slot st cat (Sym.id sym)

(* Registers are numbered arguments first, then the base. *)
let invoke st (iv : Ir.Expr.invoke) =
  List.iter (fun a -> ignore (bind st a)) iv.args;
  let base = match iv.base with Some b -> reg st b | None -> -1 in
  start st (invoke_mnemonic iv.kind);
  str st " {";
  if base >= 0 then reg_op st "" base;
  List.iteri
    (fun i a ->
       val_op st (if i = 0 && base < 0 then "" else ", ") a (bind st a))
    iv.args;
  str st "}";
  keyed st Arena.cat_invoke (Descriptor.meth_desc_sym iv.callee)

(* Operands are bound before any text is written, in the order that fixes
   their register numbers: mostly an instruction's sources right to left,
   then its destination. *)
let stmt st (s : Ir.Stmt.t) =
  match s with
  | Assign (l, Imm (Const (Str_c s))) ->
    dst st "const-string" l;
    keyed st Arena.cat_const_string (Sym.intern (Printf.sprintf "%S" s))
  | Assign (l, Imm (Const (Class_c c))) ->
    dst st "const-class" l;
    keyed st Arena.cat_const_class (Descriptor.class_desc_sym c)
  | Assign (l, Imm (Const Null)) ->
    dst st "const/4" l; str st ", #int 0"; close st
  | Assign (l, Imm (Const (Double_c f))) ->
    dst st "const-wide" l; str st (Printf.sprintf ", #double %f" f); close st
  | Assign (l, Imm (Const ((Int_c _ | Long_c _ | Float_c _) as c) as v)) ->
    dst st (match c with Int_c _ -> "const/16" | Float_c _ -> "const"
                       | _ -> "const-wide") l;
    val_op st ", " v (-1); close st
  | Assign (l, Imm (Local x)) ->
    let x = reg st x in
    dst st "move-object" l; reg_op st ", " x; close st
  | Assign (l, Binop (op, a, b)) ->
    let rb = bind st b in
    let ra = bind st a in
    dst st (binop_mnemonic op) l; val_op st ", " a ra; val_op st ", " b rb;
    close st
  | Assign (l, Cast (t, v)) ->
    ignore (reg st l);
    dst st "move-object" l; val_op st ", " v (bind st v); close st;
    dst st "check-cast" l; str st ", "; str st (Descriptor.type_desc t);
    close st
  | Assign (l, Invoke iv) ->
    ignore (reg st l);
    invoke st iv; dst st "move-result-object" l; close st
  | Assign (l, New c) ->
    dst st "new-instance" l;
    keyed st Arena.cat_new_instance (Descriptor.class_desc_sym c)
  | Assign (l, New_array (t, n)) ->
    let rn = bind st n in
    dst st "new-array" l; val_op st ", " n rn; str st ", [";
    str st (Descriptor.type_desc t); close st
  | Assign (l, Array_get (a, i)) ->
    let ri = bind st i in
    let a = reg st a in
    dst st "aget-object" l; reg_op st ", " a; val_op st ", " i ri; close st
  | Assign (l, Instance_get (o, f)) ->
    let o = reg st o in
    dst st "iget-object" l; reg_op st ", " o;
    keyed st Arena.cat_field (Descriptor.field_desc_sym f)
  | Assign (l, Static_get f) ->
    dst st "sget-object" l;
    keyed st Arena.cat_static_field (Descriptor.field_desc_sym f)
  | Assign (l, Phi ls) ->
    List.iter (fun x -> ignore (reg st x)) ls;
    dst st ".phi" l; str st " = (";
    List.iteri
      (fun i x -> reg_op st (if i = 0 then "" else ", ") (reg st x)) ls;
    str st ")"; close st
  | Assign (l, Param i) ->
    dst st ".param" l; str st ", p"; B.add_int st.tb i; close st
  | Assign (l, This) -> dst st ".this" l; close st
  | Assign (l, Caught_exception) -> dst st "move-exception" l; close st
  | Assign (l, Length v) ->
    let rv = bind st v in
    dst st "array-length" l; val_op st ", " v rv; close st
  | Instance_put (o, f, v) ->
    let o = reg st o in
    src st "iput-object" v; reg_op st ", " o;
    keyed st Arena.cat_field (Descriptor.field_desc_sym f)
  | Static_put (f, v) ->
    src st "sput-object" v;
    keyed st Arena.cat_static_field (Descriptor.field_desc_sym f)
  | Array_put (a, i, v) ->
    let ri = bind st i in
    let a = reg st a in
    src st "aput-object" v; reg_op st ", " a; val_op st ", " i ri; close st
  | Invoke iv -> invoke st iv
  | Return (Some v) -> src st "return-object" v; close st
  | Return None -> start st "return-void"; close st
  | If (op, a, b, target) ->
    let rb = bind st b in
    let ra = bind st a in
    start st (binop_mnemonic op); val_op st " " a ra; val_op st ", " b rb;
    str st ", :cond_"; B.add_hex4 st.tb target; close st
  | Goto target -> start st "goto :goto_"; B.add_hex4 st.tb target; close st
  | Throw v -> src st "throw" v; close st
  | Nop -> start st "nop"; close st

let header st parts =
  List.iter (str st) parts;
  B.end_line st.tb

let render_class tb ab (c : Ir.Jclass.t) =
  let st =
    { tb; ab; regs = Regs.create 16; next = 0; owner = -1; stmt = 0 }
  in
  let super = match c.super with Some s -> class_op s | None -> "-" in
  header st [ "Class descriptor : '"; class_op c.name; "'" ];
  header st [ "  Superclass : '"; super; "'" ];
  List.iter (fun i -> header st [ "  Interface : '"; class_op i; "'" ])
    c.interfaces;
  List.iter
    (fun f ->
       header st [ "  field "; Sym.to_string (Descriptor.field_desc_sym f) ])
    c.fields;
  List.iter
    (fun (m : Ir.Jmethod.t) ->
       header st [ "  method "; Sym.to_string (Descriptor.meth_desc_sym m.msig) ];
       Regs.clear st.regs;
       st.next <- 0;
       match m.body with
       | Some body when Array.length body > 0 ->
         st.owner <- A.owner ab m.msig c.name;
         Array.iteri (fun i s -> st.stmt <- i; stmt st s) body
       | Some _ | None -> ())
    c.methods

let app_classes p =
  List.sort
    (fun (a : Ir.Jclass.t) b -> String.compare a.name b.name)
    (Ir.Program.app_classes p)

type rendered = {
  texts : Textstore.t;
  arena : Arena.t;
  class_names : string array;
  class_starts : int array;
}

(* Capacities from the statement count (a line averages under 40 bytes),
   so the builders rarely regrow and leave no outgrown buffers behind. *)
let render classes =
  let size n (m : Ir.Jmethod.t) =
    n + 1 + match m.body with Some b -> Array.length b | None -> 0 in
  let n = List.fold_left (fun n (c : Ir.Jclass.t) ->
      List.fold_left size (n + 4) c.methods) 0 classes in
  let tb = B.create ~bytes:(48 * n) ~lines:(n + n / 8) ()
  and ab = A.create ~slots:(n + n / 8) () in
  let names = ref [] and starts = ref [] in
  List.iter
    (fun (c : Ir.Jclass.t) ->
       (* consecutive renderings of one class (a class listed twice in a
          multidex partition) form one run *)
       (match !names with
        | n :: _ when String.equal n c.name -> ()
        | _ ->
          names := c.name :: !names;
          starts := B.lines tb :: !starts);
       render_class tb ab c)
    classes;
  let texts = B.finish tb in
  { texts; arena = A.finish ab;
    class_names = Array.of_list (List.rev !names);
    class_starts = Array.of_list (List.rev (Textstore.count texts :: !starts)) }

let program_lines p =
  let { texts; arena = a; class_names; class_starts } =
    render (app_classes p)
  in
  let slot = ref 0 and ci = ref 0 in
  List.init (Textstore.count texts) (fun i ->
      while class_starts.(!ci + 1) <= i do incr ci done;
      let s = !slot in
      let keyed = s < Arena.length a && Ivec.get a.line_idx s = i in
      if keyed then incr slot;
      let col v d = if keyed then Ivec.get v s else d in
      { Arena.text = Textstore.get texts i; cls = class_names.(!ci);
        owner = (if keyed then Some a.owners.(Ivec.get a.owner_id s) else None);
        stmt = col a.stmt_idx (-1); line_cat = col a.cat Arena.cat_none;
        line_sym = col a.sym (-1) })
