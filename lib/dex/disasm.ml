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
  | Ir.Expr.Virtual -> "invoke-virtual"
  | Special -> "invoke-direct"
  | Static -> "invoke-static"
  | Interface -> "invoke-interface"

(* Interned operand rendering: the interned string is spliced into the line
   text, so the symbol and the text share memory. *)
let class_op c = Sym.to_string (Descriptor.class_desc_sym c)

let reg_names = Array.init 256 (fun i -> "v" ^ string_of_int i)

(* Per-class render state.  IR locals map to [vN] in first-use order, per
   method. *)
type st = {
  tb : B.t;
  ab : A.t;
  regs : (string, int) Hashtbl.t;
  mutable next : int;
  mutable owner : int;  (* owner id of the method being rendered *)
  mutable stmt : int;   (* its statement being rendered *)
}

let reg st (l : Ir.Value.local) =
  let n =
    match Hashtbl.find st.regs l.id with
    | n -> n
    | exception Not_found ->
      let n = st.next in
      st.next <- n + 1;
      Hashtbl.replace st.regs l.id n;
      n
  in
  if n < Array.length reg_names then reg_names.(n) else "v" ^ string_of_int n

let value_reg st = function
  | Ir.Value.Local l -> reg st l
  | Ir.Value.Const c ->
    (* dexdump shows a register; constants are materialised by a preceding
       const instruction in real bytecode.  For inline constant operands we
       show the literal, which search never targets. *)
    (match c with
     | Ir.Value.Int_c i -> "#int " ^ string_of_int i
     | Null -> "#null"
     | Long_c i -> "#long " ^ Int64.to_string i
     | Float_c f | Double_c f -> Printf.sprintf "#float %f" f
     | Str_c s -> Printf.sprintf "%S" s
     | Class_c cl -> class_op cl)

let str st s = B.add_string st.tb s

let hex_digits = Array.init 16 (Printf.sprintf "%x")

let add_hex4 st i =
  if i >= 0 && i <= 0xffff then
    for k = 3 downto 0 do
      str st hex_digits.((i lsr (4 * k)) land 15)
    done
  else str st (Printf.sprintf "%04x" i)

(* One instruction line, "    %04x: <mnemonic> <operands, comma-separated>",
   and its arena slot; a keyed line's operand [sym] is its last operand. *)
let line st ?(cat = Arena.cat_none) ?sym mn ops =
  str st "    ";
  add_hex4 st st.stmt;
  str st ": ";
  str st mn;
  List.iteri (fun i o -> str st (if i = 0 then " " else ", "); str st o) ops;
  A.add st.ab ~line:(B.lines st.tb) ~stmt:st.stmt ~owner:st.owner ~cat
    ~sym:(match sym with Some s -> Sym.id s | None -> -1);
  B.end_line st.tb

let keyed st cat sym mn ops = line st ~cat ~sym mn (ops @ [ Sym.to_string sym ])

let invoke st (iv : Ir.Expr.invoke) =
  (* registers are numbered arguments first, then the base *)
  let args = List.map (value_reg st) iv.args in
  let regs = match iv.base with Some b -> reg st b :: args | None -> args in
  keyed st Arena.cat_invoke (Descriptor.meth_desc_sym iv.callee)
    (invoke_mnemonic iv.kind) [ "{" ^ String.concat ", " regs ^ "}" ]

(* Operands are bound before any text is written, in the order that fixes
   their register numbers: mostly an instruction's sources right to left,
   then its destination. *)
let stmt st (s : Ir.Stmt.t) =
  match s with
  | Assign (l, Imm (Const (Str_c s))) ->
    keyed st Arena.cat_const_string (Sym.intern (Printf.sprintf "%S" s))
      "const-string" [ reg st l ]
  | Assign (l, Imm (Const (Class_c c))) ->
    keyed st Arena.cat_const_class (Descriptor.class_desc_sym c) "const-class"
      [ reg st l ]
  | Assign (l, Imm (Const (Int_c i))) ->
    line st "const/16" [ reg st l; "#int " ^ string_of_int i ]
  | Assign (l, Imm (Const Null)) -> line st "const/4" [ reg st l; "#int 0" ]
  | Assign (l, Imm (Const (Long_c i))) ->
    line st "const-wide" [ reg st l; "#long " ^ Int64.to_string i ]
  | Assign (l, Imm (Const (Float_c f))) ->
    line st "const" [ reg st l; Printf.sprintf "#float %f" f ]
  | Assign (l, Imm (Const (Double_c f))) ->
    line st "const-wide" [ reg st l; Printf.sprintf "#double %f" f ]
  | Assign (l, Imm (Local x)) ->
    let x = reg st x in
    line st "move-object" [ reg st l; x ]
  | Assign (l, Binop (op, a, b)) ->
    let b = value_reg st b in
    let a = value_reg st a in
    line st (binop_mnemonic op) [ reg st l; a; b ]
  | Assign (l, Cast (t, v)) ->
    let l = reg st l in
    line st "move-object" [ l; value_reg st v ];
    line st "check-cast" [ l; Descriptor.type_desc t ]
  | Assign (l, Invoke iv) ->
    let l = reg st l in
    invoke st iv;
    line st "move-result-object" [ l ]
  | Assign (l, New c) ->
    keyed st Arena.cat_new_instance (Descriptor.class_desc_sym c)
      "new-instance" [ reg st l ]
  | Assign (l, New_array (t, n)) ->
    let n = value_reg st n in
    line st "new-array" [ reg st l; n; "[" ^ Descriptor.type_desc t ]
  | Assign (l, Array_get (a, i)) ->
    let i = value_reg st i in
    let a = reg st a in
    line st "aget-object" [ reg st l; a; i ]
  | Assign (l, Instance_get (o, f)) ->
    let o = reg st o in
    keyed st Arena.cat_field (Descriptor.field_desc_sym f) "iget-object"
      [ reg st l; o ]
  | Assign (l, Static_get f) ->
    keyed st Arena.cat_static_field (Descriptor.field_desc_sym f)
      "sget-object" [ reg st l ]
  | Assign (l, Phi ls) ->
    let ls = List.map (reg st) ls in
    line st ".phi" [ reg st l ^ " = (" ^ String.concat ", " ls ^ ")" ]
  | Assign (l, Param i) -> line st ".param" [ reg st l; "p" ^ string_of_int i ]
  | Assign (l, This) -> line st ".this" [ reg st l ]
  | Assign (l, Caught_exception) -> line st "move-exception" [ reg st l ]
  | Assign (l, Length v) ->
    let v = value_reg st v in
    line st "array-length" [ reg st l; v ]
  | Instance_put (o, f, v) ->
    let o = reg st o in
    keyed st Arena.cat_field (Descriptor.field_desc_sym f) "iput-object"
      [ value_reg st v; o ]
  | Static_put (f, v) ->
    keyed st Arena.cat_static_field (Descriptor.field_desc_sym f)
      "sput-object" [ value_reg st v ]
  | Array_put (a, i, v) ->
    let i = value_reg st i in
    let a = reg st a in
    line st "aput-object" [ value_reg st v; a; i ]
  | Invoke iv -> invoke st iv
  | Return (Some v) -> line st "return-object" [ value_reg st v ]
  | Return None -> line st "return-void" []
  | If (op, a, b, target) ->
    let b = value_reg st b in
    let a = value_reg st a in
    line st (binop_mnemonic op) [ a; b; Printf.sprintf ":cond_%04x" target ]
  | Goto target -> line st "goto" [ Printf.sprintf ":goto_%04x" target ]
  | Throw v -> line st "throw" [ value_reg st v ]
  | Nop -> line st "nop" []

let header st parts =
  List.iter (str st) parts;
  B.end_line st.tb

let render_class tb ab (c : Ir.Jclass.t) =
  let st =
    { tb; ab; regs = Hashtbl.create 16; next = 0; owner = -1; stmt = 0 }
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
       Hashtbl.clear st.regs;
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

let render classes =
  let tb = B.create ~bytes:65536 ~lines:2048 ()
  and ab = A.create ~slots:2048 () in
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
