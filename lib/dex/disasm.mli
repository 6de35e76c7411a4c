(** The "dexdump" of the pipeline: renders IR method bodies into
    dexdump-format plaintext instruction lines.  BackDroid's on-the-fly
    bytecode search is a text search over exactly this output.

    One pass writes each line's bytes into a {!Textstore.Builder} and each
    instruction line's slot — statement index, enclosing method and, for
    searchable instructions, the category and interned operand (callee
    signature, class descriptor, field signature or quoted string
    literal) — into an {!Arena.Builder}.  Search postings are built from
    those columns with no text re-parsing; queries intern through the same
    [Descriptor] memos, so an indexed operand and the query that must match
    it are the same [Sym.t].

    Registers are named [vN] in first-use order per method.  Within one
    instruction the order is fixed per opcode — mostly sources right to
    left, then the destination; a [move-result] destination comes before
    the call's arguments. *)

(** Append one class's lines and slots. *)
val render_class : Textstore.Builder.t -> Arena.Builder.t -> Ir.Jclass.t -> unit

(** The app classes — every non-system class — sorted by name: the order
    of a single-dex disassembly. *)
val app_classes : Ir.Program.t -> Ir.Jclass.t list

(** A finished disassembly.  Class [i] owns lines
    [\[class_starts.(i), class_starts.(i+1))]; the last entry of
    [class_starts] is the line count. *)
type rendered = {
  texts : Textstore.t;
  arena : Arena.t;
  class_names : string array;
  class_starts : int array;
}

(** Disassemble classes in the given order. *)
val render : Ir.Jclass.t list -> rendered

(** Disassemble all non-system classes — the app dex content — and decode
    the lines (a view for tools and tests; the dexfile keeps only the text
    blob and the arena). *)
val program_lines : Ir.Program.t -> Arena.line list
