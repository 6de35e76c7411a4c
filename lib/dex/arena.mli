(** Compact struct-of-arrays hit arena over a disassembled dex plaintext.

    One slot per instruction line (a line with an enclosing method); slots
    are in line order.  Per-category search postings index into this arena
    with plain ints, and hit records are materialised from a slot only when
    a query returns it.  The disassembler fills the columns in the same
    pass that writes the line texts.

    The int columns are {!Ivec.t}s: the payload lives off the OCaml heap,
    invisible to the GC, and a snapshot load can alias them to mmapped file
    sections instead of rebuilding them. *)

(** Category codes stored in {!t.cat}. *)
val cat_invoke : int
val cat_new_instance : int
val cat_const_class : int
val cat_const_string : int
val cat_field : int
val cat_static_field : int

(** Marks a slot whose line has no searchable operand. *)
val cat_none : int

type t = {
  line_idx : Ivec.t;  (** slot -> index into the dexfile's lines *)
  stmt_idx : Ivec.t;  (** slot -> IR statement index; [-1] = none *)
  owner_id : Ivec.t;  (** slot -> index into [owners] / [owner_cls] *)
  cat : Ivec.t;       (** slot -> category code; {!cat_none} = unkeyed *)
  sym : Ivec.t;       (** slot -> [Sym.id] of the operand; [-1] = unkeyed *)
  owners : Ir.Jsig.meth array;  (** unique enclosing methods *)
  owner_cls : string array;     (** enclosing class, parallel to [owners] *)
}

(** Number of slots. *)
val length : t -> int

(** The arena of no slots. *)
val empty : t

(** Growable columns and owner table, filled slot by slot (the
    disassembler) or by whole ranges of an existing arena (the delta
    splice). *)
module Builder : sig
  type arena := t
  type t

  (** [owners] (default none) pre-fills the owner table: ids
      [0 .. n-1] keep these methods, and the ids in [seed] are found again
      by {!owner} instead of getting a new id. *)
  val create :
    ?slots:int ->
    ?owners:Ir.Jsig.meth array * string array ->
    ?seed:int list ->
    unit ->
    t

  (** Slots added so far: the index the next slot will get. *)
  val length : t -> int

  (** The owner id of method [meth] of class [cls], assigned in first-use
      order. *)
  val owner : t -> Ir.Jsig.meth -> string -> int

  val add : t -> line:int -> stmt:int -> owner:int -> cat:int -> sym:int -> unit

  (** Append slots [\[lo, hi)] of an arena, shifting their [line_idx] by
      [line_shift]; owner ids are copied as they are. *)
  val add_slots : t -> arena -> lo:int -> hi:int -> line_shift:int -> unit

  (** The finished arena.  The builder must not be used afterwards. *)
  val finish : t -> arena
end

(** One dexdump line decoded from a dexfile (see [Disasm.program_lines]):
    a view for tools and tests, never built on the analysis path. *)
type line = {
  text : string;
  cls : string;                 (** enclosing class *)
  owner : Ir.Jsig.meth option;  (** enclosing method of an instruction line *)
  stmt : int;                   (** IR statement index; [-1] = none *)
  line_cat : int;               (** category code; {!cat_none} = unkeyed *)
  line_sym : int;               (** [Sym.id] of the operand; [-1] = unkeyed *)
}

(** Rebuild the arena from decoded lines. *)
val of_lines : line array -> t
