(** Class-descriptor token extraction: the [Lcom/foo/Bar;] occurrences of a
    dexdump line, which the search engine's class-tokens postings index. *)

(** Apply [f] to every token occurrence of [s] in order, interning each. *)
val iter : string -> (Sym.t -> unit) -> unit

(** Distinct tokens of [s], sorted by symbol id.  Token-free strings share
    one empty array. *)
val of_string : string -> Sym.t array

(** {!of_string} of line [i] of a text store; a line without [';'] (most
    of them) yields the shared empty array without allocating. *)
val of_line : Textstore.t -> int -> Sym.t array

(** Memoized {!of_string} of an interned operand: each distinct operand
    symbol tokenizes once per process.  Keyed instruction lines render
    their tokens only inside the operand (everything before the final
    [", "] is mnemonics and registers), so this covers them exactly. *)
val of_operand : Sym.t -> Sym.t array
