(** A disassembled (and, if multidex, merged) dex file: the plaintext lines
    the bytecode search engine scans, held as one {!Textstore} blob, plus
    the compact hit {!Arena} the engine's per-category postings index into
    (each instruction line's slot carries its enclosing method).  The cold,
    snapshot and delta paths all produce this one representation. *)

type t = private {
  texts : Textstore.t;  (** every line's text, in line order *)
  arena : Arena.t;
  program : Ir.Program.t;
  classmap_cell : classmap_cell;  (** see {!classmap} *)
}
and classmap_cell

val of_program : Ir.Program.t -> t

(** A dexfile from parts (the snapshot load and delta paths).  [classmap]
    (default {!Classmap.empty}) is its class map as it is. *)
val v : ?classmap:Classmap.t -> Textstore.t -> Arena.t -> Ir.Program.t -> t

(** A dexfile with no plaintext lines and an empty arena.  Warm starts use
    it as the generation-time placeholder when the real lines and arena are
    about to be mapped from a snapshot instead of disassembled. *)
val empty : Ir.Program.t -> t

(** Emulate multidex: disassemble each classesN.dex partition separately and
    merge the plaintexts, as BackDroid's preprocessing step does. *)
val of_partitions : Ir.Program.t -> string list list -> t

(** Per-class line/slot ranges and content hashes; {!Classmap.empty} for
    the warm-start placeholder and pre-delta snapshots.  A disassembled
    dexfile builds it on the first call (a save, a delta or a freshness
    check) and returns that one table to every later or concurrent caller,
    from any domain or thread. *)
val classmap : t -> Classmap.t

val line_count : t -> int

(** The text of line [i], as a fresh string. *)
val line_text : t -> int -> string

val to_string : t -> string
