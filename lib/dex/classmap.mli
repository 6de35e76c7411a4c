(** Per-class content-hash table over a disassembled dexfile.

    One entry per class, in line order (classes are contiguous runs of the
    dex plaintext): its [\[lo, hi)] line range, its [\[lo, hi)] arena slot
    range and the structural {!Ir.Irhash} of its IR ([ir_hash]).  A
    dexfile builds its table on first use (see [Dexfile.classmap]).  The
    per-class hash of the rendered text, which snapshots record beside the
    IR hash, is {!text_hash} over the class's line range.

    The delta snapshot path ({!Store.Snapshot}) diffs a new build
    against an old snapshot by [ir_hash] — no rendering needed for
    unchanged classes — and uses the ranges to splice text-store byte
    ranges, arena slots and postings rows per class. *)

type t = private {
  names : string array;        (** class name per entry, in line order *)
  line_lo : int array;
  line_hi : int array;         (** [\[line_lo.(i), line_hi.(i))] lines *)
  slot_lo : int array;
  slot_hi : int array;         (** [\[slot_lo.(i), slot_hi.(i))] arena slots *)
  ir_hash : int64 array;       (** structural {!Ir.Irhash.jclass} *)
  index : (string, int) Hashtbl.t;
}

val empty : t
val length : t -> int

(** Entry index of [name], if present. *)
val find : t -> string -> int option

(** Structural IR hash of class [name], if present. *)
val ir_hash_of : t -> string -> int64 option

(** Rebuild from columns (the snapshot load path).  Raises
    [Invalid_argument] on a column length mismatch. *)
val v :
  names:string array ->
  line_lo:int array -> line_hi:int array ->
  slot_lo:int array -> slot_hi:int array -> ir_hash:int64 array -> t

(** FNV-1a-64 over lines [\[lo, hi)] of a text store, each
    length-prefixed as {!Ir.Irhash.string} folds it — the canonical
    per-class text hash. *)
val text_hash : Textstore.t -> int -> int -> int64

(** Build the table of a disassembly whose class [i] is [names.(i)] and
    owns lines [\[starts.(i), starts.(i+1))]. *)
val build :
  names:string array -> starts:int array -> Arena.t -> Ir.Program.t -> t

(** Build the table from decoded lines (a class is a run of lines with
    the same class) and their arena. *)
val of_lines : Arena.line array -> Arena.t -> Ir.Program.t -> t
