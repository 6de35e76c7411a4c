(** Off-heap line texts: a dexfile's plaintext lines as (offset, length)
    views into one byte blob.  The disassembler writes the blob through
    {!Builder}; a snapshot load maps the same layout straight from the
    file's text-blob section.

    The text scan matches directly against the blob with the
    allocation-free predicates below; a line's string is materialised only
    when a hit actually returns it. *)

type t

(** [create ~blob ~offs] views line [i] as bytes
    [offs.(i) .. offs.(i+1) - 1] of [blob].  Raises [Invalid_argument] if
    the offsets are not ascending from 0 to [Bvec.length blob]. *)
val create : blob:Bvec.t -> offs:Ivec.t -> t

(** The store of no lines. *)
val empty : t

(** Number of lines. *)
val count : t -> int

(** The raw backing views — the delta-patch path splices per-class byte
    ranges of an old store into a new blob with these. *)

val blob : t -> Bvec.t
val offsets : t -> Ivec.t

(** Byte length of line [i]. *)
val length_at : t -> int -> int

(** Materialise line [i] as a fresh string. *)
val get : t -> int -> string

(** Position of the first [c] in line [i] (relative to the line start), or
    [-1].  Allocation-free. *)
val index_char : t -> int -> char -> int

(** Whether line [i] carries [prefix] at byte [pos].  Allocation-free. *)
val starts_with : t -> int -> pos:int -> prefix:string -> bool

(** [iter_matches t ~pat f] calls [f i] for every line [i] containing
    [pat], ascending, each such line once.  One Boyer–Moore–Horspool pass
    over the whole blob (not a loop per line), so cost scales with
    [blob / |pat|] rather than [blob] — the residual scan's bulk path.  An
    empty [pat] matches every line; a match straddling a line boundary
    matches neither line. *)
val iter_matches : t -> pat:string -> (int -> unit) -> unit

(** Touch every page of the blob and offsets (see {!Bvec.prefault}). *)
val prefault : t -> int

(** A blob under construction: bytes and line offsets grow in off-heap
    vectors, and {!finish} hands them out without a copy. *)
module Builder : sig
  type store := t
  type t

  (** An empty builder, with capacity hints. *)
  val create : ?bytes:int -> ?lines:int -> unit -> t

  (** Lines closed so far: the index the next line will get. *)
  val lines : t -> int

  (** Append to the open line. *)
  val add_string : t -> string -> unit

  (** Append one byte. *)
  val add_char : t -> char -> unit

  (** Append [string_of_int i]. *)
  val add_int : t -> int -> unit

  (** Append [Printf.sprintf "%04x" i]. *)
  val add_hex4 : t -> int -> unit

  (** Close the open line. *)
  val end_line : t -> unit

  (** Append lines [\[lo, hi)] of [store] wholesale: one byte blit plus an
      offset rebase (the delta path's splice of an unchanged class).  The
      open line must be empty. *)
  val add_lines : t -> store -> lo:int -> hi:int -> unit

  (** The finished store.  The builder must not be used afterwards. *)
  val finish : t -> store
end
