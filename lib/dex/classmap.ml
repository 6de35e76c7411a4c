(* Per-class table over a disassembled dexfile: for each class, its
   contiguous line range, its contiguous arena slot range and the
   structural {!Ir.Irhash} over its IR.  The delta snapshot path diffs a
   new build against an old snapshot on the IR hash (no rendering needed),
   then splices text, arena slots and postings per class using the
   ranges. *)

type t = {
  names : string array;
  line_lo : int array;
  line_hi : int array;
  slot_lo : int array;
  slot_hi : int array;
  ir_hash : int64 array;
  index : (string, int) Hashtbl.t;
}

let length t = Array.length t.names

let build_index names =
  let index = Hashtbl.create (max 16 (Array.length names)) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  index

let v ~names ~line_lo ~line_hi ~slot_lo ~slot_hi ~ir_hash =
  let n = Array.length names in
  if
    Array.length line_lo <> n || Array.length line_hi <> n
    || Array.length slot_lo <> n || Array.length slot_hi <> n
    || Array.length ir_hash <> n
  then invalid_arg "Classmap.v: column length mismatch";
  { names; line_lo; line_hi; slot_lo; slot_hi; ir_hash;
    index = build_index names }

let empty =
  { names = [||]; line_lo = [||]; line_hi = [||]; slot_lo = [||];
    slot_hi = [||]; ir_hash = [||];
    index = Hashtbl.create 1 }

let find t name = Hashtbl.find_opt t.index name

let ir_hash_of t name =
  match find t name with None -> None | Some i -> Some t.ir_hash.(i)

(* FNV-1a-64 over the class's rendered lines, each length-prefixed exactly
   as {!Ir.Irhash.string} folds a string, so line boundaries can't alias;
   read straight from the text blob. *)
let text_hash texts lo hi =
  let blob : Bvec.t = Textstore.blob texts in
  let offs = Textstore.offsets texts in
  (* the fold written out here keeps [h] unboxed *)
  let prime = Ir.Irhash.prime in
  let h = ref Ir.Irhash.offset_basis in
  for i = lo to hi - 1 do
    let a = Ivec.get offs i and b = Ivec.get offs (i + 1) in
    for shift = 0 to 7 do
      let byte = ((b - a) lsr (shift * 8)) land 0xff in
      h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) prime
    done;
    for p = a to b - 1 do
      let byte = Char.code (Bigarray.Array1.unsafe_get blob p) in
      h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) prime
    done
  done;
  !h

let build ~names ~starts (arena : Arena.t) program =
  let n = Array.length names in
  let n_slots = Arena.length arena in
  let slot_lo = Array.make n 0 and slot_hi = Array.make n 0 in
  (* arena slots are in line order: advance to each class's run *)
  let slot = ref 0 in
  for i = 0 to n - 1 do
    while !slot < n_slots && Ivec.get arena.line_idx !slot < starts.(i) do
      incr slot
    done;
    slot_lo.(i) <- !slot;
    while !slot < n_slots && Ivec.get arena.line_idx !slot < starts.(i + 1) do
      incr slot
    done;
    slot_hi.(i) <- !slot
  done;
  v ~names ~line_lo:(Array.sub starts 0 n) ~line_hi:(Array.sub starts 1 n)
    ~slot_lo ~slot_hi
    ~ir_hash:
      (Array.map
         (fun name ->
            match Ir.Program.find_class program name with
            | Some c -> Ir.Irhash.jclass c
            | None -> 0L)
         names)

let of_lines (lines : Arena.line array) arena program =
  let names = ref [] and starts = ref [] in
  Array.iteri
    (fun i (l : Arena.line) ->
       match !names with
       | n :: _ when String.equal n l.cls -> ()
       | _ ->
         names := l.cls :: !names;
         starts := i :: !starts)
    lines;
  build
    ~names:(Array.of_list (List.rev !names))
    ~starts:(Array.of_list (List.rev (Array.length lines :: !starts)))
    arena program
