(** Compact struct-of-arrays hit arena over a disassembled dex plaintext.

    One slot per instruction line (a line with an enclosing method).  Each
    slot records the line's position, IR statement index, owner and — when
    the disassembler classified the line — the interned searchable operand
    and its category.  The search engine's per-category postings are sorted
    int vectors of slots, and a hit record is materialised from a slot only
    when a query actually returns it.

    The disassembler fills the columns through {!Builder} in the same pass
    that writes the line texts, so no per-line record ever exists; the
    unboxed off-heap columns keep the GC from tracing (or even seeing) a
    word per indexed line. *)

(* Category codes for [cat]; [-1] marks an unclassified slot. *)
let cat_invoke = 0
let cat_new_instance = 1
let cat_const_class = 2
let cat_const_string = 3
let cat_field = 4
let cat_static_field = 5
let cat_none = -1

type t = {
  line_idx : Ivec.t;  (** slot -> index into the dexfile's lines *)
  stmt_idx : Ivec.t;  (** slot -> IR statement index; [-1] = none *)
  owner_id : Ivec.t;  (** slot -> index into [owners] / [owner_cls] *)
  cat : Ivec.t;       (** slot -> category code; [cat_none] = unkeyed *)
  sym : Ivec.t;       (** slot -> [Sym.id] of the operand; [-1] = unkeyed *)
  owners : Ir.Jsig.meth array;      (** unique enclosing methods *)
  owner_cls : string array;         (** enclosing class, parallel to [owners] *)
}

let length t = Ivec.length t.line_idx

(* Growable columns plus the owner table, doubled on demand; [finish]
   hands out prefixes of the final vectors without a copy. *)
module Builder = struct
  type arena = t

  type t = {
    mutable n : int;
    mutable cols : Ivec.t array;  (* line_idx, stmt_idx, owner_id, cat, sym *)
    tbl : int Ir.Jsig.Meth_tbl.t;
    mutable owners : Ir.Jsig.meth list;  (* newest first *)
    mutable owner_cls : string list;
    mutable n_owners : int;
    base_owners : Ir.Jsig.meth array;
    base_owner_cls : string array;
  }

  let create ?(slots = 64) ?(owners = ([||], [||])) ?(seed = []) () =
    let base_owners, base_owner_cls = owners in
    let tbl = Ir.Jsig.Meth_tbl.create 256 in
    List.iter (fun i -> Ir.Jsig.Meth_tbl.replace tbl base_owners.(i) i) seed;
    { n = 0; cols = Array.init 5 (fun _ -> Ivec.create (max 16 slots)); tbl;
      owners = []; owner_cls = []; n_owners = Array.length base_owners;
      base_owners; base_owner_cls }

  let length b = b.n

  let reserve b k =
    let cap = Ivec.length b.cols.(0) in
    if b.n + k > cap then
      b.cols <-
        Array.map
          (fun v ->
             let nv = Ivec.create (max (b.n + k) (2 * cap)) in
             Bigarray.Array1.blit
               (Bigarray.Array1.sub v 0 b.n)
               (Bigarray.Array1.sub nv 0 b.n);
             nv)
          b.cols

  let owner b meth cls =
    match Ir.Jsig.Meth_tbl.find_opt b.tbl meth with
    | Some id -> id
    | None ->
      let id = b.n_owners in
      b.n_owners <- id + 1;
      Ir.Jsig.Meth_tbl.add b.tbl meth id;
      b.owners <- meth :: b.owners;
      b.owner_cls <- cls :: b.owner_cls;
      id

  let add b ~line ~stmt ~owner ~cat ~sym =
    reserve b 1;
    let s = b.n in
    let c = b.cols in
    Bigarray.Array1.unsafe_set c.(0) s line;
    Bigarray.Array1.unsafe_set c.(1) s stmt;
    Bigarray.Array1.unsafe_set c.(2) s owner;
    Bigarray.Array1.unsafe_set c.(3) s cat;
    Bigarray.Array1.unsafe_set c.(4) s sym;
    b.n <- s + 1

  let add_slots b (a : arena) ~lo ~hi ~line_shift =
    let k = hi - lo in
    if k > 0 then begin
      reserve b k;
      List.iteri
        (fun j v ->
           Bigarray.Array1.blit
             (Bigarray.Array1.sub v lo k)
             (Bigarray.Array1.sub b.cols.(j + 1) b.n k))
        [ a.stmt_idx; a.owner_id; a.cat; a.sym ];
      (* [line_idx] is copied and shifted in one pass *)
      let src : Ivec.t = a.line_idx and dst : Ivec.t = b.cols.(0) in
      for s = 0 to k - 1 do
        Bigarray.Array1.unsafe_set dst (b.n + s)
          (Bigarray.Array1.get src (lo + s) + line_shift)
      done;
      b.n <- b.n + k
    end

  let extend base = function
    | [] -> base
    | added -> Array.append base (Array.of_list (List.rev added))

  let finish b : arena =
    let col j = Bigarray.Array1.sub b.cols.(j) 0 b.n in
    { line_idx = col 0; stmt_idx = col 1; owner_id = col 2; cat = col 3;
      sym = col 4;
      (* with no owner added, the base tables are shared as they are *)
      owners = extend b.base_owners b.owners;
      owner_cls = extend b.base_owner_cls b.owner_cls }
end

let empty = Builder.finish (Builder.create ())

type line = {
  text : string;
  cls : string;
  owner : Ir.Jsig.meth option;
  stmt : int;
  line_cat : int;
  line_sym : int;
}

let of_lines (lines : line array) =
  let b = Builder.create ~slots:(Array.length lines) () in
  Array.iteri
    (fun i l ->
       match l.owner with
       | None -> ()
       | Some m ->
         Builder.add b ~line:i ~stmt:l.stmt ~owner:(Builder.owner b m l.cls)
           ~cat:l.line_cat ~sym:l.line_sym)
    lines;
  Builder.finish b
