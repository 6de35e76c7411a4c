type t = { blob : Bvec.t; offs : Ivec.t }

let create ~blob ~offs =
  let n = Ivec.length offs - 1 in
  if n < 0 then invalid_arg "Textstore.create: empty offsets";
  if Ivec.get offs 0 <> 0 then
    invalid_arg "Textstore.create: offsets must start at 0";
  for i = 0 to n - 1 do
    let lo = Bigarray.Array1.unsafe_get offs i in
    if Bigarray.Array1.unsafe_get offs (i + 1) < lo then
      invalid_arg "Textstore.create: offsets not ascending"
  done;
  if Ivec.get offs n <> Bvec.length blob then
    invalid_arg "Textstore.create: offsets inconsistent with blob";
  { blob; offs }

let empty = { blob = Bvec.create 0; offs = Ivec.make 1 0 }

let blob t = t.blob
let offsets t = t.offs
let count t = Ivec.length t.offs - 1
let start t i = Ivec.unsafe_get t.offs i
let length_at t i = Ivec.unsafe_get t.offs (i + 1) - Ivec.unsafe_get t.offs i

let get t i =
  if i < 0 || i >= count t then invalid_arg "Textstore.get";
  Bvec.sub_string t.blob (start t i) (length_at t i)

let index_char t i c =
  let lo = start t i in
  let hi = lo + length_at t i in
  let rec go p =
    if p >= hi then -1
    else if Bigarray.Array1.unsafe_get t.blob p = c then p - lo
    else go (p + 1)
  in
  go lo

let starts_with t i ~pos ~prefix =
  pos >= 0
  && pos + String.length prefix <= length_at t i
  && Bvec.equal_string t.blob ~pos:(start t i + pos) prefix

(* Every line containing [pat], ascending, each line reported once — the
   residual scan's bulk path.  One Boyer–Moore–Horspool pass over the whole
   concatenated blob instead of a naive loop per line: the bad-character
   table skips ~|pat| bytes per probe, so long opcode patterns touch an
   order of magnitude fewer bytes than the per-line scan, which is what
   lets a snapshot engine's residual scan beat the heap-string scan instead
   of trailing it on bigarray access latency.  A match straddling a line
   boundary belongs to no line and is skipped, matching per-line
   semantics. *)
let iter_matches t ~pat f =
  let lp = String.length pat in
  let nlines = count t in
  if lp = 0 then
    for i = 0 to nlines - 1 do f i done
  else begin
    let blob = t.blob in
    let n = Bvec.length blob in
    if lp <= n then begin
      let skip = Array.make 256 lp in
      for j = 0 to lp - 2 do
        skip.(Char.code (String.unsafe_get pat j)) <- lp - 1 - j
      done;
      let last = String.unsafe_get pat (lp - 1) in
      let rec eq_prefix ms j =
        j >= lp - 1
        || (Bvec.unsafe_get blob (ms + j) = String.unsafe_get pat j
            && eq_prefix ms (j + 1))
      in
      let line = ref 0 in
      let p = ref (lp - 1) in
      while !p < n do
        let c = Bvec.unsafe_get blob !p in
        if c = last && eq_prefix (!p - (lp - 1)) 0 then begin
          let mstart = !p - (lp - 1) in
          while
            !line < nlines - 1 && Ivec.unsafe_get t.offs (!line + 1) <= mstart
          do
            incr line
          done;
          let line_end = Ivec.unsafe_get t.offs (!line + 1) in
          if mstart + lp <= line_end then begin
            f !line;
            (* the rest of this line is already reported: resume where a
               match could first fit in the next line *)
            p := line_end + lp - 1
          end
          else p := !p + 1
        end
        else p := !p + Array.unsafe_get skip (Char.code c)
      done
    end
  end

let prefault t = Bvec.prefault t.blob lxor Ivec.prefault t.offs

(* A text blob under construction: bytes and line offsets in growable
   off-heap vectors, doubled on demand.  [finish] hands out prefixes of the
   final vectors (a [Bigarray] sub shares the buffer), so a built store
   costs no copy. *)
module Builder = struct
  type store = t

  type t = {
    mutable buf : Bvec.t;
    mutable len : int;     (* bytes written *)
    mutable ends : Ivec.t; (* [ends.(i)]: start of line [i]; [ends.(0) = 0] *)
    mutable lines : int;   (* lines closed *)
  }

  let create ?(bytes = 4096) ?(lines = 128) () =
    let ends = Ivec.create (max 2 (lines + 1)) in
    Ivec.set ends 0 0;
    { buf = Bvec.create (max 16 bytes); len = 0; ends; lines = 0 }

  let lines b = b.lines

  (* [v], or its first [keep] elements in a vector of at least [need] *)
  let grow create v ~keep ~need =
    let cap = Bigarray.Array1.dim v in
    if need <= cap then v
    else begin
      let nv = create (max need (2 * cap)) in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub v 0 keep) (Bigarray.Array1.sub nv 0 keep);
      nv
    end

  let reserve b n = b.buf <- grow Bvec.create b.buf ~keep:b.len ~need:(b.len + n)

  let reserve_lines b n =
    b.ends <- grow Ivec.create b.ends ~keep:(b.lines + 1) ~need:(b.lines + n + 1)

  let add_string b s =
    let n = String.length s in
    reserve b n;
    let buf = b.buf and base = b.len in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set buf (base + i) (String.unsafe_get s i)
    done;
    b.len <- base + n

  let end_line b =
    reserve_lines b 1;
    b.lines <- b.lines + 1;
    Ivec.set b.ends b.lines b.len

  let add_lines b (s : store) ~lo ~hi =
    let n = hi - lo in
    if n > 0 then begin
      let o_lo = Ivec.get s.offs lo in
      let len = Ivec.get s.offs hi - o_lo in
      reserve b len;
      reserve_lines b n;
      Bigarray.Array1.blit
        (Bigarray.Array1.sub s.blob o_lo len)
        (Bigarray.Array1.sub b.buf b.len len);
      let shift = b.len - o_lo in
      let ends = b.ends and offs = s.offs and base = b.lines in
      for i = 1 to n do
        Bigarray.Array1.unsafe_set ends (base + i)
          (Bigarray.Array1.unsafe_get offs (lo + i) + shift)
      done;
      b.len <- b.len + len;
      b.lines <- b.lines + n
    end

  let finish b : store =
    { blob = Bigarray.Array1.sub b.buf 0 b.len;
      offs = Bigarray.Array1.sub b.ends 0 (b.lines + 1) }
end
