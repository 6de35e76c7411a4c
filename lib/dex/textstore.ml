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

  (* The slow paths of the appends below: each append checks capacity
     inline and calls these only when a vector must grow. *)
  let reserve b n =
    b.buf <- grow Bvec.create b.buf ~keep:b.len ~need:(b.len + n)

  let reserve_lines b n =
    b.ends <- grow Ivec.create b.ends ~keep:(b.lines + 1) ~need:(b.lines + n + 1)

  external get64 : string -> int -> int64 = "%caml_string_get64u"
  external get32 : string -> int -> int32 = "%caml_string_get32u"
  external get16 : string -> int -> int = "%caml_string_get16u"
  external set64 : Bvec.t -> int -> int64 -> unit = "%caml_bigstring_set64u"
  external set32 : Bvec.t -> int -> int32 -> unit = "%caml_bigstring_set32u"
  external set16 : Bvec.t -> int -> int -> unit = "%caml_bigstring_set16u"

  (* Whole words first, then a 4-, 2- and 1-byte tail. *)
  let add_string b s =
    let n = String.length s and base = b.len in
    if base + n > Bigarray.Array1.dim b.buf then reserve b n;
    let buf = b.buf in
    let i = ref 0 in
    while !i + 8 <= n do
      set64 buf (base + !i) (get64 s !i);
      i := !i + 8
    done;
    let i = !i in
    if n land 4 <> 0 then set32 buf (base + i) (get32 s i);
    let i = i + (n land 4) in
    if n land 2 <> 0 then set16 buf (base + i) (get16 s i);
    let i = i + (n land 2) in
    if n land 1 <> 0 then
      Bigarray.Array1.unsafe_set buf (base + i) (String.unsafe_get s i);
    b.len <- base + n

  let add_char b c =
    let base = b.len in
    if base >= Bigarray.Array1.dim b.buf then reserve b 1;
    Bigarray.Array1.unsafe_set b.buf base c;
    b.len <- base + 1

  (* [string_of_int i]: digits are produced least significant first, from a
     non-positive value so that [min_int] needs no special case *)
  let add_int b i =
    let rec width v acc = if v > -10 then acc else width (v / 10) (acc + 1) in
    let neg = if i < 0 then 1 else 0 in
    let v = if i < 0 then i else -i in
    let n = neg + width v 1 and base = b.len in
    if base + n > Bigarray.Array1.dim b.buf then reserve b n;
    let buf = b.buf in
    if neg = 1 then Bigarray.Array1.unsafe_set buf base '-';
    let v = ref v in
    for p = base + n - 1 downto base + neg do
      Bigarray.Array1.unsafe_set buf p (Char.unsafe_chr (48 - (!v mod 10)));
      v := !v / 10
    done;
    b.len <- base + n

  let hex = "0123456789abcdef"

  (* [Printf.sprintf "%04x" i] *)
  let add_hex4 b i =
    if i < 0 || i > 0xffff then add_string b (Printf.sprintf "%04x" i)
    else begin
      let base = b.len in
      if base + 4 > Bigarray.Array1.dim b.buf then reserve b 4;
      let buf = b.buf in
      for k = 0 to 3 do
        Bigarray.Array1.unsafe_set buf (base + k)
          (String.unsafe_get hex ((i lsr (12 - 4 * k)) land 15))
      done;
      b.len <- base + 4
    end

  let end_line b =
    let l = b.lines + 1 in
    if l >= Bigarray.Array1.dim b.ends then reserve_lines b 1;
    Bigarray.Array1.unsafe_set b.ends l b.len;
    b.lines <- l

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
