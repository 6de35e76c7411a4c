type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let length (v : t) = Bigarray.Array1.dim v

let get (v : t) i = Bigarray.Array1.get v i
let set (v : t) i c = Bigarray.Array1.set v i c
let unsafe_get (v : t) i = Bigarray.Array1.unsafe_get v i

let get_u8 v i = Char.code (get v i)
let unsafe_u8 (v : t) i = Char.code (Bigarray.Array1.unsafe_get v i)

let of_string s =
  let n = String.length s in
  let v = create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (String.unsafe_get s i)
  done;
  v

let sub_string v pos len =
  if pos < 0 || len < 0 || pos + len > length v then
    invalid_arg "Bvec.sub_string";
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (unsafe_get v (pos + i))
  done;
  Bytes.unsafe_to_string b

let to_string v = sub_string v 0 (length v)

let equal_string v ~pos s =
  let n = String.length s in
  let rec go i =
    i >= n || (unsafe_get v (pos + i) = String.unsafe_get s i && go (i + 1))
  in
  go 0

let page = 4096

let prefault v =
  let n = length v in
  let acc = ref 0 in
  let i = ref 0 in
  while !i < n do
    acc := !acc + unsafe_u8 v !i;
    i := !i + page
  done;
  if n > 0 then acc := !acc + unsafe_u8 v (n - 1);
  !acc
