let token_ok c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '/' || c = '_' || c = '$'

let iter s f =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let i0 = !i in
    if s.[i0] = 'L' && (i0 = 0 || not (token_ok s.[i0 - 1])) then begin
      let j = ref (i0 + 1) in
      while !j < n && token_ok s.[!j] do incr j done;
      if !j < n && s.[!j] = ';' && !j > i0 + 1 then begin
        f (Sym.intern (String.sub s i0 (!j - i0 + 1)));
        i := !j + 1
      end
      else incr i
    end
    else incr i
  done

let empty : Sym.t array = [||]

let of_string s =
  let acc = ref [] in
  iter s (fun tok -> acc := tok :: !acc);
  match List.sort_uniq Sym.compare !acc with
  | [] -> empty
  | toks -> Array.of_list toks

let of_line store i =
  if Textstore.index_char store i ';' < 0 then empty
  else of_string (Textstore.get store i)

(* Memo: operand sym id -> token array, growable, published under a mutex.
   Reads also lock — operand tokenization happens in the class-tokens
   postings build, never in a query hot loop. *)
let lock = Mutex.create ()
let memo : Sym.t array option array ref = ref (Array.make 1024 None)

let of_operand sym =
  let id = Sym.id sym in
  Mutex.lock lock;
  if id >= Array.length !memo then begin
    let m = Array.make (max (id + 1) (2 * Array.length !memo)) None in
    Array.blit !memo 0 m 0 (Array.length !memo);
    memo := m
  end;
  let r =
    match !memo.(id) with
    | Some toks -> toks
    | None ->
      let toks = of_string (Sym.to_string sym) in
      !memo.(id) <- Some toks;
      toks
  in
  Mutex.unlock lock;
  r
