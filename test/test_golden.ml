(* Golden output of the disassembler: a digest of the dexdump text, the five
   hit-arena columns and the per-class map for fixed-seed apps covering
   every code shape, plus one multidex (partitioned) build.

   The digests pin rendering details no other test sees, e.g. that [vN]
   register names are handed out in first-use order with an instruction's
   sources numbered right to left ([add-int] numbers its second operand
   before its first) and a [move-result] destination numbered before the
   call's arguments.  Symbol ids depend on what the process interned
   earlier, so the [sym] column and the owners are digested as strings. *)

module G = Appgen.Generator
module Shape = Appgen.Shape
module Sinks = Framework.Sinks

let app_of_shape i shape =
  G.generate
    { G.default_config with
      G.seed = 900 + i;
      name = "com.golden." ^ Shape.to_string shape;
      filler_classes = 4;
      plants =
        [ { G.shape;
            sink = (if i mod 2 = 0 then Sinks.cipher else Sinks.ssl_factory);
            insecure = i mod 3 <> 0 } ] }

(* Multidex: [G.generate] splits the app classes into partitions of 50 and
   merges them through [Dexfile.of_partitions]. *)
let multidex_app () =
  G.generate
    { G.default_config with
      G.seed = 991;
      name = "com.golden.multidex";
      filler_classes = 70;
      multidex = true;
      plants =
        [ { G.shape = Shape.Callback; sink = Sinks.cipher; insecure = true };
          { G.shape = Shape.Async_task; sink = Sinks.ssl_factory;
            insecure = false } ] }

(* A hand-built class that exercises every [Stmt], [Expr] and
   [Value.const] constructor the renderer handles, including the ones no
   generated app emits (wide and float constants, class constants, casts,
   array access, [array-length], [throw], [nop], [move-exception]), plus
   edge cases of the number formatting: negative and [min_int] ints,
   registers numbered past 255, statement indices and branch targets past
   0xffff (and a negative target), and string literals that need [%S]
   escaping. *)
let fixture_program () =
  let module T = Ir.Types in
  let module V = Ir.Value in
  let module E = Ir.Expr in
  let module S = Ir.Stmt in
  let cls = "com.golden.fixture.Kitchen" and base = "com.golden.fixture.Base" in
  let obj = T.Object "java.lang.Object" in
  let str_t = T.Object "java.lang.String" in
  let loc ?(ty = obj) id = { V.id; ty } in
  let l x = V.Local (loc x) in
  let c k = V.Const k in
  let meth ?(params = []) ?(ret = T.Void) cls name =
    Ir.Jsig.meth ~cls ~name ~params ~ret
  in
  let fld = Ir.Jsig.field ~cls ~name:"slot" ~ty:obj in
  let sfld = Ir.Jsig.field ~cls ~name:"SHARED" ~ty:(T.Array T.Int) in
  let callee = meth base "run" ~params:[ str_t; T.Int ] ~ret:obj in
  let binops =
    E.[ Add; Sub; Mul; Div; Rem; Band; Bor; Bxor; Shl; Shr; Ushr; Cmp; Eq; Ne;
        Lt; Le; Gt; Ge ]
  in
  let consts =
    V.[ Null; Int_c 0; Int_c (-1); Int_c 32767; Int_c (-40000); Int_c min_int;
        Int_c max_int; Long_c 0L; Long_c (-7L); Long_c Int64.min_int;
        Long_c Int64.max_int; Float_c 1.5; Float_c (-0.0); Float_c nan;
        Float_c infinity; Double_c 3.25; Double_c neg_infinity;
        Str_c ""; Str_c "plain"; Str_c "q\"uo\\te\n\ttab\r\001\127\255é";
        Class_c "java.lang.String"; Class_c "com.golden.fixture.Base" ]
  in
  let all =
    List.concat
      [ [ S.Assign (loc "this", E.This);
          S.Assign (loc ~ty:str_t "p0", E.Param 0);
          S.Assign (loc ~ty:T.Int "p1", E.Param 1);
          S.Assign (loc "exc", E.Caught_exception) ];
        List.mapi
          (fun i k -> S.Assign (loc ("k" ^ string_of_int i), E.Imm (c k)))
          consts;
        List.map (fun k -> S.Assign (loc "kv", E.Imm (c k))) consts;
        [ S.Assign (loc "mv", E.Imm (l "k3")) ];
        List.mapi
          (fun i op ->
             S.Assign (loc ("b" ^ string_of_int i),
                       E.Binop (op, l "p1", l ("k" ^ string_of_int (i mod 7)))))
          binops;
        List.map (fun k -> S.Assign (loc "bk", E.Binop (E.Add, c k, l "p1")))
          consts;
        List.map (fun k -> S.Assign (loc "bk2", E.Binop (E.Mul, l "p1", c k)))
          consts;
        [ S.Assign (loc ~ty:str_t "cast", E.Cast (str_t, l "k1"));
          S.Assign (loc ~ty:(T.Array T.Int) "cast2",
                    E.Cast (T.Array T.Int, c (V.Int_c 5)));
          S.Assign (loc "obj", E.New base);
          S.Invoke { E.kind = E.Special; callee = meth base "<init>";
                     base = Some (loc "obj"); args = [] };
          S.Assign (loc "r1",
                    E.Invoke { E.kind = E.Virtual; callee;
                               base = Some (loc "obj");
                               args = [ l "p0"; c (V.Int_c (-3)) ] });
          S.Assign (loc "r2",
                    E.Invoke { E.kind = E.Static; callee = meth base "make";
                               base = None; args = [] });
          S.Invoke { E.kind = E.Interface; callee; base = Some (loc "r2");
                     args = [ c (V.Str_c "a\"b"); c (V.Long_c (-1L)) ] };
          S.Invoke { E.kind = E.Static;
                     callee =
                       meth base "all" ~params:[ obj; obj; obj; obj; obj ];
                     base = None;
                     args = [ c V.Null; c (V.Class_c "a.B"); c (V.Float_c 2.0);
                              c (V.Double_c 0.1); l "fresh" ] };
          S.Assign (loc ~ty:(T.Array T.Int) "arr",
                    E.New_array (T.Int, c (V.Int_c 10)));
          S.Assign (loc ~ty:(T.Array obj) "arr2", E.New_array (obj, l "p1"));
          S.Assign (loc ~ty:(T.Array (T.Array T.Int)) "arr3",
                    E.New_array (T.Array T.Int, l "b0"));
          S.Assign (loc "ag", E.Array_get (loc "arr2", l "p1"));
          S.Assign (loc "ag2", E.Array_get (loc "arr", c (V.Int_c min_int)));
          S.Assign (loc "ig", E.Instance_get (loc "this", fld));
          S.Assign (loc "sg", E.Static_get sfld);
          S.Assign (loc "phi", E.Phi [ loc "ig"; loc "sg"; loc "new1" ]);
          S.Assign (loc "phi0", E.Phi []);
          S.Assign (loc ~ty:T.Int "len", E.Length (l "arr"));
          S.Assign (loc ~ty:T.Int "len2", E.Length (c V.Null));
          S.Instance_put (loc "this", fld, l "ig");
          S.Instance_put (loc "other", fld, c (V.Str_c "x\ny"));
          S.Static_put (sfld, l "arr");
          S.Static_put (sfld, c (V.Int_c (-9)));
          S.Array_put (loc "arr", l "p1", l "len");
          S.Array_put (loc "arr2", c (V.Int_c 2), c (V.Class_c "c.D")) ];
        List.mapi (fun i op -> S.If (op, l "p1", l "b1", i * 4099)) binops;
        [ S.If (E.Lt, c (V.Int_c (-5)), l "p1", 0x12345);
          S.If (E.Eq, l "k0", c V.Null, -1);
          S.Goto 0; S.Goto 0xffff; S.Goto 0x10000; S.Goto (-2);
          S.Throw (l "exc"); S.Throw (c V.Null); S.Nop;
          S.Return (Some (l "r1")); S.Return (Some (c (V.Str_c "done\\")));
          S.Return None ] ]
  in
  (* 300 live locals: registers v0..v299, all in one phi and one binop *)
  let many =
    let ids = List.init 300 (fun i -> "m" ^ string_of_int i) in
    List.map (fun id -> S.Assign (loc ~ty:T.Int id, E.Imm (c (V.Int_c 1)))) ids
    @ [ S.Assign (loc "big", E.Phi (List.map (fun id -> loc id) ids));
        S.Assign (loc "sum", E.Binop (E.Add, l "m299", l "m256"));
        S.Invoke { E.kind = E.Virtual; callee; base = Some (loc "m300x");
                   args = [ l "m255"; l "m257" ] };
        S.Return (Some (l "sum")) ]
  in
  (* statement indices run past 0xffff *)
  let long =
    Array.init 0x10004 (fun i ->
        if i = 0xfffe then S.Assign (loc "t", E.New base)
        else if i = 0x10001 then S.Goto 0x10002
        else if i = 0x10002 then S.Assign (loc "u", E.Static_get sfld)
        else if i = 0x10003 then S.Return None
        else S.Nop)
  in
  let body ?(owner = cls) ?(params = []) name stmts =
    Ir.Jmethod.make ~msig:(meth owner name ~params) ~body:(Some stmts) ()
  in
  let kitchen =
    Ir.Jclass.make ~super:None ~interfaces:[ "java.lang.Runnable"; base ]
      ~fields:[ fld; sfld ]
      ~methods:
        [ body "all" ~params:[ str_t; T.Int ] (Array.of_list all);
          body "many" (Array.of_list many);
          body "long" long;
          body "empty" [||];
          Ir.Jmethod.make ~msig:(meth cls "abstract") ~body:None () ]
      cls
  in
  let basec =
    Ir.Jclass.make
      ~methods:[ body ~owner:base "<init>" [| S.Return None |] ] base
  in
  Ir.Program.of_classes [ kitchen; basec ]

let digest (dex : Dex.Dexfile.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Dex.Dexfile.to_string dex);
  let a = dex.Dex.Dexfile.arena in
  for s = 0 to Dex.Arena.length a - 1 do
    let sym = Ivec.get a.Dex.Arena.sym s in
    Printf.bprintf b "%d %d %d %d %s\n"
      (Ivec.get a.Dex.Arena.line_idx s)
      (Ivec.get a.Dex.Arena.stmt_idx s)
      (Ivec.get a.Dex.Arena.owner_id s)
      (Ivec.get a.Dex.Arena.cat s)
      (if sym < 0 then "-" else Sym.to_string (Sym.unsafe_of_id sym))
  done;
  Array.iteri
    (fun i m ->
       Printf.bprintf b "%s %s\n" (Ir.Jsig.meth_to_string m)
         a.Dex.Arena.owner_cls.(i))
    a.Dex.Arena.owners;
  let cm = Dex.Dexfile.classmap dex in
  for i = 0 to Dex.Classmap.length cm - 1 do
    Printf.bprintf b "%s %d %d %d %d %Ld %Ld\n" cm.Dex.Classmap.names.(i)
      cm.Dex.Classmap.line_lo.(i) cm.Dex.Classmap.line_hi.(i)
      cm.Dex.Classmap.slot_lo.(i) cm.Dex.Classmap.slot_hi.(i)
      (Dex.Classmap.text_hash dex.Dex.Dexfile.texts cm.Dex.Classmap.line_lo.(i)
         cm.Dex.Classmap.line_hi.(i))
      cm.Dex.Classmap.ir_hash.(i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected =
  [ ("direct", "a844e0dbbccf68197bda9d2512b8e8d8");
    ("static-chain", "3b69f60953b2b1b98167e7b243b78a91");
    ("child-class", "dbf1e81194b743485a4388940c89f209");
    ("super-class", "9747bf7ed1a79802c0e8b8c96189a7d0");
    ("interface", "42b0fea40b82c3a85075a3c62410496b");
    ("callback", "30b7ead63b91351ee7b69ba6fb0345d7");
    ("async-thread", "c648cdb16d966b06eb8fcd124bc11553");
    ("async-executor", "305aadbd8f43bd842d706ac96a94d63c");
    ("async-task", "300d3264bd0df170c78b90508dea8c16");
    ("static-init", "d73d5b7edc71777a11e2da70baf2c155");
    ("clinit-field", "e72c5be96ce8305b47c852195457258d");
    ("icc-explicit", "68646b77096f1744be66e23b953d3e32");
    ("icc-implicit", "c4fe93b0def989cf0016b8d36edbecbc");
    ("lifecycle-field", "587451f16e3d2436badbe56efedda842");
    ("dead-code", "d58a53c11464e147c9234ed20cc42bcf");
    ("unregistered-component", "1f95d269feef1ef9ef4ca981a11e993e");
    ("skipped-lib", "befbfaca4855204629fa1b721f2360ca");
    ("subclassed-sink", "517c7d4a2f55cfb53d67970e3fa5f50e");
    ("recursive-chain", "81c5dcaabc3d85954030f0c48cdcbfba");
    ("shared-util", "8635bbd0c308053926a0ddcd91dde4f9");
    ("reflective-sink", "646de7f64e29d280180fc16d467ada67");
    ("builder-spec", "08b6570296f460e1a663d62b29c8dda7");
    ("webview-misuse", "82867ba97a67ecbff27145b6ad48416d");
    ("sql-injection", "b5e1f4519492592a670b3a522cfa5767");
    ("intent-redirect", "7896da2b7112e7d41db9141c64e25be4");
    ("multidex", "3aca1c15c96773a574fe159be726dcda") ]

let test_golden () =
  let got =
    List.mapi (fun i sh -> (Shape.to_string sh, digest (app_of_shape i sh).G.dex))
      Shape.all
    @ [ ("multidex", digest (multidex_app ()).G.dex) ]
  in
  Alcotest.(check (list (pair string string))) "golden digests" expected got

let fixture_digest = "b4e7a6472f3ef884b8e6a306ad64e7b4"

let test_fixture () =
  Alcotest.(check string) "fixture digest" fixture_digest
    (digest (Dex.Dexfile.of_program (fixture_program ())))

(* The decoded line view (what tools read) agrees with the dexfile: same
   texts, and it rebuilds the same arena and class map. *)
let test_line_view () =
  let app = app_of_shape 5 Shape.Callback in
  let p = app.G.program and dex = app.G.dex in
  let lines = Array.of_list (Dex.Disasm.program_lines p) in
  Alcotest.(check string) "texts"
    (Dex.Dexfile.to_string dex)
    (String.concat "" (Array.to_list (Array.map (fun (l : Dex.Arena.line) -> l.text ^ "\n") lines)));
  let a = Dex.Arena.of_lines lines and b = dex.Dex.Dexfile.arena in
  Alcotest.(check bool) "arena" true
    (Ivec.equal a.line_idx b.line_idx && Ivec.equal a.stmt_idx b.stmt_idx
     && Ivec.equal a.owner_id b.owner_id && Ivec.equal a.cat b.cat
     && Ivec.equal a.sym b.sym && a.owners = b.owners
     && a.owner_cls = b.owner_cls);
  let c = Dex.Classmap.of_lines lines a p and d = Dex.Dexfile.classmap dex in
  Alcotest.(check bool) "class map" true
    (Dex.Classmap.(c.names = d.names && c.line_lo = d.line_lo
                   && c.line_hi = d.line_hi && c.slot_lo = d.slot_lo
                   && c.slot_hi = d.slot_hi && c.ir_hash = d.ir_hash))

let suites =
  [ ("dex.golden",
     [ Alcotest.test_case "disassembly digests" `Quick test_golden;
       Alcotest.test_case "hand-built fixture digest" `Quick test_fixture;
       Alcotest.test_case "decoded line view" `Quick test_line_view ]) ]
