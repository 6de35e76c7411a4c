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
       Alcotest.test_case "decoded line view" `Quick test_line_view ]) ]
