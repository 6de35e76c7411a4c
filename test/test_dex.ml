(* Tests for the dexdump substrate: descriptor translation and the
   disassembler's searchable output. *)

open Ir
module D = Dex.Descriptor

let qcheck = QCheck_alcotest.to_alcotest

let gen_nonvoid =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let base =
          oneofl
            [ Types.Boolean; Types.Byte; Types.Char; Types.Short; Types.Int;
              Types.Long; Types.Float; Types.Double;
              Types.Object "java.lang.String"; Types.Object "a.b.C$1" ]
        in
        if n <= 0 then base
        else frequency [ 3, base; 1, map (fun t -> Types.Array t) (self (n / 2)) ]))

let gen_meth =
  QCheck.Gen.(
    let* cls = oneofl [ "com.a.B"; "com.foo.Bar"; "x.Y$1" ] in
    let* name = oneofl [ "run"; "start"; "<init>"; "<clinit>" ] in
    let* params = list_size (int_bound 3) gen_nonvoid in
    let* ret = frequency [ 1, return Types.Void; 2, gen_nonvoid ] in
    return (Jsig.meth ~cls ~name ~params ~ret))

let meth_desc_roundtrip =
  QCheck.Test.make ~name:"meth_desc/meth_of_desc roundtrip" ~count:300
    (QCheck.make ~print:Jsig.meth_to_string gen_meth)
    (fun m -> Jsig.meth_equal (D.meth_of_desc (D.meth_desc m)) m)

let type_desc_roundtrip =
  QCheck.Test.make ~name:"type_desc/type_of_desc roundtrip" ~count:300
    (QCheck.make ~print:Types.to_string gen_nonvoid)
    (fun t -> Types.equal (D.type_of_desc (D.type_desc t)) t)

let test_class_desc () =
  Alcotest.(check string) "class desc" "Lcom/connectsdk/service/NetcastTVService$1;"
    (D.class_desc "com.connectsdk.service.NetcastTVService$1");
  Alcotest.(check string) "back" "com.a.B" (D.class_of_desc "Lcom/a/B;")

let test_fig3_signature () =
  (* the signature search string of the paper's Fig. 3 example *)
  let m =
    Jsig.meth ~cls:"com.connectsdk.service.netcast.NetcastHttpServer"
      ~name:"start" ~params:[] ~ret:Types.Void
  in
  Alcotest.(check string) "dexdump format"
    "Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V"
    (D.meth_desc m)

let test_field_desc () =
  let f = Jsig.field ~cls:"com.studiosol.palcomp3.MP3LocalServer" ~name:"PORT" ~ty:Types.Int in
  Alcotest.(check string) "field desc"
    "Lcom/studiosol/palcomp3/MP3LocalServer;.PORT:I" (D.field_desc f);
  Alcotest.(check bool) "roundtrip" true (Jsig.field_equal (D.field_of_desc (D.field_desc f)) f)

(* --- disassembler --- *)

let tiny_program () =
  let cls = "t.Main" in
  let callee = Jsig.meth ~cls:"t.Helper" ~name:"help" ~params:[ Types.string_ ] ~ret:Types.Void in
  let main =
    Jclass.make cls
      ~methods:
        [ Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls ~name:"m"
            ~params:[] ~ret:Types.Void (fun mb ->
              let s = Ir.Builder.const_str mb "hello" in
              Ir.Builder.call_static mb ~callee ~args:[ Ir.Value.Local s ]) ]
  in
  let helper =
    Jclass.make "t.Helper"
      ~methods:
        [ Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls:"t.Helper"
            ~name:"help" ~params:[ Types.string_ ] ~ret:Types.Void (fun _ -> ()) ]
  in
  Ir.Program.of_classes [ main; helper ]

let test_disasm_invoke_line () =
  let dex = Dex.Dexfile.of_program (tiny_program ()) in
  let text = Dex.Dexfile.to_string dex in
  let contains ~sub s =
    let ls = String.length s and lb = String.length sub in
    let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "invoke-static line present" true
    (contains ~sub:"invoke-static {v0}, Lt/Helper;.help:(Ljava/lang/String;)V" text);
  Alcotest.(check bool) "const-string present" true
    (contains ~sub:"const-string v0, \"hello\"" text)

let test_line_ownership () =
  let owned =
    Dex.Disasm.program_lines (tiny_program ())
    |> List.filter_map (fun (l : Dex.Arena.line) -> l.owner)
  in
  Alcotest.(check bool) "instruction lines carry owners" true
    (List.exists (fun m -> String.equal m.Jsig.name "m") owned)

let test_multidex_merge () =
  let p = tiny_program () in
  let merged = Dex.Dexfile.of_partitions p [ [ "t.Main" ]; [ "t.Helper" ] ] in
  let whole = Dex.Dexfile.of_program p in
  Alcotest.(check int) "same line count after merge"
    (Dex.Dexfile.line_count whole) (Dex.Dexfile.line_count merged)

let test_system_classes_not_disassembled () =
  let p =
    Ir.Program.of_classes (Framework.Stubs.classes () @ [ Jclass.make "app.A" ])
  in
  let dex = Dex.Dexfile.of_program p in
  let text = Dex.Dexfile.to_string dex in
  let contains ~sub s =
    let ls = String.length s and lb = String.length sub in
    let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "framework class bodies not in app dex" false
    (contains ~sub:"Class descriptor : 'Ljava/lang/Thread;'" text)

let unit_cases =
  [ Alcotest.test_case "class descriptors" `Quick test_class_desc;
    Alcotest.test_case "fig3 search signature" `Quick test_fig3_signature;
    Alcotest.test_case "field descriptors" `Quick test_field_desc;
    Alcotest.test_case "disasm invoke line" `Quick test_disasm_invoke_line;
    Alcotest.test_case "line ownership" `Quick test_line_ownership;
    Alcotest.test_case "multidex merge" `Quick test_multidex_merge;
    Alcotest.test_case "system classes excluded" `Quick
      test_system_classes_not_disassembled ]

let prop_cases = List.map qcheck [ meth_desc_roundtrip; type_desc_roundtrip ]


(* --- plaintext parser (round-trip with the disassembler) --- *)

let test_parse_roundtrip_structure () =
  let app =
    Appgen.Generator.generate
      { Appgen.Generator.default_config with
        Appgen.Generator.seed = 41;
        name = "com.dex.parse";
        filler_classes = 4;
        plants =
          [ { Appgen.Generator.shape = Appgen.Shape.Direct;
              sink = Framework.Sinks.cipher; insecure = true } ] }
  in
  let text = Dex.Dexfile.to_string app.Appgen.Generator.dex in
  let parsed = Dex.Parse.parse_text text in
  Alcotest.(check int) "same class count"
    (Ir.Program.class_count app.Appgen.Generator.program)
    (List.length parsed.Dex.Parse.classes);
  Alcotest.(check int) "same method count"
    (Ir.Program.method_count app.Appgen.Generator.program)
    (List.length parsed.Dex.Parse.methods)

let test_parse_invocations_match_ir () =
  let app =
    Appgen.Generator.generate
      { Appgen.Generator.default_config with
        Appgen.Generator.seed = 42;
        name = "com.dex.parse2";
        filler_classes = 3 }
  in
  let text = Dex.Dexfile.to_string app.Appgen.Generator.dex in
  let parsed = Dex.Parse.parse_text text in
  let parsed_calls = Dex.Parse.invocations parsed in
  (* every IR call site appears as a parsed invocation with the same callee *)
  let ir_calls =
    Ir.Program.fold_classes app.Appgen.Generator.program
      (fun c acc ->
         if c.Ir.Jclass.is_system then acc
         else
           acc
           + List.fold_left
               (fun a m -> a + List.length (Ir.Jmethod.call_sites m))
               0 c.Ir.Jclass.methods)
      0
  in
  Alcotest.(check int) "same invocation count" ir_calls
    (List.length parsed_calls);
  Alcotest.(check bool) "all callers are program methods" true
    (List.for_all
       (fun (caller, _, _) ->
          Option.is_some (Ir.Program.find_method app.Appgen.Generator.program caller))
       parsed_calls)

let test_parse_line_kinds () =
  (match Dex.Parse.parse_line "Class descriptor : 'Lcom/a/B;'" with
   | Dex.Parse.Class_header c -> Alcotest.(check string) "class" "com.a.B" c
   | _ -> Alcotest.fail "expected class header");
  (match Dex.Parse.parse_line "    0004: invoke-static {v0, v1}, Lcom/a/B;.f:(I)V" with
   | Dex.Parse.Instruction i ->
     Alcotest.(check int) "addr" 4 i.Dex.Parse.addr;
     Alcotest.(check string) "opcode" "invoke-static" i.Dex.Parse.opcode;
     Alcotest.(check (list string)) "regs" [ "v0"; "v1" ] i.Dex.Parse.registers;
     (match i.Dex.Parse.operand with
      | Some (Dex.Parse.Meth_ref m) ->
        Alcotest.(check string) "callee" "f" m.Ir.Jsig.name
      | _ -> Alcotest.fail "expected method operand")
   | _ -> Alcotest.fail "expected instruction");
  (match Dex.Parse.parse_line "    0002: const-string v1, \"AES/ECB\"" with
   | Dex.Parse.Instruction { operand = Some (Dex.Parse.String_lit s); _ } ->
     Alcotest.(check string) "string" "AES/ECB" s
   | _ -> Alcotest.fail "expected const-string");
  (match Dex.Parse.parse_line "    0003: sget-object v0, Lcom/a/B;.F:I" with
   | Dex.Parse.Instruction { operand = Some (Dex.Parse.Field_ref f); _ } ->
     Alcotest.(check string) "field" "F" f.Ir.Jsig.fname
   | _ -> Alcotest.fail "expected field operand");
  match Dex.Parse.parse_line "garbage that is not dexdump" with
  | exception Dex.Parse.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* property: every generated app's plaintext parses without error *)
let parse_total =
  QCheck.Test.make ~name:"generated plaintext always parses" ~count:25
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
       let app =
         Appgen.Generator.generate
           { Appgen.Generator.default_config with
             Appgen.Generator.seed;
             name = "com.dex.prop";
             filler_classes = 2;
             plants =
               [ { Appgen.Generator.shape = Appgen.Shape.Callback;
                   sink = Framework.Sinks.ssl_factory; insecure = true } ] }
       in
       let parsed =
         Dex.Parse.parse_text (Dex.Dexfile.to_string app.Appgen.Generator.dex)
       in
       Array.length parsed.Dex.Parse.lines > 0)

let parser_cases =
  [ Alcotest.test_case "roundtrip structure" `Quick test_parse_roundtrip_structure;
    Alcotest.test_case "invocations match IR" `Quick test_parse_invocations_match_ir;
    Alcotest.test_case "line kinds" `Quick test_parse_line_kinds ]

let parser_props = [ QCheck_alcotest.to_alcotest parse_total ]

let suites =
  [ "dex.unit", unit_cases; "dex.props", prop_cases;
    "dex.parser", parser_cases; "dex.parser-props", parser_props ]
