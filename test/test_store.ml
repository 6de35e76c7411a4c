(* Tests for the persistent preprocessing snapshot (lib/store): corrupted
   files must come back as typed errors (never a crash or a wrong engine),
   save -> load -> save must be byte-identical, and an analysis run on a
   loaded engine must produce the same report as a cold one. *)

module G = Appgen.Generator
module E = Bytesearch.Engine
module Driver = Backdroid.Driver

let fixture_app ?(seed = 41) ?(filler = 8) () =
  let rng = Appgen.Rng.create (seed * 131) in
  let plants =
    List.init 4 (fun _ -> Appgen.Corpus.random_plant rng ~insecure_p:0.5)
  in
  G.generate
    { G.default_config with
      G.seed;
      name = Printf.sprintf "com.test.store%d" seed;
      filler_classes = filler;
      plants }

let with_snapshot f =
  let app = fixture_app () in
  let path = Filename.temp_file "backdroid_store" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let engine = E.create ~eager:true app.G.dex in
  let bytes = Store.Snapshot.save ~path engine in
  Alcotest.(check bool) "snapshot is non-trivial" true (bytes > 1024);
  f ~app ~path

let read_all path =
  let ic = In_channel.open_bin path in
  Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () ->
      In_channel.input_all ic)

let write_all path s =
  let oc = Out_channel.open_bin path in
  Fun.protect ~finally:(fun () -> Out_channel.close oc) (fun () ->
      Out_channel.output_string oc s)

(* Patch a copy of the file and re-seal the checksum, so structural checks
   are exercised rather than masked by [Bad_checksum]. *)
let reseal b =
  let total = Bytes.length b in
  Bytes.set_int64_le b Store.Codec.checksum_offset
    (Store.Codec.fnv1a64 ~pos:Store.Codec.header_len
       ~len:(total - Store.Codec.header_len) b);
  b

let error_t =
  Alcotest.testable
    (fun fmt e ->
       Format.pp_print_string fmt (Store.Codec.error_to_string e))
    (fun a b ->
       match (a, b) with
       | Store.Codec.Corrupt _, Store.Codec.Corrupt _ -> true
       | a, b -> a = b)

let check_load_error ~app ~path name expect =
  match Store.Snapshot.load ~path app.G.program with
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" name
  | Error e -> Alcotest.check error_t name expect e

let test_rejects_corruption () =
  with_snapshot @@ fun ~app ~path ->
  let original = read_all path in
  let mutate f =
    let b = Bytes.of_string original in
    f b;
    write_all path (Bytes.to_string b)
  in
  (* a short header *)
  write_all path (String.sub original 0 10);
  check_load_error ~app ~path "10-byte file" Store.Codec.Truncated;
  (* cut mid-payload: the recorded length no longer matches *)
  write_all path (String.sub original 0 (String.length original / 2));
  check_load_error ~app ~path "half a file" Store.Codec.Truncated;
  (* wrong magic *)
  mutate (fun b -> Bytes.set b 0 'X');
  check_load_error ~app ~path "bad magic" Store.Codec.Bad_magic;
  (* future format version, checksum resealed so only the version differs *)
  mutate (fun b ->
      Bytes.set_int32_le b 8 99l;
      ignore (reseal b));
  check_load_error ~app ~path "future version" (Store.Codec.Bad_version 99);
  (* one flipped payload byte fails the checksum *)
  mutate (fun b ->
      let i = String.length original - 5 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40)));
  check_load_error ~app ~path "flipped payload byte" Store.Codec.Bad_checksum;
  (* a flipped byte inside the stored checksum itself *)
  mutate (fun b ->
      let i = Store.Codec.checksum_offset + 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01)));
  check_load_error ~app ~path "flipped checksum byte" Store.Codec.Bad_checksum;
  (* grow a count in the meta section: every downstream length check must
     fire as Corrupt, not a crash.  The meta section is written first, so
     directory entry 0 points at it; its payload is four 8-byte counts. *)
  let meta_off =
    let b = Bytes.of_string original in
    let id = Int64.to_int (Bytes.get_int64_le b Store.Codec.header_len) in
    Alcotest.(check int) "directory entry 0 is the meta section" 1 id;
    Int64.to_int (Bytes.get_int64_le b (Store.Codec.header_len + 8))
  in
  List.iteri
    (fun field name ->
       mutate (fun b ->
           let o = meta_off + (8 * field) in
           Bytes.set_int64_le b o
             (Int64.add (Bytes.get_int64_le b o) 7L);
           ignore (reseal b));
       check_load_error ~app ~path
         (Printf.sprintf "inflated %s count" name)
         (Store.Codec.Corrupt ""))
    [ "line"; "slot"; "owner"; "symbol" ];
  (* restore and prove the fixture itself still loads *)
  write_all path original;
  match Store.Snapshot.load ~path app.G.program with
  | Ok e ->
    Alcotest.(check string) "restored file loads" "snapshot" (E.index_mode e)
  | Error e ->
    Alcotest.failf "restored file: %s" (Store.Codec.error_to_string e)

let test_roundtrip_identical () =
  with_snapshot @@ fun ~app ~path ->
  let engine =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  let path2 = Filename.temp_file "backdroid_store2" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
  @@ fun () ->
  ignore (Store.Snapshot.save ~path:path2 engine);
  Alcotest.(check bool) "save -> load -> save is byte-identical" true
    (read_all path = read_all path2)

let report_fingerprint (r : Driver.sink_report) =
  Printf.sprintf "%s@%s:%d reachable=%b fact=%s verdict=%s"
    r.sink.Framework.Sinks.name
    (Ir.Jsig.meth_to_string r.meth)
    r.site r.reachable
    (Backdroid.Facts.to_string r.fact)
    (Backdroid.Detectors.verdict_to_string r.verdict)

let test_warm_analyze_equals_cold () =
  with_snapshot @@ fun ~app ~path ->
  let cold = Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest () in
  let engine =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  let warm = Driver.analyze ~engine ~dex:app.G.dex ~manifest:app.G.manifest () in
  Alcotest.(check bool) "fixture has sink calls" true
    (cold.Driver.stats.Driver.sink_calls > 0);
  Alcotest.(check (list string)) "warm report == cold report"
    (List.map report_fingerprint cold.Driver.reports)
    (List.map report_fingerprint warm.Driver.reports)

(* -- v2 specifics: coded postings, off-heap texts, prefault ----------- *)

(* A v1 (legacy flat-postings) file still loads, and its engine answers
   exactly like the v2 one. *)
let test_v1_version_skew () =
  with_snapshot @@ fun ~app ~path ->
  let v2_bytes = (Unix.stat path).Unix.st_size in
  let path1 = Filename.temp_file "backdroid_store_v1" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path1 with Sys_error _ -> ())
  @@ fun () ->
  let engine = E.create ~eager:true app.G.dex in
  let v1_bytes = Store.Snapshot.save ~format_version:1 ~path:path1 engine in
  Alcotest.(check bool) "v2 file is smaller than v1" true
    (v2_bytes < v1_bytes);
  let load p =
    match Store.Snapshot.load ~path:p app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  let e1 = load path1 and e2 = load path in
  Alcotest.(check string) "v1 loads as snapshot engine" "snapshot"
    (E.index_mode e1);
  let q = Bytesearch.Query.raw "invoke-static" in
  let fp e =
    List.map
      (fun (h : E.hit) -> Printf.sprintf "%d:%s" h.line_no (E.hit_text e h))
      (E.run e q)
  in
  Alcotest.(check (list string)) "v1 hits == v2 hits" (fp e2) (fp e1);
  (* v1 round-trips at its own version *)
  let path1b = Filename.temp_file "backdroid_store_v1b" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path1b with Sys_error _ -> ())
  @@ fun () ->
  ignore (Store.Snapshot.save ~format_version:1 ~path:path1b e1);
  Alcotest.(check bool) "v1 save -> load -> save is byte-identical" true
    (read_all path1 = read_all path1b)

(* Garbage inside a v2 coded-postings section must come back as [Corrupt]
   (the per-run validation), never a crash or a wrong engine. *)
let test_corrupt_coded_run () =
  with_snapshot @@ fun ~app ~path ->
  let original = read_all path in
  let b = Bytes.of_string original in
  let n = Int32.to_int (Bytes.get_int32_le b 12) in
  (* find the directory entry for category 0's coded runs (id 22) *)
  let sec_off = ref (-1) and sec_len = ref 0 in
  for i = 0 to n - 1 do
    let e = Store.Codec.header_len + (i * 24) in
    if Int64.to_int (Bytes.get_int64_le b e) = 22 then begin
      sec_off := Int64.to_int (Bytes.get_int64_le b (e + 8));
      sec_len := Int64.to_int (Bytes.get_int64_le b (e + 16))
    end
  done;
  Alcotest.(check bool) "fixture has coded postings bytes" true
    (!sec_off > 0 && !sec_len >= 8);
  (* 0xff... decodes as an overlong/overflowing varint count *)
  for i = 0 to 7 do
    Bytes.set b (!sec_off + i) '\xff'
  done;
  write_all path (Bytes.to_string (reseal b));
  check_load_error ~app ~path "corrupt coded run" (Store.Codec.Corrupt "")

let test_prefault_load () =
  with_snapshot @@ fun ~app ~path ->
  let load ?prefault () =
    match Store.Snapshot.load ?prefault ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  let cold = load () and hot = load ~prefault:true () in
  let q = Bytesearch.Query.raw "invoke-static" in
  let fp e =
    List.map
      (fun (h : E.hit) -> Printf.sprintf "%d:%s" h.line_no (E.hit_text e h))
      (E.run e q)
  in
  Alcotest.(check bool) "prefaulted engine finds hits" true (fp hot <> []);
  Alcotest.(check (list string)) "prefault changes nothing but timing"
    (fp cold) (fp hot)

let test_default_path () =
  let p = Store.Snapshot.default_path ~dir:"/tmp" ~app_id:"com.a/b c" in
  Alcotest.(check string) "sanitized and versioned"
    (Printf.sprintf "/tmp/com.a_b_c.v%d.bdix" Store.Codec.format_version)
    p

(* -- Delta: incremental re-analysis across app versions --------------- *)

(* The delta acceptance property: patching v1's index into v2 — whether
   from the snapshot file or from the still-resident engine — must answer
   analysis byte-identically to a from-scratch build of v2. *)
let test_delta_equals_cold () =
  with_snapshot @@ fun ~app ~path ->
  (* v1's analysis, persisted alongside the index like the corpus does *)
  let r1 = Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest () in
  let results_s =
    Backdroid.Resultcache.to_strings (Driver.export_results ~dex:app.G.dex r1)
  in
  let e1 =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  ignore (Store.Snapshot.save ~results:results_s ~path e1);
  let v2 = G.mutate ~pct:0.25 app in
  let cold = Driver.analyze ~dex:v2.G.dex ~manifest:v2.G.manifest () in
  let cold_fp = List.map report_fingerprint cold.Driver.reports in
  Alcotest.(check bool) "fixture has sink calls" true
    (cold.Driver.stats.Driver.sink_calls > 0);
  (* file-based: load the v1 snapshot and patch it *)
  let e_file, rep =
    match Store.Snapshot.delta ~path v2.G.program with
    | Ok x -> x
    | Error e -> Alcotest.failf "delta: %s" (Store.Codec.error_to_string e)
  in
  Alcotest.(check string) "delta engine mode" "delta" (E.index_mode e_file);
  Alcotest.(check bool) "mutation re-rendered some classes" true
    (rep.Store.Snapshot.d_changed + rep.Store.Snapshot.d_added > 0);
  Alcotest.(check bool) "unchanged classes were spliced" true
    (rep.Store.Snapshot.d_unchanged > 0);
  let warm =
    Driver.analyze ~engine:e_file ~dex:(E.dexfile e_file)
      ~manifest:v2.G.manifest ()
  in
  Alcotest.(check (list string)) "file delta report == cold report" cold_fp
    (List.map report_fingerprint warm.Driver.reports);
  (* resident: patch the live v1 engine and replay v1's persisted verdicts *)
  let e_res, _ =
    match Store.Snapshot.delta_of_engine e1 v2.G.program with
    | Ok x -> x
    | Error e ->
      Alcotest.failf "delta_of_engine: %s" (Store.Codec.error_to_string e)
  in
  (* the patched index is complete and owns all of its postings: the same
     tables, byte for byte, as an eager build of v2 *)
  Alcotest.(check int) "delta engine holds every category" 7
    (E.built_categories e_res);
  Alcotest.(check int) "delta postings footprint == eager v2 build"
    (E.postings_footprint (E.create ~eager:true v2.G.dex))
    (E.postings_footprint e_res);
  let results =
    match
      Backdroid.Resultcache.of_strings (Store.Snapshot.load_results ~path
                                        |> Result.get_ok)
    with
    | Ok rc -> rc
    | Error m -> Alcotest.failf "results round-trip: %s" m
  in
  let warm2 =
    Driver.analyze ~results ~engine:e_res ~dex:(E.dexfile e_res)
      ~manifest:v2.G.manifest ()
  in
  Alcotest.(check (list string)) "resident delta + replay == cold report"
    cold_fp
    (List.map report_fingerprint warm2.Driver.reports);
  Alcotest.(check bool) "sinks in unchanged classes were replayed" true
    (warm2.Driver.stats.Driver.replayed_sinks > 0);
  (* the old engine is untouched and still answers for v1 *)
  let still =
    Driver.analyze ~engine:e1 ~dex:app.G.dex ~manifest:app.G.manifest ()
  in
  Alcotest.(check (list string)) "old engine still answers for v1"
    (List.map report_fingerprint r1.Driver.reports)
    (List.map report_fingerprint still.Driver.reports)

(* A delta-built engine is a first-class engine: saving it produces a
   snapshot that loads and round-trips byte-identically. *)
let test_delta_engine_roundtrip () =
  with_snapshot @@ fun ~app ~path ->
  let v2 = G.mutate ~pct:0.25 app in
  let engine =
    match Store.Snapshot.delta ~path v2.G.program with
    | Ok (e, _) -> e
    | Error e -> Alcotest.failf "delta: %s" (Store.Codec.error_to_string e)
  in
  let path2 = Filename.temp_file "backdroid_delta2" ".bdix" in
  let path3 = Filename.temp_file "backdroid_delta3" ".bdix" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path2; path3 ])
  @@ fun () ->
  ignore (Store.Snapshot.save ~path:path2 engine);
  let loaded =
    match Store.Snapshot.load ~path:path2 v2.G.program with
    | Ok e -> e
    | Error e ->
      Alcotest.failf "load of delta save: %s" (Store.Codec.error_to_string e)
  in
  ignore (Store.Snapshot.save ~path:path3 loaded);
  Alcotest.(check bool) "delta save -> load -> save is byte-identical" true
    (read_all path2 = read_all path3);
  let warm =
    Driver.analyze ~engine:loaded ~dex:(E.dexfile loaded)
      ~manifest:v2.G.manifest ()
  in
  let cold = Driver.analyze ~dex:v2.G.dex ~manifest:v2.G.manifest () in
  Alcotest.(check (list string)) "reloaded delta engine == cold"
    (List.map report_fingerprint cold.Driver.reports)
    (List.map report_fingerprint warm.Driver.reports)

(* An engine with no class map (pre-delta snapshot, or a cold engine built
   before classmaps existed) cannot be delta-patched: typed error, so
   callers fall back to a cold build. *)
let test_delta_requires_classmap () =
  let app = fixture_app () in
  let dex = app.G.dex in
  let stripped =
    Dex.Dexfile.v dex.Dex.Dexfile.texts dex.Dex.Dexfile.arena
      dex.Dex.Dexfile.program
  in
  let engine = E.create ~eager:true stripped in
  match Store.Snapshot.delta_of_engine engine app.G.program with
  | Ok _ -> Alcotest.fail "delta on a classmap-less engine succeeded"
  | Error (Store.Codec.Corrupt _) -> ()
  | Error e ->
    Alcotest.failf "expected Corrupt, got %s" (Store.Codec.error_to_string e)

(* Property: over random (seed, pct) — including pct=0 (pure reuse) and
   pct=1 (everything re-rendered) — incremental always equals from-scratch. *)
let delta_equiv =
  let gen = QCheck.Gen.(pair (int_range 1 60) (oneofl [ 0.0; 0.1; 0.4; 1.0 ])) in
  let print (s, p) = Printf.sprintf "seed=%d pct=%.2f" s p in
  QCheck.Test.make ~name:"delta == from-scratch analysis" ~count:8
    (QCheck.make ~print gen)
    (fun (seed, pct) ->
       let app = fixture_app ~seed ~filler:5 () in
       let path = Filename.temp_file "backdroid_deltaq" ".bdix" in
       Fun.protect
         ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
       @@ fun () ->
       let e1 = E.create ~eager:true app.G.dex in
       ignore (Store.Snapshot.save ~path e1);
       let v2 = G.mutate ~seed ~pct app in
       let cold = Driver.analyze ~dex:v2.G.dex ~manifest:v2.G.manifest () in
       let cold_fp = List.map report_fingerprint cold.Driver.reports in
       let check what engine =
         let r =
           Driver.analyze ~engine ~dex:(E.dexfile engine)
             ~manifest:v2.G.manifest ()
         in
         if List.map report_fingerprint r.Driver.reports <> cold_fp then
           QCheck.Test.fail_reportf "%s diverged from cold (%s)" what
             (print (seed, pct))
       in
       (match Store.Snapshot.delta ~path v2.G.program with
        | Ok (e, _) -> check "file delta" e
        | Error e ->
          QCheck.Test.fail_reportf "delta: %s"
            (Store.Codec.error_to_string e));
       (match Store.Snapshot.delta_of_engine e1 v2.G.program with
        | Ok (e, _) -> check "resident delta" e
        | Error e ->
          QCheck.Test.fail_reportf "delta_of_engine: %s"
            (Store.Codec.error_to_string e));
       true)

(* -- Postcodec wire-format properties --------------------------------- *)

module PC = Bytesearch.Postcodec

(* Strictly ascending slot lists spanning the codec's shapes: empty,
   singleton, dense runs (bitmap territory), sparse and max-gap runs
   (varint territory), and mixes that straddle the 8*nwords <= n
   threshold. *)
let gen_slots =
  QCheck.Gen.(
    let gaps_to_slots start gaps =
      List.rev
        (snd
           (List.fold_left
              (fun (prev, acc) g -> (prev + g, (prev + g) :: acc))
              (start, [ start ]) gaps))
    in
    oneof
      [ return [];
        map (fun s -> [ s ]) (int_bound 1_000_000);
        (* dense: consecutive or near-consecutive *)
        (let* start = int_bound 10_000 in
         let* n = int_range 1 400 in
         let* gaps = list_size (return (n - 1)) (int_range 1 2) in
         return (gaps_to_slots start gaps));
        (* sparse *)
        (let* start = int_bound 10_000 in
         let* n = int_range 1 100 in
         let* gaps = list_size (return (n - 1)) (int_range 1 5_000) in
         return (gaps_to_slots start gaps));
        (* max-gap: multi-byte varint deltas *)
        (let* start = int_bound 100 in
         let* n = int_range 1 10 in
         let* gaps = list_size (return (n - 1)) (int_range 1 (1 lsl 40)) in
         return (gaps_to_slots start gaps));
        (* mixed densities around the bitmap threshold *)
        (let* start = int_bound 1_000 in
         let* n = int_range 1 200 in
         let* gaps =
           list_size (return (n - 1)) (oneofl [ 1; 1; 1; 2; 63; 64; 65; 900 ])
         in
         return (gaps_to_slots start gaps)) ])

let print_slots l = String.concat "," (List.map string_of_int l)

(* A varint may carry bit 62, OCaml's sign bit: a run whose first slot or
   gap decodes negative is rejected, never handed to the unchecked
   readers. *)
let test_codec_rejects_negative_slots () =
  let neg = "\xff\xff\xff\xff\xff\xff\xff\xff\x40" in
  let run parts = Bvec.of_string (String.concat "" parts) in
  List.iter
    (fun (what, b) ->
       match PC.validate b ~pos:0 ~limit:(Bvec.length b) ~max_slot:1000 with
       | Ok _ -> Alcotest.failf "%s validated" what
       | Error _ -> ())
    [ ("negative first slot", run [ "\x01\x00"; neg ]);
      ("negative gap", run [ "\x02\x00\x05"; neg ]);
      ("negative bitmap base", run [ "\x01\x01"; neg; "\x01"; "\x01\x00\x00\x00\x00\x00\x00\x00" ]) ]

let codec_roundtrip =
  QCheck.Test.make ~name:"postcodec encode/validate/iter round-trip"
    ~count:500
    (QCheck.make ~print:print_slots gen_slots)
    (fun slots ->
       let buf = Buffer.create 64 in
       PC.encode_array buf (Array.of_list slots);
       let bytes = Buffer.contents buf in
       let b = Bvec.of_string bytes in
       let max_slot = List.fold_left max 0 slots in
       (match
          PC.validate b ~pos:0 ~limit:(String.length bytes) ~max_slot
        with
        | Error m -> QCheck.Test.fail_reportf "validate rejected: %s" m
        | Ok (n, endp) ->
          if n <> List.length slots then
            QCheck.Test.fail_reportf "validated count %d <> %d" n
              (List.length slots);
          if endp <> String.length bytes then
            QCheck.Test.fail_reportf "validate stopped at %d of %d" endp
              (String.length bytes));
       if PC.count b ~pos:0 <> List.length slots then
         QCheck.Test.fail_report "O(1) count mismatch";
       let decoded = ref [] in
       PC.iter b ~pos:0 (fun s -> decoded := s :: !decoded);
       if List.rev !decoded <> slots then
         QCheck.Test.fail_reportf "decode mismatch: got %s"
           (print_slots (List.rev !decoded));
       (* determinism: re-encoding the decode is byte-identical *)
       let buf2 = Buffer.create 64 in
       PC.encode_array buf2 (Array.of_list (List.rev !decoded));
       if Buffer.contents buf2 <> bytes then
         QCheck.Test.fail_report "re-encode not byte-identical";
       (* a truncated run never validates *)
       (match slots with
        | [] -> ()
        | _ ->
          (match
             PC.validate b ~pos:0 ~limit:(String.length bytes - 1) ~max_slot
           with
           | Ok _ -> QCheck.Test.fail_report "truncated run validated"
           | Error _ -> ()));
       true)

(* A multidex v1 lays classes out in partition order, v2 in name order, so
   the old->new slot map is not monotone: the delta still yields the cold
   build's text and postings. *)
let test_delta_from_multidex () =
  let app =
    G.generate
      { G.default_config with
        G.seed = 77; name = "com.test.multidex"; filler_classes = 70;
        multidex = true;
        plants =
          [ { G.shape = Appgen.Shape.Callback; sink = Framework.Sinks.cipher;
              insecure = true } ] }
  in
  let v2 = G.mutate ~pct:0.2 app in
  match Store.Snapshot.delta_of_engine (E.create ~eager:true app.G.dex) v2.G.program with
  | Error e -> Alcotest.fail (Store.Codec.error_to_string e)
  | Ok (delta, _) ->
    let postings e =
      Array.map
        (fun (p : E.Packed.t) ->
           List.init (E.Packed.n_keys p) (fun k ->
               let slots = ref [] in
               E.Packed.iter_key p k (fun s -> slots := s :: !slots);
               (Ivec.get p.E.Packed.keys k, List.rev !slots)))
        (E.export_packed e)
    in
    Alcotest.(check string) "text" (Dex.Dexfile.to_string v2.G.dex)
      (Dex.Dexfile.to_string (E.dexfile delta));
    Alcotest.(check bool) "postings" true
      (postings delta = postings (E.create ~eager:true v2.G.dex))

(* A dexfile builds its class map on first use.  Forced from four domains
   and four threads at once on one fresh dexfile, every caller gets the one
   table, and it equals the table a save -> load round trip reads back. *)
let test_classmap_concurrent () =
  let app = fixture_app ~filler:30 () in
  let fields (cm : Dex.Classmap.t) =
    Dex.Classmap.(cm.names, cm.line_lo, cm.line_hi, cm.slot_lo, cm.slot_hi,
                  cm.ir_hash)
  in
  let reference =
    let path = Filename.temp_file "backdroid_store" ".bdix" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    ignore
      (Store.Snapshot.save ~path
         (E.create (Dex.Dexfile.of_program app.G.program)));
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> Dex.Dexfile.classmap (E.dexfile e)
    | Error e -> Alcotest.fail (Store.Codec.error_to_string e)
  in
  let dex = Dex.Dexfile.of_program app.G.program in
  let n = 8 and ready = Atomic.make 0 in
  let force () =
    Atomic.incr ready;
    while Atomic.get ready < n do Thread.yield () done;
    Dex.Dexfile.classmap dex
  in
  let domains = List.init 4 (fun _ -> Domain.spawn force) in
  let results = Array.make 4 None in
  let threads =
    List.init 4 (fun i -> Thread.create (fun () -> results.(i) <- Some (force ())) ())
  in
  List.iter Thread.join threads;
  let all =
    List.map Domain.join domains
    @ List.map Option.get (Array.to_list results)
  in
  let first = List.hd all in
  Alcotest.(check bool) "every caller got the one table" true
    (List.for_all (fun cm -> cm == first) all);
  Alcotest.(check bool) "non-empty" true (Dex.Classmap.length first > 10);
  Alcotest.(check bool) "equals the save -> load round trip" true
    (fields first = fields reference)

let cases =
  [ Alcotest.test_case "corrupted snapshots fail as typed errors" `Quick
      test_rejects_corruption;
    Alcotest.test_case "save -> load -> save is byte-identical" `Quick
      test_roundtrip_identical;
    Alcotest.test_case "warm analyze == cold analyze" `Quick
      test_warm_analyze_equals_cold;
    Alcotest.test_case "v1 files still load, smaller v2" `Quick
      test_v1_version_skew;
    Alcotest.test_case "corrupt v2 coded run is typed" `Quick
      test_corrupt_coded_run;
    Alcotest.test_case "prefault load is equivalent" `Quick
      test_prefault_load;
    Alcotest.test_case "default snapshot path" `Quick test_default_path;
    Alcotest.test_case "delta patch == from-scratch (file + resident)" `Quick
      test_delta_equals_cold;
    Alcotest.test_case "delta engine saves and round-trips" `Quick
      test_delta_engine_roundtrip;
    Alcotest.test_case "delta without a class map is a typed error" `Quick
      test_delta_requires_classmap;
    Alcotest.test_case "class map forced from 4 domains + 4 threads" `Quick
      test_classmap_concurrent;
    Alcotest.test_case "delta from a multidex build == cold" `Quick
      test_delta_from_multidex;
    QCheck_alcotest.to_alcotest delta_equiv;
    Alcotest.test_case "postcodec rejects negative slots" `Quick
      test_codec_rejects_negative_slots;
    QCheck_alcotest.to_alcotest codec_roundtrip ]

let suites = [ "store.snapshot", cases ]
