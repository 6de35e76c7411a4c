(* cold-oneshot: the paper's one-shot vetting path.  A stream of distinct
   apps (never reused) cycling through the 5/10/20/40 MB size bands, each
   with 1-3 random primary plants.  One op is Dexfile.of_program ->
   Engine.create (lazy, the CLI default) -> Driver.analyze (jobs = 1) ->
   Render.render; the app is generated before the op clock starts.  dex
   preprocessing dominates.

   Each op's size is spread log-uniformly within a factor sqrt 2 of its
   band's centre, so the bands touch and the latency percentiles fall on a
   continuous distribution instead of in the gap between two size clusters.
   The spread follows a golden-ratio sequence (offset by the seed) rather
   than independent draws, so every stretch of the stream covers each band
   evenly and the percentiles don't move with the luck of the draw.
   Apps in the same band slot share their package name (and so their class
   names): a one-shot analysis runs in a fresh process, and reusing names
   keeps this long-running process's intern tables at a steady size instead
   of growing with every app. *)

module G = Appgen.Generator
module D = Backdroid.Driver

let sizes_mb opts = if opts.Common.tiny then [| 0.5; 1.0; 2.0; 4.0 |] else [| 5.0; 10.0; 20.0; 40.0 |]

let config opts i =
  let rng = Appgen.Rng.create ((opts.Common.seed * 1_000_003) + i) in
  let u = Float.rem ((float_of_int (i / 4) *. 0.618033988749895) +. (0.1 *. float_of_int opts.Common.seed)) 1.0 in
  let mb = (sizes_mb opts).(i mod 4) *. (2.0 ** (u -. 0.5)) in
  let plants =
    List.init (1 + Appgen.Rng.int rng 3) (fun _ ->
        Common.primary_plant rng ~insecure_p:0.5)
  in
  { G.default_config with
    G.seed = (opts.Common.seed * 100_000) + i;
    name = Printf.sprintf "com.perfbench.cold.s%d.z%d" opts.Common.seed (i mod 4);
    filler_classes =
      Appgen.Corpus.filler_classes_for_mb ~mb ~methods_per_class:6 ~stmts_per_method:8;
    plants }

(* The program only ever sees the generated app; the expected findings
   come from the generator's ground truth. *)
let generate tr s opts i =
  let app, ms = Common.timed (fun () -> G.generate ~build_dex:false (config opts i)) in
  if Layer.traced tr then Layer.add s "appgen.generate_ms" ms;
  let planted = if opts.Common.break_oracle then Oracle.break_planted app.G.planted else app.G.planted in
  (app, Oracle.truth_of_planted planted)

(* The dex sub-steps, re-run on the op's program after the op (their
   symbols are interned by then) so the op itself stays one public call. *)
let dex_substeps s program =
  let lines, disasm_ms =
    Common.timed (fun () -> Array.of_list (Dex.Disasm.program_lines program))
  in
  let arena, arena_ms = Common.timed (fun () -> Dex.Arena.of_lines lines) in
  let _, classmap_ms = Common.timed (fun () -> Dex.Classmap.of_lines lines arena program) in
  Layer.add s "dex.disasm_ms" disasm_ms;
  Layer.add s "dex.arena_ms" arena_ms;
  Layer.add s "dex.classmap_ms" classmap_ms

let op tr s ~req (app : G.app) =
  Spans.with_ tr ~req ~parent:(-1) "op" @@ fun root ->
  let dex =
    Spans.with_ tr ~req ~parent:root "dex.of_program" @@ fun _ ->
    let w0 = Gc.minor_words () in
    let dex, ms = Common.timed (fun () -> Dex.Dexfile.of_program app.G.program) in
    if Layer.traced tr then begin
      Layer.add s "dex.of_program_ms" ms;
      Layer.add s "dex.lines" (float_of_int (Dex.Dexfile.line_count dex));
      Layer.add s "dex.minor_words" (Gc.minor_words () -. w0)
    end;
    dex
  in
  let engine =
    Spans.with_ tr ~req ~parent:root "search.create" (fun _ -> Bytesearch.Engine.create dex)
  in
  let t0 = Common.now_ns () in
  let r =
    Layer.analyze tr s ~req ~parent:root engine (fun () ->
        D.analyze ~engine ~dex ~manifest:app.G.manifest ())
  in
  let seconds = Common.s_since t0 in
  ignore (Layer.render tr s ~req ~parent:root ~app_name:app.G.name ~seconds r);
  r

(* Set-up generates the first cycle of inputs (one app per size) and runs
   each through the op once, so heap growth is paid before timing. *)
let setup opts =
  let s = Layer.samples () in
  Array.iteri
    (fun i _ ->
       let app, _ = generate None s opts i in
       ignore (op None s ~req:i app))
    (sizes_mb opts);
  let op_of tr s i =
    let app, expected = generate tr s opts i in
    { Oneshot.label = Printf.sprintf "op %d (%s)" i app.G.name;
      run = (fun () -> op tr s ~req:i app);
      expected;
      probe = (fun () -> dex_substeps s app.G.program) }
  in
  { Oneshot.period = 4; cursor = ref 4; op_of }
