(* sink-dense-warm: targeted-analysis cost follows the number of sink calls
   (the paper's Fig. 9 and its 121-sink outlier).  A ring of small apps
   (1 MB filler) with 60 or 120 planted sinks, snapshotted during set-up.
   One op is Snapshot.load ~prefault:true -> Driver.analyze ~engine ->
   Render.render with a fresh engine per op, so search caches start cold
   and dex does no work.

   The ring is 60/120/60 sinks: two thirds of the ops sit in the 60-sink
   cluster and one third in the 120-sink one, so the p50 and the p90 each
   fall inside a cluster rather than on the edge between them. *)

module G = Appgen.Generator

type app = {
  name : string;
  program : Ir.Program.t;
  manifest : Manifest.App_manifest.t;
  expected : Oracle.truth;
  path : string;
}

type state = {
  workload : Oneshot.workload;
  dir : string;
  setup_samples : Layer.samples;
}

let sinks opts = if opts.Common.tiny then [| 6; 12; 6 |] else [| 60; 120; 60 |]

let config opts i n_sinks =
  let rng = Appgen.Rng.create ((opts.Common.seed * 7_919) + i) in
  { G.default_config with
    G.seed = (opts.Common.seed * 1_000) + i;
    name = Printf.sprintf "com.perfbench.dense.s%d.a%d" opts.Common.seed i;
    filler_classes =
      Appgen.Corpus.filler_classes_for_mb ~mb:1.0 ~methods_per_class:6 ~stmts_per_method:8;
    plants = Common.stratified_plants rng n_sinks ~insecure_p:0.2 }

let op tr s ~req app =
  Spans.with_ tr ~req ~parent:(-1) "op" @@ fun root ->
  let engine = Layer.load tr s ~req ~parent:root ~path:app.path app.program in
  let t0 = Common.now_ns () in
  let r =
    Layer.analyze tr s ~req ~parent:root engine (fun () ->
        Backdroid.Driver.analyze ~engine ~dex:(Bytesearch.Engine.dexfile engine)
          ~manifest:app.manifest ())
  in
  let seconds = Common.s_since t0 in
  ignore (Layer.render tr s ~req ~parent:root ~app_name:app.name ~seconds r);
  r

let setup opts =
  let dir = Common.work_dir () in
  let s = Layer.samples () in
  let ring =
    Array.mapi
      (fun i n ->
         let app, gen_ms = Common.timed (fun () -> G.generate ~build_dex:false (config opts i n)) in
         let engine = Bytesearch.Engine.create (Dex.Dexfile.of_program app.G.program) in
         let path = Filename.concat dir (Printf.sprintf "dense%d.bdix" i) in
         let bytes, save_ms = Common.timed (fun () -> Store.Snapshot.save ~path engine) in
         Layer.add s "appgen.generate_ms" gen_ms;
         Layer.add s "store.save_ms" save_ms;
         Layer.add s "store.file_bytes" (float_of_int bytes);
         let planted =
           if opts.Common.break_oracle then Oracle.break_planted app.G.planted else app.G.planted
         in
         { name = app.G.name; program = app.G.program; manifest = app.G.manifest;
           expected = Oracle.truth_of_planted planted; path })
      (sinks opts)
  in
  let op_of tr s i =
    let app = ring.(i mod Array.length ring) in
    { Oneshot.label = Printf.sprintf "op %d (%s)" i app.name;
      run = (fun () -> op tr s ~req:i app);
      expected = app.expected;
      probe = ignore }
  in
  { workload = { Oneshot.period = Array.length ring; cursor = ref 0; op_of }; dir;
    setup_samples = s }

let teardown st = Common.rm_rf st.dir

