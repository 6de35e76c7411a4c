(* served-mix: the resident daemon under a read/write request mix.  An
   in-process Serve.Server on a Unix socket under the run directory, with
   jobs = nproc and max_resident = 2, driven by 2 closed-loop clients (one
   connection each).  The seeded request plan is ~60% analyses of a hot
   8 MB spec (hits), ~25% analyses walking a ring of 4 cold 4 MB specs
   (more specs than max_resident, so they evict each other and reload from
   their mmap'd snapshots) and ~15% version updates: a dedicated app
   requested at the next mutate_pct version of a fixed cycle, which the
   daemon delta-patches in place.  Every response's report lines must equal
   the one-shot report of the same spec and version, computed in set-up. *)

module A = Serve.Appspec
module C = Serve.Client
module P = Serve.Protocol
module D = Backdroid.Driver
module G = Appgen.Generator

type kind = Hot | Cold | Update

type target = {
  spec : A.t;
  snapshot : string;       (* the app's snapshot path *)
  expected : string list;  (* one-shot report lines of this spec *)
}

type state = {
  dir : string;
  socket : string;
  server : Serve.Server.t;
  hot : target;
  update_base : target;    (* the update app's first version, snapshotted *)
  plan : (kind * target) array;
  mutable next : int;      (* plan cursor, advanced across phases *)
  setup_s : float;
  setup_samples : Layer.samples;
  setup_failures : string list;
}

(* Each version mutates a different number of the update app's ~12 filler
   classes (1, 2, 3, 4), so consecutive versions are distinct programs and
   every update is a real delta. *)
let versions = [| 0.1; 0.2; 0.3; 0.4 |]

let plan_length = 100_000

let plants rng n =
  List.init n (fun _ ->
      let p = Common.primary_plant rng ~insecure_p:0.0 in
      let sink =
        fst (List.find (fun (_, sk) -> sk.Framework.Sinks.name = p.G.sink.Framework.Sinks.name)
               A.sink_names)
      in
      (Appgen.Shape.to_string p.G.shape, sink))

let specs opts =
  let rng = Appgen.Rng.create (opts.Common.seed + 4_242) in
  let scale = if opts.Common.tiny then 0.125 else 1.0 in
  let base = 100 * (opts.Common.seed + 1) in
  let spec k mb ~insecure =
    { A.seed = base + k; size_mb = mb *. scale; plants = plants rng (1 + Appgen.Rng.int rng 3);
      insecure; mutate_pct = 0.0 }
  in
  let hot = spec 0 8.0 ~insecure:true in
  let cold = Array.init 4 (fun i -> spec (1 + i) 4.0 ~insecure:(i mod 2 = 0)) in
  let update = spec 9 4.0 ~insecure:true in
  (hot, cold, update)

let ruleset_hash = Rules.Rule.hash_list D.default_config.D.rules

let generate spec =
  match A.generate ~build_dex:false spec with
  | Ok app -> app
  | Error e -> failwith ("perfbench: bad spec " ^ A.to_string spec ^ ": " ^ e)

(* The one-shot analysis of [spec] (what `backdroid analyze` prints),
   checked against the generator's ground truth; with [save] the engine is
   persisted with its per-sink results, as `analyze --save-index` does. *)
let one_shot opts s ~failures ?save spec =
  let app, gen_ms = Common.timed (fun () -> generate spec) in
  Layer.add s "appgen.generate_ms" gen_ms;
  let dex = Dex.Dexfile.of_program app.G.program in
  let engine = Bytesearch.Engine.create dex in
  let r = D.analyze ~engine ~dex ~manifest:app.G.manifest () in
  (match Oracle.check_truth ~expected:(Oracle.truth_of_planted app.G.planted) r with
   | Ok () -> ()
   | Error e -> failures := Printf.sprintf "one-shot %s: %s" (A.to_string spec) e :: !failures);
  (match save with
   | None -> ()
   | Some path ->
     let results = Backdroid.Resultcache.to_strings (D.export_results ~dex r) in
     let bytes, ms =
       Common.timed (fun () -> Store.Snapshot.save ~ruleset_hash ~results ~path engine)
     in
     Layer.add s "store.save_ms" ms;
     Layer.add s "store.file_bytes" (float_of_int bytes));
  let lines = Serve.Render.report_lines r in
  if opts.Common.break_oracle then Oracle.break_lines lines else lines

let analyze_req t = P.Analyze { spec = t.spec; snapshot = Some t.snapshot; time_limit_ms = None }

let call conn req =
  match C.call conn req with
  | Ok r -> r
  | Error e -> failwith ("perfbench: daemon call: " ^ e)

(* The daemon-independent half of set-up: generate every spec, compute its
   one-shot report (the oracle) and write the snapshots. *)
let prepare opts dir =
  let s = Layer.samples () in
  let failures = ref [] in
  let hot_spec, cold_specs, update_spec = specs opts in
  let target ?save spec snapshot =
    { spec; snapshot; expected = one_shot opts s ~failures ?save spec }
  in
  let path name = Filename.concat dir (name ^ ".bdix") in
  let hot = target ~save:(path "hot") hot_spec (path "hot") in
  let cold =
    Array.mapi
      (fun i sp -> let p = path (Printf.sprintf "cold%d" i) in target ~save:p sp p)
      cold_specs
  in
  let update_base = target ~save:(path "update") update_spec (path "update") in
  let updates =
    Array.map
      (fun pct -> target { update_spec with A.mutate_pct = pct } (path "update"))
      versions
  in
  (hot, cold, update_base, updates, s, failures)

(* Set-up: [prepare] as often as [Common.repeat_setup] asks (snapshots
   are rewritten atomically in place), then boot the daemon and make every
   app resident once.  The daemon boots once per process: starting and
   stopping several daemons in one process segfaults a few runs in a
   hundred (a defect of the program, not of this benchmark), so setup_s is
   the median preparation time plus the one boot and warm-up. *)
let setup opts ~reps ~budget_s =
  let dir = Common.work_dir () in
  let prepared, prep_s =
    Common.repeat_setup ~reps ~budget_s ~teardown:ignore (fun () -> prepare opts dir)
  in
  let hot, cold, update_base, updates, s, failures = prepared in
  let t0 = Common.now_ns () in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    { Serve.Server.default_config with
      Serve.Server.socket;
      jobs = Domain.recommended_domain_count ();
      max_resident = 2 }
  in
  let server =
    match Serve.Server.start cfg with
    | Ok sv -> sv
    | Error e -> failwith ("perfbench: daemon start: " ^ e)
  in
  (* every app resident once (each a snapshot load), the hot one last *)
  (match C.connect_retry ~socket () with
   | Error e -> failwith ("perfbench: connect: " ^ e)
   | Ok conn ->
     Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
     List.iter
       (fun t ->
          match call conn (analyze_req t) with
          | P.Analyzed { text; _ } ->
            (match Oracle.check_lines ~expected:t.expected text with
             | Ok () -> ()
             | Error e -> failures := ("warm-up: " ^ e) :: !failures)
          | _ -> failures := "warm-up: unexpected response" :: !failures)
       ((update_base :: Array.to_list cold) @ [ hot ]));
  let boot_s = Common.s_since t0 in
  let rng = Appgen.Rng.create (opts.Common.seed + 77) in
  let n_cold = ref 0 and n_update = ref 0 in
  let plan =
    Array.init plan_length (fun _ ->
        let u = Appgen.Rng.float rng in
        if u < 0.60 then (Hot, hot)
        else if u < 0.85 then begin
          incr n_cold;
          (Cold, cold.(!n_cold mod Array.length cold))
        end
        else begin
          incr n_update;
          (Update, updates.(!n_update mod Array.length updates))
        end)
  in
  { dir; socket; server; hot; update_base; plan; next = 0; setup_s = prep_s +. boot_s;
    setup_samples = s; setup_failures = List.rev !failures }

let teardown st =
  Serve.Server.stop st.server;
  Serve.Server.wait st.server;
  Common.rm_rf st.dir

let stats st =
  match C.with_conn ~socket:st.socket (fun c -> C.call c P.Stats) with
  | Ok (P.Stats_json j) ->
    fun field -> float_of_int (Option.value ~default:0 (Obs.Jsonf.field_int j field))
  | Ok _ | Error _ -> failwith "perfbench: stats request failed"

(* One served request as the client saw it. *)
type sample = {
  idx : int;               (* plan index = request id *)
  client : int;
  t0 : int64;
  t1 : int64;
  resp : (P.response, string) result;
}

(* Drive the plan with 2 closed-loop clients for [seconds] (and until
   [min_ops] requests completed); returns the samples and the phase wall. *)
let load_phase st ~seconds ~min_ops =
  let clients = 2 in
  let t_start = Common.now_ns () in
  let t_end = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let cursor = Atomic.make st.next in
  let done_ = Atomic.make 0 in
  let out = Array.make clients [] in
  let worker c =
    match C.connect_retry ~socket:st.socket () with
    | Error e -> failwith ("perfbench: connect: " ^ e)
    | Ok conn ->
      Fun.protect ~finally:(fun () -> C.close conn) @@ fun () ->
      while Int64.compare (Common.now_ns ()) t_end < 0 || Atomic.get done_ < min_ops do
        let idx = Atomic.fetch_and_add cursor 1 in
        let _, t = st.plan.(idx mod plan_length) in
        let t0 = Common.now_ns () in
        let resp = C.call conn (analyze_req t) in
        let t1 = Common.now_ns () in
        Atomic.incr done_;
        out.(c) <- { idx; client = c; t0; t1; resp } :: out.(c)
      done
  in
  let threads = List.init clients (Thread.create worker) in
  List.iter Thread.join threads;
  let wall_s = Common.s_since t_start in
  st.next <- Atomic.get cursor;
  let samples = List.concat (Array.to_list out) in
  (List.sort (fun a b -> compare a.idx b.idx) samples, wall_s)

(* Oracle over a phase's responses; returns the completed latencies. *)
let check st (acc : Layer.acc) samples =
  List.filter_map
    (fun smp ->
       acc.Layer.attempted <- acc.Layer.attempted + 1;
       let _, t = st.plan.(smp.idx mod plan_length) in
       let fail e = Layer.fail acc (Printf.sprintf "request %d (%s): %s" smp.idx (A.to_string t.spec) e) in
       let rtt = Common.ms_of_ns (Int64.sub smp.t1 smp.t0) in
       match smp.resp with
       | Ok (P.Analyzed { text; _ }) ->
         (match Oracle.check_lines ~expected:t.expected text with
          | Ok () -> ()
          | Error e -> fail e);
         Some rtt
       | Ok (P.Rejected r) -> fail ("rejected: " ^ P.reject_to_string r); None
       | Ok (P.Error e) -> fail ("error: " ^ e); None
       | Ok _ -> fail "unexpected response"; None
       | Error e -> fail ("call: " ^ e); None)
    samples

(* One measured block.  The daemon runs with the runtime's default GC and
   no forced collections: under the miss/update churn its garbage outruns
   the major GC (the heap grows by ~70 MB/s while live data stays ~5 MB),
   and peak_rss_mb reports that as it is.  (Collecting between blocks
   bounds the heap but makes throughput bimodal across runs, depending on
   how soon each block falls behind again.) *)
let e2e st ~seconds ~min_ops =
  let acc = Layer.acc () in
  let samples, wall_s = load_phase st ~seconds ~min_ops in
  let lat = check st acc samples in
  let count c =
    List.length
      (List.filter (fun smp -> match smp.resp with Ok (P.Analyzed a) -> a.cache = c | _ -> false) samples)
  in
  { Common.latencies_ms = lat; op_time_s = wall_s; attempted = acc.Layer.attempted;
    failures = List.rev acc.Layer.failures;
    note = Printf.sprintf "%d hit, %d miss, %d delta" (count P.Hit) (count P.Miss) (count P.Delta) }

(* -- traced run -------------------------------------------------------- *)

(* Client-side spans of one traced phase: a "request" root per response,
   with the server's own wall time ([Analyzed.wall_us]) as a child at its
   end; the root's self time is the serving overhead. *)
let record_requests tr s samples =
  List.iter
    (fun smp ->
       match smp.resp with
       | Ok (P.Analyzed { cache; wall_us; _ }) ->
         let root = Spans.add tr ~req:smp.idx ~parent:(-1) ~tid:smp.client "request" smp.t0 smp.t1 in
         let server_ns = Int64.of_float (wall_us *. 1e3) in
         let s0 = Int64.max smp.t0 (Int64.sub smp.t1 server_ns) in
         ignore (Spans.add tr ~req:smp.idx ~parent:root ~tid:smp.client "serve.server" s0 smp.t1);
         let rtt = Common.ms_of_ns (Int64.sub smp.t1 smp.t0) in
         let server = wall_us /. 1e3 in
         Layer.add s "serve.rtt_ms" rtt;
         Layer.add s "serve.server_ms" server;
         Layer.add s "serve.overhead_ms" (rtt -. server);
         Layer.add s
           (match cache with P.Hit -> "serve.hit_ms" | P.Miss -> "serve.miss_ms" | P.Delta -> "serve.update_ms")
           rtt
       | _ -> ())
    samples

let load_results path =
  match Store.Snapshot.load_results ~path with
  | Ok [||] | Error _ -> None
  | Ok strs -> Result.to_option (Backdroid.Resultcache.of_strings strs)

(* The replay: each traced request's server-side public calls re-run
   in-process, in plan order, one op at a time — a hit analyzes the
   resident hot engine; a cold request generates its program and loads its
   snapshot; an update generates the new version and delta-patches the
   previous version's engine. *)
type replay = { hot_session : D.session; mutable update_engine : Bytesearch.Engine.t }

let replay_init st =
  let s = Layer.samples () in
  let hot_app = generate st.hot.spec in
  let hot_engine = Layer.load None s ~req:0 ~parent:(-1) ~path:st.hot.snapshot hot_app.G.program in
  let hot_session =
    D.open_session ~engine:hot_engine ?results:(load_results st.hot.snapshot)
      ~dex:(Bytesearch.Engine.dexfile hot_engine) ~manifest:hot_app.G.manifest ()
  in
  let base = generate st.update_base.spec in
  { hot_session;
    update_engine = Layer.load None s ~req:0 ~parent:(-1) ~path:st.update_base.snapshot base.G.program }

let replay_op tr s rp ~req (kind, t) =
  Spans.with_ tr ~req ~parent:(-1) "op" @@ fun root ->
  let gen () =
    Spans.with_ tr ~req ~parent:root "appgen.generate" @@ fun _ ->
    let app, ms = Common.timed (fun () -> generate t.spec) in
    Layer.add s "appgen.generate_ms" ms;
    app
  in
  let r =
    match kind with
    | Hot ->
      let engine = D.session_engine rp.hot_session in
      Layer.analyze tr s ~req ~parent:root engine (fun () -> D.run_session rp.hot_session)
    | Cold ->
      let app = gen () in
      let engine = Layer.load tr s ~req ~parent:root ~path:t.snapshot app.G.program in
      Layer.analyze tr s ~req ~parent:root engine (fun () ->
          D.analyze ~engine ?results:(load_results t.snapshot)
            ~dex:(Bytesearch.Engine.dexfile engine) ~manifest:app.G.manifest ())
    | Update ->
      let app = gen () in
      let engine =
        Spans.with_ tr ~req ~parent:root "store.delta" @@ fun _ ->
        match
          Common.timed (fun () -> Store.Snapshot.delta_of_engine rp.update_engine app.G.program)
        with
        | Ok (engine, rep), ms ->
          Layer.add s "store.delta_ms" ms;
          Layer.add s "store.delta_reuse_ratio"
            (Common.ratio (float_of_int rep.Store.Snapshot.d_lines_reused)
               (float_of_int (rep.Store.Snapshot.d_lines_reused + rep.Store.Snapshot.d_lines_rendered)));
          rp.update_engine <- engine;
          engine
        | Error e, _ -> failwith ("delta: " ^ Store.Codec.error_to_string e)
      in
      Layer.analyze tr s ~req ~parent:root engine (fun () ->
          D.analyze ~engine ?results:(load_results t.snapshot)
            ~dex:(Bytesearch.Engine.dexfile engine) ~manifest:app.G.manifest ())
  in
  ignore (Layer.render tr s ~req ~parent:root ~app_name:(A.app_name t.spec) ~seconds:0.0 r);
  Serve.Render.report_lines r

(* Traced run: load phases alternating untraced / traced (client-side
   request spans; alternating keeps the daemon's heap growth from reading as
   tracing overhead), the daemon's Stats deltas over them, then the
   in-process replay of the traced requests for the per-layer split. *)
let traced opts st =
  let tr = Spans.create () in
  let s = Layer.samples () in
  let acc = Layer.acc () in
  let secs = opts.Common.seconds in
  let phases = 6 and min_ops = Common.min_samples_p90 / 2 in
  let before = stats st in
  let plain_ms = ref [] and traced_ms = ref [] and traced_samples = ref [] in
  for k = 0 to phases - 1 do
    let samples, _ = load_phase st ~seconds:(0.7 *. secs /. float_of_int phases) ~min_ops in
    let lat = check st acc samples in
    if k mod 2 = 0 then plain_ms := lat @ !plain_ms
    else begin
      traced_ms := lat @ !traced_ms;
      traced_samples := !traced_samples @ samples
    end
  done;
  let after = stats st in
  record_requests tr s !traced_samples;
  let d field = after field -. before field in
  Layer.add s "serve.hit_ratio" (Common.ratio (d "cache_hits") (d "cache_hits" +. d "cache_misses"));
  Layer.add s "serve.evictions" (d "cache_evictions");
  Layer.add s "serve.delta_patches" (d "cache_delta_patches");
  Layer.add s "serve.rejected" (d "rejected");
  let rp = replay_init st in
  let t_end = Int64.add (Common.now_ns ()) (Int64.of_float (0.3 *. secs *. 1e9)) in
  let rec replay = function
    | [] -> ()
    | smp :: rest ->
      let ((_, t) as req) = st.plan.(smp.idx mod plan_length) in
      acc.Layer.attempted <- acc.Layer.attempted + 1;
      (match replay_op (Some tr) s rp ~req:smp.idx req with
       | lines when lines = t.expected -> ()
       | _ -> Layer.fail acc (Printf.sprintf "replay %d: report differs from one-shot" smp.idx)
       | exception e -> Layer.fail acc (Printf.sprintf "replay %d: %s" smp.idx (Printexc.to_string e)));
      if Int64.compare (Common.now_ns ()) t_end < 0 then replay rest
  in
  replay !traced_samples;
  D.close_session rp.hot_session;
  { Layer.spans = tr; samples = s; plain_ms = !plain_ms; traced_ms = !traced_ms; acc }
