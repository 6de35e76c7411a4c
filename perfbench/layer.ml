(* Per-layer samples of a traced run and the layer calls the workloads
   share.  Every sample is taken around a public call or read from a public
   accessor, once per operation; only traced runs record them. *)

module D = Backdroid.Driver
module E = Bytesearch.Engine

type samples = (string, float list) Hashtbl.t

let samples () : samples = Hashtbl.create 64

let add (s : samples) name v =
  Hashtbl.replace s name (v :: Option.value ~default:[] (Hashtbl.find_opt s name))

let get (s : samples) name = Option.value ~default:[] (Hashtbl.find_opt s name)

(* The per-layer metrics every traced run prints, in order, with units.
   A layer that does no work in a workload reports 0 there. *)
let catalogue =
  [ "appgen.generate_ms", "ms";
    "dex.disasm_ms", "ms"; "dex.arena_ms", "ms"; "dex.classmap_ms", "ms";
    "dex.of_program_ms", "ms"; "dex.lines", "count"; "dex.minor_words", "words";
    "search.index_build_ms", "ms"; "search.categories_built", "count";
    "search.queries", "count"; "search.cache_hit_ratio", "ratio";
    "search.postings_bytes", "bytes";
    "core.analyze_ms", "ms"; "core.us_per_sink", "us"; "core.sink_calls", "count";
    "core.resolutions", "count"; "core.callers_per_resolution", "ratio";
    "core.work_spent", "count"; "core.ssg_nodes", "count";
    "core.partial_sinks", "count"; "core.replayed_sinks", "count";
    "store.load_ms", "ms"; "store.load_minor_words", "words";
    "store.delta_ms", "ms"; "store.delta_reuse_ratio", "ratio";
    "store.save_ms", "ms"; "store.file_bytes", "bytes";
    "serve.render_ms", "ms"; "serve.rtt_ms", "ms"; "serve.hit_ms", "ms";
    "serve.miss_ms", "ms"; "serve.update_ms", "ms"; "serve.server_ms", "ms";
    "serve.overhead_ms", "ms"; "serve.hit_ratio", "ratio";
    "serve.evictions", "count"; "serve.delta_patches", "count";
    "serve.rejected", "count" ]

(* Medians of the recorded samples, in catalogue order. *)
let metrics (s : samples) =
  List.map (fun (name, unit_) -> Common.m name unit_ (Common.med_or_zero (get s name)))
    catalogue

let traced tr = Option.is_some tr

(* Attempted operations and one line per failed one. *)
type acc = { mutable attempted : int; mutable failures : string list }

let acc () = { attempted = 0; failures = [] }

let fail acc line = acc.failures <- line :: acc.failures

(* A traced run's raw material: its spans and samples, the latencies of
   its untraced and traced operations (for the tracing overhead), and its
   attempted / failed counts. *)
type run = {
  spans : Spans.t;
  samples : samples;
  plain_ms : float list;
  traced_ms : float list;
  acc : acc;
}

(* -- shared layer calls ----------------------------------------------- *)

let index_build_ns engine =
  List.fold_left (fun acc (_, us) -> acc +. us) 0.0 (E.index_build_timings engine) *. 1e3
  |> Int64.of_float

let record_search s engine ~build_ms =
  add s "search.index_build_ms" build_ms;
  add s "search.categories_built" (float_of_int (E.built_categories engine));
  add s "search.queries" (float_of_int (E.total_searches engine));
  add s "search.cache_hit_ratio"
    (Common.ratio (float_of_int (E.cached_searches engine))
       (float_of_int (E.total_searches engine)));
  add s "search.postings_bytes" (float_of_int (E.postings_footprint engine))

let record_core s (r : D.result) ~ms =
  let st = r.D.stats in
  let f = float_of_int in
  add s "core.analyze_ms" ms;
  add s "core.us_per_sink" (Common.ratio (ms *. 1e3) (f st.D.sink_calls));
  add s "core.sink_calls" (f st.D.sink_calls);
  add s "core.resolutions" (f st.D.resolutions);
  add s "core.callers_per_resolution"
    (Common.ratio (f st.D.resolved_callers) (f st.D.resolutions));
  add s "core.work_spent" (f st.D.work_spent);
  add s "core.ssg_nodes" (f st.D.ssg_nodes);
  add s "core.partial_sinks" (f st.D.partial_sinks);
  add s "core.replayed_sinks" (f st.D.replayed_sinks)

(* [run] is the analysis call itself ([Driver.analyze] or
   [Driver.run_session]) over [engine].  Postings built lazily inside it
   are charged to the search layer as a child span of the analysis, sized
   by the engine's own build timings. *)
let analyze tr s ~req ~parent engine run =
  Spans.with_ tr ~req ~parent "core.analyze" @@ fun id ->
  let built0 = index_build_ns engine in
  let t0 = Common.now_ns () in
  let r = run () in
  let ms = Common.ms_since t0 in
  (match tr with
   | None -> ()
   | Some t ->
     let build_ns = Int64.sub (index_build_ns engine) built0 in
     if Int64.compare build_ns 0L > 0 then
       ignore (Spans.add t ~req ~parent:id "search.index_build" t0 (Int64.add t0 build_ns));
     record_core s r ~ms;
     record_search s engine ~build_ms:(Common.ms_of_ns build_ns));
  r

let render tr s ~req ~parent ~app_name ~seconds r =
  Spans.with_ tr ~req ~parent "serve.render" @@ fun _ ->
  let text, ms = Common.timed (fun () -> Serve.Render.render ~app_name ~seconds r) in
  if traced tr then add s "serve.render_ms" ms;
  text

(* [Snapshot.load ~prefault:true], with its time and minor allocation. *)
let load tr s ~req ~parent ~path program =
  Spans.with_ tr ~req ~parent "store.load" @@ fun _ ->
  let w0 = Gc.minor_words () in
  let r, ms = Common.timed (fun () -> Store.Snapshot.load ~prefault:true ~path program) in
  if traced tr then begin
    add s "store.load_ms" ms;
    add s "store.load_minor_words" (Gc.minor_words () -. w0)
  end;
  match r with
  | Ok engine -> engine
  | Error e -> failwith ("snapshot load: " ^ Store.Codec.error_to_string e)
