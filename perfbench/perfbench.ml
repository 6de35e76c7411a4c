(* The repository benchmark.  See run.py for how it is built and invoked.

   perfbench --workload W --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with the production telemetry
   default (metrics and flight recorder on, no spans); --trace 1 is the
   separate traced run that attributes each operation's time to layers.
   The last stdout line is the JSON result; the lines before it print every
   metric by name with its unit, plus the sample counts behind the
   percentiles and any failed operations. *)

type instance = {
  setup_s : float;                    (* median set-up time *)
  e2e : seconds:float -> min_ops:int -> Common.e2e;  (* one measured block *)
  traced : unit -> Layer.run;
  setup_samples : Layer.samples;      (* layer calls made during set-up *)
  setup_failures : string list;       (* wrong expected outputs found in set-up *)
  teardown : unit -> unit;
}

(* [make opts ~reps ~budget_s] sets the workload up as
   [Common.repeat_setup] does (the last instance is the one measured) and
   reports the median set-up time.

   sink-dense-warm runs by name but is not listed in BENCHMARK.json: its
   figures follow the host's memory-contention phases as much as the
   program, and the time allowed for the checked runs fits two workloads of
   40 s, not three.  cold-oneshot and served-mix between them still time
   every layer. *)
let workloads : (string * (Common.opts -> reps:int -> budget_s:float -> instance)) list =
  [ ( "cold-oneshot",
      fun opts ~reps ~budget_s ->
        let w, setup_s =
          Common.repeat_setup ~reps ~budget_s ~teardown:ignore (fun () -> Cold_oneshot.setup opts)
        in
        { setup_s;
          e2e = Oneshot.e2e w;
          traced = (fun () -> Oneshot.traced w ~seconds:opts.Common.seconds);
          setup_samples = Layer.samples ();
          setup_failures = [];
          teardown = ignore } );
    ( "sink-dense-warm",
      fun opts ~reps ~budget_s ->
        let st, setup_s =
          Common.repeat_setup ~reps ~budget_s ~teardown:Sink_dense.teardown (fun () ->
              Sink_dense.setup opts)
        in
        { setup_s;
          e2e = Oneshot.e2e st.Sink_dense.workload;
          traced = (fun () -> Oneshot.traced st.Sink_dense.workload ~seconds:opts.Common.seconds);
          setup_samples = st.Sink_dense.setup_samples;
          setup_failures = [];
          teardown = (fun () -> Sink_dense.teardown st) } );
    ( "served-mix",
      fun opts ~reps ~budget_s ->
        let st = Served_mix.setup opts ~reps ~budget_s in
        { setup_s = st.Served_mix.setup_s;
          e2e = Served_mix.e2e st;
          traced = (fun () -> Served_mix.traced opts st);
          setup_samples = st.Served_mix.setup_samples;
          setup_failures = st.Served_mix.setup_failures;
          teardown = (fun () -> Served_mix.teardown st) } ) ]

(* Set-up runs at least this many times in an end-to-end run, and more
   while the set-ups so far took under [setup_budget_s]. *)
let setup_reps = 5
let setup_budget_s = 2.0

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let tiny = ref false and break_oracle = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
      ("--tiny", Arg.Set tiny, " self-test scale: inputs shrunk ~10x");
      ("--break-oracle", Arg.Set break_oracle, " corrupt one expected output") ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem_assoc !workload workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  end;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline ("usage: " ^ usage);
    exit 2
  end;
  { Common.workload = !workload; seed = !seed; seconds = float_of_int !seconds;
    trace = !trace = 1; tiny = !tiny; break_oracle = !break_oracle }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failures metrics =
  let failed = List.length failures in
  List.iter (fun l -> Printf.printf "FAILED %s\n" l) failures;
  List.iter
    (fun (mt : Common.metric) -> Printf.printf "metric %-32s %16.6f %s\n" mt.name mt.value mt.unit_)
    metrics;
  let body =
    List.map
      (fun (mt : Common.metric) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number mt.value)
           mt.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) (max 1 attempted) failed (String.concat ", " body)

let failed_frac ~attempted ~failures =
  Common.ratio (float_of_int (List.length failures)) (float_of_int (max 1 attempted))

(* The measured phase is [blocks] back-to-back blocks, each logged on its
   own line, and every end-to-end figure is taken over the whole run: all
   latencies pooled (the run, not each block, has enough samples beyond
   its p90), throughput = all ops over all op time.  Shared hosts
   alternate fast and slow phases (~1.5x apart on a 2-vCPU VM) lasting
   seconds to minutes; a figure pooled over the run moves smoothly with the
   share of slow time, where a median over blocks jumps between the two
   phases' values once about half the blocks are slow. *)
let blocks = 10

let end_to_end inst opts =
  let per_block =
    List.init blocks (fun k ->
        let (r : Common.e2e) =
          inst.e2e ~seconds:(opts.Common.seconds /. float_of_int blocks)
            ~min_ops:((Common.min_samples_p90 + blocks - 1) / blocks)
        in
        let p50 = Common.pct 0.5 r.latencies_ms and p90 = Common.pct 0.9 r.latencies_ms in
        Printf.printf "block %d: %d ops, %d failed, %.2f ops/s, p50 %.3f ms, p90 %.3f ms%s\n" k
          p90.samples (List.length r.failures)
          (Common.ratio (float_of_int p90.samples) r.op_time_s)
          p50.value p90.value
          (if r.note = "" then "" else "; " ^ r.note);
        r)
  in
  let attempted = List.fold_left (fun n (r : Common.e2e) -> n + r.attempted) 0 per_block in
  let failures =
    inst.setup_failures @ List.concat_map (fun (r : Common.e2e) -> r.failures) per_block
  in
  let lat = List.concat_map (fun (r : Common.e2e) -> r.latencies_ms) per_block in
  let op_time_s = List.fold_left (fun t (r : Common.e2e) -> t +. r.op_time_s) 0.0 per_block in
  let p50 = Common.pct 0.5 lat and p90 = Common.pct 0.9 lat in
  Printf.printf "run: %d ops, p50 %.3f ms (%d beyond), p90 %.3f ms (%d beyond)\n" p90.samples
    p50.value p50.beyond p90.value p90.beyond;
  if p90.beyond < Common.min_beyond then
    Printf.printf "WARNING: p90 has fewer than %d samples beyond it\n" Common.min_beyond;
  Printf.printf "metric %-32s %16.6f %s\n" "failed_frac" (failed_frac ~attempted ~failures) "ratio";
  ( attempted,
    failures,
    [ Common.m "setup_s" "s" inst.setup_s;
      Common.m "ops_per_s" "1/s" (Common.ratio (float_of_int p90.samples) op_time_s);
      Common.m "latency_p50_ms" "ms" p50.value;
      Common.m "latency_p90_ms" "ms" p90.value;
      Common.m "peak_rss_mb" "MB" (Common.peak_rss_mb ()) ] )

let per_layer opts inst (r : Layer.run) =
  let failures = inst.setup_failures @ List.rev r.acc.Layer.failures in
  Hashtbl.iter (fun k vs -> List.iter (Layer.add r.samples k) vs) inst.setup_samples;
  let a = Spans.attribute r.spans in
  Common.ensure_out_dir ();
  let stem =
    Filename.concat Common.out_dir
      (Printf.sprintf "%s-seed%d" opts.Common.workload opts.Common.seed)
  in
  let events = Spans.write_chrome r.spans (stem ^ ".trace.json") in
  Spans.write_layers a ~workload:opts.Common.workload (stem ^ ".layers.json");
  Printf.printf "trace: %d spans (%d events) in %s.trace.json, layer table in %s.layers.json\n"
    (List.length r.spans.Spans.spans) events stem stem;
  let p50 = Common.median in
  failures,
  Layer.metrics r.samples
  @ Spans.share_metrics a
  @ [ Common.m "trace.overhead_pct" "%"
        (100.0 *. (Common.ratio (p50 r.traced_ms) (p50 r.plain_ms) -. 1.0));
      Common.m "trace.spans" "count" (float_of_int (List.length r.spans.Spans.spans));
      Common.m "failed_frac" "ratio"
        (failed_frac ~attempted:r.acc.Layer.attempted ~failures) ]

let () =
  let opts = parse_args () in
  let make = List.assoc opts.Common.workload workloads in
  let inst =
    if opts.Common.trace then make opts ~reps:1 ~budget_s:0.0
    else make opts ~reps:setup_reps ~budget_s:setup_budget_s
  in
  Printf.printf "workload %s seed %d: set-up %.3f s (median of the set-ups)\n" opts.Common.workload
    opts.Common.seed inst.setup_s;
  let finish () = inst.teardown () in
  Fun.protect ~finally:finish @@ fun () ->
  if opts.Common.trace then begin
    let r = inst.traced () in
    let failures, metrics = per_layer opts inst r in
    print_result ~attempted:r.acc.Layer.attempted ~failures metrics
  end
  else begin
    let attempted, failures, metrics =
      end_to_end inst opts
    in
    print_result ~attempted ~failures metrics
  end
