(** Corpora mirroring the paper's datasets: the 144 modern apps of the main
    evaluation, the yearly app-size samples of Table I, the detection corpus
    of Sec. VI-C, and a sink-count sweep for Fig. 9. *)

module Sinks = Framework.Sinks

(** Calibration constant: how many IR statements stand in for one APK
    megabyte.  Chosen so that whole-app analysis cost scales with "app size"
    on the same relative scale as the paper's corpus. *)
let stmts_per_mb = 250

(** Average statements contributed by one filler class under the default
    method/statement knobs (ctor + step + methods). *)
let filler_class_stmts ~methods_per_class ~stmts_per_method =
  (* each method body also carries identity stmts, calls and a return *)
  (methods_per_class * (stmts_per_method + 6)) + (stmts_per_method / 2 + 4) + 3

let filler_classes_for_mb ~mb ~methods_per_class ~stmts_per_method =
  let per_class = filler_class_stmts ~methods_per_class ~stmts_per_method in
  max 1 (int_of_float (mb *. float_of_int stmts_per_mb) / per_class)

(* ------------------------------------------------------------------ *)
(* Size models                                                          *)

(** Lognormal sample with the given median and mean (mean > median). *)
let lognormal rng ~median ~mean =
  let mu = log median in
  let sigma2 = 2.0 *. (log mean -. log median) in
  let sigma = sqrt (max 0.0 sigma2) in
  (* Box-Muller *)
  let u1 = max 1e-12 (Rng.float rng) and u2 = Rng.float rng in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  exp (mu +. (sigma *. z))

(** Table I year models: (average MB, median MB, sample count). *)
let year_models =
  [ 2014, (13.8, 8.4, 2840);
    2015, (18.8, 12.4, 1375);
    2016, (21.6, 16.2, 3510);
    2017, (32.9, 30.0, 1706);
    2018, (42.6, 38.0, 3178) ]

(** Sample the app-size distribution of a given year (sizes only — Table I
    needs no app bodies). *)
let yearly_sizes ~seed year =
  match List.assoc_opt year year_models with
  | None -> invalid_arg "Corpus.yearly_sizes: unknown year"
  | Some (mean, median, count) ->
    let rng = Rng.create (seed + year) in
    List.init count (fun _ -> lognormal rng ~median ~mean)

(* ------------------------------------------------------------------ *)
(* Shape / sink mixes                                                   *)

let weighted_choice rng choices =
  let total = List.fold_left (fun a (w, _) -> a +. w) 0.0 choices in
  let x = Rng.float rng *. total in
  let rec pick acc = function
    | [] -> snd (List.hd (List.rev choices))
    | (w, v) :: rest -> if x < acc +. w then v else pick (acc +. w) rest
  in
  pick 0.0 choices

(** Shape mix for the performance corpora: all search mechanisms exercised,
    weighted towards the common patterns. *)
let performance_shape_mix : (float * Shape.t) list =
  [ 0.20, Direct; 0.14, Static_chain; 0.08, Child_class; 0.08, Super_class;
    0.08, Interface_dispatch; 0.08, Callback; 0.07, Async_thread;
    0.05, Async_executor; 0.05, Async_task; 0.04, Static_init;
    0.04, Clinit_field; 0.04, Icc_explicit; 0.03, Icc_implicit;
    0.04, Lifecycle_field; 0.05, Dead_code; 0.02, Skipped_lib;
    0.05, Recursive_chain; 0.20, Shared_util; 0.03, Builder_spec ]

let primary_sink_mix : (float * Sinks.t) list =
  [ 0.5, Sinks.cipher; 0.3, Sinks.ssl_factory; 0.2, Sinks.https_conn ]

let random_plant rng ~insecure_p : Generator.plant_spec =
  (* the three draws in the order the record literal they replace evaluated
     them (right to left), so the random stream is unchanged *)
  let insecure = Rng.bool rng insecure_p in
  let sink = weighted_choice rng primary_sink_mix in
  let shape = weighted_choice rng performance_shape_mix in
  (* the builder-spec template only builds cipher transformation strings *)
  let sink = if shape = Shape.Builder_spec then Sinks.cipher else sink in
  { shape; sink; insecure }

(* ------------------------------------------------------------------ *)
(* The modern-144 corpus                                                *)

(** One config of the 144-app corpus.  [scale] scales app sizes down for
    quick runs (1.0 = full calibrated sizes). *)
let modern_app ~scale rng i =
  let mb = lognormal rng ~median:36.2 ~mean:41.5 in
  let mb = Float.max 2.9 (Float.min 104.9 mb) in
  let mb = mb *. scale in
  let methods_per_class = 6 and stmts_per_method = 8 in
  (* sink API calls per app: mean ~21 as in Sec. VI-D *)
  let n_sinks = 3 + Rng.int rng 36 in
  let plants = List.init n_sinks (fun _ -> random_plant rng ~insecure_p:0.015) in
  (* per-app dispatch density: the natural high-variance source of
     whole-app analysis cost (framework-heavy apps blow up; plain apps are
     mild), independent of what the targeted analysis ever touches *)
  let dispatch_p = 0.08 +. Rng.float rng *. 0.42 in
  (* calling-context profile: about a fifth of apps are structurally mild,
     close to half are moderate, and roughly a third have the deep, dense
     call structure that drives whole-app dataflow engines into context
     explosion (the paper's 35% timeout population) *)
  let fanout_max, jump_locality =
    weighted_choice rng [ 0.20, (1, 0); 0.45, (3, 0); 0.35, (2, 3) ]
  in
  { Generator.seed = 1000 + i;
    name = Printf.sprintf "com.modern.app%03d" i;
    filler_classes = filler_classes_for_mb ~mb ~methods_per_class ~stmts_per_method;
    filler_methods_per_class = methods_per_class;
    filler_stmts_per_method = stmts_per_method;
    filler_dispatch_p = dispatch_p;
    filler_fanout_max = fanout_max;
    filler_jump_locality = jump_locality;
    plants;
    multidex = mb > 60.0 }

(** The 144 "modern popular apps" of Sec. VI-A.  Includes one deliberate
    outlier with 121 sink calls (the paper's Huawei Health case). *)
let modern_144 ?(scale = 1.0) ?(seed = 42) ?(count = 144) () =
  let rng = Rng.create seed in
  let configs = List.init (max 0 (count - 1)) (fun i -> modern_app ~scale rng i) in
  let outlier =
    let plants =
      List.init 121 (fun _ -> random_plant rng ~insecure_p:0.01)
    in
    { Generator.seed = 4242;
      name = "com.huawei.health.sim";
      filler_classes =
        filler_classes_for_mb ~mb:(90.0 *. scale) ~methods_per_class:6
          ~stmts_per_method:8;
      filler_methods_per_class = 6;
      filler_stmts_per_method = 8;
      filler_dispatch_p = 0.2;
      filler_fanout_max = 2;
      filler_jump_locality = 0;
      plants;
      multidex = true }
  in
  configs @ [ outlier ]

(* ------------------------------------------------------------------ *)
(* Detection corpus (Sec. VI-C)                                         *)

type detection_app = {
  config : Generator.config;
  group : string;  (** which Sec. VI-C case the app instantiates *)
}

let small_app ?(heavy = false) ~seed ~name ~mb ~plants ~group () =
  { config =
      { Generator.default_config with
        Generator.seed;
        name;
        filler_classes =
          filler_classes_for_mb ~mb ~methods_per_class:6 ~stmts_per_method:8;
        filler_methods_per_class = 6;
        filler_stmts_per_method = 8;
        (* heavy apps carry the deep, dense call structure that defeats
           whole-app analysis within any reasonable budget *)
        filler_fanout_max = (if heavy then 2 else 3);
        filler_jump_locality = (if heavy then 3 else 0);
        plants };
    group }

let plant shape sink insecure : Generator.plant_spec =
  { shape; sink; insecure }

(** Apps mirroring the detection-result populations of Sec. VI-C:
    - 7 ECB true positives (both tools should detect),
    - 17 SSL true positives, of which 2 use the subclassed-sink shape
      (BackDroid's documented FNs),
    - 6 SSL false positives from unregistered components (Amandroid FPs),
    - the "additional detection" groups: oversized/timeout apps, skipped
      libraries, async/callback flows the baseline misses. *)
let detection ?(seed = 7) ?(timeout_mb = 120.0) () =
  let rng = Rng.create seed in
  (* shapes both tools handle — the async/callback gap shapes live in their
     own "extra" group *)
  let reachable_shapes =
    [ Shape.Direct; Shape.Static_chain; Shape.Super_class; Shape.Async_thread;
      Shape.Icc_explicit; Shape.Lifecycle_field ]
  in
  let pick_shape () = Rng.choose rng reachable_shapes in
  let ecb_tp =
    List.init 7 (fun i ->
        small_app ~seed:(9000 + i)
          ~name:(Printf.sprintf "com.det.ecb%d" i)
          ~mb:(8.0 +. Rng.float rng *. 20.0)
          ~plants:[ plant (pick_shape ()) Sinks.cipher true ]
          ~group:"ecb-tp" ())
  in
  let ssl_tp =
    List.init 15 (fun i ->
        small_app ~seed:(9100 + i)
          ~name:(Printf.sprintf "com.det.ssl%d" i)
          ~mb:(8.0 +. Rng.float rng *. 20.0)
          ~plants:[ plant (pick_shape ()) Sinks.ssl_factory true ]
          ~group:"ssl-tp" ())
  in
  let ssl_subclassed =
    List.init 2 (fun i ->
        small_app ~seed:(9200 + i)
          ~name:(Printf.sprintf "com.det.sslsub%d" i)
          ~mb:10.0
          ~plants:[ plant Shape.Subclassed_sink Sinks.ssl_factory true ]
          ~group:"ssl-tp-subclassed" ())
  in
  let ssl_fp =
    List.init 6 (fun i ->
        small_app ~seed:(9300 + i)
          ~name:(Printf.sprintf "com.det.sslfp%d" i)
          ~mb:10.0
          ~plants:[ plant Shape.Unregistered_component Sinks.ssl_factory true ]
          ~group:"ssl-fp-unregistered" ())
  in
  let timeouts =
    List.init 8 (fun i ->
        small_app ~heavy:true ~seed:(9400 + i)
          ~name:(Printf.sprintf "com.det.huge%d" i)
          ~mb:timeout_mb
          ~plants:[ plant (pick_shape ()) (Rng.choose rng [ Sinks.cipher; Sinks.ssl_factory ]) true ]
          ~group:"extra-timeout" ())
  in
  let skipped =
    List.init 8 (fun i ->
        small_app ~seed:(9500 + i)
          ~name:(Printf.sprintf "com.det.lib%d" i)
          ~mb:10.0
          ~plants:[ plant Shape.Skipped_lib (Rng.choose rng [ Sinks.cipher; Sinks.ssl_factory ]) true ]
          ~group:"extra-skipped-lib" ())
  in
  let async_gap =
    List.init 8 (fun i ->
        let shape =
          Rng.choose rng [ Shape.Async_executor; Shape.Async_task; Shape.Callback ]
        in
        small_app ~seed:(9600 + i)
          ~name:(Printf.sprintf "com.det.async%d" i)
          ~mb:10.0
          ~plants:[ plant shape (Rng.choose rng [ Sinks.cipher; Sinks.ssl_factory ]) true ]
          ~group:"extra-async-gap" ())
  in
  let errors =
    (* apps the whole-app baseline fails on with internal errors ("Could not
       find procedure" / "key not found"); the harness runs this group with
       the error knob set *)
    List.init 10 (fun i ->
        small_app ~seed:(9700 + i)
          ~name:(Printf.sprintf "com.det.err%d" i)
          ~mb:10.0
          ~plants:[ plant (pick_shape ()) (Rng.choose rng [ Sinks.cipher; Sinks.ssl_factory ]) true ]
          ~group:"extra-error" ())
  in
  ecb_tp @ ssl_tp @ ssl_subclassed @ ssl_fp @ timeouts @ skipped @ async_gap
  @ errors

(* ------------------------------------------------------------------ *)
(* Sink-count sweep (Fig. 9)                                            *)

let sink_sweep ?(seed = 13) ?(mb = 20.0) () =
  let rng = Rng.create seed in
  let counts = [ 1; 2; 4; 6; 8; 12; 16; 20; 25; 30; 40; 50; 60; 80; 100; 121 ] in
  List.map
    (fun n ->
       let plants = List.init n (fun _ -> random_plant rng ~insecure_p:0.02) in
       { Generator.default_config with
         Generator.seed = 5000 + n;
         name = Printf.sprintf "com.sweep.sinks%03d" n;
         filler_classes =
           filler_classes_for_mb ~mb ~methods_per_class:6 ~stmts_per_method:8;
         filler_methods_per_class = 6;
         filler_stmts_per_method = 8;
         plants })
    counts
