(** Corpora mirroring the paper's datasets: the 144 modern apps of the main
    evaluation, the yearly app-size samples of Table I, the detection corpus
    of Sec. VI-C, and a sink-count sweep for Fig. 9. *)

module Sinks = Framework.Sinks

(** Calibration constant: how many IR statements stand in for one APK
    megabyte.  Chosen so that whole-app analysis cost scales with "app size"
    on the same relative scale as the paper's corpus. *)
val stmts_per_mb : int

(** Average statements contributed by one filler class under the default
    method/statement knobs (ctor + step + methods). *)
val filler_class_stmts : methods_per_class:int -> stmts_per_method:int -> int
val filler_classes_for_mb :
  mb:float -> methods_per_class:int -> stmts_per_method:int -> int

(** Lognormal sample with the given median and mean (mean > median). *)
val lognormal : Rng.t -> median:float -> mean:float -> float

(** Table I year models: (average MB, median MB, sample count). *)
val year_models : (int * (float * float * int)) list

(** Sample the app-size distribution of a given year (sizes only — Table I
    needs no app bodies). *)
val yearly_sizes : seed:int -> int -> float list
val weighted_choice : Rng.t -> (float * 'a) list -> 'a

(** Shape mix for the performance corpora: all search mechanisms exercised,
    weighted towards the common patterns. *)
val performance_shape_mix : (float * Shape.t) list
val primary_sink_mix : (float * Sinks.t) list

(** A plant drawn from the performance shape and primary sink mixes,
    insecure with probability [insecure_p].  Builder-spec plants always
    take the cipher sink: that template builds cipher transformation
    strings only. *)
val random_plant :
  Rng.t -> insecure_p:float -> Generator.plant_spec

(** One config of the 144-app corpus.  [scale] scales app sizes down for
    quick runs (1.0 = full calibrated sizes). *)
val modern_app :
  scale:float -> Rng.t -> int -> Generator.config

(** The 144 "modern popular apps" of Sec. VI-A.  Includes one deliberate
    outlier with 121 sink calls (the paper's Huawei Health case). *)
val modern_144 :
  ?scale:float ->
  ?seed:int -> ?count:int -> unit -> Generator.config list
type detection_app = { config : Generator.config; group : string; }
val small_app :
  ?heavy:bool ->
  seed:int ->
  name:string ->
  mb:float ->
  plants:Generator.plant_spec list ->
  group:string -> unit -> detection_app
val plant :
  Shape.t ->
  Generator.Sinks.t -> bool -> Generator.plant_spec

(** Apps mirroring the detection-result populations of Sec. VI-C:
    - 7 ECB true positives (both tools should detect),
    - 17 SSL true positives, of which 2 use the subclassed-sink shape
      (BackDroid's documented FNs),
    - 6 SSL false positives from unregistered components (Amandroid FPs),
    - the "additional detection" groups: oversized/timeout apps, skipped
      libraries, async/callback flows the baseline misses. *)
val detection : ?seed:int -> ?timeout_mb:float -> unit -> detection_app list
val sink_sweep :
  ?seed:int -> ?mb:float -> unit -> Generator.config list
