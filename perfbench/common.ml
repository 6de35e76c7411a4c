(* Shared plumbing of the benchmark: the ns monotonic clock, percentile
   summaries that carry their sample counts, peak RSS, run options and the
   metric records every workload reports. *)

let now_ns () = Monotonic_clock.now ()

let ms_of_ns ns = Int64.to_float ns /. 1e6
let ms_since t0 = ms_of_ns (Int64.sub (now_ns ()) t0)
let s_since t0 = ms_since t0 /. 1e3

(* Finish the major GC cycle, untimed.  The one-shot workloads call it
   before each op, so every op starts from a clean heap as it would in the
   fresh process a one-shot analysis runs in, instead of inheriting the
   previous ops' garbage: in one long process that debt varies from run to
   run, and under this allocation pattern the major GC falls behind until
   the heap grows without bound.  (served-mix never forces a collection:
   there the daemon is the long-lived process being measured.) *)
let fresh_heap () = Gc.full_major ()

(* Run [f], returning its result and its duration in ms. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* -- percentiles ------------------------------------------------------ *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* A latency percentile with the evidence behind it: how many samples it
   was computed from and how many lie strictly beyond it. *)
type pct = { value : float; samples : int; beyond : int }

let pct q xs =
  let value = quantile q xs in
  { value;
    samples = List.length xs;
    beyond = List.length (List.filter (fun x -> x > value) xs) }

(* A percentile is reportable only with at least this many samples beyond
   it; the workloads size their runs so the p90 always qualifies. *)
let min_beyond = 10

(* Enough samples that at least [min_beyond] lie beyond the p90. *)
let min_samples_p90 = 10 * min_beyond + 10

(* -- process memory --------------------------------------------------- *)

(* Peak resident set size (VmHWM) of this process so far, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  scan ()

(* -- run options ------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;           (* self-test scale: every input shrunk ~10x *)
  break_oracle : bool;   (* corrupt one expected output (oracle self-test) *)
}

(* Run artifacts (traces, layer tables, per-run scratch), relative to the
   checkout root. *)
let out_dir = ".perfbench"

(* Per-run scratch directory for snapshots and the daemon socket.  It is
   relative so the socket path stays short however deep the checkout is. *)
let ensure_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let work_dir () =
  let d = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  ensure_out_dir ();
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Run [setup] at least [reps] times, and again while the repetitions so
   far took under [budget_s] seconds (up to [4 * reps] in all), tearing
   down all but the last instance; returns the last one and the median
   set-up time in seconds.  Cheap set-ups thus get enough samples for a
   steady median without a slow one stretching the run.  Each repetition
   starts from a collected heap, as the first one does. *)
let repeat_setup ~reps ~budget_s ~teardown setup =
  let t_start = now_ns () in
  let rec go k times =
    fresh_heap ();
    let t0 = now_ns () in
    let inst = setup () in
    let times = s_since t0 :: times in
    if k + 1 >= 4 * reps || (k + 1 >= reps && s_since t_start >= budget_s) then (inst, times)
    else begin
      teardown inst;
      go (k + 1) times
    end
  in
  let inst, times = go 0 [] in
  (inst, median times)

(* -- results ---------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* What one measured block of an end-to-end run hands back. *)
type e2e = {
  latencies_ms : float list;   (* one per completed operation *)
  op_time_s : float;           (* denominator of ops_per_s *)
  attempted : int;
  failures : string list;      (* one line per failed operation *)
  note : string;               (* workload-specific detail for the log *)
}

(* Median over a list, or 0 when the layer did no work in this workload. *)
let med_or_zero = function [] -> 0.0 | xs -> median xs

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* -- inputs ----------------------------------------------------------- *)

(* One random primary plant from the performance corpus mix.  The
   builder-spec template only builds cipher transformation strings (its
   documented precondition), so that shape is always paired with the
   cipher sink; with another sink its ground truth would be meaningless. *)
let cipher_if_builder (p : Appgen.Generator.plant_spec) =
  if p.Appgen.Generator.shape = Appgen.Shape.Builder_spec then
    { p with Appgen.Generator.sink = Framework.Sinks.cipher }
  else p

let primary_plant rng ~insecure_p =
  cipher_if_builder (Appgen.Corpus.random_plant rng ~insecure_p)

(* [n] primary plants whose shapes follow the performance corpus mix
   exactly (largest-remainder counts) in seeded order, with seeded sinks and
   flags: apps with the same plant count then cost about the same whatever
   the seed, where independent draws of a few rare, costly shapes would
   swing the cost from seed to seed. *)
let stratified_plants rng n ~insecure_p =
  let mix = Appgen.Corpus.performance_shape_mix in
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 mix in
  let quotas = List.map (fun (w, sh) -> (sh, w *. float_of_int n /. total)) mix in
  let floors = List.map (fun (sh, q) -> (sh, int_of_float q)) quotas in
  let missing = n - List.fold_left (fun acc (_, k) -> acc + k) 0 floors in
  let by_remainder =
    List.stable_sort
      (fun (_, a) (_, b) -> compare (b -. Float.of_int (truncate b)) (a -. Float.of_int (truncate a)))
      quotas
  in
  let bonus = List.filteri (fun i _ -> i < missing) by_remainder |> List.map fst in
  let shapes =
    Array.of_list
      (List.concat_map
         (fun (sh, k) -> List.init (k + if List.mem sh bonus then 1 else 0) (fun _ -> sh))
         floors)
  in
  for i = Array.length shapes - 1 downto 1 do
    let j = Appgen.Rng.int rng (i + 1) in
    let t = shapes.(i) in
    shapes.(i) <- shapes.(j);
    shapes.(j) <- t
  done;
  Array.to_list shapes
  |> List.map (fun shape ->
      cipher_if_builder
        { Appgen.Generator.shape;
          sink = Appgen.Corpus.weighted_choice rng Appgen.Corpus.primary_sink_mix;
          insecure = Appgen.Rng.bool rng insecure_p })
