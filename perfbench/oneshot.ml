(* The measuring loop of the one-shot workloads (cold-oneshot and
   sink-dense-warm): ops run back to back on one thread, each from a
   collected heap, timed one at a time and checked against the generator's
   ground truth. *)

(* One prepared op.  Preparing (e.g. generating the app) happens before the
   op clock starts; [run] is exactly what is timed. *)
type op = {
  label : string;                        (* names the op in failure lines *)
  run : unit -> Backdroid.Driver.result;
  expected : Oracle.truth;
  probe : unit -> unit;  (* untimed per-layer extras, run after a traced op *)
}

type workload = {
  period : int;     (* inputs cycle with this period; runs end on whole cycles *)
  cursor : int ref; (* index of the next op; advances across blocks *)
  op_of : Spans.t option -> Layer.samples -> int -> op;
}

let run_one (acc : Layer.acc) ~lat op =
  Common.fresh_heap ();
  acc.Layer.attempted <- acc.Layer.attempted + 1;
  match Common.timed op.run with
  | r, ms ->
    lat := ms :: !lat;
    (match Oracle.check_truth ~expected:op.expected r with
     | Ok () -> ()
     | Error e -> Layer.fail acc (op.label ^ ": " ^ e))
  | exception e -> Layer.fail acc (op.label ^ ": " ^ Printexc.to_string e)

(* Run ops until [seconds] have passed and at least [min_ops] ran, ending
   on a whole input cycle so every input is equally represented. *)
let drive w ~seconds ~min_ops f =
  let t_end = Int64.add (Common.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let n = ref 0 in
  while Int64.compare (Common.now_ns ()) t_end < 0 || !n < min_ops || !n mod w.period <> 0 do
    f !(w.cursor);
    incr w.cursor;
    incr n
  done

let e2e w ~seconds ~min_ops =
  let acc = Layer.acc () and lat = ref [] and s = Layer.samples () in
  drive w ~seconds ~min_ops (fun i -> run_one acc ~lat (w.op_of None s i));
  { Common.latencies_ms = !lat;
    op_time_s = List.fold_left ( +. ) 0.0 !lat /. 1e3;
    attempted = acc.Layer.attempted;
    failures = List.rev acc.Layer.failures;
    note = "" }

(* Traced run: input cycles alternate untraced / traced, so the tracing
   overhead compares like with like. *)
let traced w ~seconds =
  let tr = Spans.create () and s = Layer.samples () and acc = Layer.acc () in
  let plain = ref [] and traced_ms = ref [] in
  drive w ~seconds ~min_ops:(2 * Common.min_samples_p90) (fun i ->
      if i / w.period mod 2 = 0 then run_one acc ~lat:plain (w.op_of None s i)
      else begin
        let op = w.op_of (Some tr) s i in
        run_one acc ~lat:traced_ms op;
        op.probe ()
      end);
  { Layer.spans = tr; samples = s; plain_ms = !plain; traced_ms = !traced_ms; acc }
