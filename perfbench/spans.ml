(* The traced run's span recorder.  Spans are taken by this benchmark
   around its calls into each layer's public functions — none come from
   inside the program — and kept in memory until the run ends.

   A span's layer is its name up to the first '.' ("dex.of_program" ->
   "dex").  Each operation is one root span named "op"; its self time (wall
   not covered by any layer span) is the unattributed residue. *)

type span = {
  id : int;
  parent : int;       (* -1 for a root *)
  req : int;          (* the operation's request id *)
  tid : int;          (* issuing client thread (served-mix), else 0 *)
  name : string;
  t0 : int64;         (* ns, monotonic *)
  t1 : int64;
}

type t = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let create () = { spans = []; next = 0; lock = Mutex.create () }

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

let push t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

(* Record an already-timed interval (e.g. a server-side time read back
   from a response); returns its id. *)
let add t ~req ~parent ?(tid = 0) name t0 t1 =
  let id = fresh_id t in
  push t { id; parent; req; tid; name; t0; t1 };
  id

(* [with_ tr ~req ~parent name f] runs [f id] inside a span when tracing
   ([tr = Some _]); [f] receives the span id to parent its children on.
   Untraced it is just [f (-1)]: no clock read, no allocation. *)
let with_ tr ~req ~parent ?(tid = 0) name f =
  match tr with
  | None -> f (-1)
  | Some t ->
    let id = fresh_id t in
    let t0 = Common.now_ns () in
    let r = f id in
    let t1 = Common.now_ns () in
    push t { id; parent; req; tid; name; t0; t1 };
    r

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let dur_ms s = Common.ms_of_ns (Int64.sub s.t1 s.t0)

let layers = [ "appgen"; "dex"; "search"; "core"; "store"; "serve" ]

(* Self time per layer summed over every "op" tree, the total op wall time,
   and the unattributed residue (op roots' own self time). *)
type attribution = {
  op_wall_ms : float;
  ops : int;
  self_ms : (string * float) list;   (* per layer, in [layers] order *)
  unattributed_ms : float;
}

let attribute t =
  let spans = t.spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let children_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         let prev = Option.value ~default:0.0 (Hashtbl.find_opt children_ms s.parent) in
         Hashtbl.replace children_ms s.parent (prev +. dur_ms s))
    spans;
  (* only spans that hang under an "op" root count *)
  let rec root s =
    if s.parent < 0 then Some s
    else Option.bind (Hashtbl.find_opt by_id s.parent) root
  in
  let self = Hashtbl.create 8 in
  let wall = ref 0.0 and ops = ref 0 and unattributed = ref 0.0 in
  List.iter
    (fun s ->
       match root s with
       | Some r when r.name = "op" ->
         let own =
           Float.max 0.0
             (dur_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt children_ms s.id))
         in
         if s.parent < 0 then begin
           wall := !wall +. dur_ms s;
           incr ops;
           unattributed := !unattributed +. own
         end
         else
           let l = layer_of s.name in
           Hashtbl.replace self l (own +. Option.value ~default:0.0 (Hashtbl.find_opt self l))
       | _ -> ())
    spans;
  { op_wall_ms = !wall;
    ops = !ops;
    self_ms = List.map (fun l -> (l, Option.value ~default:0.0 (Hashtbl.find_opt self l))) layers;
    unattributed_ms = !unattributed }

let share_metrics a =
  let pct x = 100.0 *. Common.ratio x a.op_wall_ms in
  List.map (fun (l, ms) -> Common.m ("share." ^ l ^ "_pct") "%" (pct ms)) a.self_ms
  @ [ Common.m "share.unattributed_pct" "%" (pct a.unattributed_ms) ]

(* -- artifacts -------------------------------------------------------- *)

(* Chrome trace-event export through the program's own exporter: one track
   per client thread, request and parent ids as span attributes. *)
let write_chrome t path =
  let origin =
    List.fold_left (fun acc s -> if Int64.compare s.t0 acc < 0 then s.t0 else acc)
      Int64.max_int t.spans
  in
  let us ns = Int64.to_float (Int64.sub ns origin) /. 1e3 in
  let spans =
    List.map
      (fun s ->
         { Obs.Span.cat = layer_of s.name; name = s.name; pid = 1; tid = s.tid;
           t0_us = us s.t0; t1_us = us s.t1;
           attrs = [ ("req", Obs.Span.Int s.req); ("id", Obs.Span.Int s.id);
                     ("parent", Obs.Span.Int s.parent) ] })
      t.spans
  in
  Obs.Chrome.write ~pid_names:[ (1, "perfbench") ] path spans

(* The per-layer table: self time per op and share of op wall time. *)
let write_layers a ~workload path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let per_op ms = Common.ratio ms (float_of_int a.ops) in
  let row (l, ms) =
    Printf.sprintf "    { %s, %s, %s }" (Obs.Jsonf.str_field "layer" l)
      (Obs.Jsonf.num_field ~dec:4 "self_ms_per_op" (per_op ms))
      (Obs.Jsonf.num_field ~dec:2 "share_pct" (100.0 *. Common.ratio ms a.op_wall_ms))
  in
  Printf.fprintf oc "{\n  %s,\n  %s,\n  %s,\n  \"layers\": [\n%s\n  ]\n}\n"
    (Obs.Jsonf.str_field "workload" workload)
    (Obs.Jsonf.int_field "ops" a.ops)
    (Obs.Jsonf.num_field ~dec:4 "op_wall_ms_per_op" (per_op a.op_wall_ms))
    (String.concat ",\n"
       (List.map row (a.self_ms @ [ ("unattributed", a.unattributed_ms) ])))
