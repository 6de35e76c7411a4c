(* The CLI's analyze output, as reusable strings.  The daemon renders its
   responses through these exact formats, so a served report is
   byte-identical to the one-shot CLI's (the wall-clock header line is the
   only varying part, and it varies between any two runs). *)

module D = Backdroid.Driver
module Sinks = Framework.Sinks

let analyzed_line ~app_name ~seconds (r : D.result) =
  Printf.sprintf "analyzed %s in %.6fs: %d sink calls" app_name seconds
    r.D.stats.D.sink_calls

let report_line (rep : D.sink_report) =
  Printf.sprintf "  [%s] %s at %s:%d reachable=%b fact=%s%s"
    (Backdroid.Detectors.verdict_to_string rep.D.verdict)
    rep.D.sink.Sinks.name
    (Ir.Jsig.meth_to_string rep.D.meth)
    rep.D.site rep.D.reachable
    (Backdroid.Facts.to_string rep.D.fact)
    (match rep.D.outcome with
     | Backdroid.Context.Complete -> ""
     | Backdroid.Context.Partial _ ->
       " [" ^ Backdroid.Context.outcome_to_string rep.D.outcome ^ "]")

let report_lines (r : D.result) = List.map report_line r.D.reports

let stats_line (r : D.result) =
  let s = r.D.stats in
  Printf.sprintf
    "stats: %d searches (%.1f%% cached), %d SSG nodes, %d SSG edges, %d \
     loops, %d partial sinks, %d replayed sinks, %d/7 index categories built"
    s.D.searches_total
    (100.0 *. s.D.search_cache_rate)
    s.D.ssg_nodes s.D.ssg_edges
    (Backdroid.Loopdetect.total s.D.loops)
    s.D.partial_sinks s.D.replayed_sinks s.D.index_categories_built

let render ~app_name ~seconds r =
  let b = Buffer.create 256 in
  Buffer.add_string b (analyzed_line ~app_name ~seconds r);
  Buffer.add_char b '\n';
  List.iter
    (fun l ->
       Buffer.add_string b l;
       Buffer.add_char b '\n')
    (report_lines r);
  Buffer.add_string b (stats_line r);
  Buffer.add_char b '\n';
  Buffer.contents b
