(* Correctness oracles, checked on every operation.

   Ground truth: the insecure, entry-reachable findings of an analysis must
   be exactly the generator's planted flows with [insecure && reachable],
   matched by sink API and the class whose code holds the sink call, and no
   slice may end [Partial].

   Report lines: a served analysis must render the same per-sink report
   lines as a one-shot analysis of the same spec and version (the
   "analyzed ... in Ns" header carries wall time and is excluded). *)

module D = Backdroid.Driver
module T = Appgen.Templates

type truth = (string * string) list   (* sorted (sink name, sink class) *)

let truth_of_planted (planted : T.planted list) : truth =
  List.filter_map
    (fun (p : T.planted) ->
       if p.T.insecure && p.T.reachable then
         Some (p.T.sink.Framework.Sinks.name, p.T.sink_class)
       else None)
    planted
  |> List.sort compare

(* The oracle's own self-test: flip the verdict of one reachable planted
   flow, so a correct analysis must now disagree with the expectation. *)
let break_planted (planted : T.planted list) =
  let flipped = ref false in
  List.map
    (fun (p : T.planted) ->
       if (not !flipped) && p.T.reachable then begin
         flipped := true;
         { p with T.insecure = not p.T.insecure }
       end
       else p)
    planted

let findings (r : D.result) : truth =
  List.map
    (fun (rep : D.sink_report) ->
       (rep.D.sink.Framework.Sinks.name, rep.D.meth.Ir.Jsig.cls))
    (D.insecure_reports r)
  |> List.sort compare

let show (t : truth) =
  "[" ^ String.concat "; " (List.map (fun (s, c) -> s ^ "@" ^ c) t) ^ "]"

let check_truth ~expected (r : D.result) =
  let partial =
    List.exists (fun (rep : D.sink_report) -> rep.D.outcome <> Backdroid.Context.Complete)
      r.D.reports
  in
  if partial then Error "partial slice outcome"
  else
    let got = findings r in
    if got = expected then Ok ()
    else Error (Printf.sprintf "findings %s <> planted %s" (show got) (show expected))

(* The report lines of a rendered analyze transcript: everything between
   the header line and the trailing stats line. *)
let report_lines_of_text text =
  match String.split_on_char '\n' text with
  | [] -> []
  | _header :: rest ->
    List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"stats:" l)) rest

let check_lines ~expected text =
  let got = report_lines_of_text text in
  if got = expected then Ok ()
  else
    Error
      (Printf.sprintf "served report (%d lines) differs from one-shot (%d lines)"
         (List.length got) (List.length expected))

(* Corrupt one expected report line (the oracle's own self-test). *)
let break_lines = function
  | [] -> [ "  [insecure] (none)" ]
  | l :: rest -> (l ^ " (altered)") :: rest
