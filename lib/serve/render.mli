(** The CLI's analyze output as reusable strings (no trailing newline on
    the line functions).  The one-shot CLI and the daemon both print
    through these, which is what makes served reports byte-identical to
    one-shot reports. *)

(** ["analyzed <app> in <t>s: <n> sink calls"], [<t>] in seconds to the
    microsecond. *)
val analyzed_line :
  app_name:string -> seconds:float -> Backdroid.Driver.result -> string

(** ["  [<verdict>] <sink> at <meth>:<site> reachable=<b> fact=<f>"] plus
    a budget-exhaustion marker for partial slices. *)
val report_line : Backdroid.Driver.sink_report -> string

val report_lines : Backdroid.Driver.result -> string list

(** ["stats: <n> searches (...), ..."]. *)
val stats_line : Backdroid.Driver.result -> string

(** The full analyze transcript: header, one line per report, stats —
    each newline-terminated. *)
val render :
  app_name:string -> seconds:float -> Backdroid.Driver.result -> string
