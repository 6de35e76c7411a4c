(** Persisted per-sink analysis results with content-hash invalidation.

    One {!entry} caches one sink call site's backtracking + forward
    propagation outcome — reachability and the propagated sink-argument
    {!Facts.t} — stamped with its {e footprint}: the app classes the SSG
    slice touched.  Verdicts are not cached; they are recomputed per rule
    from the cached fact ({!Detectors.classify_rule} is pure), so replay
    is safe across rule-set changes.

    The cache records the app-wide class-hash table current when it was
    produced.  {!plan} diffs it against a new build's
    {!Dex.Classmap}; {!lookup} then serves an entry only when every
    footprint class is unchanged {e and} unreferenced by any changed or
    added class — the condition under which the slice provably reproduces
    (any caller/writer the backward search would find was visited and is
    in the footprint).  [Partial]-outcome slices are never cached (budget
    exhaustion may be wall-clock dependent).

    Serializes to an opaque [string array], stored in snapshot files via
    {!Store.Snapshot.save}'s [results] argument (the store does not
    interpret the strings; this module owns the format). *)

type entry = {
  e_sink_msig : string;   (** [Jsig.meth_to_string] of the sink signature *)
  e_param_index : int;
  e_meth : string;        (** containing method, [Jsig.meth_to_string] *)
  e_site : int;
  e_reachable : bool;
  e_fact : Facts.t;
  e_footprint : string list;  (** app classes the SSG slice touched *)
}

type t

val empty : t

(** [build ~classes entries] — [classes] is the app's (class name, IR hash)
    table at production time; entries failing the round-trip cacheability
    check are dropped at serialization time, not here. *)
val build : classes:(string * int64) array -> entry list -> t

val entries : t -> entry list
val length : t -> int

(** Serialize; entry 0 is the class-hash header.  Entries whose fact does
    not round-trip byte-identically (or contains a points-to cycle) are
    silently dropped — replay must be a pure function of the persisted
    bytes. *)
val to_strings : t -> string array

(** Parse; [Error] on any malformed record (callers treat it as an absent
    cache).  [of_strings [||]] is {!empty}. *)
val of_strings : string array -> (t, string) result

(** A replay plan: the cache diffed against one new build. *)
type plan

(** Diff [t]'s class-hash table against [dex]'s classmap, collecting the
    app classes that changed or added classes reference by operand.  A
    footprint class is then replay-safe when it is unchanged and not
    among them ({!lookup} checks).  With an empty classmap (no delta
    provenance) nothing is replayable. *)
val plan : t -> dex:Dex.Dexfile.t -> plan

(** The cached entry for this sink call site, iff its whole footprint is
    replay-safe. *)
val lookup :
  plan ->
  sink_msig:string ->
  param_index:int ->
  meth:string ->
  site:int ->
  entry option
