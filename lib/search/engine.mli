(** The bytecode search engine: executes typed queries over the dexdump
    plaintext, returning hits mapped back to their enclosing methods, with
    query-level caching (Sec. IV-F).

    Three execution modes:
    - {b lazy indexed} (default): per-category postings — operand symbol id
      to sorted int-array of slots in the dexfile's hit {!Dex.Arena} — each
      built on the first query of that category, double-checked under a
      build mutex.  Categories never queried are never built.
    - {b eager indexed} ([eager:true]): all seven categories built at
      construction, sharded over a {!Parallel.Pool.t} when one is given.
      Kept for ablation and for front-loading the cost.
    - {b scan} ([indexed:false]): every query scans every line, like the
      paper's prototype shelling out to grep — the search-cost ablation
      baseline.

    All three return identical hits for every query (the property tests
    check this), so mode choice is purely a performance decision. *)

(** One matching plaintext line, materialised from an arena slot only when a
    query returns it.  Its text stays in the blob: see {!hit_text}. *)
type hit = {
  line_no : int;              (** position in the merged dex plaintext *)
  owner : Ir.Jsig.meth;       (** enclosing method of the matching line *)
  owner_cls : string;         (** enclosing class *)
  stmt_idx : int option;      (** IR statement index, when the line is an
                                  instruction *)
}

type t

(** One category's postings in packed CSR form — the serialization boundary
    between the engine and the snapshot store.  [keys] holds the strictly
    ascending operand symbol ids; key [k]'s slots are strictly ascending in
    arena order.  Two bodies share the shape: [Flat] random-access slot
    vectors (in-process builds, v1 snapshots) and [Coded] per-key compressed
    runs — varint deltas or bitmap words, see {!Postcodec} — decoded on
    demand (v2 snapshots).  All vectors are off-heap; the flat layout is
    deterministic: sequential, pool-sharded and snapshot-loaded builds of
    the same arena are byte-identical. *)
module Packed : sig
  type body = Flat of Ivec.t | Coded of Bvec.t

  type t = { keys : Ivec.t; offsets : Ivec.t; body : body }

  val n_slots : t -> int
  val n_keys : t -> int

  (** Slot count of key index [k] — O(1) for both bodies. *)
  val count : t -> int -> int

  (** Apply [f] to each slot of key index [k], ascending. *)
  val iter_key : t -> int -> (int -> unit) -> unit

  (** Payload size in bytes (mapped or heap-side). *)
  val bytes : t -> int

  (** Decode to a [Flat] body; identity when already flat. *)
  val to_flat : t -> t
end

(** Build an engine over a disassembled app.  [indexed] (default true)
    selects the postings-backed mode; [eager] (default false) builds all
    postings categories up front instead of on first use.  [pool] shards
    eager construction across the pool's domains (per-domain slices of the
    hit arena built into domain-local tables, then merged in slice order);
    the resulting postings are identical to the sequential build.  Lazy
    builds are always sequential — they can trigger inside pool tasks, where
    sharding over the same pool could re-enter the engine's locks (see
    engine.ml).  Queries against the engine are safe from multiple domains:
    the query cache is mutex-guarded and hit/miss counters are
    scheduling-independent. *)
val create :
  ?indexed:bool -> ?eager:bool -> ?pool:Parallel.Pool.t -> Dex.Dexfile.t -> t

(** All seven categories in packed form, in category order, building any not
    yet built (sharded over the engine's pool when it has one) — the
    snapshot save path. *)
val export_packed : t -> Packed.t array

(** An indexed engine whose postings are installed wholesale — the snapshot
    load and delta-patch paths.  The array must hold one table per category,
    in category order.  {!index_mode} reports [mode] (default
    ["snapshot"]; {!Store.Snapshot}'s delta path passes ["delta"]). *)
val create_packed : ?mode:string -> Dex.Dexfile.t -> Packed.t array -> t

(** [iter_slot_postings dex slot f] calls [f c key] for every category [c]
    (an index into {!export_packed}) and key (a [Sym.id]) under which arena
    slot [slot] is posted — the rule every postings build follows, exposed
    for the delta path's patch of re-rendered classes. *)
val iter_slot_postings : Dex.Dexfile.t -> int -> (int -> int -> unit) -> unit

(** The program the engine's dexfile was disassembled from — the "program
    analysis space" paired with this "bytecode search space". *)
val program : t -> Ir.Program.t

(** The dexfile the engine searches (the snapshot save path serializes its
    text blob and arena alongside the packed postings). *)
val dexfile : t -> Dex.Dexfile.t

(** Stamp the engine with the content hash of the rule set about to drive
    its searches.  [`First] on a fresh engine, [`Same] when the hash matches
    the previous stamp, [`Changed] when it differs — in which case the query
    cache has been flushed, so no search state crosses rule sets. *)
val note_ruleset : t -> int -> [ `First | `Same | `Changed ]

(** The rule-set hash last stamped on this engine, if any. *)
val ruleset_stamp : t -> int option

(** The raw text of a hit's line, read from the engine's text blob (the
    analysis never needs it; tools that print hits do). *)
val hit_text : t -> hit -> string

(** Execute a query, consulting the query cache first. *)
val run : t -> Query.t -> hit list

(** Execute a query bypassing the query cache (used by the ablation
    benchmarks to measure raw query cost).  Still builds lazy postings on
    first use. *)
val run_uncached : t -> Query.t -> hit list

(** [run_conj t (primary :: conjuncts)] is [run t primary] restricted to
    hits whose enclosing method also matches every conjunct — "methods that
    invoke [X] and reference [Y]".  The result is order-independent; the
    planner evaluates conjuncts rarest-first (ascending O(1) postings
    count, [Raw] and scan-mode queries last) and short-circuits to [[]] on
    the first empty owner intersection, skipping the denser lists and the
    primary itself.  [run_conj t []] is [[]]; [run_conj t [q]] is
    [run t q]. *)
val run_conj : t -> Query.t list -> hit list

(** ["scan"], ["lazy"], ["eager"], ["snapshot"] or ["delta"]. *)
val index_mode : t -> string

(** Number of postings categories built so far (0-7).  Lazy engines build
    strictly fewer than eager ones unless every category was queried. *)
val built_categories : t -> int

(** Bytes held by the postings built so far (mapped or heap-side) — lets
    the bench compare v1 flat-slot and v2 packed footprints. *)
val postings_footprint : t -> int

(** Per-category postings build cost: [(category name, µs)] for each
    category built so far, in category order. *)
val index_build_timings : t -> (string * float) list

(** Fraction of search commands served from the cache, in [0, 1]. *)
val cache_rate : t -> float

val total_searches : t -> int
val cached_searches : t -> int

(** The calling domain's cumulative query-issue counters
    ({!Cache.local_counts}) — deltas around a slice feed its provenance
    ledger. *)
val local_counts : unit -> Cache.local_counts

(** Per-category totals: (category, total searches, cache hits). *)
val category_stats : t -> (Query.category * int * int) list

(** Per-category accumulated compute cost: µs spent computing this
    category's cache misses (hits cost nothing). *)
val category_timings : t -> (Query.category * float) list
