(** The bytecode search engine: executes typed queries over the dexdump
    plaintext, returning hits mapped back to their enclosing methods, with
    query-level caching.

    Indexed mode answers queries from per-category postings: for each of the
    seven searchable categories, a packed CSR triple — ascending operand
    symbol ids, offsets, and slot runs into the dexfile's hit {!Dex.Arena},
    all off-heap {!Ivec.t}s.  Postings are built from the arena's interned
    operand columns, which the disassembler fills — no text re-parsing — and
    hit records are materialised only for slots a query actually returns.
    The packed layout is deterministic (keys sorted by symbol id, slots in
    arena order), so a sharded build, a sequential build and a snapshot load
    produce byte-identical tables; {!export_packed}/{!create_packed} are the
    snapshot subsystem's serialization boundary.

    By default each category's postings build lazily on the first query of
    that category (double-checked under a build mutex), so an analysis that
    never issues, say, a [Const_class] query never pays for that table.
    Eager mode ([eager:true], kept for ablation and for front-loading the
    cost) builds all seven at construction time, sharded over a
    {!Parallel.Pool.t} when one is given.

    Lazy builds are deliberately sequential even when the engine holds a
    pool: a lazy build can trigger inside a pool task (the per-sink fan-out)
    while the cache and build mutexes are held, and sharding the build over
    the same pool would let the builder's help-drain pop a foreign task that
    re-enters those mutexes on the builder's own thread.  Eager create-time
    builds shard safely — no task that could touch this engine's locks
    exists before [create] returns.  The arena makes the sequential build a
    single pass over unboxed int vectors, so laziness, not sharding, is
    where the time goes. *)

type hit = {
  line_no : int;
  owner : Ir.Jsig.meth;     (** enclosing method of the matching line *)
  owner_cls : string;
  stmt_idx : int option;
}

(* Engine category indices.  0-3 coincide with the arena's category codes;
   field_ops is the union of instance and static field accesses (an
   [Field_access] query must see sget/sput lines too). *)
let cat_invocations = 0
let cat_new_instances = 1
let cat_const_classes = 2
let cat_const_strings = 3
let cat_field_ops = 4
let cat_static_field_ops = 5
let cat_class_tokens = 6
let n_categories = 7

let category_name = function
  | 0 -> "invocations"
  | 1 -> "new_instances"
  | 2 -> "const_classes"
  | 3 -> "const_strings"
  | 4 -> "field_ops"
  | 5 -> "static_field_ops"
  | 6 -> "class_tokens"
  | _ -> invalid_arg "Engine.category_name"

module Packed = struct
  (** One category's postings in CSR form: [keys] is the strictly ascending
      operand symbol ids; key [k]'s slots are strictly ascending arena
      slots.  Two bodies share the shape:

      - [Flat slots]: [offsets] are slot indices and key [k]'s run is
        [slots.(offsets.(k) .. offsets.(k+1)-1)] — what in-process builds
        produce and what v1 snapshots map.
      - [Coded data]: [offsets] are byte offsets into [data], each run
        compressed by {!Postcodec} (varint deltas for sparse keys, bitmap
        words for dense ones) and decoded on demand by {!iter_key} — what
        v2 snapshots map, several times smaller on disk and walked
        sequentially instead of 8 bytes per slot.

      All vectors live off the OCaml heap; a snapshot load aliases them to
      mmapped file sections. *)
  type body = Flat of Ivec.t | Coded of Bvec.t

  type t = { keys : Ivec.t; offsets : Ivec.t; body : body }

  let n_keys t = Ivec.length t.keys

  (** Slot count of key index [k] — O(1) for both bodies (the coded run
      leads with its count), which is what lets the query planner order
      lookups rarest-first without decoding anything. *)
  let count t k =
    match t.body with
    | Flat _ -> Ivec.get t.offsets (k + 1) - Ivec.get t.offsets k
    | Coded b -> Postcodec.count b ~pos:(Ivec.get t.offsets k)

  (** Apply [f] to each slot of key index [k], ascending. *)
  let iter_key t k f =
    match t.body with
    | Flat slots ->
      let hi = Ivec.get t.offsets (k + 1) in
      for i = Ivec.get t.offsets k to hi - 1 do
        f (Ivec.unsafe_get slots i)
      done
    | Coded b -> Postcodec.iter b ~pos:(Ivec.get t.offsets k) f

  let n_slots t =
    match t.body with
    | Flat slots -> Ivec.length slots
    | Coded _ ->
      let total = ref 0 in
      for k = 0 to n_keys t - 1 do
        total := !total + count t k
      done;
      !total

  (** In-memory footprint in bytes (mapped or heap-side). *)
  let bytes t =
    ((Ivec.length t.keys + Ivec.length t.offsets) * 8)
    + (match t.body with
       | Flat slots -> Ivec.length slots * 8
       | Coded b -> Bvec.length b)

  (** Decode to a [Flat] body (identity when already flat) — the symbol-id
      remap path and v1 saves need random-access slot vectors. *)
  let to_flat t =
    match t.body with
    | Flat _ -> t
    | Coded _ ->
      let nk = n_keys t in
      let offsets = Ivec.create (nk + 1) in
      Ivec.set offsets 0 0;
      let total = ref 0 in
      for k = 0 to nk - 1 do
        total := !total + count t k;
        Ivec.set offsets (k + 1) !total
      done;
      let slots = Ivec.create !total in
      let pos = ref 0 in
      for k = 0 to nk - 1 do
        iter_key t k (fun slot ->
            Ivec.set slots !pos slot;
            incr pos)
      done;
      { keys = t.keys; offsets; body = Flat slots }
end

type postings = Packed.t

type t = {
  dex : Dex.Dexfile.t;
  cache : hit Cache.t;
  pool : Parallel.Pool.t option;  (** used only by eager create-time builds *)
  indexed : bool;
  eager : bool;
  load_mode : string option;
      (** postings installed wholesale (a snapshot load or delta patch):
          the label {!index_mode} reports; [None] = built in-process *)
  tables : postings option Atomic.t array;  (** one slot per category *)
  build_us : float array;  (** per-category build cost, set under the lock *)
  build_lock : Mutex.t;
  ruleset : int option Atomic.t;
      (** content hash of the rule set this engine last searched under *)
}

(* ------------------------------------------------------------------ *)
(* Postings construction                                               *)

(* A deterministic two-pass counting sort over arena slots.  Round 1 counts
   postings per operand sym id (per shard when pooled); the sequential merge
   lays out the CSR keys/offsets and per-shard write cursors; round 2
   writes each shard's slots into its disjoint region.  Slots ascend within
   a shard and shard regions follow slice order, so every key's run is
   strictly ascending, and the packed bytes — keys ascending by sym id,
   slots in arena order — are identical for sequential, sharded and
   snapshot-loaded builds.  No per-posting allocation: the old bucket lists
   (a cons per posting plus a hashtable probe per slot) made invocations,
   the densest category, several times slower than the sparse ones. *)

(* Growable dense counter indexed by sym id; [maxk] bounds the occupied
   prefix the merge walks.  Growth matters only for class tokens, which can
   meet token symbols beyond the arena's operand ids. *)
type counts = { mutable c : int array; mutable maxk : int }

let counts_create () =
  { c = Array.make (max 64 (Sym.interned ())) 0; maxk = -1 }

let counts_bump cnt k =
  if k >= Array.length cnt.c then begin
    let nb = Array.make (max (k + 1) (2 * Array.length cnt.c)) 0 in
    Array.blit cnt.c 0 nb 0 (Array.length cnt.c);
    cnt.c <- nb
  end;
  if k > cnt.maxk then cnt.maxk <- k;
  Array.unsafe_set cnt.c k (Array.unsafe_get cnt.c k + 1)

let cat_member c =
  if c = cat_field_ops then fun k ->
    k = Dex.Arena.cat_field || k = Dex.Arena.cat_static_field
  else if c = cat_static_field_ops then fun k -> k = Dex.Arena.cat_static_field
  else fun k -> k = c

(* A slot's class tokens: a keyed line renders its tokens only inside its
   operand (the text before the final ", " is mnemonics and registers), so
   the memoized operand tokenization covers it; an unkeyed line (check-cast,
   new-array, ...) tokenizes its own text.  Round 1 caches them per slot
   for round 2. *)
let slot_tokens (dex : Dex.Dexfile.t) slot =
  let a = dex.arena in
  let sym = Ivec.unsafe_get a.Dex.Arena.sym slot in
  if sym >= 0 then Dex.Tokens.of_operand (Sym.unsafe_of_id sym)
  else Dex.Tokens.of_line dex.texts (Ivec.unsafe_get a.Dex.Arena.line_idx slot)

let iter_slot_postings (dex : Dex.Dexfile.t) slot f =
  let k = Ivec.get dex.arena.Dex.Arena.cat slot in
  if k <> Dex.Arena.cat_none then
    for c = 0 to cat_class_tokens - 1 do
      if cat_member c k then f c (Ivec.get dex.arena.Dex.Arena.sym slot)
    done;
  Array.iter (fun tok -> f cat_class_tokens (Sym.id tok)) (slot_tokens dex slot)

let shard_count (dex : Dex.Dexfile.t) c ~lo ~hi =
  let a : Dex.Arena.t = dex.arena in
  let cnt = counts_create () in
  if c = cat_class_tokens then begin
    let toks = Array.init (hi - lo) (fun j -> slot_tokens dex (lo + j)) in
    Array.iter (Array.iter (fun tok -> counts_bump cnt (Sym.id tok))) toks;
    (cnt, toks)
  end
  else begin
    let member = cat_member c in
    for slot = lo to hi - 1 do
      if member (Ivec.unsafe_get a.cat slot) then
        counts_bump cnt (Ivec.unsafe_get a.sym slot)
    done;
    (cnt, [||])
  end

(* [cursor.(k)] is this shard's next write position for key [k] (absolute
   into [slots]); fills advance it monotonically. *)
let shard_fill (dex : Dex.Dexfile.t) c ~lo ~hi ~cursor ~slots toks =
  let a : Dex.Arena.t = dex.arena in
  let put k slot =
    let p = Array.unsafe_get cursor k in
    Ivec.set slots p slot;
    Array.unsafe_set cursor k (p + 1)
  in
  if c = cat_class_tokens then
    for slot = lo to hi - 1 do
      Array.iter (fun tok -> put (Sym.id tok) slot) toks.(slot - lo)
    done
  else begin
    let member = cat_member c in
    for slot = lo to hi - 1 do
      if member (Ivec.unsafe_get a.cat slot) then
        put (Ivec.unsafe_get a.sym slot) slot
    done
  end

(* Shards below this size are not worth the merge traffic. *)
let min_shard_slots = 2048

let build_postings ?pool dex c =
  let n = Dex.Arena.length dex.Dex.Dexfile.arena in
  let chunks =
    match pool with
    | Some pool
      when Parallel.Pool.is_active pool
           && Parallel.Pool.jobs pool > 1
           && n >= 2 * min_shard_slots ->
      min (Parallel.Pool.jobs pool) (max 1 (n / min_shard_slots))
    | Some _ | None -> 1
  in
  let ranges =
    Array.init chunks (fun i ->
        (i * n / chunks, (i + 1) * n / chunks))
  in
  let map f args =
    match pool with
    | Some pool when chunks > 1 -> Parallel.Pool.parallel_map pool f args
    | Some _ | None -> Array.map f args
  in
  (* round 1: per-shard counts *)
  let counted =
    map (fun (lo, hi) -> shard_count dex c ~lo ~hi) ranges
  in
  let maxk = Array.fold_left (fun m (cnt, _) -> max m cnt.maxk) (-1) counted in
  let total = Array.make (maxk + 1) 0 in
  Array.iter
    (fun (cnt, _) ->
       for k = 0 to cnt.maxk do
         total.(k) <- total.(k) + Array.unsafe_get cnt.c k
       done)
    counted;
  (* CSR layout: keys ascending by sym id, offsets from the running total *)
  let nk = ref 0 in
  for k = 0 to maxk do
    if total.(k) > 0 then incr nk
  done;
  let keys_v = Ivec.create !nk in
  let offsets = Ivec.create (!nk + 1) in
  Ivec.set offsets 0 0;
  (* [running.(k)]: absolute write position of key [k]'s next unwritten
     slot; starts at the key's offset, advanced per shard below *)
  let running = Array.make (maxk + 1) 0 in
  let ki = ref 0 and pos = ref 0 in
  for k = 0 to maxk do
    if total.(k) > 0 then begin
      Ivec.set keys_v !ki k;
      running.(k) <- !pos;
      pos := !pos + total.(k);
      Ivec.set offsets (!ki + 1) !pos;
      incr ki
    end
  done;
  let slots = Ivec.create !pos in
  (* round 2: each shard writes its disjoint region per key *)
  let fills =
    Array.mapi
      (fun i (lo, hi) ->
         let cnt, toks = counted.(i) in
         let cursor = Array.copy running in
         for k = 0 to cnt.maxk do
           running.(k) <- running.(k) + Array.unsafe_get cnt.c k
         done;
         (lo, hi, cursor, toks))
      ranges
  in
  ignore
    (map
       (fun (lo, hi, cursor, toks) ->
          shard_fill dex c ~lo ~hi ~cursor ~slots toks)
       fills);
  { Packed.keys = keys_v; offsets; body = Packed.Flat slots }

let m_builds = Obs.Metrics.counter "search.postings.builds"
let m_slots = Obs.Metrics.counter "search.postings.slots"
let m_bytes = Obs.Metrics.counter "search.postings.bytes"

(* Double-checked lazy build.  [pool] is passed only from eager create-time
   builds; lazy builds run sequentially (see the module comment). *)
let ensure_category ?pool t c =
  match Atomic.get t.tables.(c) with
  | Some p -> p
  | None ->
    Mutex.lock t.build_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.build_lock) (fun () ->
        match Atomic.get t.tables.(c) with
        | Some p -> p
        | None ->
          let span0 = Obs.Span.start () in
          let t0 = Unix.gettimeofday () in
          let p = build_postings ?pool t.dex c in
          t.build_us.(c) <- (Unix.gettimeofday () -. t0) *. 1e6;
          Obs.Metrics.incr m_builds;
          Obs.Metrics.add m_slots (Packed.n_slots p);
          Obs.Metrics.add m_bytes (Packed.bytes p);
          Obs.Span.emit ~cat:"search" ~name:("build:" ^ category_name c)
            ~attrs:[ ("keys", Obs.Span.Int (Packed.n_keys p));
                     ("slots", Obs.Span.Int (Packed.n_slots p)) ]
            span0;
          Atomic.set t.tables.(c) (Some p);
          p)

let create ?(indexed = true) ?(eager = false) ?pool dex =
  let t =
    { dex; cache = Cache.create (); pool; indexed; eager = indexed && eager;
      load_mode = None;
      tables = Array.init n_categories (fun _ -> Atomic.make None);
      build_us = Array.make n_categories 0.0;
      build_lock = Mutex.create ();
      ruleset = Atomic.make None }
  in
  if t.eager then
    for c = 0 to n_categories - 1 do
      ignore (ensure_category ?pool t c)
    done;
  t

(** All seven categories in packed form, building any not yet built — the
    snapshot subsystem's save-side view of the index. *)
let export_packed t =
  Array.init n_categories (fun c -> ensure_category ?pool:t.pool t c)

(** An engine whose postings were installed wholesale (a snapshot load or a
    delta patch) rather than built from the arena.  Queries behave exactly
    as in indexed mode; {!index_mode} reports [mode] (default
    ["snapshot"]; the delta path passes ["delta"]). *)
let create_packed ?(mode = "snapshot") dex tables =
  if Array.length tables <> n_categories then
    invalid_arg "Engine.create_packed: expected one table per category";
  { dex; cache = Cache.create (); pool = None; indexed = true; eager = false;
    load_mode = Some mode;
    tables = Array.map (fun p -> Atomic.make (Some p)) tables;
    build_us = Array.make n_categories 0.0;
    build_lock = Mutex.create ();
    ruleset = Atomic.make None }

let program t = t.dex.Dex.Dexfile.program
let dexfile t = t.dex

(** Stamp the engine with the content hash of the rule set about to drive
    its searches.  An engine reused under a {e different} rule set gets its
    query cache flushed — cached search results are query-keyed and so
    rule-set-independent, but flushing guarantees no state computed under
    one rule set is ever consulted under another (and keeps the cache-rate
    statistics honest across [--rules] switches on a shared engine). *)
let note_ruleset t hash =
  let rec loop () =
    match Atomic.get t.ruleset with
    | None ->
      if Atomic.compare_and_set t.ruleset None (Some hash) then `First
      else loop ()
    | Some prev when prev = hash -> `Same
    | Some _ as prev ->
      if Atomic.compare_and_set t.ruleset prev (Some hash) then begin
        Cache.flush t.cache;
        `Changed
      end
      else loop ()
  in
  loop ()

let ruleset_stamp t = Atomic.get t.ruleset

let hit_text t h = Dex.Dexfile.line_text t.dex h.line_no

(* ------------------------------------------------------------------ *)
(* Scan mode                                                           *)

(* Hits are materialised per returned slot — the postings themselves hold
   only ints. *)
let hit_of_slot t slot =
  let a : Dex.Arena.t = t.dex.Dex.Dexfile.arena in
  let line_no = Ivec.get a.line_idx slot in
  let oid = Ivec.get a.owner_id slot in
  { line_no;
    owner = a.owners.(oid);
    owner_cls = a.owner_cls.(oid);
    stmt_idx =
      (let s = Ivec.get a.stmt_idx slot in if s < 0 then None else Some s) }

(* Opcode prefix check: instruction lines look like
   "    0004: invoke-virtual {...}, ...", so the prefix sits after the
   address tag; read straight from the blob. *)
let starts_with_opcode store i ~prefixes =
  match Dex.Textstore.index_char store i ':' with
  | -1 -> false
  | colon ->
    let rest_start = colon + 2 in
    List.exists
      (fun p -> Dex.Textstore.starts_with store i ~pos:rest_start ~prefix:p)
      prefixes

(* One skip-search pass over the text blob finds the candidate lines
   (allocating nothing); instruction lines among them — those with an arena
   slot, found by a cursor since both ascend — pay the opcode-prefix check
   and hit materialization. *)
let scan t ~prefixes ~pat ~filter =
  let acc = ref [] in
  let store = t.dex.Dex.Dexfile.texts in
  let line_idx = t.dex.Dex.Dexfile.arena.Dex.Arena.line_idx in
  let n_slots = Ivec.length line_idx in
  let slot = ref 0 in
  Dex.Textstore.iter_matches store ~pat (fun i ->
      while !slot < n_slots && Ivec.unsafe_get line_idx !slot < i do
        incr slot
      done;
      if
        !slot < n_slots
        && Ivec.unsafe_get line_idx !slot = i
        && (prefixes = [] || starts_with_opcode store i ~prefixes)
      then begin
        let h = hit_of_slot t !slot in
        if filter h then acc := h :: !acc
      end);
  List.rev !acc

(* Operand patterns are the symbol's text behind a ", " separator.  The
   rendering is interned once per distinct symbol via [Sym.memo] — the old
   per-query [", " ^ Sym.to_string s] re-allocated the pattern under every
   cache miss, which the scan path (and the residual scans of snapshot
   engines) pays for on each uncached query. *)
let comma_pat =
  Sym.memo ~hash:Sym.hash ~equal:Sym.equal (fun s -> ", " ^ Sym.to_string s)

let scan_uncached t (q : Query.t) =
  match q with
  | Invocation s ->
    scan t ~prefixes:[ "invoke-" ] ~pat:(Sym.to_string (comma_pat s))
      ~filter:(fun _ -> true)
  | New_instance s ->
    scan t ~prefixes:[ "new-instance" ] ~pat:(Sym.to_string (comma_pat s))
      ~filter:(fun _ -> true)
  | Const_class s ->
    scan t ~prefixes:[ "const-class" ] ~pat:(Sym.to_string (comma_pat s))
      ~filter:(fun _ -> true)
  | Const_string s ->
    (* the payload is already the quoted literal *)
    scan t ~prefixes:[ "const-string" ] ~pat:(Sym.to_string s)
      ~filter:(fun _ -> true)
  | Field_access s ->
    scan t ~prefixes:[ "iget"; "iput"; "sget"; "sput" ]
      ~pat:(Sym.to_string (comma_pat s)) ~filter:(fun _ -> true)
  | Static_field_access s ->
    scan t ~prefixes:[ "sget"; "sput" ] ~pat:(Sym.to_string (comma_pat s))
      ~filter:(fun _ -> true)
  | Class_use s ->
    let cls = Sym.to_string s in
    let subject = Dex.Descriptor.class_of_desc cls in
    scan t ~prefixes:[] ~pat:cls
      ~filter:(fun h -> not (String.equal h.owner_cls subject))
  | Raw pat -> scan t ~prefixes:[] ~pat ~filter:(fun _ -> true)

(* ------------------------------------------------------------------ *)
(* Indexed mode                                                        *)

let query_category : Query.t -> int option = function
  | Invocation _ -> Some cat_invocations
  | New_instance _ -> Some cat_new_instances
  | Const_class _ -> Some cat_const_classes
  | Const_string _ -> Some cat_const_strings
  | Field_access _ -> Some cat_field_ops
  | Static_field_access _ -> Some cat_static_field_ops
  | Class_use _ -> Some cat_class_tokens
  | Raw _ -> None  (* free-form searches always scan *)

let hits_of_sym t (p : postings) sym =
  match Ivec.find_sorted p.Packed.keys (Sym.id sym) with
  | -1 -> []
  | k ->
    let acc = ref [] in
    Packed.iter_key p k (fun slot -> acc := hit_of_slot t slot :: !acc);
    List.rev !acc

let indexed_lookup t c (q : Query.t) =
  let p = ensure_category t c in
  match q with
  | Invocation s | New_instance s | Const_class s | Const_string s
  | Field_access s | Static_field_access s -> hits_of_sym t p s
  | Class_use s ->
    let subject = Dex.Descriptor.class_of_desc (Sym.to_string s) in
    List.filter
      (fun h -> not (String.equal h.owner_cls subject))
      (hits_of_sym t p s)
  | Raw _ -> assert false  (* query_category returned None *)

let run_uncached t q =
  if not t.indexed then scan_uncached t q
  else
    match query_category q with
    | Some c -> indexed_lookup t c q
    | None -> scan_uncached t q

(** Execute a query, consulting the query cache first. *)
let run t q = Cache.find_or_add t.cache q (fun () -> run_uncached t q)

(* ------------------------------------------------------------------ *)
(* Rarest-first query planner                                          *)

module Meth_tbl = Ir.Jsig.Meth_tbl

let m_conj = Obs.Metrics.counter "search.plan.conjunctions"
let m_conj_shortcircuit = Obs.Metrics.counter "search.plan.shortcircuits"

let query_sym : Query.t -> Sym.t option = function
  | Invocation s | New_instance s | Const_class s | Const_string s
  | Field_access s | Static_field_access s | Class_use s -> Some s
  | Raw _ -> None

(* Planning estimate: the postings slot count of the query's key — O(1)
   off the packed count headers, no decode, no hit materialization.  [Raw]
   queries (and every query on a scan-mode engine) cost a full text scan,
   which dwarfs any postings walk, so they sort last. *)
let postings_count t (q : Query.t) =
  match query_category q, query_sym q with
  | Some c, Some s when t.indexed ->
    let p = ensure_category t c in
    (match Ivec.find_sorted p.Packed.keys (Sym.id s) with
     | -1 -> 0
     | k -> Packed.count p k)
  | _ -> max_int

(* The owner methods with at least one hit for [q].  On indexed engines
   this walks the query's packed run and dedupes owner ids — no hit
   records, no line text; on scan engines it falls back to the hits. *)
let owners_of_query t (q : Query.t) =
  let tbl : unit Meth_tbl.t = Meth_tbl.create 64 in
  let a : Dex.Arena.t = t.dex.Dex.Dexfile.arena in
  let add_slot keep_cls slot =
    let oid = Ivec.get a.owner_id slot in
    if keep_cls a.owner_cls.(oid) then
      Meth_tbl.replace tbl a.owners.(oid) ()
  in
  (match query_category q, query_sym q with
   | Some c, Some s when t.indexed ->
     let p = ensure_category t c in
     (match Ivec.find_sorted p.Packed.keys (Sym.id s) with
      | -1 -> ()
      | k ->
        let keep_cls =
          match q with
          | Class_use s ->
            let subject = Dex.Descriptor.class_of_desc (Sym.to_string s) in
            fun cls -> not (String.equal cls subject)
          | _ -> fun _ -> true
        in
        Packed.iter_key p k (add_slot keep_cls))
   | _ ->
     List.iter (fun h -> Meth_tbl.replace tbl h.owner ()) (run t q));
  tbl

(** [run_conj t (primary :: conjuncts)] is [run t primary] restricted to
    hits whose enclosing method also matches {e every} conjunct — "methods
    that invoke [X] and reference [Y]".  The result is independent of
    evaluation order, so the planner is free to evaluate conjuncts in
    ascending postings-count order (rarest first) and to stop at the first
    empty intersection without touching the remaining — usually densest —
    postings lists, or the primary itself. *)
let run_conj t = function
  | [] -> []
  | [ q ] -> run t q
  | primary :: conjuncts ->
    Obs.Metrics.incr m_conj;
    let ordered =
      List.stable_sort
        (fun a b -> compare (postings_count t a) (postings_count t b))
        conjuncts
    in
    let rec intersect surviving = function
      | [] -> surviving
      | q :: rest ->
        let own = owners_of_query t q in
        let surviving =
          match surviving with
          | None -> own
          | Some prev ->
            let keep = Meth_tbl.create (Meth_tbl.length own) in
            Meth_tbl.iter
              (fun m () -> if Meth_tbl.mem prev m then Meth_tbl.replace keep m ())
              own;
            keep
        in
        if Meth_tbl.length surviving = 0 then begin
          Obs.Metrics.incr m_conj_shortcircuit;
          None
        end
        else intersect (Some surviving) rest
    in
    (match intersect None ordered with
     | None -> []
     | Some surviving ->
       List.filter (fun h -> Meth_tbl.mem surviving h.owner) (run t primary))

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let index_mode t =
  if not t.indexed then "scan"
  else
    match t.load_mode with
    | Some m -> m
    | None -> if t.eager then "eager" else "lazy"

let built_categories t =
  Array.fold_left
    (fun n slot -> if Atomic.get slot <> None then n + 1 else n)
    0 t.tables

(* Bytes held by the postings built so far (mapped or heap-side) — what the
   bench reports to compare v1 flat-slot and v2 packed footprints. *)
let postings_footprint t =
  Array.fold_left
    (fun n slot ->
       match Atomic.get slot with
       | None -> n
       | Some p -> n + Packed.bytes p)
    0 t.tables

let index_build_timings t =
  Mutex.lock t.build_lock;
  let timings = ref [] in
  for c = n_categories - 1 downto 0 do
    if Atomic.get t.tables.(c) <> None then
      timings := (category_name c, t.build_us.(c)) :: !timings
  done;
  Mutex.unlock t.build_lock;
  !timings

let cache_rate t = Cache.cache_rate t.cache
let local_counts = Cache.local_counts
let total_searches t = Cache.total_searches t.cache
let cached_searches t = Cache.cached_searches t.cache
let category_stats t = Cache.category_stats t.cache
let category_timings t = Cache.category_timings t.cache
