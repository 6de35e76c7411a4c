module Engine = Bytesearch.Engine
module Packed = Engine.Packed
module Postcodec = Bytesearch.Postcodec
module Classmap = Dex.Classmap

let ( let* ) = Result.bind

(* Section ids.  Per-line owner/stmt sections are deliberately absent: the
   arena already records owner and statement index for every instruction
   line, and header lines have neither, so load reconstructs line metadata
   from the arena columns.

   The ids are version-independent; the payload of [sec_slots c] is not:
   v1 stores the flat slot vector ([sec_offsets c] holds slot indices),
   v2 stores Postcodec-compressed runs ([sec_offsets c] holds byte
   offsets into the coded blob). *)
let sec_meta = 1
let sec_sym_offsets = 2
let sec_sym_blob = 3
let sec_line_offsets = 4
let sec_line_blob = 5
let sec_owner_offsets = 9
let sec_owner_blob = 10
let sec_cls_offsets = 11
let sec_cls_blob = 12
let sec_line_idx = 13
let sec_stmt_idx = 14
let sec_owner_id = 15
let sec_cat = 16
let sec_sym = 17
(* optional: the detection-rule-set content hash the snapshot was saved
   under (absent in older files) *)
let sec_ruleset = 18
let sec_keys c = 20 + (3 * c)
let sec_offsets c = 21 + (3 * c)
let sec_slots c = 22 + (3 * c)
let n_categories = 7

(* Optional (absent in pre-delta files): the per-class map — names,
   line/slot ranges and the two content hashes — that the delta path diffs
   a new build against, and the persisted per-sink analysis results the
   driver's replay path consults.  Ids sit above the postings range
   [20, 20 + 3*7). *)
let sec_cm_name_offsets = 41
let sec_cm_name_blob = 42
let sec_cm_ranges = 43
let sec_cm_hashes = 44
let sec_results_offsets = 45
let sec_results_blob = 46

let m_save_files = Obs.Metrics.counter "store.save.files"
let m_save_bytes = Obs.Metrics.counter "store.save.bytes"
let m_load_files = Obs.Metrics.counter "store.load.files"
let m_load_bytes = Obs.Metrics.counter "store.load.bytes_mapped"
let m_load_remapped = Obs.Metrics.counter "store.load.remapped"
let m_load_prefaulted = Obs.Metrics.counter "store.load.prefaulted"
let m_delta_loads = Obs.Metrics.counter "store.delta.loads"
let m_delta_reused = Obs.Metrics.counter "store.delta.classes_reused"
let m_delta_rendered = Obs.Metrics.counter "store.delta.classes_rendered"

let default_path ~dir ~app_id =
  let sane =
    String.map
      (fun ch ->
         match ch with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ch
         | _ -> '_')
      app_id
  in
  Filename.concat dir
    (Printf.sprintf "%s.v%d.bdix" sane Codec.format_version)

(* -- String tables as (offsets, blob) section pairs -------------------- *)

(* A {!Dex.Textstore} is exactly such a pair: the line texts are one, and
   every other string table goes through one. *)
let add_store w ~off_id ~blob_id store =
  Codec.add_ivec w ~id:off_id (Dex.Textstore.offsets store);
  Codec.add_blob w ~id:blob_id (Bvec.to_string (Dex.Textstore.blob store))

let add_strings w ~off_id ~blob_id a =
  let b = Dex.Textstore.Builder.create () in
  Array.iter
    (fun s ->
       Dex.Textstore.Builder.add_string b s;
       Dex.Textstore.Builder.end_line b)
    a;
  add_store w ~off_id ~blob_id (Dex.Textstore.Builder.finish b)

(* The pair mapped off-heap, holding [count] strings when that is given.
   [Textstore.create] checks the offset geometry and raises; translate to
   the typed error. *)
let map_store ?count r ~off_id ~blob_id ~what =
  let* offs = Codec.map_ivec r ~id:off_id in
  let* blob = Codec.map_bytes r ~id:blob_id in
  let bad m = Error (Codec.Corrupt (Printf.sprintf "%s: %s" what m)) in
  match count with
  | Some n when Ivec.length offs <> n + 1 -> bad "offsets length mismatch"
  | _ -> (
    match Dex.Textstore.create ~blob ~offs with
    | store -> Ok store
    | exception Invalid_argument m -> bad m)

let load_strings ?count r ~off_id ~blob_id ~what =
  let* store = map_store ?count r ~off_id ~blob_id ~what in
  Ok (Array.init (Dex.Textstore.count store) (Dex.Textstore.get store))

(* -- Per-class map sections ------------------------------------------- *)

(* The hashes section pairs each class's IR hash with the hash of its
   rendered text, computed here from the blob: the in-memory class map
   keeps only what the delta path diffs on. *)
let add_classmap w (cm : Classmap.t) texts =
  let n = Classmap.length cm in
  if n > 0 then begin
    add_strings w ~off_id:sec_cm_name_offsets ~blob_id:sec_cm_name_blob
      cm.Classmap.names;
    let ranges = Array.make (4 * n) 0 in
    for i = 0 to n - 1 do
      ranges.((4 * i) + 0) <- cm.Classmap.line_lo.(i);
      ranges.((4 * i) + 1) <- cm.Classmap.line_hi.(i);
      ranges.((4 * i) + 2) <- cm.Classmap.slot_lo.(i);
      ranges.((4 * i) + 3) <- cm.Classmap.slot_hi.(i)
    done;
    Codec.add_ints w ~id:sec_cm_ranges ranges;
    let b = Bytes.create (16 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_le b (16 * i)
        (Classmap.text_hash texts cm.Classmap.line_lo.(i)
           cm.Classmap.line_hi.(i));
      Bytes.set_int64_le b ((16 * i) + 8) cm.Classmap.ir_hash.(i)
    done;
    Codec.add_blob w ~id:sec_cm_hashes (Bytes.unsafe_to_string b)
  end

let load_classmap r ~n_lines ~n_slots =
  if not (Codec.mem r ~id:sec_cm_name_offsets) then Ok Classmap.empty
  else
    let* names =
      load_strings r ~off_id:sec_cm_name_offsets
        ~blob_id:sec_cm_name_blob ~what:"classmap names"
    in
    let n = Array.length names in
    let* ranges = Codec.map_ivec r ~id:sec_cm_ranges in
    let* hashes = Codec.read_blob r ~id:sec_cm_hashes in
    if Ivec.length ranges <> 4 * n then
      Error (Codec.Corrupt "classmap: ranges length mismatch")
    else if String.length hashes <> 16 * n then
      Error (Codec.Corrupt "classmap: hashes length mismatch")
    else begin
      let line_lo = Array.make n 0 and line_hi = Array.make n 0 in
      let slot_lo = Array.make n 0 and slot_hi = Array.make n 0 in
      let ir_hash = Array.make n 0L in
      let ok = ref true in
      for i = 0 to n - 1 do
        let llo = Ivec.get ranges ((4 * i) + 0) in
        let lhi = Ivec.get ranges ((4 * i) + 1) in
        let slo = Ivec.get ranges ((4 * i) + 2) in
        let shi = Ivec.get ranges ((4 * i) + 3) in
        if llo < 0 || llo > lhi || lhi > n_lines then ok := false;
        if slo < 0 || slo > shi || shi > n_slots then ok := false;
        (* class runs are disjoint and in line/slot order *)
        if i > 0 && (llo < line_hi.(i - 1) || slo < slot_hi.(i - 1)) then
          ok := false;
        line_lo.(i) <- llo;
        line_hi.(i) <- lhi;
        slot_lo.(i) <- slo;
        slot_hi.(i) <- shi;
        (* the text hash (bytes [16i, 16i+8)) is recomputed on save *)
        ir_hash.(i) <- String.get_int64_le hashes ((16 * i) + 8)
      done;
      if not !ok then Error (Codec.Corrupt "classmap: ranges out of order")
      else
        Ok
          (Classmap.v ~names ~line_lo ~line_hi ~slot_lo ~slot_hi ~ir_hash)
    end

(* -- Save ------------------------------------------------------------- *)

(* One category's postings as v2 sections: keys unchanged, offsets become
   byte offsets into the coded blob, each key's run compressed by
   {!Postcodec}.  Encoding goes through the packed cursor API, so it works
   identically for [Flat] (in-process) and [Coded] (snapshot-loaded)
   bodies, and the byte choice is a pure function of each run — save ->
   load -> save is byte-identical. *)
let coded_sections (p : Packed.t) =
  let nk = Packed.n_keys p in
  let offsets = Ivec.create (nk + 1) in
  let buf = Buffer.create 4096 in
  let run = ref [||] in
  for k = 0 to nk - 1 do
    let n = Packed.count p k in
    if Array.length !run < n then run := Array.make (max n 64) 0;
    let a = !run and i = ref 0 in
    Packed.iter_key p k (fun slot -> a.(!i) <- slot; incr i);
    Ivec.set offsets k (Buffer.length buf);
    Postcodec.encode buf ~get:(Array.get a) ~lo:0 ~hi:n
  done;
  Ivec.set offsets nk (Buffer.length buf);
  (offsets, Buffer.contents buf)

let save ?(format_version = Codec.format_version) ?ruleset_hash
    ?(results = [||]) ~path engine =
  let span0 = Obs.Span.start () in
  (* default to the stamp already on the engine, so save -> load -> save
     stays byte-identical for stamped files *)
  let ruleset_hash =
    match ruleset_hash with
    | Some _ as h -> h
    | None -> Engine.ruleset_stamp engine
  in
  let dex = Engine.dexfile engine in
  let packed = Engine.export_packed engine in
  let arena = dex.Dex.Dexfile.arena in
  let n_lines = Dex.Dexfile.line_count dex in
  let syms = Sym.dump () in
  let w = Codec.writer () in
  Codec.add_ints w ~id:sec_meta
    [| n_lines; Dex.Arena.length arena;
       Array.length arena.Dex.Arena.owners; Array.length syms |];
  (match ruleset_hash with
   | Some h -> Codec.add_ints w ~id:sec_ruleset [| h |]
   | None -> ());
  add_strings w ~off_id:sec_sym_offsets ~blob_id:sec_sym_blob syms;
  let texts = dex.Dex.Dexfile.texts in
  add_store w ~off_id:sec_line_offsets ~blob_id:sec_line_blob texts;
  add_strings w ~off_id:sec_owner_offsets ~blob_id:sec_owner_blob
    (Array.map Ir.Jsig.meth_to_string arena.Dex.Arena.owners);
  add_strings w ~off_id:sec_cls_offsets ~blob_id:sec_cls_blob
    arena.Dex.Arena.owner_cls;
  Codec.add_ivec w ~id:sec_line_idx arena.Dex.Arena.line_idx;
  Codec.add_ivec w ~id:sec_stmt_idx arena.Dex.Arena.stmt_idx;
  Codec.add_ivec w ~id:sec_owner_id arena.Dex.Arena.owner_id;
  Codec.add_ivec w ~id:sec_cat arena.Dex.Arena.cat;
  Codec.add_ivec w ~id:sec_sym arena.Dex.Arena.sym;
  add_classmap w (Dex.Dexfile.classmap dex) texts;
  if Array.length results > 0 then
    add_strings w ~off_id:sec_results_offsets ~blob_id:sec_results_blob
      results;
  Array.iteri
    (fun c (p : Packed.t) ->
       Codec.add_ivec w ~id:(sec_keys c) p.Packed.keys;
       if format_version >= 2 then begin
         let offsets, blob = coded_sections p in
         Codec.add_ivec w ~id:(sec_offsets c) offsets;
         Codec.add_blob w ~id:(sec_slots c) blob
       end
       else begin
         let p = Packed.to_flat p in
         match p.Packed.body with
         | Packed.Flat slots ->
           Codec.add_ivec w ~id:(sec_offsets c) p.Packed.offsets;
           Codec.add_ivec w ~id:(sec_slots c) slots
         | Packed.Coded _ -> assert false  (* to_flat *)
       end)
    packed;
  let bytes = Codec.write_file ~version:format_version w ~path in
  Obs.Metrics.incr m_save_files;
  Obs.Metrics.add m_save_bytes bytes;
  Obs.Span.emit ~cat:"store" ~name:"store:save"
    ~attrs:
      [ ("path", Obs.Span.Str path); ("bytes", Obs.Span.Int bytes);
        ("version", Obs.Span.Int format_version);
        ("syms", Obs.Span.Int (Array.length syms)) ]
    span0;
  bytes

(* -- Parse ------------------------------------------------------------ *)

(* Validate one v1 category's CSR geometry against the snapshot's own
   symbol and slot counts (symbol ids here are still snapshot ids). *)
let check_packed_flat ~n_syms ~n_slots c ~keys ~offsets ~slots =
  let nk = Ivec.length keys in
  let bad what =
    Error (Codec.Corrupt (Printf.sprintf "postings %d: %s" c what))
  in
  if Ivec.length offsets <> nk + 1 then bad "offsets length"
  else if Ivec.get offsets 0 <> 0 then bad "offsets start"
  else if Ivec.get offsets nk <> Ivec.length slots then bad "offsets end"
  else begin
    let ok = ref true in
    for k = 0 to nk - 1 do
      let key = Ivec.get keys k in
      if key < 0 || key >= n_syms then ok := false;
      if k > 0 && Ivec.get keys (k - 1) >= key then ok := false;
      if Ivec.get offsets (k + 1) < Ivec.get offsets k then ok := false
    done;
    if not !ok then bad "keys/offsets not ascending or out of range"
    else begin
      let ok = ref true in
      for i = 0 to Ivec.length slots - 1 do
        let s = Ivec.get slots i in
        if s < 0 || s >= n_slots then ok := false
      done;
      if !ok then Ok () else bad "slot out of range"
    end
  end

(* Validate one v2 category: same key geometry, byte offsets partitioning
   the coded blob exactly, and every coded run well-formed with slots in
   range.  Every byte the engine's unchecked cursors will later read is
   checked here — and the walk doubles as a sequential touch of the run
   bytes, so it prefaults the postings as a side effect. *)
let check_packed_coded ~n_syms ~n_slots c ~keys ~offsets ~(coded : Bvec.t) =
  let nk = Ivec.length keys in
  let bad what =
    Error (Codec.Corrupt (Printf.sprintf "postings %d: %s" c what))
  in
  if Ivec.length offsets <> nk + 1 then bad "offsets length"
  else if nk > 0 && Ivec.get offsets 0 <> 0 then bad "offsets start"
  else if Ivec.get offsets nk <> Bvec.length coded then bad "offsets end"
  else begin
    let ok = ref true in
    for k = 0 to nk - 1 do
      let key = Ivec.get keys k in
      if key < 0 || key >= n_syms then ok := false;
      if k > 0 && Ivec.get keys (k - 1) >= key then ok := false;
      if Ivec.get offsets (k + 1) < Ivec.get offsets k then ok := false
    done;
    if not !ok then bad "keys/offsets not ascending or out of range"
    else begin
      let rec runs k =
        if k = nk then Ok ()
        else
          match
            Postcodec.validate coded ~pos:(Ivec.get offsets k)
              ~limit:(Ivec.get offsets (k + 1)) ~max_slot:(n_slots - 1)
          with
          | Ok _ -> runs (k + 1)
          | Error m -> bad (Printf.sprintf "run %d: %s" k m)
      in
      runs 0
    end
  end

let rec result_each f = function
  | [] -> Ok ()
  | x :: tl ->
    let* () = f x in
    let* r = result_each f tl in
    Ok r

(* Everything a snapshot file holds, mapped and structurally validated but
   not yet re-interned or assembled into an engine — shared by the warm
   load path and the delta path.  Symbol ids in [arena_sym] and
   [packed_snap] keys are still snapshot ids. *)
type parsed = {
  p_version : int;
  p_n_lines : int;
  p_n_slots : int;
  p_syms : Dex.Textstore.t;  (** the symbol table, one string per line *)
  p_texts : Dex.Textstore.t;
  p_owners : Ir.Jsig.meth array;
  p_owner_cls : string array;
  p_line_idx : Ivec.t;
  p_stmt_idx : Ivec.t;
  p_owner_id : Ivec.t;
  p_cat : Ivec.t;
  p_sym : Ivec.t;
  p_packed : Packed.t array;
  p_ruleset : int option;
  p_classmap : Classmap.t;
}

let parse r =
  let version = Codec.version r in
  let* meta = Codec.map_ivec r ~id:sec_meta in
  if Ivec.length meta <> 4 then Error (Codec.Corrupt "meta length")
  else begin
    let n_lines = Ivec.get meta 0 in
    let n_slots = Ivec.get meta 1 in
    let n_owners = Ivec.get meta 2 in
    let n_syms = Ivec.get meta 3 in
    if n_lines < 0 || n_slots < 0 || n_owners < 0 || n_syms < 0 then
      Error (Codec.Corrupt "negative count in meta")
    else
      let* syms =
        map_store r ~off_id:sec_sym_offsets ~blob_id:sec_sym_blob
          ~count:n_syms ~what:"symbol table"
      in
      (* the texts stay in the mapped blob (both versions lay it out
         alike); a line materialises only when a hit returns it *)
      let* texts =
        map_store r ~off_id:sec_line_offsets ~blob_id:sec_line_blob
          ~count:n_lines ~what:"line texts"
      in
      let* owner_strs =
        load_strings r ~off_id:sec_owner_offsets ~blob_id:sec_owner_blob
          ~count:n_owners ~what:"owners"
      in
      let* owner_cls =
        load_strings r ~off_id:sec_cls_offsets ~blob_id:sec_cls_blob
          ~count:n_owners ~what:"owner classes"
      in
      let* owners =
        try Ok (Array.map Ir.Jsig.meth_of_string owner_strs)
        with Invalid_argument m -> Error (Codec.Corrupt m)
      in
      let* line_idx = Codec.map_ivec r ~id:sec_line_idx in
      let* stmt_idx = Codec.map_ivec r ~id:sec_stmt_idx in
      let* owner_id = Codec.map_ivec r ~id:sec_owner_id in
      let* cat = Codec.map_ivec r ~id:sec_cat in
      let* sym = Codec.map_ivec r ~id:sec_sym in
      let* () =
        result_each
          (fun (v, what) ->
             if Ivec.length v = n_slots then Ok ()
             else
               Error
                 (Codec.Corrupt
                    (Printf.sprintf "arena %s: length mismatch" what)))
          [ (line_idx, "line_idx"); (stmt_idx, "stmt_idx");
            (owner_id, "owner_id"); (cat, "cat"); (sym, "sym") ]
      in
      let* () =
        (* range-check the arena before anything dereferences it *)
        let ok = ref true in
        let get (v : Ivec.t) i = Bigarray.Array1.unsafe_get v i in
        for i = 0 to n_slots - 1 do
          (* in bounds: every column's length is [n_slots], checked above *)
          let li = get line_idx i in
          let oi = get owner_id i in
          let c = get cat i in
          let s = get sym i in
          if li < 0 || li >= n_lines then ok := false;
          if oi < 0 || oi >= n_owners then ok := false;
          if c < -1 || c >= n_categories - 1 then ok := false;
          if s < -1 || s >= n_syms then ok := false
        done;
        if !ok then Ok ()
        else Error (Codec.Corrupt "arena column value out of range")
      in
      let* packed_snap =
        let rec go c acc =
          if c = n_categories then Ok (Array.of_list (List.rev acc))
          else
            let* keys = Codec.map_ivec r ~id:(sec_keys c) in
            let* offsets = Codec.map_ivec r ~id:(sec_offsets c) in
            let* p =
              if version >= 2 then
                let* coded = Codec.map_bytes r ~id:(sec_slots c) in
                let* () =
                  check_packed_coded ~n_syms ~n_slots c ~keys ~offsets
                    ~coded
                in
                Ok { Packed.keys; offsets; body = Packed.Coded coded }
              else
                let* slots = Codec.map_ivec r ~id:(sec_slots c) in
                let* () =
                  check_packed_flat ~n_syms ~n_slots c ~keys ~offsets
                    ~slots
                in
                Ok { Packed.keys; offsets; body = Packed.Flat slots }
            in
            go (c + 1) (p :: acc)
        in
        go 0 []
      in
      let* ruleset =
        if not (Codec.mem r ~id:sec_ruleset) then Ok None
        else
          let* v = Codec.map_ivec r ~id:sec_ruleset in
          if Ivec.length v <> 1 then
            Error (Codec.Corrupt "ruleset section length")
          else Ok (Some (Ivec.get v 0))
      in
      let* classmap = load_classmap r ~n_lines ~n_slots in
      Ok
        { p_version = version; p_n_lines = n_lines; p_n_slots = n_slots;
          p_syms = syms; p_texts = texts; p_owners = owners;
          p_owner_cls = owner_cls; p_line_idx = line_idx;
          p_stmt_idx = stmt_idx; p_owner_id = owner_id; p_cat = cat;
          p_sym = sym; p_packed = packed_snap; p_ruleset = ruleset;
          p_classmap = classmap }
  end

(* -- Load ------------------------------------------------------------- *)

(* Rebuild one category's postings with live symbol ids: re-key each entry
   through [live_of_snap], then re-sort key order (slot lists are unchanged
   and stay ascending).  Fresh flat ivecs — the mapped originals are
   dropped, and a remapped engine pays v1-shaped memory for its postings
   regardless of snapshot version (remaps are the rare skewed-symbol-table
   path). *)
let remap_packed live_of_snap (p : Packed.t) =
  let p = Packed.to_flat p in
  let nk = Packed.n_keys p in
  let newkey =
    Array.init nk (fun k -> live_of_snap.(Ivec.get p.Packed.keys k))
  in
  let order = Array.init nk Fun.id in
  Array.sort (fun a b -> compare newkey.(a) newkey.(b)) order;
  let keys = Ivec.create nk in
  let offsets = Ivec.create (nk + 1) in
  let slots = Ivec.create (Packed.n_slots p) in
  let pos = ref 0 in
  Ivec.set offsets 0 0;
  Array.iteri
    (fun i k ->
       Ivec.set keys i newkey.(k);
       Packed.iter_key p k (fun slot ->
           Ivec.set slots !pos slot;
           incr pos);
       Ivec.set offsets (i + 1) !pos)
    order;
  { Packed.keys; offsets; body = Packed.Flat slots }

(* Touch the small always-hot mapped sections — every arena column plus the
   postings directory (keys and offsets) of each category — so the first
   queries fault nothing in on the planner path.  A few pages per section;
   cheap enough to do unconditionally on load. *)
let prefault_hot ~(arena : Dex.Arena.t) ~(packed : Packed.t array) =
  let acc = ref 0 in
  let iv v = acc := !acc lxor Ivec.prefault v in
  iv arena.Dex.Arena.line_idx;
  iv arena.Dex.Arena.stmt_idx;
  iv arena.Dex.Arena.owner_id;
  iv arena.Dex.Arena.cat;
  iv arena.Dex.Arena.sym;
  Array.iter
    (fun (p : Packed.t) ->
       iv p.Packed.keys;
       iv p.Packed.offsets)
    packed;
  Sys.opaque_identity !acc

(* Touch every page of every mapped section up front — the hot sections
   plus the postings bodies and the line-text blob — so even the residual
   text-scan path faults nothing in.  OCaml's Unix has no madvise; a
   sequential one-touch-per-page walk gets the same readahead behaviour.
   Runs after validation (which already walked the coded runs), so the
   engine is usable either way; the knob only moves page-fault cost from
   first queries to load. *)
let prefault_engine ~(arena : Dex.Arena.t) ~(packed : Packed.t array)
    ~(texts : Dex.Textstore.t) =
  let acc = ref (prefault_hot ~arena ~packed) in
  Array.iter
    (fun (p : Packed.t) ->
       match p.Packed.body with
       | Packed.Flat slots -> acc := !acc lxor Ivec.prefault slots
       | Packed.Coded b -> acc := !acc lxor Bvec.prefault b)
    packed;
  acc := !acc lxor Dex.Textstore.prefault texts;
  Sys.opaque_identity !acc

let load ?(prefault = false) ~path program =
  let span0 = Obs.Span.start () in
  let* r = Codec.read_file ~path in
  let version = Codec.version r in
  let finish res =
    Codec.close r;
    (match res with
     | Ok engine ->
       Obs.Metrics.incr m_load_files;
       Obs.Metrics.add m_load_bytes (Codec.size r);
       Obs.Span.emit ~cat:"store" ~name:"store:load"
         ~attrs:
           [ ("path", Obs.Span.Str path);
             ("bytes", Obs.Span.Int (Codec.size r));
             ("version", Obs.Span.Int version);
             ("prefault", Obs.Span.Bool prefault);
             ("mode", Obs.Span.Str (Engine.index_mode engine)) ]
         span0
     | Error _ -> ());
    res
  in
  finish
    (let* p = parse r in
     let n_slots = p.p_n_slots in
     (* Re-intern the snapshot's symbol table; ids are stable when the
        live table evolved identically (the common warm start). *)
     let n_live = Sym.interned () in
     let syms = p.p_syms in
     let live_of_snap =
       Array.init (Dex.Textstore.count syms) (fun i ->
           (* a symbol already live under the snapshot's id needs no
              string and no table lookup *)
           let live =
             if i < n_live then Sym.to_string (Sym.unsafe_of_id i) else ""
           in
           if
             i < n_live
             && Dex.Textstore.length_at syms i = String.length live
             && Dex.Textstore.starts_with syms i ~pos:0 ~prefix:live
           then i
           else Sym.id (Sym.intern (Dex.Textstore.get syms i)))
     in
     let identity =
       let ok = ref true in
       Array.iteri (fun i l -> if i <> l then ok := false) live_of_snap;
       !ok
     in
     let packed =
       if identity then p.p_packed
       else Array.map (remap_packed live_of_snap) p.p_packed
     in
     if not identity then begin
       (* private (copy-on-write) mapping: rewriting in place never
          touches the file *)
       Obs.Metrics.incr m_load_remapped;
       for i = 0 to n_slots - 1 do
         let s = Ivec.get p.p_sym i in
         if s >= 0 then Ivec.set p.p_sym i live_of_snap.(s)
       done
     end;
     let arena =
       { Dex.Arena.line_idx = p.p_line_idx; stmt_idx = p.p_stmt_idx;
         owner_id = p.p_owner_id; cat = p.p_cat; sym = p.p_sym;
         owners = p.p_owners; owner_cls = p.p_owner_cls }
     in
     (* the hot sections (arena columns + postings directories) are
        always prefaulted — they are small and every query planner pass
        touches them; [prefault] extends the walk to the postings bodies
        and the text blob *)
     if prefault then begin
       Obs.Metrics.incr m_load_prefaulted;
       ignore (prefault_engine ~arena ~packed ~texts:p.p_texts)
     end
     else ignore (prefault_hot ~arena ~packed);
     let dex =
       Dex.Dexfile.v ~classmap:p.p_classmap p.p_texts arena program
     in
     let engine = Engine.create_packed dex packed in
     (* carry the saved rule-set stamp onto the engine, so an analysis
        under a different rule set sees `Changed` and warns instead of
        silently trusting warm state *)
     (match p.p_ruleset with
      | Some h -> ignore (Engine.note_ruleset engine h)
      | None -> ());
     Ok engine)

(* -- Persisted analysis results --------------------------------------- *)

let load_results ~path =
  let* r = Codec.read_file ~path in
  let finish res =
    Codec.close r;
    res
  in
  finish
    (if not (Codec.mem r ~id:sec_results_offsets) then Ok [||]
     else
       load_strings r ~off_id:sec_results_offsets
         ~blob_id:sec_results_blob ~what:"results")

(* -- Delta ------------------------------------------------------------ *)

type delta_report = {
  d_total : int;
  d_unchanged : int;
  d_changed : int;
  d_added : int;
  d_removed : int;
  d_lines_reused : int;
  d_lines_rendered : int;
  d_patched_postings_bytes : int;
  d_rebuilt_postings_bytes : int;
}

let delta_report_to_string d =
  Printf.sprintf
    "classes %d (unchanged %d, changed %d, added %d, removed %d), lines \
     reused %d / rendered %d, postings patched %d B / rebuilt %d B"
    d.d_total d.d_unchanged d.d_changed d.d_added d.d_removed
    d.d_lines_reused d.d_lines_rendered d.d_patched_postings_bytes
    d.d_rebuilt_postings_bytes

(* One category's postings for the patched build, CSR to CSR: the old rows
   carried through the reused ranges of old slots [\[lo.(r), hi.(r))],
   each moved by [shift.(r)] and sorted by [lo] (the old engine's keys are
   already live symbol ids) — a slot outside them belongs to a removed or
   re-rendered class and is dropped — merged key by key with [fresh], the
   re-rendered classes' entries as ascending [key lsl 31 lor slot] codes. *)
let patch_postings (old_p : Packed.t) ~runs:(rlo, rhi, rshift) ~monotone
    (fresh : int array) =
  let nk_old = Packed.n_keys old_p and nf = Array.length fresh in
  let keys = Ivec.create (nk_old + nf) in
  let offsets = Ivec.create (nk_old + nf + 1) in
  let slots : Ivec.t = Ivec.create (Packed.n_slots old_p + nf) in
  Ivec.set offsets 0 0;
  let nk = ref 0 and pos = ref 0 and ki = ref 0 and fi = ref 0 in
  let nr = Array.length rlo in
  let carried = ref [||] in
  let old_keys : Ivec.t = old_p.Packed.keys in
  (* one old slot, mapped through the runs (a key's slots ascend, so one
     cursor follows them) *)
  let r = ref 0 in
  let carry os =
    while !r < nr && Array.unsafe_get rhi !r <= os do incr r done;
    if !r < nr && os >= Array.unsafe_get rlo !r then begin
      Bigarray.Array1.unsafe_set slots !pos (os + Array.unsafe_get rshift !r);
      incr pos
    end
  in
  while !ki < nk_old || !fi < nf do
    let ko =
      if !ki < nk_old then Bigarray.Array1.unsafe_get old_keys !ki else max_int
    in
    let kf = if !fi < nf then fresh.(!fi) lsr 31 else max_int in
    let k = Int.min ko kf in
    let lo = !pos in
    if ko = k then begin
      r := 0;
      Packed.iter_key old_p !ki carry;
      incr ki
    end;
    let nc = !pos - lo in
    if (not monotone) && nc > 1 then begin
      (* an old multidex build, laid out in partition order *)
      let a =
        Array.init nc (fun i -> Bigarray.Array1.unsafe_get slots (lo + i))
      in
      Array.sort Int.compare a;
      Array.iteri (fun i x -> Bigarray.Array1.unsafe_set slots (lo + i) x) a
    end;
    let f0 = !fi in
    while !fi < nf && fresh.(!fi) lsr 31 = k do incr fi done;
    if !fi > f0 then begin
      (* merge the ascending carried and fresh slots *)
      if Array.length !carried < nc then carried := Array.make (2 * nc) 0;
      let c = !carried in
      for i = 0 to nc - 1 do
        c.(i) <- Bigarray.Array1.unsafe_get slots (lo + i)
      done;
      let ci = ref 0 and fj = ref f0 in
      pos := lo;
      while !ci < nc || !fj < !fi do
        let fs = if !fj < !fi then fresh.(!fj) land 0x7fffffff else max_int in
        if !ci < nc && c.(!ci) < fs then begin
          Bigarray.Array1.unsafe_set slots !pos c.(!ci);
          incr ci
        end
        else begin
          Bigarray.Array1.unsafe_set slots !pos fs;
          incr fj
        end;
        incr pos
      done
    end;
    if !pos > lo then begin
      Bigarray.Array1.unsafe_set keys !nk k;
      incr nk;
      Bigarray.Array1.unsafe_set offsets !nk !pos
    end
  done;
  let sub v n = Bigarray.Array1.sub v 0 n in
  { Packed.keys = sub keys !nk; offsets = sub offsets (!nk + 1);
    body = Packed.Flat (sub slots !pos) }

(* Patch a resident engine into an engine for [program] — the
   maintained-index scenario, and the core of the delta path.  It works on
   live structures: no file parse, no symbol re-interning (a live engine's
   ids are the live ones).  Unchanged classes contribute their old text
   bytes and arena rows as whole ranges; only changed and added classes are
   rendered, straight into the new blob and arena.  The old engine is left
   untouched. *)
let delta_of_engine old_engine program =
  let span0 = Obs.Span.start () in
  let dex_old = Engine.dexfile old_engine in
  let cm_old = Dex.Dexfile.classmap dex_old in
  if Classmap.length cm_old = 0 && Dex.Dexfile.line_count dex_old > 0 then
    Error
      (Codec.Corrupt
         "engine has no class map (pre-delta snapshot or warm placeholder)")
  else begin
    let old_texts = dex_old.Dex.Dexfile.texts in
    let oa = dex_old.Dex.Dexfile.arena in
    let old_n_slots = Dex.Arena.length oa in
    let n_unchanged = ref 0 and n_changed = ref 0 and n_added = ref 0 in
    (* per class of the new build, in disassembly order: the old classmap
       entry to reuse, or [None] to render.  The old owner table is carried
       wholesale: reused slots keep their owner ids verbatim, and a changed
       class's methods find their old ids again ([seed]) where the
       signature persists.  Owners of removed classes (or removed methods)
       linger as unreferenced entries; they are reclaimed by the next full
       save-from-cold. *)
    let seed = ref [] in
    let plan =
      Array.map
        (fun ((c : Ir.Jclass.t), found) ->
           let ih = Ir.Irhash.jclass c in
           match found with
           | Some oi when cm_old.Classmap.ir_hash.(oi) = ih ->
             incr n_unchanged;
             (c, ih, Some oi)
           | Some oi ->
             incr n_changed;
             (* a method's slots are contiguous: one seed per run of them *)
             for s = cm_old.Classmap.slot_lo.(oi)
                 to cm_old.Classmap.slot_hi.(oi) - 1 do
               let id = Ivec.get oa.Dex.Arena.owner_id s in
               match !seed with
               | last :: _ when last = id -> ()
               | _ -> seed := id :: !seed
             done;
             (c, ih, None)
           | None ->
             incr n_added;
             (c, ih, None))
        (Array.of_list
           (List.map
              (fun (c : Ir.Jclass.t) -> (c, Classmap.find cm_old c.name))
              (Dex.Disasm.app_classes program)))
    in
    let n_classes = Array.length plan in
    let n_removed = Classmap.length cm_old - !n_unchanged - !n_changed in
    (* capacity for the old build plus room to grow, so the builders
       never copy *)
    let room n = n + (n / 8) + 1024 in
    let tb =
      Dex.Textstore.Builder.create
        ~bytes:(room (Bvec.length (Dex.Textstore.blob old_texts)))
        ~lines:(room (Dex.Textstore.count old_texts)) ()
    in
    let ab =
      Dex.Arena.Builder.create ~slots:(room old_n_slots)
        ~owners:(oa.Dex.Arena.owners, oa.Dex.Arena.owner_cls)
        ~seed:!seed ()
    in
    let starts = Array.make (n_classes + 1) 0 in
    let cm_slot_lo = Array.make n_classes 0 in
    let cm_slot_hi = Array.make n_classes 0 in
    let fresh_ranges = ref [] and reused_lines = ref 0 and runs = ref [] in
    (* the old->new slot map stays monotone while reused runs come in old
       order (both builds sorted by name; an old multidex build may not
       be) *)
    let monotone = ref true and last_old_slot = ref 0 in
    let cm = cm_old in
    (* A run of reused classes that were also adjacent in the old build
       moves as one range of text bytes and arena rows. *)
    let rec run_end ci oi =
      if ci + 1 < n_classes then
        match plan.(ci + 1) with
        | _, _, Some oj
          when oj = oi + 1
               && cm.Classmap.line_lo.(oj) = cm.Classmap.line_hi.(oi)
               && cm.Classmap.slot_lo.(oj) = cm.Classmap.slot_hi.(oi) ->
          run_end (ci + 1) oj
        | _ -> ci
      else ci
    in
    let ci = ref 0 in
    while !ci < n_classes do
      let line_base = Dex.Textstore.Builder.lines tb in
      let slot_base = Dex.Arena.Builder.length ab in
      (match plan.(!ci) with
       | _, _, Some oi ->
         let last = run_end !ci oi in
         let oi_last = oi + (last - !ci) in
         let llo = cm.Classmap.line_lo.(oi)
         and lhi = cm.Classmap.line_hi.(oi_last)
         and slo = cm.Classmap.slot_lo.(oi)
         and shi = cm.Classmap.slot_hi.(oi_last) in
         let dl = line_base - llo and ds = slot_base - slo in
         Dex.Textstore.Builder.add_lines tb old_texts ~lo:llo ~hi:lhi;
         Dex.Arena.Builder.add_slots ab oa ~lo:slo ~hi:shi ~line_shift:dl;
         runs := (slo, shi, ds) :: !runs;
         if slo < !last_old_slot then monotone := false;
         last_old_slot := shi;
         reused_lines := !reused_lines + (lhi - llo);
         for k = 0 to last - !ci do
           starts.(!ci + k) <- cm.Classmap.line_lo.(oi + k) + dl;
           cm_slot_lo.(!ci + k) <- cm.Classmap.slot_lo.(oi + k) + ds;
           cm_slot_hi.(!ci + k) <- cm.Classmap.slot_hi.(oi + k) + ds
         done;
         ci := last + 1
       | c, _, None ->
         Dex.Disasm.render_class tb ab c;
         let slot_end = Dex.Arena.Builder.length ab in
         if slot_end > slot_base then
           fresh_ranges := (slot_base, slot_end) :: !fresh_ranges;
         starts.(!ci) <- line_base;
         cm_slot_lo.(!ci) <- slot_base;
         cm_slot_hi.(!ci) <- slot_end;
         incr ci)
    done;
    let texts = Dex.Textstore.Builder.finish tb in
    let n_lines = Dex.Textstore.count texts in
    starts.(n_classes) <- n_lines;
    let classmap =
      Classmap.v
        ~names:(Array.map (fun ((c : Ir.Jclass.t), _, _) -> c.name) plan)
        ~line_lo:(Array.sub starts 0 n_classes)
        ~line_hi:(Array.sub starts 1 n_classes)
        ~slot_lo:cm_slot_lo ~slot_hi:cm_slot_hi
        ~ir_hash:(Array.map (fun (_, ih, _) -> ih) plan)
    in
    let dex =
      Dex.Dexfile.v ~classmap texts (Dex.Arena.Builder.finish ab) program
    in
    let monotone = !monotone in
    let runs =
      let a = Array.of_list !runs in
      Array.sort compare a;
      ( Array.map (fun (lo, _, _) -> lo) a,
        Array.map (fun (_, hi, _) -> hi) a,
        Array.map (fun (_, _, shift) -> shift) a )
    in
    let fresh_ranges = List.rev !fresh_ranges in
    (* the re-rendered slots' postings, per category, as
       [key lsl 31 lor slot] codes *)
    let fresh = Array.make n_categories [] in
    List.iter
      (fun (lo, hi) ->
         for ns = lo to hi - 1 do
           Engine.iter_slot_postings dex ns (fun c k ->
               fresh.(c) <- ((k lsl 31) lor ns) :: fresh.(c))
         done)
      fresh_ranges;
    let fresh =
      Array.map
        (fun l ->
           let codes = Array.of_list l in
           Array.sort Int.compare codes;
           codes)
        fresh
    in
    let tables =
      Array.mapi
        (fun c old_p -> patch_postings old_p ~runs ~monotone fresh.(c))
        (Engine.export_packed old_engine)
    in
    let n_fresh = Array.fold_left (fun n a -> n + Array.length a) 0 fresh in
    let carried =
      Array.fold_left (fun n p -> n + Packed.n_slots p) 0 tables - n_fresh
    in
    let engine = Engine.create_packed ~mode:"delta" dex tables in
    (* carry the rule-set stamp, so an analysis under a different rule set
       sees `Changed` and warns instead of silently trusting warm state *)
    (match Engine.ruleset_stamp old_engine with
     | Some h -> ignore (Engine.note_ruleset engine h)
     | None -> ());
    let report =
      { d_total = n_classes; d_unchanged = !n_unchanged;
        d_changed = !n_changed; d_added = !n_added; d_removed = n_removed;
        d_lines_reused = !reused_lines;
        d_lines_rendered = n_lines - !reused_lines;
        d_patched_postings_bytes = 8 * carried;
        d_rebuilt_postings_bytes = 8 * n_fresh }
    in
    Obs.Metrics.incr m_delta_loads;
    Obs.Metrics.add m_delta_reused !n_unchanged;
    Obs.Metrics.add m_delta_rendered (!n_changed + !n_added);
    Obs.Span.emit ~cat:"store" ~name:"store:delta"
      ~attrs:
        [ ("classes", Obs.Span.Int n_classes);
          ("reused", Obs.Span.Int !n_unchanged);
          ("rendered", Obs.Span.Int (!n_changed + !n_added)) ]
      span0;
    Ok (engine, report)
  end

(* The file-based entry: load the old snapshot (full structural validation,
   symbol re-interning and key remapping happen there) and patch the
   resident engine it yields.  One splice implementation serves both the
   CLI `--delta-index` flow and the maintained-index flow. *)
let delta ~path program =
  let* old_engine = load ~path program in
  delta_of_engine old_engine program
