(** A disassembled (and, if multidex, merged) dex file: the plaintext lines
    the bytecode search engine scans, held as one {!Textstore} blob, plus
    the compact hit {!Arena} the engine's per-category postings index into
    and the per-class {!Classmap} the delta snapshot path diffs against.
    The cold, snapshot and delta paths all produce this one
    representation. *)

(* The class map is built on first use: a one-shot analysis never reads
   it, while a save, a delta or a freshness check does.  A build runs
   under [lock] and is published through [cm], so domains and threads that
   ask at once all get the one table. *)
type classmap_state =
  | Ready of Classmap.t
  | Pending of { names : string array; starts : int array }

type classmap_cell = { cm : classmap_state Atomic.t; lock : Mutex.t }

type t = {
  texts : Textstore.t;
  arena : Arena.t;
  program : Ir.Program.t;
  classmap_cell : classmap_cell;
}

let cell st = { cm = Atomic.make st; lock = Mutex.create () }

let v ?(classmap = Classmap.empty) texts arena program =
  { texts; arena; program; classmap_cell = cell (Ready classmap) }

(** A dexfile with no plaintext: the placeholder a warm start installs
    before a snapshot load supplies the real lines and arena, so app
    generation can skip disassembly entirely. *)
let empty p = v Textstore.empty Arena.empty p

let of_classes p classes =
  let r =
    Obs.Span.with_span ~cat:"dex" ~name:"disasm" (fun () ->
        Disasm.render classes)
  in
  { texts = r.texts; arena = r.arena; program = p;
    classmap_cell =
      cell (Pending { names = r.class_names; starts = r.class_starts }) }

let of_program p = of_classes p (Disasm.app_classes p)

(** Emulate multidex: disassemble each classesN.dex partition separately and
    merge the plaintexts, as BackDroid's preprocessing step does. *)
let of_partitions p partitions =
  of_classes p
    (List.concat_map
       (List.filter_map (fun name ->
            match Ir.Program.find_class p name with
            | Some c when not c.Ir.Jclass.is_system -> Some c
            | Some _ | None -> None))
       partitions)

let classmap { classmap_cell = c; arena; program; _ } =
  match Atomic.get c.cm with
  | Ready cm -> cm
  | Pending _ ->
    Mutex.protect c.lock (fun () ->
        match Atomic.get c.cm with
        | Ready cm -> cm
        | Pending { names; starts } ->
          let cm =
            Obs.Span.with_span ~cat:"dex" ~name:"classmap" (fun () ->
                Classmap.build ~names ~starts arena program)
          in
          Atomic.set c.cm (Ready cm);
          cm)

let line_count t = Textstore.count t.texts
let line_text t i = Textstore.get t.texts i

let to_string t =
  let buf = Buffer.create (Bvec.length (Textstore.blob t.texts) + line_count t) in
  for i = 0 to line_count t - 1 do
    Buffer.add_string buf (line_text t i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
