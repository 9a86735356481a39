open Kronos
module Codec = Kronos_wire.Codec

(* One format for full snapshots and deltas: the header, then a body of
   the sequence number, the base sequence number (absent for a full
   snapshot), and one capture.  The capture is columnar: the carried slot
   numbers, then one column per slot field (refcount, generation, rank,
   adjacency, chain id, chain position), the digest flag and, when set,
   the commitment-chain links (DESIGN.md §13); then the globals (slot
   high-water mark, free stack, rank allocator, traversal counters, the
   graph mutation version — the view epoch of DESIGN.md §14 — and the
   chain table of DESIGN.md §15) and the engine counters.  Labels are not
   persisted — exact labels are a pure function of adjacency + chains and
   are recomputed on restore.

   The version field exists so a file from another format fails
   [validate] like any other unreadable file: builds before this format
   wrote versions 1–5, which are no longer read. *)
let version = 6

let magic = "KSNP"

let header_bytes = 10 (* magic + u16 version + u32 crc *)

let put_int_array e a =
  Codec.put_u32 e (Array.length a);
  Array.iter (fun x -> Codec.put_u32 e x) a

let get_int_array d = Array.of_list (Codec.get_list d Codec.get_u32)

(* Ranks, chain positions, chain lengths and counters are unbounded ints
   in principle, so they travel as i64. *)
let put_int e x = Codec.put_i64 e (Int64.of_int x)
let get_int d = Int64.to_int (Codec.get_i64 d)

(* Refcounts (-1 for a free slot) and chain ids (-1 for unassigned) are
   biased by one to stay unsigned. *)
let encode ?base_seq ~seq (s : Engine.snapshot) =
  let e = Codec.encoder () in
  put_int e seq;
  (match base_seq with
   | None -> Codec.put_bool e false
   | Some b ->
     Codec.put_bool e true;
     put_int e b);
  let g = s.Engine.snap_graph in
  put_int_array e g.Graph.snap_slots;
  Array.iter (fun rc -> Codec.put_u32 e (rc + 1)) g.Graph.snap_refcount;
  Array.iter (Codec.put_u32 e) g.Graph.snap_gen;
  Array.iter (put_int e) g.Graph.snap_rank;
  Array.iter (put_int_array e) g.Graph.snap_succ;
  Array.iter (fun c -> Codec.put_u32 e (c + 1)) g.Graph.snap_chain_of;
  Array.iter (put_int e) g.Graph.snap_chain_pos;
  Codec.put_bool e g.Graph.snap_digests;
  if g.Graph.snap_digests then
    Array.iter
      (fun ls ->
        Codec.put_u32 e (Array.length ls);
        Array.iter
          (fun (pred, head, pos) ->
            Codec.put_i64 e pred;
            Codec.put_string e head;
            put_int e pos)
          ls)
      g.Graph.snap_digest_links;
  Codec.put_u32 e g.Graph.snap_next_slot;
  put_int_array e g.Graph.snap_free;
  put_int e g.Graph.snap_next_rank;
  put_int e g.Graph.snap_traversals;
  put_int e g.Graph.snap_visited_total;
  put_int e g.Graph.snap_version;
  Codec.put_u32 e (Array.length g.Graph.snap_chain_len);
  Array.iter (put_int e) g.Graph.snap_chain_len;
  put_int_array e g.Graph.snap_free_chains;
  put_int e s.Engine.snap_creates;
  put_int e s.Engine.snap_queries;
  put_int e s.Engine.snap_assigns;
  put_int e s.Engine.snap_aborted_batches;
  put_int e s.Engine.snap_reversals;
  put_int e s.Engine.snap_collected;
  let body = Codec.to_string e in
  let b = Buffer.create (String.length body + header_bytes) in
  Buffer.add_string b magic;
  Buffer.add_uint16_be b version;
  Buffer.add_int32_be b (Crc32.string body);
  Buffer.add_string b body;
  Buffer.contents b

(* Header check shared by the decoder and the send and compaction paths:
   returns the body on success. *)
let validate data =
  if String.length data < header_bytes then
    raise (Codec.Decode_error "snapshot: truncated header");
  if String.sub data 0 4 <> magic then
    raise (Codec.Decode_error "snapshot: bad magic");
  let v = String.get_uint16_be data 4 in
  if v <> version then
    raise (Codec.Decode_error (Printf.sprintf "snapshot: unsupported version %d" v));
  let crc = String.get_int32_be data 6 in
  let body = String.sub data header_bytes (String.length data - header_bytes) in
  if Crc32.string body <> crc then
    raise (Codec.Decode_error "snapshot: checksum mismatch");
  body

let is_valid data =
  match validate data with
  | (_ : string) -> true
  | exception Codec.Decode_error _ -> false

(* Fields are bound in file order: record fields evaluate in no fixed
   order. *)
let decode_any data =
  let body = validate data in
  let d = Codec.decoder body in
  let count what =
    let n = Codec.get_u32 d in
    if n > String.length body then
      raise (Codec.Decode_error ("snapshot: absurd " ^ what ^ " count"));
    n
  in
  let seq = get_int d in
  let base_seq = if Codec.get_bool d then Some (get_int d) else None in
  let snap_slots = Array.init (count "slot") (fun _ -> Codec.get_u32 d) in
  let column get = Array.map (fun _ -> get d) snap_slots in
  let snap_refcount = column (fun d -> Codec.get_u32 d - 1) in
  let snap_gen = column Codec.get_u32 in
  let snap_rank = column get_int in
  let snap_succ = column get_int_array in
  let snap_chain_of = column (fun d -> Codec.get_u32 d - 1) in
  let snap_chain_pos = column get_int in
  let snap_digests = Codec.get_bool d in
  let snap_digest_links =
    if not snap_digests then Array.map (fun _ -> [||]) snap_slots
    else
      column (fun d ->
          Array.init (count "link") (fun _ ->
              let pred = Codec.get_i64 d in
              let head = Codec.get_string d in
              let pos = get_int d in
              (pred, head, pos)))
  in
  let snap_next_slot = Codec.get_u32 d in
  let snap_free = get_int_array d in
  let snap_next_rank = get_int d in
  let snap_traversals = get_int d in
  let snap_visited_total = get_int d in
  let snap_version = get_int d in
  let snap_chain_len = Array.init (count "chain") (fun _ -> get_int d) in
  let snap_free_chains = get_int_array d in
  let snap_creates = get_int d in
  let snap_queries = get_int d in
  let snap_assigns = get_int d in
  let snap_aborted_batches = get_int d in
  let snap_reversals = get_int d in
  let snap_collected = get_int d in
  Codec.expect_end d;
  ( seq,
    base_seq,
    {
      Engine.snap_graph =
        {
          Graph.snap_slots;
          snap_refcount;
          snap_gen;
          snap_rank;
          snap_succ;
          snap_digest_links;
          snap_chain_of;
          snap_chain_pos;
          snap_next_slot;
          snap_free;
          snap_next_rank;
          snap_traversals;
          snap_visited_total;
          snap_version;
          snap_chain_len;
          snap_free_chains;
          snap_digests;
        };
      snap_creates;
      snap_queries;
      snap_assigns;
      snap_aborted_batches;
      snap_reversals;
      snap_collected;
    } )

let decode data =
  match decode_any data with
  | seq, None, s -> (seq, s)
  | _, Some _, _ ->
    raise (Codec.Decode_error "snapshot: a delta, not a full file")

(* File names say which kind a file holds, so compaction can sort files
   without reading them. *)
let filename ~seq = Printf.sprintf "snap-%010d.snap" seq
let delta_filename ~seq = Printf.sprintf "delta-%010d.delta" seq

let parse ~prefix ~suffix name =
  let p = String.length prefix in
  if String.length name = p + 10 + String.length suffix
     && String.starts_with ~prefix name
     && Filename.check_suffix name suffix
  then int_of_string_opt (String.sub name p 10)
  else None

let parse_filename = parse ~prefix:"snap-" ~suffix:".snap"
let parse_delta_filename = parse ~prefix:"delta-" ~suffix:".delta"

let m_writes =
  Kronos_metrics.counter (Kronos_metrics.scope "snapshot") "writes_total"

let m_delta_writes =
  Kronos_metrics.counter (Kronos_metrics.scope "snapshot") "delta_writes_total"

let m_bytes =
  Kronos_metrics.counter (Kronos_metrics.scope "snapshot") "bytes_written_total"

(* tmp -> sync -> rename, so a crash mid-write never leaves a readable but
   bogus file under the final name. *)
let persist storage name data =
  let tmp = Filename.remove_extension name ^ ".tmp" in
  storage.Storage.remove_file tmp;
  let w = storage.Storage.open_append tmp in
  w.Storage.append data;
  w.Storage.sync ();
  w.Storage.close ();
  storage.Storage.rename_file tmp name

let write_file storage counter name data =
  Kronos_metrics.Counter.incr counter;
  Kronos_metrics.Counter.add m_bytes (String.length data);
  persist storage name data

let write_bytes storage ~seq data =
  write_file storage m_writes (filename ~seq) data

let write ?base_seq storage ~seq engine =
  match base_seq with
  | None -> write_bytes storage ~seq (encode ~seq (Engine.to_snapshot engine))
  | Some _ ->
    write_file storage m_delta_writes (delta_filename ~seq)
      (encode ?base_seq ~seq (Engine.to_delta engine))

(* Files that [parse] names, newest first. *)
let files_named storage parse =
  storage.Storage.list_files ()
  |> List.filter_map (fun n -> Option.map (fun s -> (s, n)) (parse n))
  |> List.sort (fun a b -> compare b a)

let list_snapshots storage = files_named storage parse_filename
let list_deltas storage = files_named storage parse_delta_filename

(* ------------------------------------------------------------------ *)
(* Recovery heads (DESIGN.md §16).                                     *)
(*                                                                     *)
(* A delta file carries a capture against the snapshot state at its    *)
(* base — itself a full file or another delta, forming a chain that    *)
(* terminates in a full snapshot.  Recovery resolves the newest head   *)
(* whose whole chain is intact; any corrupt or missing link makes the  *)
(* resolver fall back to the next older head, exactly like corrupt     *)
(* full snapshots.                                                     *)
(* ------------------------------------------------------------------ *)

(* Fuel for chain resolution: a delta chain longer than this is treated as
   unresolvable (policies cap chains at a handful of links; only corrupt
   base_seq values could approach the bound). *)
let max_chain_depth = 1024

(* Resolve the composed snapshot state at [seq]: a valid full file wins;
   otherwise a valid delta at [seq] recursively resolves its base and
   overlays.  Returns the composed snapshot and the number of deltas
   applied, or [None] when any link of the chain is missing or corrupt. *)
let rec state_at storage ~fuel seq =
  let read name =
    match storage.Storage.read_file name with
    | None -> None
    | Some data -> (
        try Some (decode_any data)
        with Codec.Decode_error _ | Invalid_argument _ -> None)
  in
  match read (filename ~seq) with
  | Some (s, None, snap) when s = seq -> Some (snap, 0)
  | _ -> (
      if fuel <= 0 then None
      else
        match read (delta_filename ~seq) with
        | Some (s, Some base_seq, d) when s = seq && base_seq < seq -> (
            match state_at storage ~fuel:(fuel - 1) base_seq with
            | None -> None
            | Some (base, applied) -> (
                match Engine.apply_delta base d with
                | snap -> Some (snap, applied + 1)
                | exception Invalid_argument _ -> None))
        | _ -> None)

(* Candidate recovery heads: every sequence number holding a full or delta
   file, newest first. *)
let heads storage =
  let seqs =
    List.map fst (list_snapshots storage)
    @ List.map fst (list_deltas storage)
  in
  List.sort_uniq (fun a b -> compare b a) seqs

let load_chain ?config storage =
  List.find_map
    (fun seq ->
      match state_at storage ~fuel:max_chain_depth seq with
      | None -> None
      | Some (snap, applied) -> (
          match Engine.of_snapshot ?config snap with
          | engine -> Some (seq, engine, applied)
          | exception Invalid_argument _ -> None))
    (heads storage)

let load_chain_bytes storage =
  List.find_map
    (fun seq ->
      (* fast path: a checksum-valid full file ships as-is *)
      match storage.Storage.read_file (filename ~seq) with
      | Some data when is_valid data -> Some (seq, data)
      | _ -> (
          match state_at storage ~fuel:max_chain_depth seq with
          | None -> None
          | Some (snap, _) -> Some (seq, encode ~seq snap)))
    (heads storage)

(* ------------------------------------------------------------------ *)
(* Compaction manifest.                                                *)
(*                                                                     *)
(* A small text file naming the current recovery head and the files    *)
(* compaction decided to keep.  It is a {e hint and audit record}, not *)
(* an index: recovery always rescans the directory, so a torn or stale *)
(* manifest can never lose state — the scan-based resolver is the      *)
(* source of truth and the manifest lets operators (and the nemesis    *)
(* checker) verify compaction's crash ordering after the fact.         *)
(* ------------------------------------------------------------------ *)

let manifest_name = "MANIFEST"

let write_manifest storage ~head kept =
  let b = Buffer.create 256 in
  Buffer.add_string b "kronos-manifest 1\n";
  Buffer.add_string b (Printf.sprintf "head %d\n" head);
  List.iter (fun n -> Buffer.add_string b (n ^ "\n")) kept;
  persist storage manifest_name (Buffer.contents b)

let read_manifest storage =
  match storage.Storage.read_file manifest_name with
  | None -> None
  | Some data -> (
      match String.split_on_char '\n' data with
      | header :: rest when header = "kronos-manifest 1" -> (
          match rest with
          | head_line :: files
            when String.length head_line > 5
                 && String.sub head_line 0 5 = "head " -> (
              match
                int_of_string_opt
                  (String.sub head_line 5 (String.length head_line - 5))
              with
              | Some head ->
                Some (head, List.filter (fun l -> l <> "") files)
              | None -> None)
          | _ -> None)
      | _ -> None)

let m_retired =
  Kronos_metrics.counter
    (Kronos_metrics.scope "durability")
    "snapshots_retired_total"

(* Retire snapshot files made redundant by newer durable state: delta
   files at or below the newest valid full snapshot (the full already
   covers them), fulls older than the newest [keep] checksum-valid ones
   (rotten fulls count for nothing, so the newest valid full always
   stays), and stray temporaries.  The manifest naming the head and the
   kept files is written {e before} anything is unlinked, so a crash
   mid-compaction leaves extra files, never a manifest naming removed
   ones; unlinking is idempotent and the next compact retires what is
   left.  Returns the number of files removed. *)
let compact storage ~keep =
  let valid name =
    match storage.Storage.read_file name with
    | Some data -> is_valid data
    | None -> false
  in
  let valid_fulls =
    List.filter (fun (_, n) -> valid n) (list_snapshots storage)
  in
  let newest_full = match valid_fulls with (s, _) :: _ -> s | [] -> min_int in
  let oldest_kept =
    match List.nth_opt valid_fulls (max keep 1 - 1) with
    | Some (s, _) -> s
    | None -> min_int
  in
  let doomed =
    List.filter_map
      (fun (seq, n) -> if seq <= newest_full then Some n else None)
      (list_deltas storage)
    @ List.filter_map
        (fun (seq, n) -> if seq < oldest_kept then Some n else None)
        (list_snapshots storage)
    @ List.filter
        (fun n ->
          Filename.check_suffix n ".tmp"
          && (String.starts_with ~prefix:"snap-" n
              || String.starts_with ~prefix:"delta-" n))
        (storage.Storage.list_files ())
  in
  let kept =
    List.filter
      (fun n ->
        (parse_filename n <> None || parse_delta_filename n <> None)
        && not (List.mem n doomed))
      (storage.Storage.list_files ())
  in
  (* The manifest records the head recovery would actually resolve, not
     just the newest file name — a torn newest file must not be audited as
     the head it can never be.  Checksum-valid fulls short-circuit the
     chain walk.  No head resolves through a doomed file: every head is at
     or above the newest valid full. *)
  let resolvable seq =
    valid (filename ~seq) || state_at storage ~fuel:max_chain_depth seq <> None
  in
  (match List.find_opt resolvable (heads storage) with
   | Some head -> write_manifest storage ~head kept
   | None -> storage.Storage.remove_file manifest_name);
  List.iter
    (fun name ->
      storage.Storage.remove_file name;
      Kronos_metrics.Counter.incr m_retired)
    doomed;
  List.length doomed
