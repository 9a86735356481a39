(* The benchmark's Kronos server: one process hosting the chain
   coordinator and an N-replica chain, assembled from the same public
   library calls kronosd makes (Tcp_transport.create/listen,
   Server.start_node with Server.durability, Chain.Coordinator.create,
   Query_pool.create).  Each replica has its own TCP listener; all of them
   share one event loop, so chain hops cross real loopback sockets while
   the server's work stays on one thread.  The tail replica answers reads
   through a one-domain query pool.

     kserver.exe --dir DIR [--replicas N] [--trace FILE]

   Prints "ports P1 .. PN" once the chain is configured (replica i listens
   on Pi; the coordinator shares replica 1's endpoint).  SIGTERM stops it.

   With --trace the closures handed to the library are wrapped: the codec
   given to Tcp_transport.create, the Transport.t's send and the handlers
   given to its register, and the Storage.t writers.  Recording starts on
   SIGUSR1 and stops on SIGUSR2; on SIGTERM the server also times a
   snapshot capture/encode/decode/restore of the tail's engine and writes
   the spans and counters to FILE. *)

open Kronos
module Chain = Kronos_replication.Chain
module Codec = Kronos_replication.Chain_codec
module Server = Kronos_service.Server
module Query_pool = Kronos_service.Query_pool
module Storage = Kronos_durability.Storage
module Snapshot = Kronos_durability.Snapshot
module Transport = Kronos_transport.Transport
module Tcp = Kronos_transport.Tcp_transport
module Event_loop = Kronos_transport.Event_loop

let coordinator_addr = 1000
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* {1 Tracing} *)

let recording = ref false

(* The request a message belongs to: the chain's req_id (the benchmark
   has one client address, so req_id alone identifies the request). *)
let key_of (m : Chain.msg) =
  match m with
  | Client_write { req_id; _ } | Client_read { req_id; _ } | Forward { req_id; _ }
  | Reply { req_id; _ } ->
    req_id
  | _ -> -1

let kind_of (m : Chain.msg) =
  match m with
  | Client_write _ -> "client_write"
  | Client_read _ -> "client_read"
  | Forward _ -> "forward"
  | Ack _ -> "ack"
  | Reply _ -> "reply"
  | _ -> "control"

(* Spans kept in memory, written out at exit. *)
let spans = Buffer.create (1 lsl 20)

let span key stage t0 t1 =
  if key >= 0 then Printf.bprintf spans "%d %s %d %d\n" key stage t0 t1

(* Per-kind accumulators: count, nanoseconds, bytes. *)
let acc : (string, int array) Hashtbl.t = Hashtbl.create 32

let add name ?(bytes = 0) ns =
  let a =
    match Hashtbl.find_opt acc name with
    | Some a -> a
    | None ->
      let a = [| 0; 0; 0 |] in
      Hashtbl.replace acc name a;
      a
  in
  a.(0) <- a.(0) + 1;
  a.(1) <- a.(1) + ns;
  a.(2) <- a.(2) + bytes

(* Read commands seen while recording, replayed at exit to time the
   engine's share of a read. *)
let reads = Queue.create ()
let max_reads = 4000

(* The request whose handler is running (storage calls are charged to
   it), and the snapshot bookkeeping of that handler. *)
let current = ref (-1)
let last_wal_sync_end = ref 0
let snap_end = ref 0

let traced_codec ~addr =
  let encode m =
    if not !recording then Codec.encode m
    else
      let t0 = now_ns () in
      let s = Codec.encode m in
      let t1 = now_ns () in
      add ("encode." ^ kind_of m) ~bytes:(String.length s) (t1 - t0);
      span (key_of m) (Printf.sprintf "encode.%s@%d" (kind_of m) addr) t0 t1;
      s
  in
  let decode s =
    if not !recording then Codec.decode s
    else
      let t0 = now_ns () in
      let m = Codec.decode s in
      let t1 = now_ns () in
      (match m with
       | Client_read { cmd; _ } when Queue.length reads < max_reads -> Queue.push cmd reads
       | _ -> ());
      add ("decode." ^ kind_of m) ~bytes:(String.length s) (t1 - t0);
      span (key_of m) (Printf.sprintf "decode.%s@%d" (kind_of m) addr) t0 t1;
      m
  in
  (encode, decode)

let traced_net (net : Chain.msg Transport.t) =
  let send ~src ~dst m =
    if !recording then add ("send." ^ kind_of m) 0;
    net.send ~src ~dst m
  in
  let register addr handler =
    net.register addr (fun ~src m ->
        if not !recording then handler ~src m
        else begin
          let key = key_of m in
          current := key;
          snap_end := 0;
          let t0 = now_ns () in
          last_wal_sync_end := t0;
          handler ~src m;
          let t1 = now_ns () in
          current := -1;
          let stage = Printf.sprintf "handle.%s@%d" (kind_of m) addr in
          add stage (t1 - t0);
          add "handle.all" (t1 - t0);
          span key stage t0 t1;
          if !snap_end > 0 then add "snapshot" (!snap_end - !last_wal_sync_end)
        end)
  in
  { net with send; register }

let is_wal name = String.starts_with ~prefix:"wal-" name

let traced_storage (st : Storage.t) =
  let timed name stage f =
    if not !recording then f ()
    else
      let t0 = now_ns () in
      let r = f () in
      let t1 = now_ns () in
      if is_wal name then begin
        add stage (t1 - t0);
        span !current stage t0 t1;
        if stage = "wal.sync" then last_wal_sync_end := t1
      end
      else snap_end := t1;
      r
  in
  let open_append name =
    let w = st.open_append name in
    {
      w with
      Storage.append =
        (fun s ->
          timed name "wal.append" (fun () -> w.append s);
          if !recording && is_wal name then add "wal.bytes" ~bytes:(String.length s) 0);
      sync = (fun () -> timed name "wal.sync" w.sync);
    }
  in
  {
    st with
    Storage.open_append;
    rename_file = (fun a b -> timed b "snap.rename" (fun () -> st.rename_file a b));
    remove_file = (fun n -> timed n "snap.remove" (fun () -> st.remove_file n));
  }

(* Replay the recorded reads on the tail's engine through Server.apply
   (the synchronous read path), timing them and counting the engine work
   they cause. *)
let query_probe engine =
  let sample name = Option.value ~default:0. (List.assoc_opt name (Kronos_metrics.samples ())) in
  let counters =
    [ "bfs_visited_total"; "bfs_traversals_total"; "label_hits_total"; "label_misses_total" ]
  in
  let before = List.map (fun c -> sample ("kronos_engine_" ^ c)) counters in
  let t0 = now_ns () in
  Queue.iter (fun cmd -> ignore (Server.apply engine cmd)) reads;
  let ns = now_ns () - t0 in
  let after = List.map (fun c -> sample ("kronos_engine_" ^ c)) counters in
  ("probe.queries", Queue.length reads)
  :: ("probe.query_ns", ns)
  :: List.map2 (fun c (b, a) -> ("probe." ^ c, int_of_float (a -. b)))
       counters (List.combine before after)

(* Capture, encode, decode and restore the engine once each, timed. *)
let durability_probe engine =
  let time f =
    let t0 = now_ns () in
    let r = f () in
    (r, now_ns () - t0)
  in
  let snap, capture = time (fun () -> Engine.to_snapshot engine) in
  let bytes, encode = time (fun () -> Snapshot.encode ~seq:1 snap) in
  let (_, snap'), decode = time (fun () -> Snapshot.decode bytes) in
  let _, restore = time (fun () -> Engine.of_snapshot snap') in
  [
    ("probe.capture_ns", capture);
    ("probe.encode_ns", encode);
    ("probe.decode_ns", decode);
    ("probe.restore_ns", restore);
    ("probe.snapshot_bytes", String.length bytes);
  ]

let write_dump file ~samples_start ~samples_end ~extra =
  let oc = open_out file in
  List.iter (fun (k, v) -> Printf.fprintf oc "start %s %.17g\n" k v) samples_start;
  List.iter (fun (k, v) -> Printf.fprintf oc "end %s %.17g\n" k v) samples_end;
  Hashtbl.iter
    (fun k a -> Printf.fprintf oc "acc %s %d %d %d\n" k a.(0) a.(1) a.(2))
    acc;
  List.iter (fun (k, v) -> Printf.fprintf oc "extra %s %d\n" k v) extra;
  Buffer.output_buffer oc spans;
  close_out oc

(* {1 Main} *)

let () =
  let dir = ref "" and replicas = ref 3 and trace = ref "" in
  Arg.parse
    [
      ("--dir", Arg.Set_string dir, "DIR data directory (one subdirectory per replica)");
      ("--replicas", Arg.Set_int replicas, "N chain length (default 3)");
      ("--trace", Arg.Set_string trace, "FILE wrap library closures, dump to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "kserver.exe --dir DIR [--replicas N] [--trace FILE]";
  if !dir = "" || !replicas < 1 then exit 2;
  let traced = !trace <> "" in
  let addrs = List.init !replicas (fun i -> i + 1) in
  let loop = Event_loop.create () in
  (* Reader domains must exist before any engine does. *)
  let pool = Query_pool.create ~loop ~domains:1 () in
  let tcp_config =
    { Tcp.default_config with backoff_min = 0.02; backoff_max = 0.2 }
  in
  let runtimes =
    List.map
      (fun a ->
        let encode, decode =
          if traced then traced_codec ~addr:a else (Codec.encode, Codec.decode)
        in
        let t = Tcp.create ~loop ~encode ~decode ~config:tcp_config () in
        (a, t, Tcp.listen t ~port:0 ()))
      addrs
  in
  let port_of a = List.assoc a (List.map (fun (a, _, p) -> (a, p)) runtimes) in
  List.iter
    (fun (_, t, _) ->
      Tcp.add_peer t coordinator_addr ~host:"127.0.0.1" ~port:(port_of 1);
      List.iter (fun a -> Tcp.add_peer t a ~host:"127.0.0.1" ~port:(port_of a)) addrs)
    runtimes;
  let net_of t = if traced then traced_net (Tcp.transport t) else Tcp.transport t in
  let durability =
    Server.durability ~policy:(Server.snapshot_policy ())
      ~storage_of:(fun a ->
        let st = Storage.files ~dir:(Filename.concat !dir (string_of_int a)) in
        if traced then traced_storage st else st)
      ()
  in
  let tail = List.nth addrs (!replicas - 1) in
  let nodes =
    List.map
      (fun (a, t, _) ->
        let query_pool = if a = tail then Some pool else None in
        let replica, engine =
          Server.start_node ~net:(net_of t) ~addr:a ~durability ?query_pool ()
        in
        (a, t, replica, engine))
      runtimes
  in
  let _, t1, _, _ = List.hd nodes in
  (* Failures are not part of these workloads, and the replicas share one
     thread: a long snapshot must not read as a dead replica. *)
  ignore
    (Chain.Coordinator.create ~net:(net_of t1) ~addr:coordinator_addr ~chain:addrs
       ~ping_interval:0.2 ~failure_timeout:30. ());
  let configured () =
    List.for_all
      (fun (_, _, r, _) -> (Chain.Replica.config r).Chain.chain = addrs)
      nodes
  in
  if not (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. 30.) configured)
  then begin
    prerr_endline "kserver: chain did not form";
    exit 1
  end;
  Printf.printf "ports %s\n%!"
    (String.concat " " (List.map (fun a -> string_of_int (port_of a)) addrs));
  (* Signals only raise flags; the loop thread acts on them. *)
  let stop = Atomic.make false and start_rec = Atomic.make false in
  let stop_rec = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set start_rec true));
  Sys.set_signal Sys.sigusr2 (Sys.Signal_handle (fun _ -> Atomic.set stop_rec true));
  let samples_start = ref [] and samples_end = ref [] in
  let ticks_start = ref 0 and ticks = ref 0 in
  let dropped () = List.fold_left (fun n (_, t, _) -> n + Tcp.dropped t) 0 runtimes in
  let dropped_start = ref 0 and dropped_end = ref 0 in
  (* untraced, the event loop runs exactly as in kronosd *)
  if traced then
    ignore
      (Event_loop.every loop ~period:0.005 (fun () ->
           if Atomic.exchange start_rec false then begin
             samples_start := Kronos_metrics.samples ();
             ticks_start := Event_loop.ticks loop;
             dropped_start := dropped ();
             recording := true
           end;
           if Atomic.exchange stop_rec false then begin
             recording := false;
             samples_end := Kronos_metrics.samples ();
             ticks := Event_loop.ticks loop - !ticks_start;
             dropped_end := dropped ()
           end));
  Event_loop.run_forever loop ~stop:(fun () -> Atomic.get stop);
  if traced then begin
    let _, _, _, engine = List.nth nodes (!replicas - 1) in
    let extra =
      [ ("loop_ticks", !ticks); ("tcp_dropped", !dropped_end - !dropped_start) ]
      @ query_probe !engine @ durability_probe !engine
    in
    write_dump !trace ~samples_start:!samples_start ~samples_end:!samples_end ~extra
  end;
  Query_pool.stop pool;
  List.iter (fun (_, t, _) -> Tcp.shutdown t) runtimes
