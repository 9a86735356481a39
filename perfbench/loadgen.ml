(* The benchmark's load generator: spawns the Kronos server (kserver.exe)
   as a child process, drives it over real TCP from one thread with at
   most two connections (head + coordinator, tail), checks every answer,
   and prints the run's metrics.

     loadgen.exe --workload W --seed N --seconds S --trace 0|1
                 --rate R --limit-ms L --server PATH --work DIR

   The last line of standard output is the JSON result; the human-readable
   report (metadata, sample counts, the traced run's breakdown) goes to
   standard error and to DIR/report-W-N-T.txt. *)

open Kronos
module Chain = Kronos_replication.Chain
module Codec = Kronos_replication.Chain_codec
module Client = Kronos_service.Client
module Error = Kronos_service.Error
module Tcp = Kronos_transport.Tcp_transport
module Event_loop = Kronos_transport.Event_loop
module Rng = Kronos_simnet.Rng
module S = Perfbench_core.Streams
module Openloop = Perfbench_core.Openloop
module P = Perfbench_core.Pstats

let now () = Unix.gettimeofday ()
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let report = Buffer.create 4096

let say fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      Buffer.add_string report s;
      Buffer.add_char report '\n')
    fmt

exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_failure s)) fmt

(* {1 Configuration} *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let rate = ref 0.
let limit_ms = ref 0.
let server_exe = ref ""
let work = ref ""
let commit = ref "unknown"

(* Preload size: Graph_gen.twitter_like at this scale (about 20k vertices
   and 220k edges at 0.25). *)
let graph_scale = 0.25

(* Setups per run (set-up time and fresh-start time are their medians). *)
let setups = function "social_write" -> 3 | _ -> 1

(* Kill/restart cycles of cold_restart (recovery time is their median). *)
let restarts = 3

(* Edges appended after the cold_restart preload: the WAL tail recovery
   replays on top of the snapshots. *)
let cold_tail_edges = 20_000

(* {1 The server process} *)

type server = {
  pid : int;
  ports : int list;
  out : in_channel;
  spawned : float;
  dir : string;
  dump : string option;
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let spawn ~dir ~replicas ~dump =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ !server_exe; "--dir"; dir; "--replicas"; string_of_int replicas ]
    @ match dump with Some f -> [ "--trace"; f ] | None -> []
  in
  let spawned = now () in
  let pid = Unix.create_process !server_exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  (match Unix.select [ r ] [] [] 120. with
   | [], _, _ -> fail "server did not report its ports"
   | _ -> ());
  let line = try input_line out with End_of_file -> fail "server exited at start" in
  let ports =
    match String.split_on_char ' ' line with
    | "ports" :: ps -> List.map int_of_string ps
    | _ -> fail "unexpected server output: %s" line
  in
  { pid; ports; out; spawned; dir; dump }

let reap ?(timeout = 60.) s =
  let deadline = now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  close_in_noerr s.out

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap s

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s

(* Server CPU seconds (user + system, every thread) and peak RSS. *)
let server_cpu s =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" s.pid) in
  let line = input_line ic in
  close_in ic;
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_string f.(11) +. float_of_string f.(12) |> fun ticks -> ticks /. 100.

let server_hwm_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  let v = find () in
  close_in ic;
  v

let client_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {1 Client-side tracing: the codec given to Tcp_transport.create} *)

let ctrace = ref false
let issuing = ref (-1)  (* op index whose request is being sent *)
let req_of_op : (int, int) Hashtbl.t = Hashtbl.create 4096
let cspans = Buffer.create (1 lsl 16)
let cenc = [| 0; 0; 0 |] and cdec = [| 0; 0; 0 |]  (* count, ns, bytes *)

let bump a ns bytes =
  a.(0) <- a.(0) + 1;
  a.(1) <- a.(1) + ns;
  a.(2) <- a.(2) + bytes

let client_encode m =
  if not !ctrace then Codec.encode m
  else
    let t0 = now_ns () in
    let s = Codec.encode m in
    let t1 = now_ns () in
    bump cenc (t1 - t0) (String.length s);
    (match m with
     | Chain.Client_write { req_id; _ } | Chain.Client_read { req_id; _ } ->
       if !issuing >= 0 && not (Hashtbl.mem req_of_op !issuing) then
         Hashtbl.replace req_of_op !issuing req_id;
       Printf.bprintf cspans "%d client.encode %d %d\n" req_id t0 t1
     | _ -> ());
    s

let client_decode s =
  if not !ctrace then Codec.decode s
  else
    let t0 = now_ns () in
    let m = Codec.decode s in
    let t1 = now_ns () in
    bump cdec (t1 - t0) (String.length s);
    (match m with
     | Chain.Reply { req_id; _ } -> Printf.bprintf cspans "%d client.decode %d %d\n" req_id t0 t1
     | _ -> ());
    m

(* {1 Connections} *)

type conn = { loop : Event_loop.t; tcp : Chain.msg Tcp.t; client : Client.t }

let coordinator = 1000
let next_client = ref 9000

let connect s =
  (* A fresh client address per connection: replicas deduplicate by
     (client, req_id), and a recovered replica remembers old requests. *)
  incr next_client;
  let loop = Event_loop.create () in
  let tcp = Tcp.create ~loop ~encode:client_encode ~decode:client_decode () in
  let head = List.hd s.ports and n = List.length s.ports in
  Tcp.add_peer tcp coordinator ~host:"127.0.0.1" ~port:head;
  Tcp.add_peer tcp 1 ~host:"127.0.0.1" ~port:head;
  if n > 1 then Tcp.add_peer tcp n ~host:"127.0.0.1" ~port:(List.nth s.ports (n - 1));
  Tcp.connect_peers tcp;
  let client =
    Client.create ~net:(Tcp.transport tcp) ~addr:!next_client ~coordinator
      ~request_timeout:1.0 ()
  in
  { loop; tcp; client }

let disconnect c = Tcp.shutdown c.tcp

let run_until c ?(secs = 300.) what pred =
  if not (Event_loop.run_until c.loop ~deadline:(now () +. secs) pred) then
    fail "timed out waiting for %s" what

(* {1 Issuing and checking operations} *)

type outcome = Good | Wrong of string | Failed

let wrong_answers = ref []
let n_wrong = ref 0

let note = function
  | Wrong msg ->
    incr n_wrong;
    if List.length !wrong_answers < 5 then wrong_answers := msg :: !wrong_answers
  | Good | Failed -> ()

let rel_name r = Format.asprintf "%a" Order.pp_relation r

let check_rels expect rels =
  match (expect, rels) with
  | S.One_of allowed, [ r ] ->
    if List.exists (Order.relation_equal r) allowed then Good
    else Wrong (Printf.sprintf "query answered %s" (rel_name r))
  | _ -> Wrong "query answered the wrong number of pairs"

let check_outs expect outs =
  match expect with
  | S.Outcomes o when List.equal Order.outcome_equal o outs -> Good
  | S.Outcomes _ -> Wrong "assign outcomes differ from the model"
  | S.Not_reversed k
    when List.length outs = k && not (List.exists (Order.outcome_equal Order.Reversed) outs) ->
    Good
  | _ -> Wrong "assign outcomes malformed"

(* A refusal of a valid operation is both a failure and a wrong answer. *)
let of_error = function
  | Error.Rejected e -> Wrong (Format.asprintf "refused: %a" Order.pp_assign_error e)
  | Error.Timeout | Error.Proof_invalid _ -> Failed

(* Events whose creation has been acknowledged: a read may only name
   those (the tail may not have applied a create still in flight). *)
let acked_events : (Event_id.t, unit) Hashtbl.t = Hashtbl.create 65536

let readable (item : S.item) =
  match item.op with
  | S.Query (a, b) -> Hashtbl.mem acked_events a && Hashtbl.mem acked_events b
  | _ -> true

let submit c ~at_least ?timeout (item : S.item) k =
  let k o =
    note o;
    k o
  in
  match item.op with
  | S.Create ->
    Client.create_event c.client ?timeout (function
      | Ok id -> (
        Hashtbl.replace acked_events id ();
        match item.expect with
        | S.Created e when not (Event_id.equal e id) ->
          k (Wrong (Printf.sprintf "created %s, model says %s" (Event_id.to_string id) (Event_id.to_string e)))
        | _ -> k Good)
      | Error e -> k (of_error e))
  | S.Assign specs ->
    Client.assign_order c.client ?timeout specs (function
      | Ok outs -> k (check_outs item.expect outs)
      | Error e -> k (of_error e))
  | S.Release e ->
    Client.release_ref c.client ?timeout e (function
      | Ok n -> (
        match item.expect with
        | S.Collected m when m <> n -> k (Wrong (Printf.sprintf "release collected %d, model %d" n m))
        | _ -> k Good)
      | Error e -> k (of_error e))
  | S.Query (a, b) ->
    let consistency = if at_least then `At_least (Client.last_epoch c.client) else `Latest in
    Client.query_order c.client ?timeout ~consistency [ (a, b) ] (function
      | Ok rels -> k (check_rels item.expect rels)
      | Error e -> k (of_error e))

(* Closed-window pipelined load, for set-up: at most [window] operations in
   flight. *)
let pipeline c ?(window = 128) items =
  let t0 = now () in
  let n = Array.length items in
  let next = ref 0 and finished = ref 0 and failed = ref 0 in
  let rec pump () =
    if !next < n && !next - !finished < window then begin
      let i = !next in
      incr next;
      submit c ~at_least:false items.(i) (fun o ->
          if o <> Good then incr failed;
          incr finished);
      pump ()
    end
  in
  pump ();
  run_until c "set-up load" (fun () ->
      pump ();
      !finished = n);
  if !failed > 0 then fail "%d set-up operations failed" !failed;
  say "  set-up load: %d operations in %.2f s" n (now () -. t0)

(* {1 Open-loop phases} *)

type phase = {
  items : S.item array;
  ol : Openloop.t;
  outcomes : outcome array;
  sent_ns : int array;
  done_ns : int array;
  wall : float;
  server_cpu_s : float;
  client_cpu_s : float;
}

(* Called with every finished phase (the graph workloads learn from it
   which edges were sent and acked). *)
let observe : (phase -> unit) ref = ref ignore

let run_phase c s ?stop ~offsets ~at_least ?timeout ~drain items =
  let n = Array.length items in
  let start = now () +. 0.005 in
  let ol = Openloop.create ~start offsets in
  let outcomes = Array.make n Failed in
  let sent_ns = Array.make n 0 and done_ns = Array.make n 0 in
  let cpu0 = server_cpu s and ccpu0 = client_cpu () in
  (* reads held back until the creates they name are acked; their
     latency still counts from the due time *)
  let waiting = ref [] in
  let rec send i =
    if not (readable items.(i)) then waiting := i :: !waiting
    else begin
      issuing := i;
      sent_ns.(i) <- now_ns ();
      submit c ~at_least ?timeout items.(i) (fun o ->
          done_ns.(i) <- now_ns ();
          outcomes.(i) <- o;
          Openloop.complete ol i ~now:(now ()) ~ok:(o = Good);
          if items.(i).op = S.Create && !waiting <> [] then begin
            let ready, still = List.partition (fun j -> readable items.(j)) !waiting in
            waiting := still;
            List.iter send (List.rev ready)
          end);
      issuing := -1
    end
  in
  let last = if n = 0 then 0. else offsets.(n - 1) in
  let stop = Option.map (fun f () -> f ol) stop in
  Openloop.run ?stop ol ~now
    ~wait:(fun d -> Event_loop.run_once c.loop ~max_wait:d ())
    ~send ~deadline:(start +. last +. drain);
  let wall = now () -. start in
  let p =
    {
      items;
      ol;
      outcomes;
      sent_ns;
      done_ns;
      wall;
      server_cpu_s = server_cpu s -. cpu0;
      client_cpu_s = client_cpu () -. ccpu0;
    }
  in
  !observe p;
  p

let latencies p ~writes =
  Openloop.latencies p.ol ~filter:(fun i -> S.is_write p.items.(i) = writes)
  |> Array.map (fun l -> l *. 1e6)

let failed_count p =
  Array.fold_left (fun n o -> if o = Good then n else n + 1) 0 p.outcomes

(* The open-loop capacity search.  One ramp offers every rate from the
   fixed rate up to twelve times it over [ramp_s] seconds, cut short once
   the oldest outstanding operation is a second late.  max_ops_s is the
   most operations completed in any one second: once the offered rate
   passes what the host can serve (server and generator share it), the
   completion rate stops climbing.  The run must overload the service:
   binned by due time, the bins from some point to the end of the ramp
   all have a p99 over the limit (a transient stall recovers, a growing
   backlog does not); the offered rate where that began is printed too,
   but it moves with where a rare expensive batch lands, and the
   completion rate does not. *)
let ramp_s = 6.
let bin_s = 0.25

let max_rate c s ~rng ~at_least ~limit ~make_items =
  let r0 = !rate and r1 = 12. *. !rate in
  let offsets = Openloop.ramp_schedule ~rng ~r0 ~r1 ~secs:ramp_s in
  let items = make_items (Array.length offsets) in
  let p =
    run_phase c s ~offsets ~at_least ~drain:30.
      ~stop:(fun ol -> Openloop.oldest_wait ol ~now:(now ()) > 1.)
      items
  in
  let ol = p.ol in
  let start = ol.Openloop.due.(0) -. offsets.(0) in
  let latency i =
    if i < ol.next && not (Float.is_nan ol.finished.(i)) then ol.finished.(i) -. ol.due.(i)
    else infinity
  in
  let nbins = int_of_float (ramp_s /. bin_s) in
  let bins = Array.make nbins [] in
  Array.iteri
    (fun i o ->
      let b = min (nbins - 1) (int_of_float (o /. bin_s)) in
      bins.(b) <- i :: bins.(b))
    offsets;
  let over b = P.percentile (Array.of_list (List.map latency bins.(b))) 99. > limit in
  let rec first b = if b > 0 && over (b - 1) then first (b - 1) else b in
  match if over (nbins - 1) then Some (first (nbins - 1)) else None with
  | None -> fail "the ramp to %.0f ops/s never overloaded the service" r1
  | Some b ->
    let i = List.find (fun i -> latency i > limit) (List.rev bins.(b)) in
    let t = ol.due.(i) -. start in
    let r = r0 +. ((r1 -. r0) *. t /. ramp_s) in
    (* the completion rate over the best second of the run *)
    let fin = P.sorted (Array.of_list (List.filter (fun f -> not (Float.is_nan f)) (Array.to_list ol.finished))) in
    let n = Array.length fin in
    let peak = ref 0 and hi = ref 0 in
    for lo = 0 to n - 1 do
      while !hi < n && fin.(!hi) < fin.(lo) +. 1. do incr hi done;
      peak := max !peak (!hi - lo)
    done;
    say "  ramp %.0f -> %.0f ops/s: %d sent, %d abandoned; p99 over the limit for good from %.2f s (%.0f ops/s offered); peak completion rate %d ops/s"
      r0 r1 ol.next ol.abandoned t r !peak;
    float_of_int !peak

(* {1 Checks} *)

let checks_failed = ref []

let verify cond fmt =
  Printf.ksprintf (fun s -> if not cond then checks_failed := s :: !checks_failed) fmt

(* Query pairs bypassing the client cache, [per] pairs per request. *)
let query_pairs c pairs =
  let pairs = Array.of_list pairs in
  let out = Array.make (Array.length pairs) None in
  let pending = ref 0 in
  let per = 128 in
  let i = ref 0 in
  while !i < Array.length pairs do
    let base = !i in
    let chunk = Array.to_list (Array.sub pairs base (min per (Array.length pairs - base))) in
    incr pending;
    Client.query_order_e c.client chunk (fun r ->
        decr pending;
        match r with
        | Ok (rels, _) -> List.iteri (fun j r -> out.(base + j) <- Some r) rels
        | Error _ -> ());
    i := !i + per
  done;
  run_until c ~secs:60. "check queries" (fun () -> !pending = 0);
  Array.to_list out

(* graph_read95 / cold_restart: a fixed sample against reachability on the
   generator's own copy of the DAG (preload plus run edges; [lower] only
   the edges acked, [upper] every edge sent). *)
let check_graph_sample c g sample ~acked ~sent =
  let pairs = List.concat_map (fun (s, ts) -> List.map (fun t -> (s, t)) ts) sample in
  let answers =
    query_pairs c (List.map (fun (s, t) -> (g.S.ids.(s), g.S.ids.(t))) pairs)
  in
  let reach = Hashtbl.create 16 in
  let lower_upper s =
    match Hashtbl.find_opt reach s with
    | Some r -> r
    | None ->
      let r = (S.reachable g ~extra:acked s, S.reachable g ~extra:sent s) in
      Hashtbl.replace reach s r;
      r
  in
  let bad = ref 0 in
  List.iter2
    (fun (s, t) a ->
      let lower, upper = lower_upper s in
      let allowed = S.expected_relation ~lower ~upper t in
      match a with
      | Some r when List.exists (Order.relation_equal r) allowed -> ()
      | _ -> incr bad)
    pairs answers;
  verify (!bad = 0) "%d of %d sampled pairs disagree with reachability" !bad (List.length pairs);
  answers

(* {1 Metrics} *)

type e2e = {
  setup_s : float;
  recovery_s : float;
  max_ops_s : float;
  fixed : phase;
  rss_mb : float;
}

let tail_of name a =
  match P.tail a with
  | Some t ->
    say "  %s: p%g over %d samples = %.1f us" name t.P.level t.P.samples t.P.value;
    if t.P.level < 99. then say "  (fewer than 1000 samples: p99 below is not supported)"
  | None -> say "  %s: too few samples (%d)" name (Array.length a)

(* The slowest operations of a phase, with when they fell due: stalls
   show up as clusters. *)
let show_slowest p k =
  let ol = p.ol in
  let idx = List.init (Openloop.length ol) Fun.id in
  let lat i = if Float.is_nan ol.Openloop.finished.(i) then infinity else ol.finished.(i) -. ol.due.(i) in
  let slow = List.sort (fun a b -> compare (lat b) (lat a)) idx |> List.filteri (fun j _ -> j < k) in
  say "  slowest: %s"
    (String.concat ", "
       (List.map
          (fun i ->
            Printf.sprintf "%s@%.2fs=%.1fms" (S.op_name p.items.(i))
              (ol.due.(i) -. ol.due.(0)) (lat i *. 1e3))
          slow))

(* Tail latency: the median over windows of 1000 samples of each
   window's p99 (see Pstats.windowed_percentile), with the windows shown. *)
let p99 name a =
  let w = P.window_percentiles a 99. in
  if w <> [||] then
    say "  %s p99 per window of %d samples: %s" name
      (Array.length a / Array.length w)
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") w)));
  P.windowed_percentile a 99.

(* What a user of the service sees: reported by every run, returned as
   per-layer metrics by the traced run, not gated (see README.md). *)
let user_metrics ~recovery_s ~max_ops_s p =
  let w = latencies p ~writes:true and r = latencies p ~writes:false in
  tail_of "write latency" w;
  tail_of "read latency" r;
  [
    ("user.recovery_s", recovery_s);
    ("user.max_ops_s", max_ops_s);
    ("user.write_p50_us", P.percentile w 50.);
    ("user.read_p50_us", P.percentile r 50.);
    ("user.write_p99_us", p99 "write" w);
    ("user.read_p99_us", p99 "read" r);
  ]

let cpu_us_per_op p = p.server_cpu_s *. 1e6 /. float_of_int (max 1 Openloop.(p.ol.completed))

let e2e_metrics e =
  show_slowest e.fixed 12;
  List.iter
    (fun (k, v) -> say "  %-36s %14.6g (not gated)" k v)
    (user_metrics ~recovery_s:e.recovery_s ~max_ops_s:e.max_ops_s e.fixed);
  [
    ("setup_s", e.setup_s);
    ("cpu_us_per_op", cpu_us_per_op e.fixed);
    ("server_rss_mb", e.rss_mb);
  ]

let contains sub n =
  let ls = String.length sub and ln = String.length n in
  let rec go i = i + ls <= ln && (String.sub n i ls = sub || go (i + 1)) in
  go 0

let units n =
  let has sub = contains sub n in
  if String.ends_with ~suffix:"max_ops_s" n then "1/s"
  else if String.ends_with ~suffix:"_s" n then "s"
  else if has "bytes" then "B"
  else if has "_us" then "us"
  else if has "_ns" then "ns"
  else if has "_ms" then "ms"
  else if has "_mb" then "MB"
  else if has "_frac" || has "_rate" then "ratio"
  else "count"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (k, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v (units k))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* {1 The traced run} *)

type dump = {
  reg0 : (string, float) Hashtbl.t;  (** registry when recording started *)
  reg1 : (string, float) Hashtbl.t;  (** ... and when it stopped *)
  acc : (string, int array) Hashtbl.t;  (** count, ns, bytes per stage *)
  extra : (string, int) Hashtbl.t;
  spans : (int, string * int * int) Hashtbl.t;  (** by req_id, multi-bound *)
}

let parse_spans spans line =
  match String.split_on_char ' ' line with
  | [ k; stage; t0; t1 ] ->
    Hashtbl.add spans (int_of_string k) (stage, int_of_string t0, int_of_string t1)
  | _ -> ()

let read_dump file =
  let d =
    {
      reg0 = Hashtbl.create 256;
      reg1 = Hashtbl.create 256;
      acc = Hashtbl.create 64;
      extra = Hashtbl.create 16;
      spans = Hashtbl.create 65536;
    }
  in
  let ic = open_in file in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "start"; k; v ] -> Hashtbl.replace d.reg0 k (float_of_string v)
       | [ "end"; k; v ] -> Hashtbl.replace d.reg1 k (float_of_string v)
       | [ "acc"; k; n; ns; b ] ->
         Hashtbl.replace d.acc k [| int_of_string n; int_of_string ns; int_of_string b |]
       | [ "extra"; k; v ] -> Hashtbl.replace d.extra k (int_of_string v)
       | _ -> parse_spans d.spans line
     done
   with End_of_file -> ());
  close_in ic;
  d

let reg_delta d k =
  let get t = Option.value ~default:0. (Hashtbl.find_opt t k) in
  get d.reg1 -. get d.reg0

let acc_sum d pred =
  Hashtbl.fold
    (fun k a (n, ns, b) -> if pred k then (n + a.(0), ns + a.(1), b + a.(2)) else (n, ns, b))
    d.acc (0, 0, 0)

let has_prefix prefix k = String.starts_with ~prefix k
let extra d k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt d.extra k))
let div a b = P.ratio a b
let fi = float_of_int

(* A request's blocking path: each server span charged to a stage (a
   handler's self time excludes the WAL and encode spans nested in it),
   plus the client's encode and decode; what remains of the client-seen
   time is unattributed (sockets, kernel, event-loop and pool queueing). *)
let breakdown ~spans ~cspans ~ops =
  let stages : (string, float list) Hashtbl.t = Hashtbl.create 32 in
  let totals = ref [] and unattributed = ref [] in
  List.iter
    (fun (req, total_ns) ->
      let ss = Hashtbl.find_all spans req @ Hashtbl.find_all cspans req in
      let handlers = List.filter (fun (st, _, _) -> has_prefix "handle." st) ss in
      let inside (_, a0, a1) (_, b0, b1) = b0 >= a0 && b1 <= a1 in
      let where sp =
        match List.find_opt (fun h -> inside h sp) handlers with
        | Some (h, _, _) -> Some (String.sub h (String.index h '@') (String.length h - String.index h '@'))
        | None -> None
      in
      let per = Hashtbl.create 8 in
      let charge stage ns =
        Hashtbl.replace per stage (ns + Option.value ~default:0 (Hashtbl.find_opt per stage))
      in
      List.iter
        (fun ((st, t0, t1) as sp) ->
          if has_prefix "handle." st then begin
            let nested =
              List.fold_left
                (fun n ((s', b0, b1) as sp') ->
                  if (not (has_prefix "handle." s')) && inside sp sp' then n + (b1 - b0) else n)
                0 ss
            in
            charge st (t1 - t0 - nested)
          end
          else if has_prefix "wal." st then
            charge (match where sp with Some a -> "wal" ^ a | None -> "wal") (t1 - t0)
          else charge st (t1 - t0))
        ss;
      let attributed = Hashtbl.fold (fun _ ns a -> a + ns) per 0 in
      Hashtbl.iter
        (fun st ns ->
          Hashtbl.replace stages st
            ((fi ns /. 1e3) :: Option.value ~default:[] (Hashtbl.find_opt stages st)))
        per;
      totals := (fi total_ns /. 1e3) :: !totals;
      unattributed := (fi (total_ns - attributed) /. 1e3) :: !unattributed)
    ops;
  let n = List.length ops in
  let rows =
    Hashtbl.fold
      (fun st l acc ->
        (* a stage missing from a request counts as 0 for that request *)
        let a = Array.of_list (l @ List.init (n - List.length l) (fun _ -> 0.)) in
        (st, P.mean a, P.median a) :: acc)
      stages []
    |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  in
  (rows, Array.of_list !totals, Array.of_list !unattributed)

let show_breakdown name (rows, totals, unatt) =
  say "  %s blocking path over %d traced requests (mean / median us per request):" name
    (Array.length totals);
  List.iter (fun (st, mean, med) -> say "    %-32s %9.1f %9.1f" st mean med) rows;
  let share = div (P.median unatt) (P.median totals) in
  say "    %-32s %9.1f %9.1f" "unattributed" (P.mean unatt) (P.median unatt);
  say "    %-32s %9.1f %9.1f" "client-seen total" (P.mean totals) (P.median totals);
  say "    unattributed share of the p50: %.3f" share;
  share

let layer_metrics ~d ~pt ~pu ~server_queries ~retries ~replicas =
  let completed = fi (Openloop.(pt.ol.completed)) in
  let count f = fi (Array.fold_left (fun n (i : S.item) -> if f i then n + 1 else n) 0 pt.items) in
  let writes = count S.is_write and reads = count (fun i -> not (S.is_write i)) in
  let op_count op = reg_delta d (Printf.sprintf "kronos_server_apply_seconds_count{op=%S}" op) in
  let apply_us op =
    div (reg_delta d (Printf.sprintf "kronos_server_apply_seconds_sum{op=%S}" op)) (op_count op) *. 1e6
  in
  let engine k = reg_delta d ("kronos_engine_" ^ k) in
  let stage_us p =
    let n, ns, _ = acc_sum d p in
    div (fi ns) (fi n) /. 1e3
  in
  let tail = Printf.sprintf "@%d" replicas in
  let _, _, fwd_b = acc_sum d (fun k -> k = "encode.forward") in
  let _, _, ack_b = acc_sum d (fun k -> k = "encode.ack") in
  let hops, _, _ = acc_sum d (fun k -> k = "send.forward" || k = "send.ack") in
  let enc_n, enc_ns, enc_b = acc_sum d (has_prefix "encode.") in
  let dec_n, dec_ns, _ = acc_sum d (has_prefix "decode.") in
  let _, handle_ns, _ = acc_sum d (fun k -> k = "handle.all") in
  (* the request bytes of writes, as the head decoded them *)
  let _, _, cw_b = acc_sum d (fun k -> k = "decode.client_write") in
  let wal_a_n, wal_a_ns, _ = acc_sum d (fun k -> k = "wal.append") in
  let wal_s_n, wal_s_ns, _ = acc_sum d (fun k -> k = "wal.sync") in
  let _, _, wal_bytes = acc_sum d (fun k -> k = "wal.bytes") in
  let snap_n, snap_ns, _ = acc_sum d (fun k -> k = "snapshot") in
  let msgs = fi (enc_n + cenc.(0)) in
  let server_cpu_us = pt.server_cpu_s *. 1e6 in
  let queries_offloaded = reg_delta d "kronos_query_pool_offloaded_total" in
  let reads_at_tail, _, _ = acc_sum d (fun k -> k = "decode.client_read") in
  let query_us = div (extra d "probe.query_ns") (extra d "probe.queries") /. 1e3 in
  let self_us =
    server_cpu_us -. (fi (handle_ns + dec_ns) /. 1e3) -. (queries_offloaded *. query_us)
  in
  let lags = Array.map (fun l -> l *. 1e6) (Openloop.lags pt.ol) in
  let wt = latencies pt ~writes:true and rt = latencies pt ~writes:false in
  let untraced f = P.mean (Array.of_list (List.map f pu)) in
  [
    ("core.apply_query_us", query_us);
    ("core.bfs_visited_per_query", div (extra d "probe.bfs_visited_total") (extra d "probe.queries"));
    ( "core.label_hit_rate",
      div (extra d "probe.label_hits_total")
        (extra d "probe.label_hits_total" +. extra d "probe.label_misses_total") );
    ("core.apply_assign_us", apply_us "assign_order");
    ("core.apply_create_us", apply_us "create_event");
    ("core.rank_relabels_per_assign", div (engine "rank_relabels_total") (op_count "assign_order"));
    ("core.digest_folds_per_assign", div (engine "digest_folds_total") (op_count "assign_order"));
    ("core.collected_per_release", div (engine "events_collected_total") (op_count "release_ref"));
    ( "service.pool_publish_per_read",
      div (reg_delta d "kronos_query_pool_view_publish_total") queries_offloaded );
    ( "service.pool_offloaded_frac",
      div queries_offloaded (fi reads_at_tail) );
    ("service.client_cache_hit_rate", 1. -. div server_queries reads);
    ("replication.head_write_us", stage_us (fun k -> k = "handle.client_write@1"));
    ("replication.forward_us", stage_us (fun k -> has_prefix "handle.forward@" k));
    ("replication.ack_us", stage_us (fun k -> has_prefix "handle.ack@" k));
    ("replication.read_handler_us", stage_us (fun k -> k = "handle.client_read" ^ tail));
    ("replication.msgs_per_write", 2. +. div (fi hops) writes);
    ("replication.bytes_per_write", div (fi (fwd_b + ack_b + cw_b)) writes);
    ("replication.retries_per_op", div retries completed);
    ("wire.encode_ns_per_msg", div (fi (enc_ns + cenc.(1))) (fi (enc_n + cenc.(0))));
    ("wire.decode_ns_per_msg", div (fi (dec_ns + cdec.(1))) (fi (dec_n + cdec.(0))));
    ("wire.bytes_per_msg", div (fi (enc_b + cenc.(2))) (fi (enc_n + cenc.(0))));
    ("transport.frames_per_op", div msgs completed);
    ( "transport.bytes_per_op",
      div (reg_delta d "kronos_transport_bytes_out_total" +. fi cenc.(2)) completed );
    ("transport.loop_ticks_per_op", div (extra d "loop_ticks") completed);
    ("transport.self_us_per_op", div self_us completed);
    ("transport.dropped_total", extra d "tcp_dropped");
    ("durability.wal_append_us", div (fi wal_a_ns) (fi wal_a_n) /. 1e3);
    ("durability.fsync_us", div (fi wal_s_ns) (fi wal_s_n) /. 1e3);
    ("durability.fsyncs_per_write", div (fi wal_s_n) writes);
    ("durability.wal_bytes_per_write", div (fi wal_bytes) writes);
    ("durability.snapshot_ms", div (fi snap_ns) (fi snap_n) /. 1e6);
    ("durability.snapshots_total", fi snap_n);
    ("durability.capture_ms", extra d "probe.capture_ns" /. 1e6);
    ("durability.encode_ms", extra d "probe.encode_ns" /. 1e6);
    ("durability.decode_ms", extra d "probe.decode_ns" /. 1e6);
    ("durability.restore_ms", extra d "probe.restore_ns" /. 1e6);
    ( "durability.replay_ms",
      Option.value ~default:0. (Hashtbl.find_opt d.reg1 "kronos_recovery_replay_ms") );
    ("durability.snapshot_mb", extra d "probe.snapshot_bytes" /. 1e6);
    ("loadgen.lag_p99_us", P.percentile lags 99.);
    ("loadgen.cpu_frac", div pt.client_cpu_s pt.wall);
    ( "trace.overhead_write_p50_us",
      P.percentile wt 50. -. untraced (fun p -> P.percentile (latencies p ~writes:true) 50.) );
    ( "trace.overhead_read_p50_us",
      P.percentile rt 50. -. untraced (fun p -> P.percentile (latencies p ~writes:false) 50.) );
    ("trace.overhead_cpu_us_per_op", cpu_us_per_op pt -. untraced cpu_us_per_op);
  ]

(* {1 Workloads} *)

let live_servers = ref []

let spawn ~dir ~replicas ~dump =
  let s = spawn ~dir ~replicas ~dump in
  live_servers := s :: !live_servers;
  s

let forget s = live_servers := List.filter (fun s' -> s'.pid <> s.pid) !live_servers

let stop s =
  stop s;
  forget s

let kill s =
  kill s;
  forget s

let op_timeout = 2.0  (* per-operation deadline in the fixed-rate phases *)
let dump_file () = Filename.concat !work "trace.dump"

let fixed_phase ?(secs = !seconds) c s ~rng ~at_least ~make_items =
  let n = int_of_float (!rate *. secs) in
  run_phase c s
    ~offsets:(Openloop.poisson_schedule ~rng ~rate:!rate n)
    ~at_least ~timeout:op_timeout ~drain:(op_timeout +. 1.) (make_items n)

let proxy_retries () =
  Option.value ~default:0. (List.assoc_opt "kronos_proxy_retries_total" (Kronos_metrics.samples ()))

type outcome_of_run =
  | E2e of e2e
  | Layers of (string * float) list * phase list

(* The measured part of every workload: a fixed-rate phase (whose inputs
   depend only on the seed) and its checks; in a traced run a fixed-rate
   phase with recording on and another without; then the capacity
   ramp. *)
let measure ~s ~c ~setup_s ~recovery_s ~at_least ~make_items ~check =
  let rng = Rng.create ~seed:(Int64.of_int ((!seed * 31) + 7)) in
  (* one unmeasured second at the fixed rate: caches fill, set-up garbage
     is collected *)
  ignore (fixed_phase ~secs:1. c s ~rng ~at_least ~make_items);
  let pu = fixed_phase c s ~rng ~at_least ~make_items in
  check pu;
  let rss_mb = server_hwm_mb s in
  let ramp () = max_rate c s ~rng ~at_least ~limit:(!limit_ms /. 1e3) ~make_items in
  if !trace = 0 then begin
    let max_ops_s = ramp () in
    disconnect c;
    stop s;
    E2e { setup_s; recovery_s; max_ops_s; fixed = pu; rss_mb }
  end
  else begin
    Unix.kill s.pid Sys.sigusr1;
    Event_loop.run_for c.loop 0.05;
    let sq0 = Client.server_queries c.client and r0 = proxy_retries () in
    ctrace := true;
    let pt = fixed_phase c s ~rng ~at_least ~make_items in
    ctrace := false;
    let server_queries = fi (Client.server_queries c.client - sq0) in
    let retries = proxy_retries () -. r0 in
    Unix.kill s.pid Sys.sigusr2;
    Event_loop.run_for c.loop 0.05;
    check pt;
    (* untraced again: the overhead is measured against both neighbours,
       so drift over the run cancels *)
    let pu' = fixed_phase c s ~rng ~at_least ~make_items in
    check pu';
    let max_ops_s = ramp () in
    disconnect c;
    stop s;
    let d = read_dump (Option.get s.dump) in
    let replicas = List.length s.ports in
    let layers = layer_metrics ~d ~pt ~pu:[ pu; pu' ] ~server_queries ~retries ~replicas in
    (* the client's spans join the server's in the work directory, with
       each traced operation's send and completion times *)
    let oc = open_out (Filename.concat !work "trace-client.spans") in
    Buffer.output_buffer oc cspans;
    Hashtbl.iter
      (fun i req ->
        Printf.fprintf oc "%d client.%s %d %d\n" req (S.op_name pt.items.(i)) pt.sent_ns.(i)
          pt.done_ns.(i))
      req_of_op;
    close_out oc;
    let cs = Hashtbl.create 4096 in
    String.split_on_char '\n' (Buffer.contents cspans) |> List.iter (parse_spans cs);
    let traced writes =
      Hashtbl.fold
        (fun i req acc ->
          if S.is_write pt.items.(i) = writes && pt.outcomes.(i) = Good then
            (req, pt.done_ns.(i) - pt.sent_ns.(i)) :: acc
          else acc)
        req_of_op []
    in
    let ws = show_breakdown "write" (breakdown ~spans:d.spans ~cspans:cs ~ops:(traced true)) in
    let rs = show_breakdown "read" (breakdown ~spans:d.spans ~cspans:cs ~ops:(traced false)) in
    say "  registry deltas over the traced phase:";
    Hashtbl.iter
      (fun k v1 ->
        let v0 = Option.value ~default:0. (Hashtbl.find_opt d.reg0 k) in
        (* counters and sums; histogram quantiles and maxima do not subtract *)
        if v1 <> v0 && (not (contains "quantile=" k)) && not (contains "_max" k) then
          say "    %s %.6g" k (v1 -. v0))
      d.reg1;
    Layers
      ( layers
        @ [ ("trace.write_unattributed_frac", ws); ("trace.read_unattributed_frac", rs) ]
        @ user_metrics ~recovery_s ~max_ops_s pu,
        [ pu; pt; pu' ] )
  end

(* K fresh set-ups (the last one is kept): each spawns a server on an
   empty data directory and loads it.  Returns the median set-up time. *)
let fresh_setups ~name ~replicas ~load =
  let k = if !trace = 1 then 1 else setups !workload in
  let rec go i times =
    let dir = Filename.concat !work (Printf.sprintf "%s-%d" name i) in
    rm_rf dir;
    let dump = if !trace = 1 then Some (dump_file ()) else None in
    let s = spawn ~dir ~replicas ~dump in
    let c = connect s in
    load c;
    let times = (now () -. s.spawned) :: times in
    if i < k then begin
      disconnect c;
      stop s;
      rm_rf dir;
      go (i + 1) times
    end
    else (s, c, P.median (Array.of_list times))
  in
  go 1 []

(* The service's cold start on an empty data directory: spawn to the first
   correct reply (a create), median of [cold_starts] starts. *)
let cold_starts = 5

let cold_start ~replicas =
  let first = { S.op = S.Create; expect = S.Created (Engine.create_event (Engine.create ())) } in
  let once i =
    let dir = Filename.concat !work (Printf.sprintf "start-%d" i) in
    rm_rf dir;
    let s = spawn ~dir ~replicas ~dump:None in
    let c = connect s in
    let t = ref nan in
    submit c ~at_least:false first (fun o ->
        if o <> Good then fail "the first reply of a fresh server was wrong";
        t := now ());
    run_until c "the first reply of a fresh server" (fun () -> not (Float.is_nan !t));
    disconnect c;
    stop s;
    rm_rf dir;
    !t -. s.spawned
  in
  P.median (Array.init cold_starts once)

(* The graph workloads' stream and after-phase check: edges are learned
   from every phase's assign items, [sent] once handed to the client,
   [acked] once their reply checked out. *)
let graph_harness g c_ref =
  let grng = Rng.create ~seed:(Int64.of_int ((!seed * 101) + 3)) in
  let sample =
    S.sample_pairs ~rng:(Rng.create ~seed:(Int64.of_int ((!seed * 103) + 5))) g ~sources:16
      ~per_source:64
  in
  let vertex = Hashtbl.create g.S.n in
  Array.iteri (fun v id -> Hashtbl.replace vertex id v) g.S.ids;
  let acked = ref [] and sent = ref [] in
  observe :=
    (fun p ->
      Array.iteri
        (fun i (item : S.item) ->
          match item.op with
          | S.Assign specs when i < p.ol.Openloop.next ->
            List.iter
              (fun (sp : Order.spec) ->
                let e = (Hashtbl.find vertex sp.left, Hashtbl.find vertex sp.right) in
                sent := e :: !sent;
                if p.outcomes.(i) = Good then acked := e :: !acked)
              specs
          | _ -> ())
        p.items);
  let make_items n = S.graph_ops ~rng:grng ~write_frac:0.05 g n in
  let check _ = ignore (check_graph_sample !c_ref g sample ~acked:!acked ~sent:!sent) in
  (sample, acked, sent, make_items, check)

let graph_read95 () =
  let g = S.graph ~seed:!seed ~scale:graph_scale in
  say "  preload: %d vertices, %d edges" g.S.n (Array.length g.S.edges);
  let preload = Array.of_list (S.graph_preload g) in
  let recovery_s = cold_start ~replicas:3 in
  let s, c, setup_s = fresh_setups ~name:"graph" ~replicas:3 ~load:(fun c -> pipeline c preload) in
  let c_ref = ref c in
  let _, _, _, make_items, check = graph_harness g c_ref in
  measure ~s ~c ~setup_s ~recovery_s ~at_least:false ~make_items ~check

let social_history = 3000

let social_write () =
  let model = ref None in
  let load c =
    let sm = S.social ~seed:!seed in
    model := Some sm;
    pipeline c ~window:64 (Array.init social_history (fun _ -> S.social_next ~queries:false sm))
  in
  let recovery_s = cold_start ~replicas:3 in
  let s, c, setup_s = fresh_setups ~name:"social" ~replicas:3 ~load in
  let sm = Option.get !model in
  let make_items n = Array.init n (fun _ -> S.social_next sm) in
  let check _ =
    (* every acked must edge still live reads back Before, bypassing the
       client cache *)
    let musts = S.social_live_musts sm in
    let answers = query_pairs c musts in
    let bad = List.length (List.filter (fun a -> a <> Some Order.Before) answers) in
    verify (bad = 0) "%d of %d acked must edges do not read Before" bad (List.length musts);
    (* and a sample of recent pairs agrees with the model exactly *)
    let pairs = S.social_sample sm 512 in
    let answers = query_pairs c (List.map fst pairs) in
    let bad =
      List.length (List.filter (fun ((_, r), a) -> a <> Some r) (List.combine pairs answers))
    in
    verify (bad = 0) "%d of %d recent pairs differ from the model" bad (List.length pairs)
  in
  measure ~s ~c ~setup_s ~recovery_s ~at_least:true ~make_items ~check

let cold_restart () =
  let g = S.graph ~seed:!seed ~scale:graph_scale in
  say "  preload: %d vertices, %d edges, then %d tail edges" g.S.n (Array.length g.S.edges)
    cold_tail_edges;
  let preload = Array.of_list (S.graph_preload g) in
  let tail =
    S.graph_tail ~rng:(Rng.create ~seed:(Int64.of_int ((!seed * 13) + 5))) g ~edges:cold_tail_edges
  in
  let tail_edges = List.concat_map fst tail in
  let dir = Filename.concat !work "cold" in
  rm_rf dir;
  let dump = if !trace = 1 then Some (dump_file ()) else None in
  let s = spawn ~dir ~replicas:1 ~dump in
  let c = connect s in
  pipeline c preload;
  pipeline c ~window:8 (Array.of_list (List.map snd tail));
  let setup_s = now () -. s.spawned in
  let c_ref = ref c in
  let sample, acked, sent, make_items, check = graph_harness g c_ref in
  acked := tail_edges;
  sent := tail_edges;
  let before = check_graph_sample c g sample ~acked:tail_edges ~sent:tail_edges in
  let first_src, first_targets = List.hd sample in
  let first_pairs = List.map (fun t -> (g.S.ids.(first_src), g.S.ids.(t))) first_targets in
  let first_before = List.filteri (fun i _ -> i < List.length first_targets) before in
  let rec restart s c i recs =
    if i = 0 then (s, c, recs)
    else begin
      disconnect c;
      kill s;
      let s = spawn ~dir ~replicas:1 ~dump in
      let c = connect s in
      let got = ref None in
      Client.query_order_e c.client first_pairs (fun r -> got := Some (r, now ()));
      run_until c "the first reply after a restart" (fun () -> !got <> None);
      let r, t = Option.get !got in
      (match r with
       | Ok (rels, _) when List.map Option.some rels = first_before -> ()
       | _ -> verify false "the first reply after a restart differs from before the kill");
      restart s c (i - 1) ((t -. s.spawned) :: recs)
    end
  in
  let s, c, recs = restart s c restarts [] in
  c_ref := c;
  let after =
    query_pairs c
      (List.concat_map (fun (s, ts) -> List.map (fun t -> (g.S.ids.(s), g.S.ids.(t))) ts) sample)
  in
  verify (after = before) "the recovered replica answers the sample differently";
  let tails = query_pairs c (List.map (fun (u, v) -> (g.S.ids.(u), g.S.ids.(v))) tail_edges) in
  let lost = List.length (List.filter (fun a -> a <> Some Order.Before) tails) in
  verify (lost = 0) "%d of %d acked tail edges lost across the restart" lost (List.length tails);
  measure ~s ~c ~setup_s ~recovery_s:(P.median (Array.of_list recs)) ~at_least:false ~make_items
    ~check

(* {1 Main} *)

let nproc () =
  try
    let ic = Unix.open_process_in "nproc" in
    let n = input_line ic in
    ignore (Unix.close_process_in ic);
    n
  with _ -> "?"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W graph_read95 | social_write | cold_restart");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of a fixed-rate phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--rate", Arg.Set_float rate, "R fixed offered rate, ops/s");
      ("--limit-ms", Arg.Set_float limit_ms, "L p99 latency limit for the rate search");
      ("--server", Arg.Set_string server_exe, "PATH the kserver executable");
      ("--work", Arg.Set_string work, "DIR working directory for data and dumps");
      ("--commit", Arg.Set_string commit, "ID commit being measured (for the record)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen.exe --workload W --seed N --seconds S --trace 0|1 --rate R --limit-ms L --server PATH --work DIR";
  let run =
    match !workload with
    | "graph_read95" -> graph_read95
    | "social_write" -> social_write
    | "cold_restart" -> cold_restart
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  if !rate <= 0. || !limit_ms <= 0. || !server_exe = "" || !work = "" then begin
    prerr_endline "loadgen: --rate, --limit-ms, --server and --work are required";
    exit 2
  end;
  mkdir_p !work;
  at_exit (fun () -> List.iter kill !live_servers);
  (* a dying server must not take the generator down with it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  say "perfbench %s: seed %d, trace %d, commit %s, nproc %s, OCaml %s" !workload !seed !trace
    !commit (nproc ()) Sys.ocaml_version;
  say "  fixed rate %.0f ops/s for %.0f s, p99 limit %.0f ms, per-op deadline %.0f s" !rate
    !seconds !limit_ms op_timeout;
  let outcome =
    try run ()
    with Bench_failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1
  in
  let correct = !n_wrong = 0 && !checks_failed = [] in
  List.iter (fun m -> say "  WRONG ANSWER: %s" m) !wrong_answers;
  List.iter (fun m -> say "  CHECK FAILED: %s" m) !checks_failed;
  let phases, metrics =
    match outcome with
    | E2e e -> ([ e.fixed ], e2e_metrics e)
    | Layers (m, ps) -> (ps, m)
  in
  let attempted = List.fold_left (fun n p -> n + Openloop.length p.ol) 0 phases in
  let failed = List.fold_left (fun n p -> n + failed_count p) 0 phases in
  say "  attempted %d, failed %d (failed_frac %.4g), correct %b" attempted failed
    (div (fi failed) (fi attempted)) correct;
  List.iter (fun (k, v) -> say "  %-36s %14.6g %s" k v (units k)) metrics;
  let oc =
    open_out
      (Filename.concat !work (Printf.sprintf "report-%s-%d-%d.txt" !workload !seed !trace))
  in
  Buffer.output_buffer oc report;
  close_out oc;
  if List.exists (fun (_, v) -> Float.is_nan v) metrics then begin
    prerr_endline "perfbench: a metric could not be computed";
    exit 1
  end;
  print_result ~correct ~attempted ~failed metrics
