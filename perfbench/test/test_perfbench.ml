(* Tests of the benchmark's own machinery: seeded streams, the open-loop
   clock and the percentile helper. *)

open Kronos
module S = Perfbench_core.Streams
module Openloop = Perfbench_core.Openloop
module P = Perfbench_core.Pstats

(* {1 The same seed gives an identical operation stream} *)

let show (i : S.item) =
  let id = Event_id.to_string in
  let op =
    match i.op with
    | S.Create -> "create"
    | S.Release e -> "release " ^ id e
    | S.Query (a, b) -> Printf.sprintf "query %s %s" (id a) (id b)
    | S.Assign specs -> "assign " ^ String.concat "," (List.map (Format.asprintf "%a" Order.pp_spec) specs)
  in
  let expect =
    match i.expect with
    | S.Created e -> "=" ^ id e
    | S.Outcomes o -> "=" ^ String.concat "," (List.map (Format.asprintf "%a" Order.pp_outcome) o)
    | S.Not_reversed k -> Printf.sprintf "~%d" k
    | S.Collected n -> Printf.sprintf "-%d" n
    | S.One_of rs -> "?" ^ String.concat "|" (List.map (Format.asprintf "%a" Order.pp_relation) rs)
  in
  op ^ " " ^ expect

let social_stream seed =
  let s = S.social ~seed in
  List.init 3000 (fun _ -> show (S.social_next ~queries:false s))
  @ List.init 3000 (fun _ -> show (S.social_next s))

let graph_stream seed =
  let g = S.graph ~seed ~scale:0.01 in
  let rng = Kronos_simnet.Rng.create ~seed:(Int64.of_int seed) in
  List.map show (S.graph_preload g)
  @ List.map show (Array.to_list (S.graph_ops ~rng ~write_frac:0.05 g 2000))

let test_same_seed () =
  Alcotest.(check (list string)) "social_write" (social_stream 7) (social_stream 7);
  Alcotest.(check (list string)) "graph_read95" (graph_stream 7) (graph_stream 7);
  Alcotest.(check bool) "another seed, another stream" false (social_stream 7 = social_stream 8)

(* The social stream exercises what it claims: reversed prefers and
   garbage collection, and it never asks for an impossible must edge (the
   model would have rejected the batch). *)
let test_social_mix () =
  let s = S.social ~seed:3 in
  let items = List.init 20_000 (fun _ -> S.social_next s) in
  let count f = List.length (List.filter f items) in
  let reversed (i : S.item) =
    match i.expect with
    | S.Outcomes o -> List.exists (Order.outcome_equal Order.Reversed) o
    | _ -> false
  in
  let collected (i : S.item) = match i.expect with S.Collected n -> n > 0 | _ -> false in
  Alcotest.(check bool) "some prefers reverse" true (count reversed > 0);
  Alcotest.(check bool) "releases collect events" true (count collected > 0)

(* {1 The open-loop clock times from the due time} *)

(* A simulated run: requests arrive at [rate] for [secs]; a FIFO server
   takes [service] seconds each but stalls completely during
   [stall_from, stall_to). *)
let simulate ~rate ~secs ~service ~stall_from ~stall_to =
  let rng = Kronos_simnet.Rng.create ~seed:1L in
  let offsets = Openloop.poisson_schedule ~rng ~rate (int_of_float (rate *. secs)) in
  let ol = Openloop.create ~start:0. offsets in
  let clock = ref 0. and free = ref 0. and pending = ref [] in
  let send i =
    let start = Float.max !clock !free in
    let start = if start >= stall_from && start < stall_to then stall_to else start in
    free := start +. service;
    pending := (!free, i) :: !pending
  in
  let wait d =
    clock := !clock +. d;
    let ready, rest = List.partition (fun (t, _) -> t <= !clock) !pending in
    pending := rest;
    List.iter (fun (t, i) -> Openloop.complete ol i ~now:t ~ok:true) ready
  in
  Openloop.run ol ~now:(fun () -> !clock) ~wait ~send ~deadline:(secs +. 10.);
  ol

let test_stall_shows () =
  let ol = simulate ~rate:500. ~secs:2. ~service:0.001 ~stall_from:1.0 ~stall_to:1.2 in
  Alcotest.(check bool) "every request completed" true (Openloop.all_done ol);
  (* the generator kept its schedule through the stall *)
  Alcotest.(check bool) "sent when due" true
    (Array.for_all (fun l -> l >= 0. && l < 1e-3) (Openloop.lags ol));
  (* a request due at the start of the stall waited for all of it *)
  let lat = Openloop.latencies ol in
  let first_stalled = ref (-1) in
  Array.iteri
    (fun i d -> if !first_stalled < 0 && d >= 1.0 then first_stalled := i)
    ol.Openloop.due;
  Alcotest.(check bool) "queueing delay counted from the due time" true
    (lat.(!first_stalled) >= 1.2 -. ol.Openloop.due.(!first_stalled));
  (* ~100 requests fell due during the 200 ms stall: the tail shows it *)
  Alcotest.(check bool) "p99 reflects the stall" true (P.percentile lat 99. > 0.1);
  let calm = simulate ~rate:500. ~secs:2. ~service:0.001 ~stall_from:9. ~stall_to:9. in
  Alcotest.(check bool) "without the stall the p99 is small" true
    (P.percentile (Openloop.latencies calm) 99. < 0.01)

(* {1 The percentile helper} *)

let level n = Option.map (fun t -> t.P.level) (P.tail (Array.init n float_of_int))

let test_percentiles () =
  let opt = Alcotest.(option (float 0.)) in
  Alcotest.check opt "1000 samples: p99 (10 beyond)" (Some 99.) (level 1000);
  Alcotest.check opt "999 samples: p95" (Some 95.) (level 999);
  Alcotest.check opt "10000 samples: p99.9" (Some 99.9) (level 10_000);
  Alcotest.check opt "100 samples: p90" (Some 90.) (level 100);
  Alcotest.check opt "20 samples: median" (Some 50.) (level 20);
  Alcotest.check opt "19 samples: nothing" None (level 19);
  Alcotest.(check (float 0.)) "nearest rank" 990. (P.percentile (Array.init 1000 (fun i -> float_of_int (i + 1))) 99.);
  Alcotest.(check (float 0.)) "median" 3. (P.median [| 5.; 1.; 3.; 2.; 4. |]);
  (* a stall confined to one of five windows sets the plain p99 but only
     one of the window p99s *)
  let stalled = Array.init 5000 (fun i -> if i >= 1000 && i < 1100 then 100. else 1.) in
  Alcotest.(check (float 0.)) "plain p99" 100. (P.percentile stalled 99.);
  Alcotest.(check (float 0.)) "windowed p99" 1. (P.windowed_percentile stalled 99.);
  Alcotest.(check (float 0.)) "one window" 100. (P.windowed_percentile (Array.sub stalled 0 1999) 99.)

let () =
  Alcotest.run "perfbench"
    [
      ( "streams",
        [
          Alcotest.test_case "same seed, same stream" `Quick test_same_seed;
          Alcotest.test_case "social mix" `Quick test_social_mix;
        ] );
      ("openloop", [ Alcotest.test_case "a stalled server shows" `Quick test_stall_shows ]);
      ("pstats", [ Alcotest.test_case "tail percentile" `Quick test_percentiles ]);
    ]
