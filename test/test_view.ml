(* Engine.View: frozen views must be indistinguishable from the live
   engine at the same epoch, deeply immutable afterwards, and safe to
   query from many domains at once (DESIGN.md §14).  The [view_race]
   suite is also the target of [make race-smoke]. *)

open Kronos
module View = Engine.View

let relation = Alcotest.testable Order.pp_relation ( = )

(* Pull every pairwise relation out of a view. *)
let all_relations view ids =
  let n = Array.length ids in
  let out = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        match View.query view ids.(u) ids.(v) with
        | Ok r -> out := ((u, v), r) :: !out
        | Error _ -> ()
    done
  done;
  List.rev !out

let test_frozen_matches_live () =
  let t = Engine.create () in
  let ids = Array.init 6 (fun _ -> Engine.create_event t) in
  let ok =
    Engine.assign_order t
      [
        Order.must_before ids.(0) ids.(1);
        Order.must_before ids.(1) ids.(2);
        Order.prefer_before ids.(3) ids.(4);
      ]
  in
  (match ok with Ok _ -> () | Error _ -> Alcotest.fail "assign failed");
  let live = Engine.current_view t in
  let frozen = Engine.publish t in
  Alcotest.(check int64) "same epoch" (View.epoch live) (View.epoch frozen);
  Alcotest.(check (list (pair (pair int int) relation)))
    "same relations" (all_relations live ids) (all_relations frozen ids);
  Alcotest.(check int) "live_events" (View.live_events live)
    (View.live_events frozen);
  Alcotest.(check int) "edges" (View.edges live) (View.edges frozen)

let test_frozen_immutable_under_mutation () =
  let t = Engine.create () in
  let ids = Array.init 4 (fun _ -> Engine.create_event t) in
  ignore (Engine.assign_order t [ Order.must_before ids.(0) ids.(1) ]);
  let frozen = Engine.publish t in
  let before = all_relations frozen ids in
  let epoch0 = View.epoch frozen in
  (* Mutate heavily: new edges, new events (capacity growth), GC. *)
  ignore (Engine.assign_order t [ Order.must_before ids.(2) ids.(3) ]);
  for _ = 1 to 100 do
    ignore (Engine.create_event t)
  done;
  ignore (Engine.release_ref t ids.(0));
  Alcotest.(check (list (pair (pair int int) relation)))
    "frozen view unchanged" before (all_relations frozen ids);
  Alcotest.(check int64) "frozen epoch unchanged" epoch0 (View.epoch frozen);
  Alcotest.(check bool) "engine epoch advanced" true
    (Engine.epoch t > epoch0);
  (* The released event is gone from the live engine but still answers in
     the old view. *)
  Alcotest.(check bool) "old view still sees released event" true
    (View.is_live frozen ids.(0));
  Alcotest.(check bool) "new publish drops it" false
    (View.is_live (Engine.publish t) ids.(0))

let test_publish_cached_when_clean () =
  let t = Engine.create () in
  let a = Engine.create_event t and b = Engine.create_event t in
  ignore (Engine.assign_order t [ Order.must_before a b ]);
  let v1 = Engine.publish t in
  let v2 = Engine.publish t in
  Alcotest.(check int64) "no mutation, same epoch" (View.epoch v1)
    (View.epoch v2);
  (* Reads must not dirty the view: query then republish. *)
  ignore (View.query v2 a b);
  ignore (Engine.query_order t [ (a, b) ]);
  Alcotest.(check int64) "queries don't bump the epoch" (View.epoch v1)
    (Engine.epoch t)

let test_prover_on_frozen_view () =
  let t = Engine.create () in
  let ids = Array.init 5 (fun _ -> Engine.create_event t) in
  ignore
    (Engine.assign_order t
       [
         Order.must_before ids.(0) ids.(1);
         Order.must_before ids.(1) ids.(2);
         Order.must_before ids.(2) ids.(3);
       ]);
  let frozen = Engine.publish t in
  (* Mutate after publishing: the proof must still verify — it is built
     from the frozen commitment chains. *)
  ignore (Engine.assign_order t [ Order.must_before ids.(3) ids.(4) ]);
  match
    Kronos_certify.Prover.prove frozen ~source:ids.(0) ~target:ids.(3)
  with
  | None -> Alcotest.fail "no certificate from frozen view"
  | Some cert -> (
      match Kronos_certify.Verifier.verify cert with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("certificate failed: " ^ e))

(* Differential stress: a random op stream applied to one engine; frozen
   checkpoints taken along the way must answer exactly like a
   single-threaded reference at the matching epoch — verified from N
   reader domains running concurrently. *)

type op =
  | Create
  | Assign of int * int * bool  (* u, v, must? *)
  | Release of int

let gen_ops =
  let open QCheck2.Gen in
  let gen_op =
    frequency
      [
        (3, return Create);
        ( 6,
          map3 (fun u v m -> Assign (u, v, m)) (int_bound 30) (int_bound 30)
            bool );
        (2, map (fun u -> Release u) (int_bound 30));
      ]
  in
  list_size (int_range 10 40) gen_op

(* Apply one op; [ids] grows as Create executes. *)
let apply_op t ids op =
  match op with
  | Create -> ids := Engine.create_event t :: !ids
  | Assign (u, v, must) ->
      let a = Array.of_list !ids in
      let n = Array.length a in
      if n >= 2 then
        let x = a.(u mod n) and y = a.(v mod n) in
        let spec =
          if must then Order.must_before x y else Order.prefer_before x y
        in
        ignore (Engine.assign_order t [ spec ])
  | Release u ->
      let a = Array.of_list !ids in
      let n = Array.length a in
      if n > 0 then ignore (Engine.release_ref t a.(u mod n))

let prop_domains_match_reference =
  let open QCheck2 in
  Test.make ~name:"reader domains match single-threaded reference at epoch"
    ~count:1000 gen_ops (fun ops ->
      let t = Engine.create () in
      let ids = ref [ Engine.create_event t; Engine.create_event t ] in
      (* Checkpoints: (frozen view, reference answers at that epoch). *)
      let checkpoints = ref [] in
      List.iteri
        (fun i op ->
          apply_op t ids op;
          if i mod 7 = 0 then begin
            let v = Engine.publish t in
            let sample = Array.of_list !ids in
            let reference = all_relations (Engine.current_view t) sample in
            checkpoints := (v, sample, reference) :: !checkpoints
          end)
        ops;
      let checkpoints = !checkpoints in
      (* Epochs along the stream must be monotonic (newest first here). *)
      let rec mono = function
        | (a, _, _) :: ((b, _, _) :: _ as rest) ->
            View.epoch a >= View.epoch b && mono rest
        | _ -> true
      in
      if not (mono checkpoints) then false
      else begin
        let readers =
          Array.init 2 (fun _ ->
              Domain.spawn (fun () ->
                  List.for_all
                    (fun (v, sample, reference) ->
                      all_relations v sample = reference)
                    checkpoints))
        in
        Array.for_all (fun d -> Domain.join d) readers
      end)

(* Race smoke: one writer domain mutating and publishing as fast as it
   can, several reader domains chasing the latest view through an atomic
   slot.  Stable facts (edges assigned before the first publish) must
   hold in every view ever observed, and the epochs each reader observes
   must never go backwards.  Readers publish their check counts, and the
   writer keeps publishing past its 2,000 steps until every reader has
   checked at least once (or 10 s pass): with more domains than cores, a
   reader may otherwise not be scheduled at all before [stop]. *)
let test_publish_race () =
  let t = Engine.create () in
  let ids = Array.init 8 (fun _ -> Engine.create_event t) in
  ignore
    (Engine.assign_order t
       [ Order.must_before ids.(0) ids.(1); Order.must_before ids.(1) ids.(2) ]);
  let slot = Atomic.make (Engine.publish t) in
  let stop = Atomic.make false in
  let checks = Array.init 3 (fun _ -> Atomic.make 0) in
  let readers =
    Array.map
      (fun checks ->
        Domain.spawn (fun () ->
            let last = ref 0L in
            let ok = ref true in
            while not (Atomic.get stop) do
              let v = Atomic.get slot in
              let e = View.epoch v in
              if e < !last then ok := false;
              last := e;
              (match View.query v ids.(0) ids.(2) with
              | Ok Order.Before -> ()
              | _ -> ok := false);
              Atomic.incr checks
            done;
            !ok))
      checks
  in
  (* Writer: keep growing and publishing. *)
  let extra = ref [] in
  let step i =
    let e = Engine.create_event t in
    extra := e :: !extra;
    (match !extra with
    | a :: b :: _ -> ignore (Engine.assign_order t [ Order.must_before b a ])
    | _ -> ());
    if i mod 50 = 0 then
      match !extra with e :: _ -> ignore (Engine.release_ref t e) | [] -> ();
    Atomic.set slot (Engine.publish t)
  in
  for i = 1 to 2_000 do
    step i
  done;
  let deadline = Unix.gettimeofday () +. 10. in
  let i = ref 2_000 in
  while
    Array.exists (fun c -> Atomic.get c = 0) checks
    && Unix.gettimeofday () < deadline
  do
    incr i;
    step !i
  done;
  Atomic.set stop true;
  Array.iteri
    (fun i d ->
      let ok = Domain.join d in
      Alcotest.(check bool) "reader saw consistent views" true ok;
      Alcotest.(check bool) "reader made progress" true
        (Atomic.get checks.(i) > 0))
    readers

let suites =
  [
    ( "view",
      [
        Alcotest.test_case "frozen matches live" `Quick test_frozen_matches_live;
        Alcotest.test_case "frozen immutable under mutation" `Quick
          test_frozen_immutable_under_mutation;
        Alcotest.test_case "publish cached when clean" `Quick
          test_publish_cached_when_clean;
        Alcotest.test_case "prover on frozen view" `Quick
          test_prover_on_frozen_view;
        QCheck_alcotest.to_alcotest prop_domains_match_reference;
      ] );
    ("view_race", [ Alcotest.test_case "publish race" `Quick test_publish_race ]);
  ]
