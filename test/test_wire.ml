open Kronos
open Kronos_wire

let test_codec_roundtrip () =
  let b = Codec.encoder () in
  Codec.put_u8 b 200;
  Codec.put_u16 b 60000;
  Codec.put_u32 b 123_456_789;
  Codec.put_i64 b (-42L);
  Codec.put_bool b true;
  Codec.put_float b 3.5;
  Codec.put_string b "hello";
  Codec.put_list b Codec.put_u8 [ 1; 2; 3 ];
  let d = Codec.decoder (Codec.to_string b) in
  Alcotest.(check int) "u8" 200 (Codec.get_u8 d);
  Alcotest.(check int) "u16" 60000 (Codec.get_u16 d);
  Alcotest.(check int) "u32" 123_456_789 (Codec.get_u32 d);
  Alcotest.(check int64) "i64" (-42L) (Codec.get_i64 d);
  Alcotest.(check bool) "bool" true (Codec.get_bool d);
  Alcotest.(check (float 0.0)) "float" 3.5 (Codec.get_float d);
  Alcotest.(check string) "string" "hello" (Codec.get_string d);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.get_list d Codec.get_u8);
  Alcotest.(check bool) "end" true (Codec.at_end d);
  Codec.expect_end d

let test_codec_truncated () =
  let raises f =
    match f () with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.fail "expected Decode_error"
  in
  raises (fun () -> Codec.get_u32 (Codec.decoder "ab"));
  raises (fun () -> Codec.get_i64 (Codec.decoder "1234567"));
  raises (fun () -> Codec.get_string (Codec.decoder "\x00\x00\x00\x05ab"));
  raises (fun () -> Codec.get_bool (Codec.decoder "\x07"));
  raises (fun () -> Codec.expect_end (Codec.decoder "x"))

let sample_requests =
  let e n = Event_id.make ~slot:n ~gen:(n mod 3) in
  [
    Message.Create_event;
    Message.Acquire_ref (e 7);
    Message.Release_ref (e 0);
    Message.Query_order_at { min_epoch = 0L; pairs = [] };
    Message.Query_order_at { min_epoch = 42L; pairs = [ (e 1, e 2); (e 3, e 3) ] };
    Message.Assign_order_at
      [ Order.must_before (e 1) (e 2); Order.prefer_after (e 2) (e 3) ];
  ]

let sample_responses =
  let e n = Event_id.make ~slot:n ~gen:0 in
  [
    Message.Event_created (e 9);
    Message.Ref_acquired;
    Message.Ref_released 17;
    Message.Orders_at
      { epoch = 3L; rels = [ Order.Before; Order.After; Order.Concurrent; Order.Same ] };
    Message.Outcomes_at
      { epoch = 4L; outs = [ Order.Applied; Order.Already; Order.Reversed ] };
    Message.Rejected (Order.Must_violated 3);
    Message.Rejected (Order.Must_self 0);
    Message.Rejected (Order.Unknown_event (e 5));
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let r' = Message.decode_request (Message.encode_request r) in
      if not (Message.request_equal r r') then
        Alcotest.failf "request mismatch: %a" Message.pp_request r)
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      let r' = Message.decode_response (Message.encode_response r) in
      if not (Message.response_equal r r') then
        Alcotest.failf "response mismatch: %a" Message.pp_response r)
    sample_responses

let test_bad_tags () =
  let raises s f =
    match f () with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.failf "expected Decode_error for %s" s
  in
  raises "request" (fun () -> Message.decode_request "\x09");
  raises "response" (fun () -> Message.decode_response "\x09");
  (* tags 3 and 4 were the epoch-less query and assign messages: a
     well-formed body under them no longer decodes *)
  let empty_list = "\x00\x00\x00\x00" in
  List.iter
    (fun tag ->
      let body = String.make 1 (Char.chr tag) ^ empty_list in
      raises (Printf.sprintf "request tag %d" tag) (fun () ->
          Message.decode_request body);
      raises (Printf.sprintf "response tag %d" tag) (fun () ->
          Message.decode_response body))
    [ 3; 4 ];
  raises "trailing" (fun () ->
      Message.decode_request (Message.encode_request Message.Create_event ^ "x"))

let test_read_only () =
  Alcotest.(check bool) "query ro" true
    (Message.is_read_only (Message.Query_order_at { min_epoch = 0L; pairs = [] }));
  Alcotest.(check bool) "create rw" false (Message.is_read_only Message.Create_event);
  Alcotest.(check bool) "assign rw" false
    (Message.is_read_only (Message.Assign_order_at []))

let test_frame_roundtrip () =
  let r = Frame.Reassembler.create () in
  let framed = Frame.encode "abc" ^ Frame.encode "" ^ Frame.encode "defg" in
  (* feed byte by byte to exercise partial reads *)
  let out = ref [] in
  String.iter
    (fun ch ->
      out := !out @ Frame.Reassembler.feed r (String.make 1 ch))
    framed;
  Alcotest.(check (list string)) "frames" [ "abc"; ""; "defg" ] !out;
  Alcotest.(check int) "no pending" 0 (Frame.Reassembler.pending_bytes r)

let test_frame_oversized () =
  let r = Frame.Reassembler.create () in
  let b = Codec.encoder () in
  Codec.put_u32 b (Frame.max_frame + 1);
  match Frame.Reassembler.feed r (Codec.to_string b) with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected oversized frame rejection"

let prop_request_roundtrip =
  let open QCheck2 in
  let gen_event = Gen.(map2 (fun s g -> Event_id.make ~slot:s ~gen:g) (int_bound 10_000) (int_bound 50)) in
  let gen_dir = Gen.(map (fun b -> if b then Order.Happens_before else Order.Happens_after) bool) in
  let gen_kind = Gen.(map (fun b -> if b then Order.Must else Order.Prefer) bool) in
  let gen_req =
    Gen.(frequency
           [ (1, return Message.Create_event);
             (1, map (fun e -> Message.Acquire_ref e) gen_event);
             (1, map (fun e -> Message.Release_ref e) gen_event);
             (2, map2 (fun e ps ->
                    Message.Query_order_at { min_epoch = Int64.of_int e; pairs = ps })
                (int_bound 1000)
                (list_size (int_bound 20) (pair gen_event gen_event)));
             (2, map (fun rs -> Message.Assign_order_at rs)
                (list_size (int_bound 20)
                   (map2
                      (fun (e1, e2) (d, k) ->
                        Order.constrain ~kind:k ~direction:d e1 e2)
                      (pair gen_event gen_event) (pair gen_dir gen_kind))));
           ])
  in
  Test.make ~name:"wire request roundtrip" ~count:300 gen_req (fun r ->
      Message.request_equal r (Message.decode_request (Message.encode_request r)))

let prop_frames_any_chunking =
  let open QCheck2 in
  Test.make ~name:"frame reassembly under random chunking" ~count:200
    Gen.(pair (list_size (int_bound 8) (string_size (int_bound 50)))
           (list_size (int_bound 30) (int_range 1 7)))
    (fun (payloads, chunk_sizes) ->
      let stream = String.concat "" (List.map Frame.encode payloads) in
      let r = Frame.Reassembler.create () in
      let out = ref [] in
      let pos = ref 0 in
      let sizes = ref chunk_sizes in
      while !pos < String.length stream do
        let n =
          match !sizes with
          | [] -> String.length stream - !pos
          | s :: rest ->
            sizes := rest;
            min s (String.length stream - !pos)
        in
        out := !out @ Frame.Reassembler.feed r (String.sub stream !pos n);
        pos := !pos + n
      done;
      !out = payloads)

let suites =
  [ ( "wire",
      [
        Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "codec truncated" `Quick test_codec_truncated;
        Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
        Alcotest.test_case "bad tags" `Quick test_bad_tags;
        Alcotest.test_case "read-only classification" `Quick test_read_only;
        Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
        Alcotest.test_case "frame oversized" `Quick test_frame_oversized;
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_frames_any_chunking;
      ] );
  ]
