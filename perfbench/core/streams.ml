(* Seeded operation streams for the three workloads.

   Every stream is a pure function of its seed: the benchmark generates
   the whole stream before it starts timing and the server receives only
   the generated operations.  Each operation carries what a correct reply
   looks like, so the load generator checks answers as they arrive.

   Event identifiers are allocated deterministically by the engine, so a
   private model engine fed the same writes in the same order predicts the
   identifier of every [create_event] (and, for [social_write], the exact
   outcome of every write).  All writes of a run travel in stream order
   over one connection to the chain head, which applies them in that
   order, so the prediction holds for the service too. *)

open Kronos
module Rng = Kronos_simnet.Rng

type op =
  | Create
  | Assign of Order.spec list
  | Release of Event_id.t
  | Query of Event_id.t * Event_id.t

type expect =
  | Created of Event_id.t
  | Outcomes of Order.outcome list  (** exactly these *)
  | Not_reversed of int  (** that many outcomes, none [Reversed] *)
  | Collected of int
  | One_of of Order.relation list

type item = { op : op; expect : expect }

let is_write i = match i.op with Query _ -> false | _ -> true

let op_name i =
  match i.op with
  | Create -> "create_event"
  | Assign _ -> "assign_order"
  | Release _ -> "release_ref"
  | Query _ -> "query_order"

(* A relation read at some point after the stream position where the
   model computed [r]: writes still in flight may have ordered a
   concurrent pair, but nothing can un-order or flip an ordered one. *)
let readable r =
  match r with
  | Order.Concurrent -> [ Order.Concurrent; Order.Before; Order.After ]
  | r -> [ r; Order.Concurrent ]

(* {1 graph_read95 and cold_restart: a preloaded Twitter-like DAG} *)

type graph = {
  n : int;  (** preloaded vertices *)
  ids : Event_id.t array;  (** vertex -> event *)
  edges : (int * int) array;  (** distinct, lower vertex -> higher vertex *)
  model : Engine.t;  (** predicts identifiers of later creates *)
}

let graph ~seed ~scale =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let g = Kronos_workload.Graph_gen.twitter_like ~rng ~scale () in
  let seen = Hashtbl.create (Array.length g.edges) in
  let edges =
    Array.to_list g.edges
    |> List.filter_map (fun (a, b) ->
           let e = (min a b, max a b) in
           if a = b || Hashtbl.mem seen e then None
           else begin
             Hashtbl.replace seen e ();
             Some e
           end)
    |> Array.of_list
  in
  let model = Engine.create () in
  let ids = Array.init g.n (fun _ -> Engine.create_event model) in
  { n = g.n; ids; edges; model }

(* Creates of every vertex, then the edges as must-before batches. *)
let graph_preload ?(batch = 2000) g =
  let creates =
    Array.to_list (Array.map (fun id -> { op = Create; expect = Created id }) g.ids)
  in
  let m = Array.length g.edges in
  let rec batches i acc =
    if i >= m then List.rev acc
    else
      let k = min batch (m - i) in
      let specs =
        List.init k (fun j ->
            let u, v = g.edges.(i + j) in
            Order.must_before g.ids.(u) g.ids.(v))
      in
      batches (i + k) ({ op = Assign specs; expect = Not_reversed k } :: acc)
  in
  creates @ batches 0 []

let random_pair rng n =
  let u = Rng.int rng n in
  let v = (u + 1 + Rng.int rng (n - 1)) mod n in
  (u, v)

(* One in-order must edge between preloaded vertices: always consistent
   with the DAG, so it is applied or already implied. *)
let in_order_edge rng g =
  let u, v = random_pair rng g.n in
  (min u v, max u v)

let edge_item g (u, v) =
  { op = Assign [ Order.must_before g.ids.(u) g.ids.(v) ]; expect = Not_reversed 1 }

(* Extra in-order edges appended after the preload (cold_restart's WAL
   tail), as batches of [batch]. *)
let graph_tail ~rng ?(batch = 200) g ~edges =
  List.init ((edges + batch - 1) / batch) (fun b ->
      let k = min batch (edges - (b * batch)) in
      let pairs = List.init k (fun _ -> in_order_edge rng g) in
      ( pairs,
        {
          op =
            Assign (List.map (fun (u, v) -> Order.must_before g.ids.(u) g.ids.(v)) pairs);
          expect = Not_reversed k;
        } ))

(* The read-mostly mix: uniform random pairs of preloaded vertices; the
   [write_frac] share is half fresh events, half one in-order must edge.
   Every edge points from the lower to the higher vertex, so a pair can
   only ever read [Before] (lower first), [After] or [Concurrent]. *)
let graph_ops ~rng ~write_frac g count =
  Array.init count (fun _ ->
      if Rng.float rng 1.0 < write_frac then
        if Rng.bool rng then { op = Create; expect = Created (Engine.create_event g.model) }
        else edge_item g (in_order_edge rng g)
      else
        let u, v = random_pair rng g.n in
        let allowed =
          if u < v then [ Order.Before; Order.Concurrent ]
          else [ Order.After; Order.Concurrent ]
        in
        { op = Query (g.ids.(u), g.ids.(v)); expect = One_of allowed })

(* Vertices reachable from [src] over the preload plus [extra] edges. *)
let reachable g ~extra src =
  let succ = Array.make g.n [] in
  Array.iter (fun (u, v) -> succ.(u) <- v :: succ.(u)) g.edges;
  List.iter (fun (u, v) -> succ.(u) <- v :: succ.(u)) extra;
  let seen = Array.make g.n false in
  let rec visit = function
    | [] -> ()
    | u :: rest ->
      let next =
        List.fold_left
          (fun acc v ->
            if seen.(v) then acc
            else begin
              seen.(v) <- true;
              v :: acc
            end)
          rest succ.(u)
      in
      visit next
  in
  seen.(src) <- true;
  visit [ src ];
  seen

(* A fixed sample for the after-run check: [sources] random vertices,
   [per_source] random later vertices each (the only ones a source can
   reach), asked in either order. *)
let sample_pairs ~rng g ~sources ~per_source =
  List.init sources (fun _ ->
      let s = Rng.int rng (g.n - 1) in
      (s, List.init per_source (fun _ -> s + 1 + Rng.int rng (g.n - 1 - s))))

(* The relation reachability from [s] implies for [(s, t)], [s < t]:
   [lower] counts only edges known to be applied, [upper] every edge that
   may have been. *)
let expected_relation ~lower ~upper t =
  if lower.(t) then [ Order.Before ]
  else if not upper.(t) then [ Order.Concurrent ]
  else [ Order.Concurrent; Order.Before ]

(* {1 social_write: the timeline as a service} *)

type social = {
  rng : Rng.t;
  m : Engine.t;  (** the model *)
  created : Event_id.t Kronos.Vec.t;  (** creation order *)
  mutable released : int;  (** creation index of the next release *)
  zipf : Kronos_workload.Zipf.t;
  musts : (int * int) array;  (** ring of recent must edges (creation indices) *)
  mutable nmusts : int;
  all_musts : (int * int) Queue.t;  (** every must edge sent *)
}

let window = 1000  (* events an edge or read may touch *)
let fresh = 16  (* the newest creates are skipped: likely not yet acked *)
let release_margin = 64  (* released events sit this far outside the window *)

let social ~seed =
  {
    rng = Rng.create ~seed:(Int64.of_int seed);
    m = Engine.create ();
    created = Kronos.Vec.create ~dummy:Event_id.none ();
    released = 0;
    zipf = Kronos_workload.Zipf.create ~n:(window - fresh) ();
    musts = Array.make 256 (0, 0);
    nmusts = 0;
    all_musts = Queue.create ();
  }

let ncreated s = Kronos.Vec.length s.created
let id s i = Kronos.Vec.get s.created i

(* A recent event, Zipf-skewed towards the newest. *)
let recent s =
  let newest = ncreated s - 1 - fresh in
  max 0 (newest - Kronos_workload.Zipf.sample s.zipf s.rng)

let two_recent s =
  let a = recent s in
  let rec other k =
    let b = recent s in
    if b <> a || k = 0 then b else other (k - 1)
  in
  let b = other 8 in
  (min a b, max a b)

let social_create s =
  let e = Engine.create_event s.m in
  Kronos.Vec.push s.created e;
  { op = Create; expect = Created e }

(* 1-4 specs: must edges from an older to a newer recent event, prefer
   edges in either direction.  The model applies the batch; if a must
   would contradict the graph (a reversed prefer can create a path the
   other way), the batch is re-drawn as prefers only, which never abort. *)
let social_assign s =
  let k = 1 + Rng.int s.rng 4 in
  let draw ~musts_ok =
    List.init k (fun _ ->
        let a, b = two_recent s in
        if musts_ok && Rng.float s.rng 1.0 < 0.6 then (true, a, b)
        else if Rng.bool s.rng then (false, a, b)
        else (false, b, a))
  in
  let specs_of draws =
    List.map
      (fun (must, a, b) ->
        if must then Order.must_before (id s a) (id s b)
        else Order.prefer_before (id s a) (id s b))
      draws
  in
  let draws = draw ~musts_ok:true in
  let draws, outs =
    match Engine.assign_order s.m (specs_of draws) with
    | Ok outs -> (draws, outs)
    | Error _ -> (
      let draws = draw ~musts_ok:false in
      match Engine.assign_order s.m (specs_of draws) with
      | Ok outs -> (draws, outs)
      | Error _ -> assert false)
  in
  List.iter
    (fun (must, a, b) ->
      if must && a <> b then begin
        s.musts.(s.nmusts mod Array.length s.musts) <- (a, b);
        s.nmusts <- s.nmusts + 1;
        Queue.push (a, b) s.all_musts
      end)
    draws;
  { op = Assign (specs_of draws); expect = Outcomes outs }

let releasable s = s.released < ncreated s - window - release_margin

let social_release s =
  let e = id s s.released in
  s.released <- s.released + 1;
  match Engine.release_ref s.m e with
  | Ok n -> { op = Release e; expect = Collected n }
  | Error _ -> assert false

(* A quarter of the reads re-read a recent must edge (often a client
   cache hit), the rest a random pair of recent events (mostly
   concurrent: a server round trip).  The median read is a server read. *)
let social_query s =
  let a, b =
    let lo = ncreated s - window in
    let k = min s.nmusts (Array.length s.musts) in
    let a, b = if k > 0 then s.musts.(Rng.int s.rng k) else (0, 0) in
    if k > 0 && a >= lo && Rng.int s.rng 4 = 0 then (a, b) else two_recent s
  in
  let a, b = if Rng.bool s.rng then (a, b) else (b, a) in
  match Engine.query_order s.m [ (id s a, id s b) ] with
  | Ok [ r ] -> { op = Query (id s a, id s b); expect = One_of (readable r) }
  | _ -> assert false

(* 30% create, 40% assign, 10% release (of the oldest event outside the
   window), 20% query; [queries:false] for the history, which replaces
   reads with creates.  Creates stand in for releases until an event has
   left the window. *)
let social_next ?(queries = true) s =
  if ncreated s < window then social_create s
  else
    let x = Rng.float s.rng 1.0 in
    if x < 0.3 then social_create s
    else if x < 0.7 then social_assign s
    else if x < 0.8 then if releasable s then social_release s else social_create s
    else if queries then social_query s
    else social_create s

(* Acked must edges among events still live in the model: each must read
   back [Before]. *)
let social_live_musts s =
  Queue.fold
    (fun acc (a, b) ->
      if a >= s.released && b >= s.released && a <> b then (id s a, id s b) :: acc
      else acc)
    [] s.all_musts

(* The model's current relation of a pair. *)
let model_relation s a b =
  match Engine.query_order s.m [ (a, b) ] with
  | Ok [ r ] -> Some r
  | _ -> None

(* [n] pairs of recent events with the model's relation: after every
   write has been acked, the service must agree exactly. *)
let social_sample s n =
  List.init n (fun _ ->
      let a, b = two_recent s in
      let a, b = if Rng.bool s.rng then (a, b) else (b, a) in
      let r = Option.get (model_relation s (id s a) (id s b)) in
      ((id s a, id s b), r))
