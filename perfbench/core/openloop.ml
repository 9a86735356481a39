(* Open-loop request scheduling.

   Independent users arrive on a seeded Poisson schedule; request [i] is
   due at [due.(i)] seconds after the phase starts, whatever happened to
   earlier requests.  A request's latency is measured from when it was due,
   not from when the generator got round to sending it, so a stalled
   server (or generator) shows up as queueing delay on every request that
   fell due during the stall, instead of silently lowering the offered
   load as a closed loop would.

   This module is independent of any transport: it is given a clock, a way
   to wait, and a [send] callback; completions are reported back with
   {!complete}.  The benchmark drives it over real TCP; the tests drive it
   over a simulated clock. *)

(* Arrival offsets (seconds from phase start) of [n] requests at [rate]
   requests per second. *)
let poisson_schedule ~rng ~rate n =
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t +. Kronos_simnet.Rng.exponential rng ~mean:(1. /. rate);
      !t)

(* Arrivals whose rate climbs linearly from [r0] to [r1] over [secs]
   seconds: the rate search offers every rate in between once. *)
let ramp_schedule ~rng ~r0 ~r1 ~secs =
  let rate t = r0 +. ((r1 -. r0) *. t /. secs) in
  let rec go t acc =
    let t = t +. Kronos_simnet.Rng.exponential rng ~mean:(1. /. rate t) in
    if t >= secs then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

type t = {
  due : float array;  (** absolute due time of each request *)
  sent : float array;  (** when it was actually handed to [send]; nan = not yet *)
  finished : float array;  (** completion time; nan = outstanding *)
  ok : bool array;
  mutable next : int;  (** first request not yet sent *)
  mutable completed : int;
  mutable abandoned : int;  (** never sent: the phase was stopped *)
  mutable first_open : int;  (** no request before this one is outstanding *)
}

let create ~start offsets =
  let n = Array.length offsets in
  {
    due = Array.map (fun o -> start +. o) offsets;
    sent = Array.make n nan;
    finished = Array.make n nan;
    ok = Array.make n false;
    next = 0;
    completed = 0;
    abandoned = 0;
    first_open = 0;
  }

let length t = Array.length t.due

let complete t i ~now ~ok =
  if Float.is_nan t.finished.(i) then begin
    t.finished.(i) <- now;
    t.ok.(i) <- ok;
    t.completed <- t.completed + 1
  end

(* Hand every request that has fallen due to [send], in order. *)
let send_due t ~now ~send =
  let n = length t in
  while t.next < n && t.due.(t.next) <= now do
    let i = t.next in
    t.sent.(i) <- now;
    t.next <- i + 1;
    send i
  done

let all_sent t = t.next >= length t

(* How long the oldest outstanding request has been due: a backlog that
   keeps growing shows here first. *)
let oldest_wait t ~now =
  while t.first_open < t.next && not (Float.is_nan t.finished.(t.first_open)) do
    t.first_open <- t.first_open + 1
  done;
  if t.first_open < t.next then now -. t.due.(t.first_open) else 0.
let all_done t = t.completed + t.abandoned >= length t

(* Seconds until the next unsent request falls due (0 when overdue;
   [infinity] when everything has been sent or abandoned). *)
let until_next t ~now =
  if all_sent t || t.abandoned > 0 then infinity else Float.max 0. (t.due.(t.next) -. now)

(* Drive the phase: send on schedule, wait for events in between, stop
   once every request has completed or [deadline] passes.  [wait d] must
   return after at most [d] seconds, having delivered any completions
   that arrived meanwhile.  Once [stop ()] holds nothing more is sent
   (the rest of the schedule is abandoned) and the phase drains. *)
let run ?(stop = fun () -> false) t ~now ~wait ~send ~deadline =
  let stopped = ref false in
  let rec go () =
    let n = now () in
    if (not !stopped) && stop () then begin
      stopped := true;
      t.abandoned <- length t - t.next
    end;
    if not !stopped then send_due t ~now:n ~send;
    if (not (all_done t)) && n < deadline then begin
      wait (Float.min 0.001 (until_next t ~now:n));
      go ()
    end
  in
  go ()

(* Latency of completed requests, from due time. *)
let latencies ?(filter = fun _ -> true) t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    if filter i && (not (Float.is_nan t.finished.(i))) && t.ok.(i) then
      acc := (t.finished.(i) -. t.due.(i)) :: !acc
  done;
  Array.of_list !acc

(* How late the generator sent each request. *)
let lags t =
  Array.init t.next (fun i -> t.sent.(i) -. t.due.(i))
