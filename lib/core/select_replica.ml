open Xkernel

type policy = Round_robin | Hash

type health = Healthy | Suspect | Dead

type endpoint = {
  ep_addr : Addr.Ip.t;
  ep_call :
    ?expires:float ->
    ?shard:Wire_fmt.Select.stamp ->
    command:int ->
    Msg.t ->
    (Msg.t, Rpc_error.t) result;
}

type replica = {
  r_idx : int;
  r_call :
    ?expires:float ->
    ?shard:Wire_fmt.Select.stamp ->
    command:int ->
    Msg.t ->
    (Msg.t, Rpc_error.t) result;
  mutable r_health : health;
  mutable r_probe_fails : int; (* consecutive failed recovery probes *)
  mutable r_probe_armed : bool;
  mutable r_next_retry : float; (* earliest Dead re-probe (dead_retry_interval) *)
  (* ["replica<i>-fail"], ["-suspect"], ["-dead"] and ["-recovered"],
     resolved once at create time. *)
  c_fail : Stats.counter;
  c_suspect : Stats.counter;
  c_dead : Stats.counter;
  c_recovered : Stats.counter;
}

(* One shard-routed attempt currently on the wire: enough for a map
   install to find the stragglers bound for an ex-owner and force them
   over at the drain deadline. *)
type inflight = {
  if_shard : int;
  if_owner : int;
  if_attempt : attempt; (* settled with [Wrong_shard v] when forced *)
}

(* One bounded attempt: the arguments both of its legs call with, the
   ivar the caller waits on, and [settled], set by whichever of a leg's
   result, a forced handoff and the caller's timeout comes first.  The
   record is also the argument of each leg and of the hedge timer. *)
and attempt = {
  a_t : t;
  a_iv : (Msg.t, Rpc_error.t) result Sim.Ivar.ivar;
  mutable settled : bool;
  a_primary : replica;
  a_hedge : replica; (* the hedge leg's replica, if one is armed *)
  a_expires : float option;
  a_shard : Wire_fmt.Select.stamp option;
  a_command : int;
  a_msg : Msg.t;
}

(* All-float, so a token count is stored unboxed: in [t] every earned
   token fraction would box a fresh float. *)
and bucket = { token_cap : float; mutable tokens : float }

and t = {
  host : Host.t;
  p : Proto.t;
  replicas : replica array;
  policy : policy;
  attempt_timeout : float;
  deadline : float;
  probation : float;
  probe_limit : int;
  rng : Random.State.t;
  stats : Stats.t;
  mutable rr : int; (* round-robin cursor *)
  (* Overload governance (all off by default). *)
  propagate_deadline : bool;
  retry_budget : float option; (* tokens earned per call; None = unlimited *)
  bucket : bucket;
  hedge : bool;
  h_lat : Histogram.t; (* successful-call latency, for the hedge delay *)
  (* Sharded routing (all inert until a map is installed). *)
  drain_deadline : float option;
  probe_timeout : float option;
  dead_retry_interval : float option;
  mutable map : Shard_map.t option;
  mutable on_refresh : (unit -> unit) option;
  mutable shard_calls : int array; (* per-shard routed-call counts *)
  mutable inflight : inflight list;
  (* Per-call counters, resolved once at create time (hot path). *)
  c_call : Stats.counter;
  c_ok : Stats.counter;
  c_failed : Stats.counter;
  c_failover : Stats.counter;
  c_failover_ok : Stats.counter;
  c_attempt_timeout : Stats.counter;
  c_deadline_expired : Stats.counter;
  c_probe_sent : Stats.counter;
  c_probe_ok : Stats.counter;
  c_late_ok : Stats.counter;
  c_busy_rx : Stats.counter;
  c_exhausted : Stats.counter;
  c_hedge_sent : Stats.counter;
  c_hedge_win : Stats.counter;
  c_all_dead : Stats.counter;
  c_map_rx : Stats.counter;
  c_wrong_shard_rx : Stats.counter;
  c_handoff_forced : Stats.counter;
}

(* The hedge delay is the p99 of observed call latencies; with fewer
   samples than this the estimate is noise and hedging stays off. *)
let hedge_min_samples = 32

(* Recovery probes call the null procedure. *)
let null_procedure = 1

let proto t = t.p
let health t i = t.replicas.(i).r_health

let failovers t = Stats.value t.c_failover
let probes_sent t = Stats.value t.c_probe_sent
let probes_ok t = Stats.value t.c_probe_ok

let map_version t =
  match t.map with None -> 0 | Some m -> Shard_map.version m

let shard_calls t = Array.copy t.shard_calls
let set_refresh t f = t.on_refresh <- Some f

(* Gauges: how many replicas this client currently distrusts. *)
let set_gauges t =
  let suspect = ref 0 and dead = ref 0 in
  Array.iter
    (fun r ->
      match r.r_health with
      | Suspect -> incr suspect
      | Dead -> incr dead
      | Healthy -> ())
    t.replicas;
  Stats.set t.stats "replica-suspect" !suspect;
  Stats.set t.stats "replica-dead" !dead

let mark_healthy t r =
  if r.r_health <> Healthy then begin
    r.r_health <- Healthy;
    Stats.tick r.c_recovered;
    set_gauges t
  end;
  r.r_probe_fails <- 0

(* Seeded jitter keeps a fleet of clients that suspected a replica
   together from probing it in lockstep forever. *)
let probe_delay t fails =
  t.probation
  *. (2. ** float_of_int fails)
  *. (1. +. (0.2 *. Random.State.float t.rng 1.))

(* One recovery probe, optionally bounded by [probe_timeout] so that
   deciding a crashed replica's fate costs [probe_timeout] instead of
   the lower stack's full RTO ladder.  A bounded probe that completes
   late with [Ok] still heals the replica, like any late success. *)
let probe_once t r =
  match t.probe_timeout with
  | None -> r.r_call ~command:null_procedure Msg.empty
  | Some pt -> (
      let sim = Host.sim t.host in
      let iv = Sim.Ivar.create sim in
      let settled = ref false in
      Sim.spawn sim (fun () ->
          let res = r.r_call ~command:null_procedure Msg.empty in
          if !settled then begin
            match res with Ok _ -> mark_healthy t r | Error _ -> ()
          end
          else begin
            settled := true;
            Sim.Ivar.fill iv res
          end);
      match Sim.Ivar.read_timeout iv pt with
      | Some res -> res
      | None ->
          settled := true;
          Error Rpc_error.Timeout)

(* Recovery probes: after probation, one null call decides.  Probing is
   capped — [probe_limit] consecutive failures mark the replica [Dead]
   and stop re-arming, so the event queue still drains when a replica
   never comes back.  A dead replica is resurrected by a last-resort
   call attempt that happens to succeed (see {!order}), or — when
   [dead_retry_interval] is set — by the periodic lazy re-probe fired
   from the call path (see {!maybe_retry_dead}). *)
let rec arm_probe t r ~delay =
  if not r.r_probe_armed then begin
    r.r_probe_armed <- true;
    ignore (Event.schedule t.host delay probe_due (t, r))
  end

and probe_due (t, r) =
  r.r_probe_armed <- false;
  if r.r_health = Suspect then begin
    Stats.tick t.c_probe_sent;
    match probe_once t r with
    | Ok _ ->
        Stats.tick t.c_probe_ok;
        mark_healthy t r
    | Error _ ->
        r.r_probe_fails <- r.r_probe_fails + 1;
        if r.r_probe_fails >= t.probe_limit then begin
          r.r_health <- Dead;
          (match t.dead_retry_interval with
          | Some iv -> r.r_next_retry <- Sim.now (Host.sim t.host) +. iv
          | None -> ());
          Stats.tick r.c_dead;
          set_gauges t
        end
        else arm_probe t r ~delay:(probe_delay t r.r_probe_fails)
  end

(* The Dead-permanence fix: with [dead_retry_interval] set, each call
   checks whether any Dead replica is due a re-probe and fires one in
   its own fiber.  Piggybacking on the call path (instead of a standing
   timer) keeps the event queue drainable when traffic stops and a
   replica never returns.  Seeded jitter staggers a fleet of clients
   that buried the replica together. *)
let maybe_retry_dead t =
  match t.dead_retry_interval with
  | None -> ()
  | Some interval ->
      let sim = Host.sim t.host in
      let now = Sim.now sim in
      Array.iter
        (fun r ->
          if r.r_health = Dead && now >= r.r_next_retry then begin
            r.r_next_retry <-
              now +. (interval *. (1. +. (0.2 *. Random.State.float t.rng 1.)));
            Sim.spawn sim (fun () ->
                Stats.tick t.c_probe_sent;
                match probe_once t r with
                | Ok _ ->
                    Stats.tick t.c_probe_ok;
                    mark_healthy t r
                | Error _ -> ())
          end)
        t.replicas

let mark_suspect t r =
  match r.r_health with
  | Healthy ->
      r.r_health <- Suspect;
      Stats.tick r.c_suspect;
      set_gauges t;
      arm_probe t r ~delay:(probe_delay t 0)
  | Suspect | Dead -> ()

(* Retry-budget token bucket: every call earns a fraction of a token,
   every failover or hedge spends a whole one, so retries are bounded to
   roughly [ratio] of the offered load no matter how hard the servers
   are struggling — the amplification governor. *)
let earn_token t =
  match t.retry_budget with
  | None -> ()
  | Some ratio ->
      let b = t.bucket in
      b.tokens <- Float.min b.token_cap (b.tokens +. ratio)

let take_token t =
  match t.retry_budget with
  | None -> true
  | Some _ ->
      let b = t.bucket in
      if b.tokens >= 1. then begin
        b.tokens <- b.tokens -. 1.;
        true
      end
      else false

(* One leg of an attempt: [r]'s call, in a fiber of its own.  The first
   leg to finish settles the attempt; a later one only teaches the
   health tracker that its replica is alive. *)
let run_leg a r ~is_hedge =
  let t = a.a_t in
  let res =
    r.r_call ?expires:a.a_expires ?shard:a.a_shard ~command:a.a_command a.a_msg
  in
  if a.settled then begin
    match res with
    | Ok _ ->
        Stats.tick t.c_late_ok;
        mark_healthy t r
    | Error _ -> ()
  end
  else begin
    a.settled <- true;
    (match res with
    | Ok _ ->
        mark_healthy t r;
        if is_hedge then Stats.tick t.c_hedge_win
    | Error _ -> ());
    Sim.Ivar.fill a.a_iv res
  end

let run_primary a = run_leg a a.a_primary ~is_hedge:false
let run_hedge a = run_leg a a.a_hedge ~is_hedge:true

(* A leg starts as a fresh fiber at the back of the current instant. *)
let now_span = { Sim.seconds = 0. }

(* The hedge timer's callback.  Like the end of a timed wait, it reads
   [settled] and takes a token from the back of the instant the timer
   fires in, after everything already due then: hence the yield. *)
let fire_hedge a =
  let sim = Host.sim a.a_t.host in
  Sim.yield sim;
  if (not a.settled) && take_token a.a_t then begin
    Stats.tick a.a_t.c_hedge_sent;
    Sim.call_after sim now_span run_hedge a
  end

(* Settle a shard-routed attempt that a map install forced over. *)
let force a v =
  if not a.settled then begin
    a.settled <- true;
    Stats.tick a.a_t.c_handoff_forced;
    Sim.Ivar.fill a.a_iv (Error (Rpc_error.Wrong_shard v))
  end

let force_all (doomed, v) = List.iter (fun e -> force e.if_attempt v) doomed

(* One bounded attempt against [r].  The call itself runs in its own
   fiber so the attempt can be abandoned after [budget] without waiting
   out the channel's full RTO ladder; an abandoned call still completes
   in the background, and a late success teaches the health tracker
   that the replica is alive after all.

   [hedge_to] is the next candidate, or [-1] when this attempt may not
   hedge.  A hedge is a timer at the p99 latency; if the primary has
   not settled when it fires and a retry token is available, a second
   leg calls [hedge_to].  The first settlement wins, the loser is
   absorbed as a late completion, and the attempt cancels the timer
   when it returns. *)
let attempt t r ~hedge_to ~stamp ~budget ~expires ~command msg =
  let sim = Host.sim t.host in
  let a =
    {
      a_t = t;
      a_iv = Sim.Ivar.create sim;
      settled = false;
      a_primary = r;
      a_hedge = (if hedge_to < 0 then r else t.replicas.(hedge_to));
      a_expires = expires;
      a_shard = stamp;
      a_command = command;
      a_msg = msg;
    }
  in
  (* Shard-routed attempts register themselves so a map install can
     find the stragglers bound for an ex-owner and, at the drain
     deadline, settle them with [Wrong_shard] — the forced handoff. *)
  (match stamp with
  | None -> ()
  | Some st ->
      let e =
        {
          if_shard = st.Wire_fmt.Select.shard;
          if_owner = r.r_idx;
          if_attempt = a;
        }
      in
      t.inflight <- e :: t.inflight);
  Sim.call_after sim now_span run_primary a;
  let hedge_after =
    if hedge_to < 0 then 0.
    else float_of_int (Histogram.percentile t.h_lat 99.) *. 1e-6
  in
  let got =
    if hedge_after > 0. && hedge_after < budget then begin
      let hedge = Sim.timer sim hedge_after fire_hedge a in
      let got = Sim.Ivar.read_timeout a.a_iv budget in
      ignore (Sim.cancel hedge);
      got
    end
    else Sim.Ivar.read_timeout a.a_iv budget
  in
  (match stamp with
  | None -> ()
  | Some _ ->
      t.inflight <- List.filter (fun e -> e.if_attempt != a) t.inflight);
  match got with
  | Some res -> res
  | None ->
      if a.settled then
        (* A force event won the race against the budget timer. *)
        Error
          (Rpc_error.Wrong_shard (match t.map with
          | Some m -> Shard_map.version m
          | None -> 0))
      else begin
        a.settled <- true;
        Stats.tick t.c_attempt_timeout;
        Error Rpc_error.Timeout
      end

(* Candidate order: start from the policy's preferred replica and walk
   successors (the consistent-hash ring walk, degenerate for
   round-robin), healthy replicas first, then suspect ones, and dead
   ones only as a last resort, each group in walk order. *)
let rank = function Healthy -> 0 | Suspect -> 1 | Dead -> 2

let health_walk t ~start =
  let k = Array.length t.replicas in
  let order = Array.make k 0 and n = ref 0 in
  for want = 0 to 2 do
    for i = 0 to k - 1 do
      let idx = (start + i) mod k in
      if rank t.replicas.(idx).r_health = want then begin
        order.(!n) <- idx;
        incr n
      end
    done
  done;
  order

let order t ~key =
  let k = Array.length t.replicas in
  let start =
    match (t.policy, key) with
    | Hash, Some key -> ((key mod k) + k) mod k
    | Hash, None | Round_robin, _ ->
        let c = t.rr in
        t.rr <- (t.rr + 1) mod k;
        c
  in
  health_walk t ~start

(* Map routing: under [Hash] with a map installed, the key picks a
   virtual shard and the map's owner is the preferred replica — the
   ring walk and health sort still provide failover successors.  The
   returned stamp travels with the request so an ex-owner can refuse
   it. *)
let route t ~key =
  match (t.policy, key, t.map) with
  | Hash, Some key, Some m ->
      let shard = Shard_map.shard_of_key m key in
      let start = Shard_map.owner m ~shard mod Array.length t.replicas in
      ( health_walk t ~start,
        Some
          {
            Wire_fmt.Select.shard;
            epoch = Shard_map.epoch m;
            version = Shard_map.version m;
          } )
  | _ -> (order t ~key, None)

(* Accept a strictly newer map.  With a [drain_deadline], shard-routed
   attempts still in flight toward an owner the new map revoked get a
   force event: if they have not completed by then, they settle with
   [Wrong_shard] (["handoff-forced"]) and the call re-routes — the
   bounded half of graceful handoff.  In-flight calls whose owner is
   unchanged, and all of them when no drain deadline is configured,
   complete where they are. *)
let install_map t m =
  let newer =
    match t.map with
    | None -> true
    | Some cur ->
        Shard_map.newer_than m ~epoch:(Shard_map.epoch cur)
          ~version:(Shard_map.version cur)
  in
  if newer then begin
    let old = t.map in
    t.map <- Some m;
    if Array.length t.shard_calls <> Shard_map.shard_count m then
      t.shard_calls <- Array.make (Shard_map.shard_count m) 0;
    Stats.tick t.c_map_rx;
    Stats.set t.stats "map-version" (Shard_map.version m);
    Trace.debugf (Host.sim t.host) ~host:t.host.Host.name
      "REPLICA installs shard map v%d" (Shard_map.version m);
    (match (old, t.drain_deadline) with
    | Some o, Some d ->
        let changed = Shard_map.diff o m in
        let doomed =
          List.filter
            (fun e ->
              List.mem e.if_shard changed
              && e.if_owner <> Shard_map.owner m ~shard:e.if_shard)
            t.inflight
        in
        if doomed <> [] then
          ignore
            (Event.schedule t.host d force_all (doomed, Shard_map.version m))
    | _ -> ())
  end;
  newer

let all_dead t =
  Array.for_all (fun r -> r.r_health = Dead) t.replicas

(* Attempts along [order] from [pos] until one settles the call.  A
   function of its own, not a closure per call: [tried] counts attempts
   made, [last_err] is what the call fails with when the candidates run
   out. *)
let rec attempts t ~key ~command msg ~expires ~deadline_at ~refreshed ~stamp
    tried last_err order pos =
  if pos >= Array.length order || tried >= Array.length t.replicas then
    Error last_err
  else begin
    let r = t.replicas.(order.(pos)) in
    let remaining = deadline_at -. Sim.now (Host.sim t.host) in
    if remaining <= 0. then begin
      Stats.tick t.c_deadline_expired;
      Error Rpc_error.Timeout
    end
    else begin
      if tried > 0 then Stats.tick t.c_failover;
      let budget = Float.min t.attempt_timeout remaining in
      let last = pos + 1 >= Array.length order in
      let hedge_to =
        if
          t.hedge && tried = 0 && (not last)
          && Histogram.count t.h_lat >= hedge_min_samples
        then order.(pos + 1)
        else -1
      in
      match attempt t r ~hedge_to ~stamp ~budget ~expires ~command msg with
      | Ok reply ->
          if tried > 0 then Stats.tick t.c_failover_ok;
          Ok reply
      | Error Rpc_error.Busy as e ->
          (* Explicit admission pushback: the server is up and refusing
             load.  Not a health failure — a failover here is exactly
             the retry storm the budget exists to prevent. *)
          Stats.tick t.c_busy_rx;
          e
      | Error (Rpc_error.Wrong_shard _) as e ->
          (* The replica answered from a newer map (or a map install
             forced the attempt over): not a health failure, and no
             retry token — the server did no work.  Refresh the map and
             re-route once; a second wrong-shard means the control plane
             is churning and the error surfaces. *)
          Stats.tick t.c_wrong_shard_rx;
          if refreshed then e
          else begin
            (match t.on_refresh with Some f -> f () | None -> ());
            let order, stamp = route t ~key in
            attempts t ~key ~command msg ~expires ~deadline_at ~refreshed:true
              ~stamp tried last_err order 0
          end
      | Error (Rpc_error.Remote _) as e ->
          (* The replica answered: retrying elsewhere could re-execute a
             non-idempotent procedure. *)
          e
      | Error ((Rpc_error.Timeout | Rpc_error.Rebooted) as err) ->
          Stats.tick r.c_fail;
          mark_suspect t r;
          if last || tried + 1 >= Array.length t.replicas || take_token t
          then
            attempts t ~key ~command msg ~expires ~deadline_at ~refreshed
              ~stamp (tried + 1) err order (pos + 1)
          else begin
            (* Out of retry tokens: absorb the failure instead of
               amplifying the overload with another attempt. *)
            Stats.tick t.c_exhausted;
            Error err
          end
    end
  end

let call t ?key ~command msg =
  let sim = Host.sim t.host in
  Stats.tick t.c_call;
  earn_token t;
  maybe_retry_dead t;
  Machine.charge t.host.Host.mach Machine.Virtual_op 0;
  Trace.packet sim ~host:t.host.Host.name ~proto:"REPLICA" ~dir:`Send msg;
  if all_dead t then begin
    (* Every replica is dead and probing has stopped: sleeping out the
       overall deadline would learn nothing.  Fail terminally now. *)
    Stats.tick t.c_all_dead;
    Stats.tick t.c_failed;
    Error Rpc_error.Timeout
  end
  else begin
    let t0 = Sim.now sim in
    let deadline_at = t0 +. t.deadline in
    let expires = if t.propagate_deadline then Some deadline_at else None in
    let order, stamp = route t ~key in
    (match stamp with
    | Some st
      when st.Wire_fmt.Select.shard < Array.length t.shard_calls ->
        t.shard_calls.(st.Wire_fmt.Select.shard) <-
          t.shard_calls.(st.Wire_fmt.Select.shard) + 1
    | _ -> ());
    let res =
      attempts t ~key ~command msg ~expires ~deadline_at ~refreshed:false
        ~stamp 0 Rpc_error.Timeout order 0
    in
    (match res with
    | Ok reply ->
        Stats.tick t.c_ok;
        Histogram.record t.h_lat
          (int_of_float ((Sim.now sim -. t0) *. 1e6));
        Trace.packet sim ~host:t.host.Host.name ~proto:"REPLICA" ~dir:`Recv
          reply
    | Error _ -> Stats.tick t.c_failed);
    res
  end

let create ~host ?(policy = Round_robin) ?(attempt_timeout = 0.25)
    ?(deadline = 1.0) ?(probation = 0.1) ?(probe_limit = 3)
    ?(propagate_deadline = false) ?retry_budget ?(hedge = false) ?probe_timeout
    ?dead_retry_interval ?drain_deadline ?(below = []) ~endpoints
    () =
  if Array.length endpoints < 1 then
    invalid_arg "Select_replica.create: no endpoints";
  if attempt_timeout <= 0. then
    invalid_arg "Select_replica.create: attempt_timeout <= 0";
  if deadline <= 0. then invalid_arg "Select_replica.create: deadline <= 0";
  (match retry_budget with
  | Some r when r < 0. -> invalid_arg "Select_replica.create: retry_budget < 0"
  | _ -> ());
  (match probe_timeout with
  | Some v when v <= 0. -> invalid_arg "Select_replica.create: probe_timeout <= 0"
  | _ -> ());
  (match dead_retry_interval with
  | Some v when v <= 0. ->
      invalid_arg "Select_replica.create: dead_retry_interval <= 0"
  | _ -> ());
  (match drain_deadline with
  | Some v when v < 0. ->
      invalid_arg "Select_replica.create: drain_deadline < 0"
  | _ -> ());
  let p = Proto.create ~host ~name:"REPLICA" ~virtual_:true () in
  let stats = Proto.stats p in
  let t =
    {
      host;
      p;
      replicas =
        Array.mapi
          (fun i ep ->
            let c what =
              Stats.counter stats (Printf.sprintf "replica%d-%s" i what)
            in
            {
              r_idx = i;
              r_call = ep.ep_call;
              r_health = Healthy;
              r_probe_fails = 0;
              r_probe_armed = false;
              r_next_retry = 0.;
              c_fail = c "fail";
              c_suspect = c "suspect";
              c_dead = c "dead";
              c_recovered = c "recovered";
            })
          endpoints;
      policy;
      attempt_timeout;
      deadline;
      probation;
      probe_limit;
      rng = Sim.rng (Host.sim host);
      stats;
      rr = 0;
      propagate_deadline;
      retry_budget;
      bucket =
        (let full =
           match retry_budget with
           | Some r -> Float.max 1. (10. *. r)
           | None -> 0.
         in
         { token_cap = full; tokens = full });
      hedge;
      h_lat = Histogram.create ();
      drain_deadline;
      probe_timeout;
      dead_retry_interval;
      map = None;
      on_refresh = None;
      shard_calls = [||];
      inflight = [];
      c_call = Stats.counter stats "call";
      c_ok = Stats.counter stats "ok";
      c_failed = Stats.counter stats "failed";
      c_failover = Stats.counter stats "failovers";
      c_failover_ok = Stats.counter stats "failover-ok";
      c_attempt_timeout = Stats.counter stats "attempt-timeout";
      c_deadline_expired = Stats.counter stats "deadline-expired";
      c_probe_sent = Stats.counter stats "probe-sent";
      c_probe_ok = Stats.counter stats "probe-ok";
      c_late_ok = Stats.counter stats "late-ok";
      c_busy_rx = Stats.counter stats "busy-reject-rx";
      c_exhausted = Stats.counter stats "retry-budget-exhausted";
      c_hedge_sent = Stats.counter stats "hedge-sent";
      c_hedge_win = Stats.counter stats "hedge-win";
      c_all_dead = Stats.counter stats "all-dead";
      c_map_rx = Stats.counter stats "map-update-rx";
      c_wrong_shard_rx = Stats.counter stats "wrong-shard-rx";
      c_handoff_forced = Stats.counter stats "handoff-forced";
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Select_replica: use call");
      open_enable =
        (fun ~upper:_ _ -> invalid_arg "Select_replica: client-side only");
      open_done = (fun ~upper:_ _ -> invalid_arg "Select_replica: use call");
      demux =
        (fun ~lower:_ _ ->
          (* Headerless virtual protocol: replies come back through the
             per-replica call path, never by demux. *)
          Stats.incr t.stats "rx-unexpected");
      p_control =
        (fun req ->
          match req with
          | Control.Install_map bytes -> (
              (* The MAP control plane lands here. *)
              match Shard_map.decode bytes with
              | None -> Control.Unsupported
              | Some m ->
                  ignore (install_map t m);
                  Control.R_unit)
          | Control.Get_map_version when t.map <> None ->
              Control.R_int (map_version t)
          | req -> Stats.control t.stats req);
    };
  if below <> [] then Proto.declare_below p below;
  set_gauges t;
  t
