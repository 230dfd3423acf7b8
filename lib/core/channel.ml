open Xkernel
module C = Wire_fmt.Channel

(* All-float, so the per-call updates are unboxed stores: the RTT
   estimate, the outstanding transaction's first-send time and the
   served request's expiry. *)
type clock = {
  mutable srtt : float; (* negative: no sample yet *)
  mutable rttvar : float;
  mutable sent_at : float; (* first transmission time, for the RTT sample *)
  mutable rx_expires : float;
      (* server role: absolute expiry of the request currently being
         served, reconstructed from the propagated remaining budget at
         decode time, or -1 when none was propagated; admission layers
         read it via [Get_rx_deadline] *)
}

(* A channel carries one transaction at a time, so the session holds it
   in place: starting one writes these fields and allocates nothing. *)
type sess = {
  chan : int;
  proto_num : int;
  upper : Proto.t;
  lower_sess : Proto.session;
  mutable xs : Proto.session option;
  clock : clock;
  (* client role: the outstanding transaction *)
  caller : Amo.client;
      (* its sequence number, which names it to its retransmit timer
         (no later transaction reuses one, not even after a crash), and
         the server's boot *)
  mutable blocked : bool;
      (* a {!call} is blocked here, or woken and not yet back: it owns
         the transaction's result, and the channel takes no other
         transaction until it has it *)
  wake : Sim.Semaphore.sem; (* the blocked caller waits here *)
  mutable result : (Msg.t, Rpc_error.t) result; (* for the woken caller *)
  mutable payload : Msg.t;
  mutable sent_load : int; (* protocol-wide in-flight count when first sent *)
  mutable expires : float option;
      (* absolute sim time of the caller's deadline; each (re)transmit
         stamps the *remaining* budget into the header, and the
         retransmit timer gives up outright once it has passed *)
  mutable timer : Event.t; (* [t.no_timer] when none is armed *)
  mutable tries_left : int;
  mutable acked_seq : int;
      (* the last transaction an explicit ACK named: the server is
         working on it *)
  on_timeout : int -> unit; (* the retransmit timer's callback, built once *)
  (* server role *)
  amo : Amo.server; (* the request executing, and the last one answered *)
  mutable cached_reply : Msg.t;
      (* encoded, ready to retransmit, while [amo] says a reply is
         cached (an encoded reply carries its header) *)
  (* adaptive RTO estimator (Jacobson), per channel, with [clock] *)
  mutable backoff : int; (* consecutive timeouts on the current transaction *)
  mutable last_len : int; (* last request length, for effective-RTO queries *)
  mutable srtt_load : int;
      (* in-flight count behind the current srtt estimate: the load
         level at which its samples were taken (see {!load_scale}) *)
}

(* CHANNEL's own protocol number toward the layer below; the
   protocol-number field in its header names the layer above. *)
let own_proto = 93
let proto_num = own_proto

type t = {
  host : Host.t;
  lower : Proto.t;
  chans : int;
  adaptive : bool;
  rto_load_floor : bool;
  rng : Random.State.t; (* the simulator's seeded stream (backoff jitter) *)
  p : Proto.t;
  demux : (t, Addr.Ip.t * int * int, sess) Demux.t; (* (peer, proto, chan) *)
  by_id : (int, sess) Hashtbl.t; (* Proto.session_id xs -> sess *)
  stats : Stats.t;
  mutable in_flight : int; (* outstanding requests across all sessions *)
  no_timer : Event.t;
  span : Sim.duration;
      (* an RTO being worked out: written, then read back or handed to
         [Event.schedule] before anything can yield *)
  (* Per-message counters and gauges, resolved once at create time (hot
     path). *)
  c_rtt_sample : Stats.counter;
  c_req_tx : Stats.counter;
  c_reply_tx : Stats.counter;
  c_req_rx : Stats.counter;
  c_reply_rx : Stats.counter;
  c_karn_skip : Stats.counter;
  c_ack_tx : Stats.counter;
  c_ack_rx : Stats.counter;
  g_srtt_us : Stats.counter;
  g_rto_us : Stats.counter;
}

(* Prebuilt answers: a session's result slot when no caller waits (it
   drops the last reply), and [Get_rx_deadline] for a request that
   carried no deadline. *)
let no_result : (Msg.t, Rpc_error.t) result = Error Rpc_error.Busy
let no_rx_deadline = Control.R_float (-1.)

let proto t = t.p
let n_channels t = t.chans

(* Remaining budget in microseconds at this instant; 0 once the
   deadline has passed (the server treats a zero stamp as already
   expired), -1 when no deadline is being propagated. *)
let deadline_us_of t expires =
  match expires with
  | None -> -1
  | Some e ->
      let rem = (e -. Sim.now (Host.sim t.host)) *. 1e6 in
      if rem <= 0. then 0
      else min (int_of_float rem) C.max_deadline_us

(* The header's field values are taken before the charge, which can
   yield. *)
let transmit t s ~expires ~flags ~seq ~error payload =
  let deadline_us = deadline_us_of t expires in
  let boot_id = t.host.Host.boot_id in
  let hdr_bytes =
    if deadline_us >= 0 then C.bytes + C.ext_bytes else C.bytes
  in
  Machine.charge t.host.Host.mach Machine.Header hdr_bytes;
  let encoded =
    Msg.push payload
      (C.encode ~flags ~channel:s.chan ~proto:s.proto_num ~seq ~error ~boot_id
         ~deadline_us)
  in
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"CHANNEL"
    ~dir:`Send encoded;
  Proto.push s.lower_sess encoded

(* Sprite's fixed timeouts: 20 ms for a single-fragment request plus
   3 ms per expected fragment, 5 retries; the adaptive RTO is capped at
   1 s. *)
let base_timeout = 0.02
let per_frag_timeout = 0.003
let retries = 5
let rto_max = 1.0

let nfrags s len =
  let frag_size =
    match Proto.session_control s.lower_sess Control.Get_frag_size with
    | Control.R_int n when n > 0 -> n
    | _ -> len + 1 (* lower layer does not fragment *)
  in
  max 1 ((len + frag_size - 1) / frag_size)

(* Step-function timeout: short for single-fragment requests; long
   enough for multi-fragment ones that the fragmentation layer below is
   surely done transmitting.  This and the RTO functions below write
   their result into [d], so it is never boxed. *)
let request_timeout s len (d : Sim.duration) =
  let n = nfrags s len in
  d.seconds <-
    (if n <= 1 then base_timeout
     else base_timeout +. (float_of_int n *. per_frag_timeout))

(* Effective RTO.  Before the first RTT sample (and whenever adaptation
   is off) this is exactly the paper's step function, so a loss-free run
   is indistinguishable from the fixed-timeout stack.  Once a sample
   exists, Jacobson's estimate takes over, floored by the
   fragment-serialization component alone — the part of the step
   function that measures how long the layer below is still busy — and
   capped at [rto_max]. *)
let request_rto t s len (d : Sim.duration) =
  let c = s.clock in
  if (not t.adaptive) || c.srtt < 0. then request_timeout s len d
  else
    let floor = float_of_int (nfrags s len) *. per_frag_timeout in
    (* [Float.min rto_max (Float.max est floor)], written out so that no
       float crosses a call: nothing here is NaN, and [floor] and
       [rto_max] are positive. *)
    let est = c.srtt +. (4. *. c.rttvar) in
    let v = if floor > est then floor else est in
    d.seconds <- (if v > rto_max then rto_max else v)

(* Karn's backoff persistence: [s.backoff] carries over into the next
   transaction; a valid sample clears it, and every retransmitted-but-
   completed transaction decays it one step (see [handle_reply]).
   Under sustained RTT inflation Karn's rule starves the estimator
   (every transaction retransmits, so none yields a sample); keeping
   the backed-off RTO while transactions are still failing is what
   lets it converge, while the per-completion decay stops it from
   staying pinned after loss clears. *)
let backed_rto t s len (d : Sim.duration) =
  request_rto t s len d;
  if s.backoff <> 0 then
    d.seconds <- Float.min rto_max (d.seconds *. (2. ** float_of_int s.backoff))

(* Load-sensitive RTO floor (the lrpc-arto cold-start storm fix).  The
   estimator's srtt describes round trips observed while [s.srtt_load]
   requests shared the server; when the protocol suddenly carries more
   than that, queueing delay inflates every RTT before a single clean
   sample can teach the estimator, and an unscaled RTO retransmits
   straight into the backlog — each retransmission adding more load, a
   storm.  Scaling the *armed* timeout by the in-flight ratio rides out
   the transient; once samples arrive at the new load the ratio returns
   to 1.  Only the armed timer is scaled: {!request_rto} (and the rto-us
   gauge derived from it) still reports the bare estimate.  Scales [d]
   in place. *)
let load_scale t s (d : Sim.duration) =
  if t.adaptive && t.rto_load_floor && t.in_flight > s.srtt_load then
    d.seconds <-
      d.seconds
      *. (float_of_int t.in_flight /. float_of_int (max 1 s.srtt_load))

(* Jacobson's estimator: alpha = 1/8, beta = 1/4, fed the round trip
   of the outstanding transaction, which ends now.  The sample is taken
   here, not passed in, so it is never boxed. *)
let observe_rtt t s ~load =
  let c = s.clock in
  let r = Sim.now (Host.sim t.host) -. c.sent_at in
  s.srtt_load <- max 1 load;
  if c.srtt < 0. then begin
    c.srtt <- r;
    c.rttvar <- r /. 2.
  end
  else begin
    let err = r -. c.srtt in
    c.rttvar <- (0.75 *. c.rttvar) +. (0.25 *. Float.abs err);
    c.srtt <- c.srtt +. (0.125 *. err)
  end;
  s.backoff <- 0;
  Stats.tick t.c_rtt_sample;
  (* Gauges (microseconds): the most recent sample on any channel. *)
  Stats.store t.g_srtt_us (int_of_float (c.srtt *. 1e6));
  request_rto t s s.last_len t.span;
  Stats.store t.g_rto_us (int_of_float (t.span.seconds *. 1e6))

(* Cleared before the cancel, which charges and so yields: a
   transaction started meanwhile arms a timer of its own. *)
let cancel_timer t s =
  let ev = s.timer in
  if ev != t.no_timer then begin
    s.timer <- t.no_timer;
    ignore (Event.cancel t.host ev)
  end

let active s = s.caller.Amo.out_seq <> 0

(* Finish the outstanding transaction and wake its caller, which stays
   [blocked] until it has the result, so no call starts meanwhile. *)
let complete t s outcome =
  if active s then begin
    (* Clear the slot before anything that can yield (see
       Sprite_mono.complete_call). *)
    Amo.finish s.caller;
    t.in_flight <- t.in_flight - 1;
    cancel_timer t s;
    Machine.charge_all t.host.Host.mach
      [ (Machine.Semaphore_op, 0); (Machine.Process_switch, 0) ];
    s.result <- outcome;
    Sim.Semaphore.v s.wake
  end

(* Crash teardown for one session, from a {!Host.at_reboot} hook.  Runs
   outside any fiber, so nothing here may charge the machine or yield:
   timers die via {!Event.abort}, callers are woken with [Rebooted].
   State is reset {e in place} — upper layers (SELECT) hold on to the
   exported session handles, and those must stay valid across a reboot;
   the fresh boot id starts fresh sequence numbers, so a timer armed
   before the crash by a retransmit still charging matches nothing. *)
let crash_session t s =
  if active s then begin
    t.in_flight <- t.in_flight - 1;
    ignore (Event.abort s.timer);
    s.timer <- t.no_timer;
    s.result <- Error Rpc_error.Rebooted;
    Sim.Semaphore.v s.wake
  end;
  Amo.reset_client s.caller ~boot:t.host.Host.boot_id;
  Amo.reset_server s.amo;
  s.cached_reply <- Msg.empty;
  s.clock.rx_expires <- -1.;
  s.clock.srtt <- -1.;
  s.clock.rttvar <- 0.;
  s.backoff <- 0;
  s.srtt_load <- 1

(* Arm the retransmit timer of transaction [seq] for [t.span], which the
   caller has just written.  The [Timer_op] charge yields: if a reply or
   a crash ended [seq] meanwhile, the timer is nobody's and fires as a
   no-op. *)
let arm_timer t s seq =
  let ev = Event.schedule t.host t.span s.on_timeout seq in
  if Amo.outstanding s.caller ~seq then s.timer <- ev

(* The retransmit timer of transaction [seq].  Everything it reads after
   the retransmission's charges belongs to [seq] even if a reply ended
   it meanwhile: the payload length is read before, and an ACK is
   remembered by the transaction it named. *)
let timer_fired t s seq =
  if Amo.outstanding s.caller ~seq then begin
    let expired =
      match s.expires with
      | Some e -> e <= Sim.now (Host.sim t.host)
      | None -> false
    in
    if expired then begin
      (* The caller's budget is spent: retransmitting would only feed
         the server work it will discard. *)
      Stats.incr t.stats "deadline-give-up";
      complete t s (Error Rpc_error.Timeout)
    end
    else if s.tries_left <= 0 then complete t s (Error Rpc_error.Timeout)
    else begin
      s.tries_left <- s.tries_left - 1;
      Stats.incr t.stats "retransmit";
      let len = Msg.length s.payload + C.bytes in
      (* A retransmission asks the server to acknowledge explicitly if
         it is still working; the deadline extension carries the budget
         *remaining now*, not the original stamp. *)
      transmit t s ~expires:s.expires
        ~flags:(Wire_fmt.Flags.request lor Wire_fmt.Flags.please_ack)
        ~seq ~error:0 s.payload;
      let patience = t.span in
      if s.acked_seq = seq then patience.seconds <- base_timeout *. 4.
      else if t.adaptive then begin
        (* Exponential backoff on the effective RTO, capped, with a
           little seeded jitter so a fleet of channels that timed out
           together does not retransmit in lockstep forever. *)
        s.backoff <- s.backoff + 1;
        Stats.incr t.stats "rto-backoff";
        let jitter = 1. +. (0.1 *. Random.State.float t.rng 1.) in
        backed_rto t s len patience;
        load_scale t s patience;
        patience.seconds <- patience.seconds *. jitter
      end
      else request_timeout s len patience;
      arm_timer t s seq
    end
  end

(* Start a transaction on an idle channel.  What its first transmission
   and timer use is passed down from here, not read back from [s] after
   a charge: a crash during one could start the next transaction. *)
let send_request t s ~expires payload =
  let seq = Amo.call s.caller in
  t.in_flight <- t.in_flight + 1;
  s.payload <- payload;
  s.clock.sent_at <- Sim.now (Host.sim t.host);
  s.sent_load <- t.in_flight;
  s.expires <- expires;
  s.timer <- t.no_timer;
  s.tries_left <- retries;
  s.last_len <- Msg.length payload + C.bytes;
  Stats.tick t.c_req_tx;
  (* The synchronisation intrinsic to request/reply: the calling
     process blocks until the reply wakes it. *)
  Machine.charge_all t.host.Host.mach
    [ (Machine.Semaphore_op, 0); (Machine.Process_switch, 0) ];
  transmit t s ~expires ~flags:Wire_fmt.Flags.request ~seq ~error:0 payload;
  backed_rto t s (Msg.length payload + C.bytes) t.span;
  load_scale t s t.span;
  arm_timer t s seq

(* The upper layer's answer to the request executing on [s]: sent,
   stamped with that request's sequence number, unless a newer request
   or client boot arrived meanwhile. *)
let send_reply ?(error = 0) t s payload =
  match Amo.reply s.amo with
  | Amo.Send_reply ->
      Stats.tick t.c_reply_tx;
      let encoded =
        Msg.push payload
          (C.encode ~flags:Wire_fmt.Flags.reply ~channel:s.chan
             ~proto:s.proto_num ~seq:s.amo.Amo.last_seq ~error
             ~boot_id:t.host.Host.boot_id ~deadline_us:(-1))
      in
      s.cached_reply <- encoded;
      Machine.charge t.host.Host.mach Machine.Header C.bytes;
      Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"CHANNEL"
        ~dir:`Send encoded;
      Proto.push s.lower_sess encoded
  | _ -> Stats.incr t.stats "reply-late"

(* [m] is the frame with its header in front, [body] what follows the
   header. *)
let handle_request t s m body =
  Stats.tick t.c_req_rx;
  let seq = C.sequence_num m in
  match Amo.request s.amo ~boot:(C.boot_id m) ~seq with
  | Amo.Execute ->
      let deadline_us = C.deadline_us m in
      if deadline_us = 0 then
        (* The request arrived with its propagated budget already spent:
           the caller has given up, so executing it — or even claiming
           the channel — would be pure waste.  Dropping here is
           indistinguishable from packet loss, which at-most-once
           semantics already absorb. *)
        Stats.incr t.stats "deadline-expired-server"
      else begin
        Amo.execute s.amo ~seq;
        s.cached_reply <- Msg.empty;
        s.clock.rx_expires <-
          (if deadline_us > 0 then
             Sim.now (Host.sim t.host) +. (float_of_int deadline_us *. 1e-6)
           else -1.);
        Machine.charge t.host.Host.mach Machine.Semaphore_op 0;
        Proto.deliver s.upper ~lower:(Option.get s.xs) body
      end
  | Amo.Resend_cached ->
      (* The implicit ack (next request) never came; resend.  The reply
         is read before the charge, during which a new request may take
         its place. *)
      let encoded = s.cached_reply in
      Stats.incr t.stats "dup-req";
      Stats.incr t.stats "cached-reply-tx";
      Machine.charge t.host.Host.mach Machine.Header C.bytes;
      Proto.push s.lower_sess encoded
  | Amo.Ack ->
      Stats.incr t.stats "dup-req";
      Stats.tick t.c_ack_tx;
      transmit t s ~expires:None ~flags:Wire_fmt.Flags.ack ~seq ~error:0
        Msg.empty
  | Amo.Hold -> Stats.incr t.stats "req-held"
  | _ -> Stats.incr t.stats "stale-rx"

let handle_reply t s m body =
  match
    Amo.client_reply s.caller ~seq:(C.sequence_num m) ~boot:(C.boot_id m)
      ~retransmitted:(s.tries_left < retries)
  with
  | Amo.Stale -> Stats.incr t.stats "stale-rx"
  | verdict -> (
      Stats.tick t.c_reply_rx;
      if t.adaptive then
        if s.tries_left = retries then
          (* Karn's rule: a retransmitted transaction yields no sample —
             the reply cannot be matched to a particular transmission. *)
          observe_rtt t s ~load:s.sent_load
        else begin
          Stats.tick t.c_karn_skip;
          (* No sample, but the completion still witnesses a serving
             peer: decay the persistent backoff one step per completed
             transaction.  Under sustained saturation every transaction
             retransmits, so clean samples — which clear the backoff
             outright in [observe_rtt] — may never arrive; without this
             decay the RTO stays pinned at the backed-off ceiling long
             after the loss that earned it has cleared. *)
          if s.backoff > 0 then s.backoff <- s.backoff - 1
        end;
      match verdict with
      | Amo.Rebooted -> complete t s (Error Rpc_error.Rebooted)
      | _ -> (
          match C.error m with
          | 0 -> complete t s (Ok body)
          | e when e = C.err_busy ->
              (* Explicit admission pushback: the server refused the call
                 in one RTT.  Surfaced as [Busy] so the replica layer can
                 treat it as backoff pressure rather than a health
                 failure. *)
              Stats.incr t.stats "busy-reply-rx";
              complete t s (Error Rpc_error.Busy)
          | e -> complete t s (Error (Rpc_error.Remote e))))

let handle_ack t s m =
  let seq = C.sequence_num m in
  if Amo.outstanding s.caller ~seq then begin
    Stats.tick t.c_ack_rx;
    s.acked_seq <- seq
  end
  else Stats.incr t.stats "stale-rx"

let handle_packet t s m body =
  let f = C.flags m in
  if f land Wire_fmt.Flags.request <> 0 then handle_request t s m body
  else if f land Wire_fmt.Flags.reply <> 0 then handle_reply t s m body
  else if f land Wire_fmt.Flags.ack <> 0 then handle_ack t s m
  else Stats.incr t.stats "rx-malformed"

let make_session t ~upper (peer, proto_num, chan) =
  let lower_sess =
    Proto.open_ t.lower ~upper:t.p
      (Part.ip_open ~local:t.host.Host.ip ~peer own_proto)
  in
  let wake = Sim.Semaphore.create (Host.sim t.host) 0 in
  let rec s =
    {
      chan;
      proto_num;
      upper;
      lower_sess;
      xs = None;
      clock = { srtt = -1.; rttvar = 0.; sent_at = 0.; rx_expires = -1. };
      caller = Amo.client (Amo.peer ()) ~boot:t.host.Host.boot_id;
      blocked = false;
      wake;
      result = no_result;
      payload = Msg.empty;
      sent_load = 0;
      expires = None;
      timer = t.no_timer;
      tries_left = 0;
      acked_seq = 0;
      on_timeout = (fun seq -> timer_fired t s seq);
      amo = Amo.server ();
      cached_reply = Msg.empty;
      backoff = 0;
      last_len = C.bytes;
      srtt_load = 1;
    }
  in
  (* A push answers the request executing on the session; a call is
     the only way to send a request. *)
  let push msg = send_reply t s msg in
  let pop _ = () in
  let s_control = function
    | Control.Get_peer_host -> Control.R_ip peer
    | Control.Get_my_host -> Control.R_ip t.host.Host.ip
    | Control.Get_peer_proto | Control.Get_my_proto -> Control.R_int proto_num
    | Control.Get_channel_count -> Control.R_int t.chans
    (* The *effective* retransmission timeout for a request the size of
       the last one sent: fragment-aware, and adaptive once the channel
       has an RTT estimate. *)
    | Control.Get_timeout | Control.Get_rto ->
        request_rto t s s.last_len t.span;
        Control.R_float t.span.seconds
    | Control.Get_rto_backed ->
        backed_rto t s s.last_len t.span;
        Control.R_float t.span.seconds
    | Control.Get_srtt -> Control.R_float (Float.max s.clock.srtt 0.)
    | Control.Get_rx_deadline ->
        let e = s.clock.rx_expires in
        if e < 0. then no_rx_deadline else Control.R_float e
    | Control.Reject_busy ->
        (* An admission layer refusing the request currently claiming
           this channel: answer it with the explicit busy-pushback
           error.  Cached like any reply, so a duplicate of the refused
           request gets the same verdict. *)
        send_reply ~error:C.err_busy t s Msg.empty;
        Control.R_unit
    | Control.No_reply ->
        (* The upper layer dropped the request executing here: the
           execution is over, and the channel free for the next one. *)
        Amo.no_reply s.amo;
        Control.R_unit
    | ( Control.Get_frag_size | Control.Get_max_packet
      | Control.Get_opt_packet ) as req ->
        Proto.session_control s.lower_sess req
    | req -> Stats.control t.stats req
  in
  let close () =
    Demux.unbind t.demux (peer, proto_num, chan);
    match s.xs with
    | Some xs -> Hashtbl.remove t.by_id (Proto.session_id xs)
    | None -> ()
  in
  let xs =
    Proto.make_session t.p
      ~name:
        (Printf.sprintf "chan(%s,%d,#%d)" (Addr.Ip.to_string peer) proto_num
           chan)
      { push; pop; s_control; close }
  in
  s.xs <- Some xs;
  Hashtbl.replace t.by_id (Proto.session_id xs) s;
  s

let open_session t ~upper part =
  let peer = Part.peer_ip part in
  let proto_num = Part.ip_proto part in
  let chan =
    match
      (Part.find_channel part.Part.local, Part.find_channel (Part.peer part))
    with
    | Some c, _ | None, Some c -> c
    | None, None -> invalid_arg "Channel.open_: no channel id"
  in
  if chan < 0 || chan >= t.chans then
    invalid_arg
      (Printf.sprintf "Channel.open_: channel %d outside the fixed set of %d"
         chan t.chans);
  Option.get (Demux.open_ t.demux t ~upper (peer, proto_num, chan)).xs

(* The session key from the two ints [Demux.find] caches it by: the
   peer, and the protocol number above the 16-bit channel number. *)
let session_key peer b =
  (Addr.Ip.of_int32_bits peer, b lsr 16, b land 0xffff)

let input t ~lower msg =
  (* The channel header carries no host addresses (they would duplicate
     what every sensible lower layer already knows), so the peer's
     identity comes from the session the message arrived on. *)
  match Proto.session_control lower Control.Get_peer_host with
  | Control.R_ip peer -> (
      Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"CHANNEL"
        ~dir:`Recv msg;
      if Msg.length msg < C.bytes then Stats.incr t.stats "rx-runt"
      else begin
        Machine.charge t.host.Host.mach Machine.Header C.bytes;
        let hdr_len = C.header_len msg in
        (* A deadline flag without its extension word. *)
        if Msg.length msg < hdr_len then Stats.incr t.stats "rx-runt"
        else
          let proto_num = C.protocol_num msg in
          match
            Demux.find t.demux t ~key:session_key (Addr.Ip.to_int peer)
              ((proto_num lsl 16) lor C.channel msg)
              proto_num
          with
          | Some s -> handle_packet t s msg (Msg.drop msg hdr_len)
          | None -> Stats.incr t.stats "rx-unbound"
      end)
  | _ -> Stats.incr t.stats "rx-unidentified"

let call ?expires t xs msg =
  (* O(1): the reverse table maps the exported session back to its
     state without scanning every open channel.  Ids are unique only
     within one protocol object, so the owner must match too. *)
  let s =
    match Hashtbl.find t.by_id (Proto.session_id xs) with
    | s when Proto.session_proto xs == t.p -> s
    | _ | (exception Not_found) ->
        invalid_arg "Channel.call: not a channel session of this protocol"
  in
  if active s || s.blocked then begin
    (* A transaction is already outstanding: reject the call. *)
    Stats.incr t.stats "call-busy";
    Error Rpc_error.Busy
  end
  else begin
    s.blocked <- true;
    send_request t s ~expires msg;
    Sim.Semaphore.p s.wake;
    let r = s.result in
    s.result <- no_result;
    s.blocked <- false;
    r
  end

let create ~host ~lower ?(n_channels = 8) ?(adaptive = true)
    ?(rto_load_floor = true) () =
  let p = Proto.create ~host ~name:"CHANNEL" () in
  let t =
    {
      host;
      lower;
      chans = n_channels;
      adaptive;
      rto_load_floor;
      rng = Sim.rng (Host.sim host);
      p;
      demux = Demux.create 32 ~make:make_session;
      by_id = Hashtbl.create 32;
      stats = Proto.stats p;
      in_flight = 0;
      no_timer = Event.none host;
      span = { Sim.seconds = 0. };
      c_rtt_sample = Stats.counter (Proto.stats p) "rtt-sample";
      c_req_tx = Stats.counter (Proto.stats p) "req-tx";
      c_reply_tx = Stats.counter (Proto.stats p) "reply-tx";
      c_req_rx = Stats.counter (Proto.stats p) "req-rx";
      c_reply_rx = Stats.counter (Proto.stats p) "reply-rx";
      c_karn_skip = Stats.counter (Proto.stats p) "karn-skip";
      c_ack_tx = Stats.counter (Proto.stats p) "ack-tx";
      c_ack_rx = Stats.counter (Proto.stats p) "ack-rx";
      g_srtt_us = Stats.counter (Proto.stats p) "srtt-us";
      g_rto_us = Stats.counter (Proto.stats p) "rto-us";
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part ->
          Demux.enable t.demux (Part.ip_proto part) upper;
          Proto.open_enable t.lower ~upper:t.p (Part.ip_enable own_proto));
      open_done = (fun ~upper part -> open_session t ~upper part);
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          | Control.Get_channel_count -> Control.R_int t.chans
          (* Our requests ride whatever the lower layer carries; ask it. *)
          | Control.Get_max_msg_size | Control.Get_max_packet ->
              Proto.control t.lower Control.Get_max_packet
          | Control.Get_opt_packet -> Proto.control t.lower req
          | Control.Get_boot_id -> Control.R_int host.Host.boot_id
          | req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ lower ];
  (* A crash takes every channel with it: at-most-once state, reply
     caches and RTT estimates all belong to the dead incarnation. *)
  Host.at_reboot host (fun () ->
      Stats.incr t.stats "crash-reset";
      Demux.iter (crash_session t) t.demux);
  t
