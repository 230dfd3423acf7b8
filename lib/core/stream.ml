open Xkernel

let header_bytes = 13
let typ_data = 1
let typ_ack = 2
let max_ooo_buffer = 64

exception Broken

type seg = { seg_seq : int; data : Msg.t }

type conn = {
  c_t : t;
  peer : Addr.Ip.t;
  lower_sess : Proto.session;
  (* sender state *)
  mutable snd_next : int; (* next byte sequence number to assign *)
  mutable snd_una : int; (* lowest unacknowledged byte *)
  unacked : seg Queue.t;
  slots : Sim.Semaphore.sem; (* send window, in segments *)
  mutable rto_timer : Event.t option;
  mutable timer_gen : int; (* stale timer callbacks check this *)
  mutable tries_left : int;
  mutable broken : bool;
  mutable flush_waiters : unit Sim.Ivar.ivar list;
  (* receiver state *)
  mutable rcv_next : int;
  ooo : (int, Msg.t) Hashtbl.t; (* out-of-order segments by seq *)
}

and t = {
  host : Host.t;
  lower : Proto.t;
  p : Proto.t;
  conns : (int, conn) Hashtbl.t; (* peer ip *)
  mutable deliver : (peer:Addr.Ip.t -> Msg.t -> unit) option;
  stats : Stats.t;
}

(* The send window in segments, the retransmission timeout, the
   retransmissions of a segment before the stream breaks, and STREAM's
   protocol number toward the layer below. *)
let window = 8
let rto = 0.03
let retries = 8
let own_proto = 99

let stat t name = Stats.get t.stats name
let bytes_sent c = c.snd_next - 1
let bytes_acked c = c.snd_una - 1

let encode ~typ ~seq ~ack ~window ~len =
  let b = Bytes.create header_bytes in
  Codec.set_u8 b 0 typ;
  Codec.set_u32 b 1 seq;
  Codec.set_u32 b 5 ack;
  Codec.set_u16 b 9 window;
  Codec.set_u16 b 11 len;
  Bytes.unsafe_to_string b

(* What fits one lower-layer packet. *)
let segment_size c =
  match Proto.session_control c.lower_sess Control.Get_opt_packet with
  | Control.R_int n when n > header_bytes -> n - header_bytes
  | _ -> 512

let transmit t c ~typ ~seq payload =
  Machine.charge t.host.Host.mach Machine.Header header_bytes;
  Proto.push c.lower_sess
    (Msg.push payload
       (encode ~typ ~seq ~ack:c.rcv_next ~window
          ~len:(Msg.length payload)))

let send_ack t c =
  Stats.incr t.stats "ack-tx";
  transmit t c ~typ:typ_ack ~seq:0 Msg.empty

(* Go-back-N: resend everything outstanding. *)
let retransmit_all t c =
  Queue.iter
    (fun seg ->
      Stats.incr t.stats "retransmit";
      transmit t c ~typ:typ_data ~seq:seg.seg_seq seg.data)
    c.unacked

let break_stream t c =
  c.broken <- true;
  Stats.incr t.stats "broken";
  (* Wake everything blocked on this stream so it can observe the
     failure. *)
  let waiters = c.flush_waiters in
  c.flush_waiters <- [];
  List.iter (fun iv -> Sim.Ivar.fill iv ()) waiters;
  for _ = 1 to window do
    Sim.Semaphore.v c.slots
  done

(* Arming and cancelling both yield (timer bookkeeping is charged), so
   a generation counter decides which timer is current: stale callbacks
   and stale cancellations are no-ops. *)
let rec arm_timer t c =
  c.timer_gen <- c.timer_gen + 1;
  c.rto_timer <-
    Some (Event.schedule t.host rto rto_fired (t, c, c.timer_gen))

and rto_fired (t, c, gen) =
  if gen = c.timer_gen && (not c.broken) && not (Queue.is_empty c.unacked)
  then begin
    if c.tries_left <= 0 then break_stream t c
    else begin
      c.tries_left <- c.tries_left - 1;
      retransmit_all t c;
      arm_timer t c
    end
  end

let cancel_timer t c =
  c.timer_gen <- c.timer_gen + 1;
  match c.rto_timer with
  | Some ev ->
      c.rto_timer <- None;
      ignore (Event.cancel t.host ev)
  | None -> ()

let handle_ack t c ack =
  if ack > c.snd_una then begin
    Stats.incr t.stats "ack-rx";
    c.snd_una <- ack;
    c.tries_left <- retries;
    let rec release () =
      match Queue.peek_opt c.unacked with
      | Some seg when seg.seg_seq + Msg.length seg.data <= ack ->
          ignore (Queue.pop c.unacked);
          Sim.Semaphore.v c.slots;
          release ()
      | _ -> ()
    in
    release ();
    if Queue.is_empty c.unacked then begin
      cancel_timer t c;
      let waiters = c.flush_waiters in
      c.flush_waiters <- [];
      List.iter (fun iv -> Sim.Ivar.fill iv ()) waiters
    end
    else begin
      (* Progress: restart the retransmission timer for what remains. *)
      cancel_timer t c;
      arm_timer t c
    end
  end
  else Stats.incr t.stats "dup-ack-rx"

let rec drain_in_order t c =
  match Hashtbl.find_opt c.ooo c.rcv_next with
  | None -> ()
  | Some data ->
      Hashtbl.remove c.ooo c.rcv_next;
      c.rcv_next <- c.rcv_next + Msg.length data;
      Stats.incr t.stats "delivered";
      (match t.deliver with
      | Some f -> f ~peer:c.peer data
      | None -> ());
      drain_in_order t c

let handle_data t c ~seq data =
  if Msg.length data = 0 then ()
  else if seq = c.rcv_next then begin
    c.rcv_next <- c.rcv_next + Msg.length data;
    Stats.incr t.stats "delivered";
    (match t.deliver with Some f -> f ~peer:c.peer data | None -> ());
    drain_in_order t c;
    send_ack t c
  end
  else if seq > c.rcv_next then begin
    (* Out of order: buffer (bounded) and re-ack what we have. *)
    Stats.incr t.stats "rx-ooo";
    if
      Hashtbl.length c.ooo < max_ooo_buffer && not (Hashtbl.mem c.ooo seq)
    then Hashtbl.replace c.ooo seq data;
    send_ack t c
  end
  else begin
    (* Old segment (our ack was lost): re-ack. *)
    Stats.incr t.stats "rx-stale";
    send_ack t c
  end

let make_conn t ~peer =
  let lower_sess =
    Proto.open_ t.lower ~upper:t.p
      (Part.ip_open ~local:t.host.Host.ip ~peer own_proto)
  in
  let c =
    {
      c_t = t;
      peer;
      lower_sess;
      snd_next = 1;
      snd_una = 1;
      unacked = Queue.create ();
      slots = Sim.Semaphore.create (Host.sim t.host) window;
      rto_timer = None;
      timer_gen = 0;
      tries_left = retries;
      broken = false;
      flush_waiters = [];
      rcv_next = 1;
      ooo = Hashtbl.create 16;
    }
  in
  Hashtbl.replace t.conns (Addr.Ip.to_int peer) c;
  c

let connect t ~peer =
  match Hashtbl.find_opt t.conns (Addr.Ip.to_int peer) with
  | Some c -> c
  | None -> make_conn t ~peer

let send c msg =
  let t = c.c_t in
  if c.broken then raise Broken;
  let seg_size = segment_size c in
  let len = Msg.length msg in
  let rec emit off =
    if off < len then begin
      let this = min seg_size (len - off) in
      Sim.Semaphore.p c.slots;
      if c.broken then raise Broken;
      let data = Msg.sub msg off this in
      let seg = { seg_seq = c.snd_next; data } in
      c.snd_next <- c.snd_next + this;
      Queue.add seg c.unacked;
      Stats.incr t.stats "seg-tx";
      transmit t c ~typ:typ_data ~seq:seg.seg_seq data;
      if c.rto_timer = None then arm_timer t c;
      emit (off + this)
    end
  in
  emit 0

let flush c =
  let t = c.c_t in
  if not (Queue.is_empty c.unacked) then begin
    let iv = Sim.Ivar.create (Host.sim t.host) in
    c.flush_waiters <- iv :: c.flush_waiters;
    Sim.Ivar.read iv
  end;
  if c.broken then raise Broken

let on_receive t f = t.deliver <- Some f

let input t ~lower msg =
  match Proto.session_control lower Control.Get_peer_host with
  | Control.R_ip peer -> (
      Machine.charge t.host.Host.mach Machine.Header header_bytes;
      if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
      else
        let typ = Msg.u8 msg 0 and seq = Msg.u32 msg 1 in
        let ack = Msg.u32 msg 5 and len = Msg.u16 msg 11 in
        let c = connect t ~peer in
        (* Every packet carries a cumulative ack. *)
        handle_ack t c ack;
        if typ = typ_data then begin
          if Msg.length msg - header_bytes >= len then
            handle_data t c ~seq (Msg.sub msg header_bytes len)
          else Stats.incr t.stats "rx-short"
        end
        else if typ <> typ_ack then Stats.incr t.stats "rx-malformed")
  | _ -> Stats.incr t.stats "rx-unidentified"

let create ~host ~lower =
  let p = Proto.create ~host ~name:"STREAM" () in
  let t =
    {
      host;
      lower;
      p;
      conns = Hashtbl.create 4;
      deliver = None;
      stats = Proto.stats p;
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Stream: use connect/send");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Stream: use on_receive");
      open_done = (fun ~upper:_ _ -> invalid_arg "Stream: use connect");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          (* One segment plus header at a time: a VIP below can keep
             local streams on the ethernet path. *)
          | Control.Get_max_msg_size ->
              Proto.control t.lower Control.Get_opt_packet
          | req -> Stats.control t.stats req);
    };
  Proto.open_enable lower ~upper:p (Part.ip_enable own_proto);
  Proto.declare_below p [ lower ];
  t
