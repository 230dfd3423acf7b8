open Xkernel
module F = Wire_fmt.Fragment

let max_frags = 16 (* the 16-bit fragment mask *)

type reasm = {
  pieces : Msg.t array; (* slot [i] holds fragment [i] once [have] says so *)
  mutable have : int; (* mask of fragments received *)
  r_num : int;
  mutable nacks_left : int;
}

(* What FRAGMENT holds for 2 s sits in flat rings: power-of-two arrays
   indexed by a counter masked to the capacity, one array per field.

   The send cache holds the messages [sent_base, next_seq): [next_seq]
   moves only when a message is cached, so a session caches contiguous
   sequence numbers and message [seq] sits at slot [seq] of the ring.
   A slot keeps the message whole with its chunk size; fragment [i]
   carries mask bit [i], and a NACK re-cuts the fragments it names as
   the first send cut them.  Discard times grow with [seq] (each is
   read at the end of a [Timer_op] charge, and the CPU serves charges
   in arrival order), so one sweep per session, due at the oldest
   message's discard time, frees the cache.  A slot whose charge is
   still in flight has discard time [infinity] and holds the sweep up.

   [recent] keeps its insertion order in a second ring.  Sim time is
   monotone and a sequence number is noted at most once while it is
   there, so the ring's head is always the oldest entry, and pruning
   pops a prefix instead of folding the whole table on every
   delivery. *)
type sess = {
  peer : Addr.Ip.t;
  proto_num : int;
  upper : Proto.t;
  lower_sess : Proto.session;
  mutable next_seq : int;
  mutable sent_base : int; (* the oldest cached sequence number *)
  mutable sent_msg : Msg.t array;
  mutable sent_chunk : int array;
  mutable sent_until : float array; (* discard times *)
  mutable sweep_armed : bool;
  (* The session's timer callbacks, built once: the discard sweep, the
     gap timer (its argument is the message's sequence number) and the
     prune of [recent]. *)
  sweep : unit -> unit;
  gap : int -> unit;
  prune : unit -> unit;
  reasm : (int, reasm) Hashtbl.t;
  recent : (int, unit) Hashtbl.t; (* recently completed sequence numbers *)
  mutable recent_head : int;
  mutable recent_tail : int;
  mutable recent_seq : int array;
  mutable recent_at : float array; (* when each was noted *)
  mutable prune_armed : bool; (* a sweep of [recent] is scheduled *)
  mutable xs : Proto.session option;
}

(* [ring] with the slots [lo, hi) moved into twice the capacity, each to
   the slot of the same counter, so the ring keeps its order. *)
let grow ring lo hi fill =
  let cap = Array.length ring in
  let bigger = Array.make (2 * cap) fill in
  for i = lo to hi - 1 do
    bigger.(i land ((2 * cap) - 1)) <- ring.(i land (cap - 1))
  done;
  bigger

let slot ring i = i land (Array.length ring - 1)

(* The sender keeps a message's fragments for 2 s; a receiver missing
   fragments asks for them after 30 ms, at most 3 times. *)
let cache_ttl = 2.0
let nack_delay = 0.03
let nack_retries = 3

(* FRAGMENT's own protocol number toward the layer below; the
   protocol-number *field* in its header names the layer above. *)
let own_proto = 92
let proto_num = own_proto

type t = {
  host : Host.t;
  lower : Proto.t;
  mutable frag_size : int;
  (* Control answers that depend only on [frag_size], built when it is
     set: an upper layer asks for them per call. *)
  mutable r_frag_size : Control.reply;
  mutable r_max_packet : Control.reply;
  p : Proto.t;
  demux : (t, Addr.Ip.t * int, sess) Demux.t; (* (peer, proto_num) *)
  stats : Stats.t;
  (* Per-fragment counters, resolved once at create time (hot path). *)
  c_tx_frag : Stats.counter;
  c_tx_msg : Stats.counter;
  c_rx_msg : Stats.counter;
  c_rx_frag : Stats.counter;
  c_recent_pruned : Stats.counter;
  c_cache_drop : Stats.counter;
}

let proto t = t.p
let max_message t = max_frags * t.frag_size

let set_frag_size t n =
  t.frag_size <- n;
  t.r_frag_size <- Control.R_int n;
  t.r_max_packet <- Control.R_int (max_message t)

let full_mask num = (1 lsl num) - 1

(* Fragment [i] of message [seq]; its header is written only here, so
   the send cache holds nothing but the pieces. *)
let send_fragment t s ~seq ~num i piece =
  Machine.charge_all t.host.Host.mach
    [ (Machine.Frag_bookkeep, 0); (Machine.Header, F.bytes) ];
  Stats.tick t.c_tx_frag;
  let hdr =
    F.encode ~typ:F.typ_data ~clnt:t.host.Host.ip ~srvr:s.peer
      ~proto:s.proto_num ~seq ~num ~mask:(1 lsl i) ~len:(Msg.length piece)
  in
  let frame = Msg.push piece hdr in
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"FRAGMENT"
    ~dir:`Send frame;
  Proto.push s.lower_sess frame

(* Fragment [i] of [msg] cut into [chunk]-byte pieces, of [frag_count]
   in all: the first send and every retransmission cut it alike. *)
let frag_count len chunk = max 1 ((len + chunk - 1) / chunk)

let piece msg chunk i =
  let off = i * chunk in
  let this = min chunk (Msg.length msg - off) in
  if this <= 0 then Msg.empty else Msg.sub msg off this

(* Drop every cached message due for discard by now, then re-arm for
   the oldest left. *)
let rec sweep_cache t s =
  s.sweep_armed <- false;
  let now = Sim.now (Host.sim t.host) in
  while
    s.sent_base < s.next_seq
    && s.sent_until.(slot s.sent_until s.sent_base) <= now
  do
    s.sent_msg.(slot s.sent_msg s.sent_base) <- Msg.empty;
    s.sent_base <- s.sent_base + 1;
    Stats.tick t.c_cache_drop
  done;
  arm_sweep t s

(* Arm the sweep at the oldest message's discard time exactly; a time
   recomputed from a delay could miss it by an ulp.  Not while that
   message's charge is in flight: its push arms the sweep after. *)
and arm_sweep t s =
  if s.sent_base < s.next_seq then begin
    let i = slot s.sent_until s.sent_base in
    if s.sent_until.(i) < infinity then begin
      s.sweep_armed <- true;
      ignore (Sim.at (Host.sim t.host) s.sent_until.(i) s.sweep)
    end
  end

let cache_message s msg chunk =
  if s.next_seq - s.sent_base = Array.length s.sent_msg then begin
    s.sent_msg <- grow s.sent_msg s.sent_base s.next_seq Msg.empty;
    s.sent_chunk <- grow s.sent_chunk s.sent_base s.next_seq 0;
    s.sent_until <- grow s.sent_until s.sent_base s.next_seq infinity
  end;
  let i = slot s.sent_msg s.next_seq in
  s.sent_msg.(i) <- msg;
  s.sent_chunk.(i) <- chunk;
  s.sent_until.(i) <- infinity;
  s.next_seq <- s.next_seq + 1

(* Sender side: split, transmit and cache (no positive acks exist, so
   only time frees the cache).  Caching charges the [Timer_op] that
   arming a discard timer would, and the discard time counts from the
   end of that charge.

   The 16-bit fragment mask allows at most 16 fragments, so messages a
   little larger than 16 x frag_size (an upper protocol's headers on a
   16 KB payload, say) round the fragment size up — bounded by what the
   layer below can carry in one packet. *)
let push_message t s msg =
  let len = Msg.length msg in
  let cap =
    match Proto.session_control s.lower_sess Control.Get_opt_packet with
    | Control.R_int n -> n - F.bytes
    | _ -> t.frag_size
  in
  let chunk = min cap (max t.frag_size ((len + max_frags - 1) / max_frags)) in
  let num = frag_count len chunk in
  if num > max_frags then Stats.incr t.stats "too-big"
  else begin
    let seq = s.next_seq in
    cache_message s msg chunk;
    Stats.tick t.c_tx_msg;
    Machine.charge t.host.Host.mach Machine.Timer_op 0;
    (* A crash during the charge emptied the cache. *)
    if seq >= s.sent_base then begin
      s.sent_until.(slot s.sent_until seq) <-
        Sim.now (Host.sim t.host) +. cache_ttl;
      if not s.sweep_armed then arm_sweep t s
    end;
    for i = 0 to num - 1 do
      send_fragment t s ~seq ~num i (piece msg chunk i)
    done
  end

let send_nack t s ~seq ~num ~missing =
  Stats.incr t.stats "nack-tx";
  let hdr =
    F.encode ~typ:F.typ_nack ~clnt:t.host.Host.ip ~srvr:s.peer
      ~proto:s.proto_num ~seq ~num ~mask:missing ~len:0
  in
  Machine.charge t.host.Host.mach Machine.Header F.bytes;
  Proto.push s.lower_sess (Msg.of_string hdr)

(* Receiver side: the persistence mechanism.  While a message sits
   incomplete, periodically ask the sender for exactly the missing
   fragments; give up after [nack_retries] — the layer is unreliable. *)
let arm_gap_timer t s seq = ignore (Event.schedule t.host nack_delay s.gap seq)

let gap_fired t s seq =
  match Hashtbl.find_opt s.reasm seq with
  | None -> ()
  | Some entry ->
      if entry.nacks_left <= 0 then begin
        Hashtbl.remove s.reasm seq;
        Stats.incr t.stats "give-up"
      end
      else begin
        entry.nacks_left <- entry.nacks_left - 1;
        let missing = full_mask entry.r_num land lnot entry.have in
        send_nack t s ~seq ~num:entry.r_num ~missing;
        arm_gap_timer t s seq
      end

let prune_recent t s =
  let now = Sim.now (Host.sim t.host) in
  while
    s.recent_head < s.recent_tail
    && now -. s.recent_at.(slot s.recent_at s.recent_head) > cache_ttl
  do
    Hashtbl.remove s.recent s.recent_seq.(slot s.recent_seq s.recent_head);
    s.recent_head <- s.recent_head + 1;
    Stats.tick t.c_recent_pruned
  done

(* The dedup table must not grow without bound on a receiver whose
   traffic stops: deliver_complete prunes on traffic, and this timer
   sweeps the tail, re-arming only while entries remain (so the event
   queue drains when the session goes quiet). *)
let arm_prune_timer t s =
  if not s.prune_armed then begin
    s.prune_armed <- true;
    ignore (Event.schedule t.host cache_ttl s.prune ())
  end

let prune_fired t s =
  s.prune_armed <- false;
  prune_recent t s;
  if Hashtbl.length s.recent > 0 then arm_prune_timer t s

let note_recent t s seq =
  Hashtbl.replace s.recent seq ();
  if s.recent_tail - s.recent_head = Array.length s.recent_seq then begin
    s.recent_seq <- grow s.recent_seq s.recent_head s.recent_tail 0;
    s.recent_at <- grow s.recent_at s.recent_head s.recent_tail 0.
  end;
  s.recent_seq.(slot s.recent_seq s.recent_tail) <- seq;
  s.recent_at.(slot s.recent_at s.recent_tail) <- Sim.now (Host.sim t.host);
  s.recent_tail <- s.recent_tail + 1;
  arm_prune_timer t s

let deliver_complete t s msg =
  prune_recent t s;
  Stats.tick t.c_rx_msg;
  Proto.deliver s.upper ~lower:(Option.get s.xs) msg

(* The index [i] below [num] whose bit is the whole of [mask], or -1:
   a data fragment names exactly one slot. *)
let rec frag_index num mask i =
  if i >= num then -1 else if mask = 1 lsl i then i else frag_index num mask (i + 1)

let reasm_entry s seq num =
  match Hashtbl.find s.reasm seq with
  | e -> e
  | exception Not_found ->
      let e =
        {
          pieces = Array.make num Msg.empty;
          have = 0;
          r_num = num;
          nacks_left = nack_retries;
        }
      in
      Hashtbl.replace s.reasm seq e;
      e

(* Receiver side: reassembly.  Arming the gap timer charges the CPU,
   and the charge may yield to a fiber handling another fragment of the
   same message, so the timer is armed only after this fragment is
   stored and the mask tested.  Armed before, the yield would let a
   duplicate of this fragment take its slot and a third fiber complete
   the message; this fiber would then find the mask full and deliver
   the message a second time. *)
let handle_data t s ~seq ~num ~mask piece =
  if Hashtbl.mem s.recent seq then Stats.incr t.stats "rx-dup-complete"
  else if num = 1 then begin
    note_recent t s seq;
    deliver_complete t s piece
  end
  else if num < 1 || num > max_frags then Stats.incr t.stats "rx-malformed"
  else
    let idx = frag_index num mask 0 in
    if idx < 0 then Stats.incr t.stats "rx-malformed"
    else
      let entry = reasm_entry s seq num in
      if entry.r_num <> num then Stats.incr t.stats "rx-malformed"
      else begin
        (* Only the fiber that made the entry finds it empty. *)
        let fresh = entry.have = 0 in
        if entry.have land mask = 0 then begin
          entry.pieces.(idx) <- piece;
          entry.have <- entry.have lor mask
        end
        else Stats.incr t.stats "rx-dup-frag";
        if entry.have = full_mask num then begin
          Hashtbl.remove s.reasm seq;
          note_recent t s seq;
          (* Fold from the right: the cord leans right, so the headers
             above are read and dropped at its shallow left end, and a
             [Msg.sub] of it (an echo sent back) walks only the pieces it
             spans. *)
          deliver_complete t s (Array.fold_right Msg.append entry.pieces Msg.empty)
        end
        else if fresh then arm_gap_timer t s seq
      end

let handle_nack t s ~seq ~mask =
  Stats.incr t.stats "nack-rx";
  if seq < s.sent_base || seq >= s.next_seq then Stats.incr t.stats "nack-stale"
  else begin
    let msg = s.sent_msg.(slot s.sent_msg seq) in
    let chunk = s.sent_chunk.(slot s.sent_chunk seq) in
    let num = frag_count (Msg.length msg) chunk in
    for i = 0 to num - 1 do
      if (1 lsl i) land mask <> 0 then begin
        Stats.incr t.stats "retransmit";
        send_fragment t s ~seq ~num i (piece msg chunk i)
      end
    done
  end

let make_session t ~upper (peer, proto_num) =
  let lower_sess =
    Proto.open_ t.lower ~upper:t.p
      (Part.ip_open ~local:t.host.Host.ip ~peer own_proto)
  in
  let rec s =
    {
      peer;
      proto_num;
      upper;
      lower_sess;
      next_seq = 1;
      sent_base = 1;
      sent_msg = Array.make 8 Msg.empty;
      sent_chunk = Array.make 8 0;
      sent_until = Array.make 8 infinity;
      sweep_armed = false;
      sweep = (fun () -> sweep_cache t s);
      gap = (fun seq -> gap_fired t s seq);
      prune = (fun () -> prune_fired t s);
      reasm = Hashtbl.create 8;
      recent = Hashtbl.create 16;
      recent_head = 0;
      recent_tail = 0;
      recent_seq = Array.make 16 0;
      recent_at = Array.make 16 0.;
      prune_armed = false;
      xs = None;
    }
  in
  let push msg = push_message t s msg in
  let pop _msg = () (* all delivery goes through deliver_complete *) in
  (* The peer is asked per message (CHANNEL's demux), so its answer is
     built once. *)
  let r_peer = Control.R_ip peer in
  let s_control = function
    | Control.Get_peer_host -> r_peer
    | Control.Get_my_host -> Control.R_ip t.host.Host.ip
    | Control.Get_peer_proto | Control.Get_my_proto -> Control.R_int proto_num
    | Control.Get_frag_size | Control.Get_opt_packet -> t.r_frag_size
    | Control.Get_max_packet -> t.r_max_packet
    | req -> Stats.control t.stats req
  in
  let close () = Demux.unbind t.demux (peer, proto_num) in
  let xs =
    Proto.make_session t.p
      ~name:(Printf.sprintf "frag(%s,%d)" (Addr.Ip.to_string peer) proto_num)
      { push; pop; s_control; close }
  in
  s.xs <- Some xs;
  s

let recent_count t =
  Demux.fold (fun s acc -> acc + Hashtbl.length s.recent) t.demux 0

let reasm_count t =
  Demux.fold (fun s acc -> acc + Hashtbl.length s.reasm) t.demux 0

let session_key peer proto_num = (Addr.Ip.of_int32_bits peer, proto_num)

let input t msg =
  Machine.charge_all t.host.Host.mach
    [ (Machine.Header, F.bytes); (Machine.Frag_bookkeep, 0) ];
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"FRAGMENT"
    ~dir:`Recv msg;
  if Msg.length msg < F.bytes then Stats.incr t.stats "rx-runt"
  else begin
    Stats.tick t.c_rx_frag;
    (* The peer is whoever sent this packet. *)
    let proto_num = F.protocol_num msg in
    match
      Demux.find t.demux t ~key:session_key
        (Addr.Ip.to_int (F.clnt_host msg))
        proto_num proto_num
    with
    | None -> Stats.incr t.stats "rx-unbound"
    | Some s ->
        let typ = F.typ msg in
        if typ = F.typ_nack then
          handle_nack t s ~seq:(F.sequence_num msg) ~mask:(F.frag_mask msg)
        else if typ = F.typ_data then begin
          let len = F.len msg in
          if Msg.length msg - F.bytes < len then Stats.incr t.stats "rx-short"
          else
            handle_data t s ~seq:(F.sequence_num msg) ~num:(F.num_frags msg)
              ~mask:(F.frag_mask msg) (Msg.sub msg F.bytes len)
        end
        else Stats.incr t.stats "rx-malformed"
  end

let open_session t ~upper part =
  let peer = Part.peer_ip part in
  Option.get (Demux.open_ t.demux t ~upper (peer, Part.ip_proto part)).xs

let create ~host ~lower =
  let p = Proto.create ~host ~name:"FRAGMENT" () in
  let t =
    {
      host;
      lower;
      frag_size = 0;
      r_frag_size = Control.Unsupported;
      r_max_packet = Control.Unsupported;
      p;
      demux = Demux.create 16 ~make:make_session;
      stats = Proto.stats p;
      c_tx_frag = Stats.counter (Proto.stats p) "tx-frag";
      c_tx_msg = Stats.counter (Proto.stats p) "tx-msg";
      c_rx_msg = Stats.counter (Proto.stats p) "rx-msg";
      c_rx_frag = Stats.counter (Proto.stats p) "rx-frag";
      c_recent_pruned = Stats.counter (Proto.stats p) "recent-pruned";
      c_cache_drop = Stats.counter (Proto.stats p) "cache-drop";
    }
  in
  set_frag_size t 1024;
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part ->
          Demux.enable t.demux (Part.ip_proto part) upper;
          (* FRAGMENT itself must be reachable from below, under its own
             protocol number. *)
          Proto.open_enable t.lower ~upper:t.p (Part.ip_enable own_proto));
      open_done = (fun ~upper part -> open_session t ~upper part);
      demux = (fun ~lower:_ msg -> input t msg);
      p_control =
        (fun req ->
          match req with
          (* What we push below is one fragment plus our header, so a
             VIP beneath us can safely choose the ethernet-only path. *)
          | Control.Get_max_msg_size -> Control.R_int (t.frag_size + F.bytes)
          | Control.Get_max_packet -> t.r_max_packet
          | Control.Get_opt_packet | Control.Get_frag_size -> t.r_frag_size
          | Control.Set_frag_size n ->
              if n < 1 || n > 65535 then Control.Unsupported
              else begin
                set_frag_size t n;
                Control.R_unit
              end
          | Control.Get_my_host -> Control.R_ip host.Host.ip
          | req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ lower ];
  Host.at_reboot host (fun () ->
      (* Crash semantics: partial reassemblies, the sent-message cache
         and the duplicate-suppression tables all die with the kernel —
         otherwise a gap timer surviving the reboot would NACK for a
         pre-crash message and deliver it into the new incarnation.
         Surviving gap timers find their entries gone and no-op, and a
         pending discard sweep finds the send cache empty.
         [next_seq] is deliberately NOT reset: the peer's [recent]
         table outlives our crash, and reusing pre-crash sequence
         numbers within its TTL would make it wrongly dedup fresh
         post-reboot messages. *)
      Demux.iter
        (fun s ->
          Array.fill s.sent_msg 0 (Array.length s.sent_msg) Msg.empty;
          s.sent_base <- s.next_seq;
          Hashtbl.reset s.reasm;
          Hashtbl.reset s.recent;
          s.recent_head <- s.recent_tail)
        t.demux;
      Stats.incr t.stats "crash-reset");
  t
