open Xkernel
module F = Wire_fmt.Fragment

let max_frags = 16 (* the 16-bit fragment mask *)

type reasm = {
  pieces : Msg.t array; (* slot [i] holds fragment [i] once [have] says so *)
  mutable have : int; (* mask of fragments received *)
  r_num : int;
  mutable nacks_left : int;
}

type sess = {
  peer : Addr.Ip.t;
  proto_num : int;
  upper : Proto.t;
  lower_sess : Proto.session;
  mutable next_seq : int;
  cache : (int, Msg.t array) Hashtbl.t;
      (* sent messages awaiting discard: fragment [i] carries mask bit
         [i], so a NACK names the slots to send again *)
  reasm : (int, reasm) Hashtbl.t;
  recent : (int, float) Hashtbl.t; (* recently completed sequence numbers *)
  recent_q : (int * float) Queue.t;
      (* [recent] in insertion order.  Sim time is monotone and a
         sequence number is noted at most once, so the queue front is
         always the oldest entry and pruning pops a prefix instead of
         folding the whole table on every delivery. *)
  mutable prune_armed : bool; (* a sweep of [recent] is scheduled *)
  mutable xs : Proto.session option;
}

(* The sender keeps a message's fragments for 2 s; a receiver missing
   fragments asks for them after 30 ms, at most 3 times. *)
let cache_ttl = 2.0
let nack_delay = 0.03
let nack_retries = 3

(* FRAGMENT's own protocol number toward the layer below; the
   protocol-number *field* in its header names the layer above. *)
let own_proto = 92

type t = {
  host : Host.t;
  lower : Proto.t;
  mutable frag_size : int;
  p : Proto.t;
  demux : (t, Addr.Ip.t * int, sess) Demux.t; (* (peer, proto_num) *)
  stats : Stats.t;
  (* Per-fragment counters, resolved once at create time (hot path). *)
  c_tx_frag : Stats.counter;
  c_tx_msg : Stats.counter;
  c_rx_msg : Stats.counter;
  c_rx_frag : Stats.counter;
  c_recent_pruned : Stats.counter;
}

let proto t = t.p
let max_message t = max_frags * t.frag_size
let full_mask num = (1 lsl num) - 1

(* Fragment [i] of message [seq]; its header is written only here, so
   the send cache holds nothing but the pieces. *)
let send_fragment t s ~seq ~num i piece =
  Machine.charge t.host.Host.mach
    [ Machine.Frag_bookkeep; Machine.Header F.bytes ];
  Stats.tick t.c_tx_frag;
  let hdr =
    F.encode ~typ:F.typ_data ~clnt:t.host.Host.ip ~srvr:s.peer
      ~proto:s.proto_num ~seq ~num ~mask:(1 lsl i) ~len:(Msg.length piece)
  in
  let frame = Msg.push piece hdr in
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"FRAGMENT"
    ~dir:`Send frame;
  Proto.push s.lower_sess frame

(* Sender side: split, transmit, cache, and arm the discard timer (no
   positive acks exist, so only time frees the cache).

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
  let num = max 1 ((len + chunk - 1) / chunk) in
  if num > max_frags then Stats.incr t.stats "too-big"
  else begin
    let seq = s.next_seq in
    s.next_seq <- s.next_seq + 1;
    Stats.tick t.c_tx_msg;
    let piece i =
      let off = i * chunk in
      let this = min chunk (len - off) in
      if this <= 0 then Msg.empty else Msg.sub msg off this
    in
    let pieces = Array.init num piece in
    Hashtbl.replace s.cache seq pieces;
    ignore
      (Event.schedule t.host cache_ttl (fun () ->
           if Hashtbl.mem s.cache seq then begin
             Hashtbl.remove s.cache seq;
             Stats.incr t.stats "cache-drop"
           end));
    for i = 0 to num - 1 do
      send_fragment t s ~seq ~num i pieces.(i)
    done
  end

let send_nack t s ~seq ~num ~missing =
  Stats.incr t.stats "nack-tx";
  let hdr =
    F.encode ~typ:F.typ_nack ~clnt:t.host.Host.ip ~srvr:s.peer
      ~proto:s.proto_num ~seq ~num ~mask:missing ~len:0
  in
  Machine.charge_one t.host.Host.mach (Machine.Header F.bytes);
  Proto.push s.lower_sess (Msg.of_string hdr)

(* Receiver side: the persistence mechanism.  While a message sits
   incomplete, periodically ask the sender for exactly the missing
   fragments; give up after [nack_retries] — the layer is unreliable. *)
let rec arm_gap_timer t s seq =
  ignore
    (Event.schedule t.host nack_delay (fun () ->
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
             end))

let prune_recent t s =
  let now = Sim.now (Host.sim t.host) in
  let rec go () =
    match Queue.peek_opt s.recent_q with
    | Some (seq, time) when now -. time > cache_ttl ->
        ignore (Queue.pop s.recent_q);
        Hashtbl.remove s.recent seq;
        Stats.tick t.c_recent_pruned;
        go ()
    | _ -> ()
  in
  go ()

(* The dedup table must not grow without bound on a receiver whose
   traffic stops: deliver_complete prunes on traffic, and this timer
   sweeps the tail, re-arming only while entries remain (so the event
   queue drains when the session goes quiet). *)
let rec arm_prune_timer t s =
  if not s.prune_armed then begin
    s.prune_armed <- true;
    ignore
      (Event.schedule t.host cache_ttl (fun () ->
           s.prune_armed <- false;
           prune_recent t s;
           if Hashtbl.length s.recent > 0 then arm_prune_timer t s))
  end

let note_recent t s seq =
  let now = Sim.now (Host.sim t.host) in
  Hashtbl.replace s.recent seq now;
  Queue.add (seq, now) s.recent_q;
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
  match Hashtbl.find s.cache seq with
  | exception Not_found -> Stats.incr t.stats "nack-stale"
  | pieces ->
      let num = Array.length pieces in
      for i = 0 to num - 1 do
        if (1 lsl i) land mask <> 0 then begin
          Stats.incr t.stats "retransmit";
          send_fragment t s ~seq ~num i pieces.(i)
        end
      done

let make_session t ~upper (peer, proto_num) =
  let lower_sess =
    Proto.open_ t.lower ~upper:t.p
      (Part.ip_open ~local:t.host.Host.ip ~peer own_proto)
  in
  let s =
    {
      peer;
      proto_num;
      upper;
      lower_sess;
      next_seq = 1;
      cache = Hashtbl.create 8;
      reasm = Hashtbl.create 8;
      recent = Hashtbl.create 16;
      recent_q = Queue.create ();
      prune_armed = false;
      xs = None;
    }
  in
  let push msg = push_message t s msg in
  let pop _msg = () (* all delivery goes through deliver_complete *) in
  let s_control = function
    | Control.Get_peer_host -> Control.R_ip peer
    | Control.Get_my_host -> Control.R_ip t.host.Host.ip
    | Control.Get_peer_proto | Control.Get_my_proto -> Control.R_int proto_num
    | Control.Get_frag_size -> Control.R_int t.frag_size
    | Control.Get_max_packet -> Control.R_int (max_message t)
    | Control.Get_opt_packet -> Control.R_int t.frag_size
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

let input t msg =
  Machine.charge t.host.Host.mach
    [ Machine.Header F.bytes; Machine.Frag_bookkeep ];
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"FRAGMENT"
    ~dir:`Recv msg;
  if Msg.length msg < F.bytes then Stats.incr t.stats "rx-runt"
  else begin
    Stats.tick t.c_rx_frag;
    (* The peer is whoever sent this packet. *)
    let proto_num = F.protocol_num msg in
    match Demux.resolve t.demux t (F.clnt_host msg, proto_num) proto_num with
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

let create ~host ~lower ?(frag_size = 1024) () =
  let p = Proto.create ~host ~name:"FRAGMENT" () in
  let t =
    {
      host;
      lower;
      frag_size;
      p;
      demux = Demux.create 16 ~make:make_session;
      stats = Proto.stats p;
      c_tx_frag = Stats.counter (Proto.stats p) "tx-frag";
      c_tx_msg = Stats.counter (Proto.stats p) "tx-msg";
      c_rx_msg = Stats.counter (Proto.stats p) "rx-msg";
      c_rx_frag = Stats.counter (Proto.stats p) "rx-frag";
      c_recent_pruned = Stats.counter (Proto.stats p) "recent-pruned";
    }
  in
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
          | Control.Get_max_packet -> Control.R_int (max_message t)
          | Control.Get_opt_packet -> Control.R_int t.frag_size
          | Control.Get_frag_size -> Control.R_int t.frag_size
          | Control.Set_frag_size n ->
              if n < 1 || n > 65535 then Control.Unsupported
              else begin
                t.frag_size <- n;
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
         Surviving cache/gap timers find their entries gone and no-op.
         [next_seq] is deliberately NOT reset: the peer's [recent]
         table outlives our crash, and reusing pre-crash sequence
         numbers within its TTL would make it wrongly dedup fresh
         post-reboot messages. *)
      Demux.iter
        (fun s ->
          Hashtbl.reset s.cache;
          Hashtbl.reset s.reasm;
          Hashtbl.reset s.recent;
          Queue.clear s.recent_q)
        t.demux;
      Stats.incr t.stats "crash-reset");
  t
