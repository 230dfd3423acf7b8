open Xkernel

let header_bytes = 9
let typ_call = 1
let typ_reply = 2

type pending = {
  p_xid : int;
  iv : (Msg.t, Rpc_error.t) result Sim.Ivar.ivar;
  payload : Msg.t;
  mutable timer : Event.t option;
  mutable tries_left : int;
}

type sess = {
  upper_proto : int;
  upper : Proto.t;
  lower_sess : Proto.session;
  mutable xs : Proto.session option;
  pending : (int, pending) Hashtbl.t; (* xid *)
  (* server side: xid of the request being delivered up right now; the
     upper protocol's synchronous reply push answers it *)
  mutable serving_xid : int option;
}

(* The client waits 25 ms for a reply and retransmits a request 4
   times before the call fails; the layer's own number toward the layer
   below is 95. *)
let timeout = 0.025
let retries = 4
let own_proto = 95

type t = {
  host : Host.t;
  lower : Proto.t;
  p : Proto.t;
  demux : (t, Addr.Ip.t * int, sess) Demux.t; (* (peer, upper proto) *)
  mutable next_xid : int;
  stats : Stats.t;
}

let proto t = t.p

let encode ~typ ~xid ~proto_num =
  let b = Bytes.create header_bytes in
  Codec.set_u8 b 0 typ;
  Codec.set_u32 b 1 xid;
  Codec.set_u32 b 5 proto_num;
  Bytes.unsafe_to_string b

let transmit t s ~typ ~xid payload =
  Machine.charge t.host.Host.mach Machine.Header header_bytes;
  Proto.push s.lower_sess
    (Msg.push payload (encode ~typ ~xid ~proto_num:s.upper_proto))

let finish t s p outcome =
  (* Remove the pending entry before anything that can yield, so a
     duplicated reply cannot finish the same transaction twice. *)
  Hashtbl.remove s.pending p.p_xid;
  (match p.timer with
  | Some ev ->
      ignore (Event.cancel t.host ev);
      p.timer <- None
  | None -> ());
  Machine.charge_all t.host.Host.mach
    [ (Machine.Semaphore_op, 0); (Machine.Process_switch, 0) ];
  Sim.Ivar.fill p.iv outcome

let rec arm_timer t s p =
  p.timer <- Some (Event.schedule t.host timeout timer_fired (t, s, p))

and timer_fired (t, s, p) =
  if Hashtbl.mem s.pending p.p_xid then begin
    if p.tries_left <= 0 then finish t s p (Error Rpc_error.Timeout)
    else begin
      p.tries_left <- p.tries_left - 1;
      Stats.incr t.stats "retransmit";
      (* No server-side memory of this xid exists: the retransmission
         may execute the procedure again.  Zero-or-more semantics. *)
      transmit t s ~typ:typ_call ~xid:p.p_xid p.payload;
      arm_timer t s p
    end
  end

let start_call t s payload =
  t.next_xid <- t.next_xid + 1;
  let xid = t.next_xid in
  let p =
    {
      p_xid = xid;
      iv = Sim.Ivar.create (Host.sim t.host);
      payload;
      timer = None;
      tries_left = retries;
    }
  in
  Hashtbl.replace s.pending xid p;
  Stats.incr t.stats "call-tx";
  Machine.charge_all t.host.Host.mach
    [ (Machine.Semaphore_op, 0); (Machine.Process_switch, 0) ];
  transmit t s ~typ:typ_call ~xid payload;
  arm_timer t s p;
  p.iv

let make_session t ~upper (peer, upper_proto) =
  let lower_sess =
    Proto.open_ t.lower ~upper:t.p
      (Part.ip_open ~local:t.host.Host.ip ~peer own_proto)
  in
  let s =
    {
      upper_proto;
      upper;
      lower_sess;
      xs = None;
      pending = Hashtbl.create 8;
      serving_xid = None;
    }
  in
  let push msg =
    match s.serving_xid with
    | Some xid ->
        (* Reply to the request currently being served. *)
        s.serving_xid <- None;
        Stats.incr t.stats "reply-tx";
        transmit t s ~typ:typ_reply ~xid msg
    | None -> ignore (start_call t s msg)
  in
  let pop _ = () in
  let s_control = function
    | Control.Get_peer_host -> Control.R_ip peer
    | Control.Get_my_host -> Control.R_ip t.host.Host.ip
    | Control.Get_peer_proto | Control.Get_my_proto ->
        Control.R_int upper_proto
    | Control.Get_timeout -> Control.R_float timeout
    | ( Control.Get_frag_size | Control.Get_max_packet
      | Control.Get_opt_packet ) as req ->
        Proto.session_control lower_sess req
    | req -> Stats.control t.stats req
  in
  let close () = Demux.unbind t.demux (peer, upper_proto) in
  let xs =
    Proto.make_session t.p
      ~name:(Printf.sprintf "rr(%s,%d)" (Addr.Ip.to_string peer) upper_proto)
      { push; pop; s_control; close }
  in
  s.xs <- Some xs;
  s

let open_session t ~upper part =
  let peer = Part.peer_ip part in
  Option.get (Demux.open_ t.demux t ~upper (peer, Part.ip_proto part)).xs

let session t ~peer ~upper_proto =
  Option.get (Demux.open_ t.demux t ~upper:t.p (peer, upper_proto)).xs

let call t xs msg =
  let s =
    Demux.fold
      (fun s acc -> match s.xs with Some x when x == xs -> Some s | _ -> acc)
      t.demux None
  in
  match s with
  | None -> invalid_arg "Request_reply.call: unknown session"
  | Some s -> Sim.Ivar.read (start_call t s msg)

let input t ~lower msg =
  match Proto.session_control lower Control.Get_peer_host with
  | Control.R_ip peer -> (
      Machine.charge t.host.Host.mach Machine.Header header_bytes;
      if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
      else
        let typ = Msg.u8 msg 0 and xid = Msg.u32 msg 1 in
        let proto_num = Msg.u32 msg 5 in
        let body = Msg.drop msg header_bytes in
        match Demux.resolve t.demux t (peer, proto_num) proto_num with
        | None -> Stats.incr t.stats "rx-unbound"
        | Some s ->
            if typ = typ_call then begin
              (* Every arriving request executes: no duplicate
                 filtering at this layer. *)
              Stats.incr t.stats "executed";
              Machine.charge t.host.Host.mach Machine.Semaphore_op 0;
              s.serving_xid <- Some xid;
              Proto.deliver s.upper ~lower:(Option.get s.xs) body;
              (* If the upper protocol did not reply synchronously,
                 the client will simply retransmit. *)
              s.serving_xid <- None
            end
            else if typ = typ_reply then begin
              match Hashtbl.find_opt s.pending xid with
              | Some p ->
                  Stats.incr t.stats "reply-rx";
                  finish t s p (Ok body)
              | None -> Stats.incr t.stats "stale-rx"
            end
            else Stats.incr t.stats "rx-malformed")
  | _ -> Stats.incr t.stats "rx-unidentified"

let create ~host ~lower =
  let p = Proto.create ~host ~name:"REQUEST_REPLY" () in
  let t =
    {
      host;
      lower;
      p;
      demux = Demux.create 16 ~make:make_session;
      next_xid = 0;
      stats = Proto.stats p;
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part ->
          Demux.enable t.demux (Part.ip_proto part) upper;
          Proto.open_enable t.lower ~upper:t.p (Part.ip_enable own_proto));
      open_done = (fun ~upper:_ _ -> invalid_arg "Request_reply: open_done");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          | Control.Get_max_msg_size | Control.Get_max_packet ->
              Proto.control t.lower Control.Get_max_packet
          | Control.Get_opt_packet -> Proto.control t.lower req
          | req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ lower ];
  t
