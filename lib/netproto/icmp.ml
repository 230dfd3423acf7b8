open Xkernel

let ip_proto_icmp = 1
let header_bytes = 8
let typ_echo_reply = 0
let typ_unreachable = 3
let typ_time_exceeded = 11
let typ_echo_request = 8
let code_proto_unreachable = 2

type event =
  | Echo_reply of { from : Addr.Ip.t; seq : int }
  | Time_exceeded of { from : Addr.Ip.t }
  | Unreachable of { from : Addr.Ip.t; code : int }

type t = {
  host : Host.t;
  ip : Ip.t;
  p : Proto.t;
  ident : int;
  mutable next_seq : int;
  pending : (int, unit Sim.Ivar.ivar) Hashtbl.t; (* outstanding echo seqs *)
  mutable observer : (event -> unit) option;
  sessions : (int, Proto.session) Hashtbl.t; (* peer *)
  stats : Stats.t;
}

let stat t name = Stats.get t.stats name
let on_event t f = t.observer <- Some f

let emit t ev = match t.observer with Some f -> f ev | None -> ()

(* Checksum covers the whole ICMP message with the checksum field
   zeroed, exactly like the IP header checksum: the header's other three
   words, then the payload where it lies. *)
let encode ~typ ~code ~ident ~seq payload =
  let words =
    (((typ land 0xff) lsl 8) lor (code land 0xff))
    + (ident land 0xffff) + (seq land 0xffff)
  in
  let ck = lnot (Msg.ones_complement_sum ~init:words payload) land 0xffff in
  let b = Bytes.create header_bytes in
  Codec.set_u8 b 0 typ;
  Codec.set_u8 b 1 code;
  Codec.set_u16 b 2 ck;
  Codec.set_u16 b 4 ident;
  Codec.set_u16 b 6 seq;
  Msg.push payload (Bytes.unsafe_to_string b)

let session_to t peer =
  match Hashtbl.find_opt t.sessions (Addr.Ip.to_int peer) with
  | Some s -> s
  | None ->
      let s =
        Proto.open_ (Ip.proto t.ip) ~upper:t.p
          (Part.ip_open ~local:t.host.Host.ip ~peer ip_proto_icmp)
      in
      Hashtbl.replace t.sessions (Addr.Ip.to_int peer) s;
      s

(* The checksum, whose length is known only at run time, comes first in
   a charge, so the header's cost is the list's static tail; two costs
   sum the same in either order. *)
let transmit t ~peer ~typ ~code ~ident ~seq payload =
  Machine.charge_all t.host.Host.mach
    [
      (Machine.Checksum, header_bytes + Msg.length payload);
      (Machine.Header, header_bytes);
    ];
  Proto.push (session_to t peer) (encode ~typ ~code ~ident ~seq payload)

let ping t ~peer ?(timeout = 1.0) () =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let iv = Sim.Ivar.create (Host.sim t.host) in
  Hashtbl.replace t.pending seq iv;
  Stats.incr t.stats "echo-tx";
  let t0 = Sim.now (Host.sim t.host) in
  transmit t ~peer ~typ:typ_echo_request ~code:0 ~ident:t.ident ~seq
    (Msg.fill 56 'i');
  let result = Sim.Ivar.read_timeout iv timeout in
  Hashtbl.remove t.pending seq;
  match result with
  | Some () -> Some (Sim.now (Host.sim t.host) -. t0)
  | None -> None

let input t ~lower msg =
  Machine.charge_all t.host.Host.mach
    [ (Machine.Checksum, Msg.length msg); (Machine.Header, header_bytes) ];
  if Msg.ones_complement_sum msg <> 0xffff then
    Stats.incr t.stats "rx-bad-checksum"
  else if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
  else
    let typ = Msg.u8 msg 0 and code = Msg.u8 msg 1 in
    let ident = Msg.u16 msg 4 and seq = Msg.u16 msg 6 in
    let rest = Msg.drop msg header_bytes in
    let from =
      match Proto.session_control lower Control.Get_peer_host with
      | Control.R_ip ip -> ip
      | _ -> Addr.Ip.any
    in
    if typ = typ_echo_request then begin
      Stats.incr t.stats "echo-rx";
      transmit t ~peer:from ~typ:typ_echo_reply ~code:0 ~ident ~seq rest
    end
    else if typ = typ_echo_reply then begin
      Stats.incr t.stats "reply-rx";
      emit t (Echo_reply { from; seq });
      if ident = t.ident then
        match Hashtbl.find_opt t.pending seq with
        | Some iv when not (Sim.Ivar.is_filled iv) -> Sim.Ivar.fill iv ()
        | _ -> Stats.incr t.stats "rx-stale"
    end
    else if typ = typ_time_exceeded then begin
      Stats.incr t.stats "time-exceeded-rx";
      emit t (Time_exceeded { from })
    end
    else if typ = typ_unreachable then begin
      Stats.incr t.stats "unreachable-rx";
      emit t (Unreachable { from; code })
    end
    else Stats.incr t.stats "rx-unknown-type"

let create ~host ~ip =
  let p = Proto.create ~host ~name:"ICMP" () in
  let t =
    {
      host;
      ip;
      p;
      ident = Addr.Ip.to_int host.Host.ip land 0xffff;
      next_seq = 0;
      pending = Hashtbl.create 8;
      observer = None;
      sessions = Hashtbl.create 8;
      stats = Proto.stats p;
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Icmp: use ping");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Icmp: use on_event");
      open_done = (fun ~upper:_ _ -> invalid_arg "Icmp: use ping");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control = (fun req -> Stats.control t.stats req);
    };
  Proto.open_enable (Ip.proto ip) ~upper:p (Part.ip_enable ip_proto_icmp);
  (* Turn IP's delivery failures into error messages to the source. *)
  Ip.set_error_hook ip (fun ~src err quote ->
      match err with
      | Ip.Ttl_exceeded ->
          Stats.incr t.stats "time-exceeded-tx";
          transmit t ~peer:src ~typ:typ_time_exceeded ~code:0 ~ident:0 ~seq:0
            quote
      | Ip.Proto_unreachable ->
          Stats.incr t.stats "unreachable-tx";
          transmit t ~peer:src ~typ:typ_unreachable
            ~code:code_proto_unreachable ~ident:0 ~seq:0 quote);
  Proto.declare_below p [ Ip.proto ip ];
  t
