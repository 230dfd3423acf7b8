open Xkernel

let header_bytes = 8
let ip_proto_udp = 17

type t = {
  host : Host.t;
  lower : Proto.t;
  checksum : bool;
  p : Proto.t;
  demux : (t, int * Addr.Ip.t * int, Proto.session) Demux.t;
      (* (local port, peer ip, peer port); enabled by local port *)
  mutable next_ephemeral : int;
  stats : Stats.t;
}

let proto t = t.p

(* The checksum of the source and destination addresses followed by the
   payload, summed where the payload lies. *)
let pseudo_checksum ~src ~dst payload =
  let word32 ip = (Addr.Ip.to_int ip lsr 16) + (Addr.Ip.to_int ip land 0xffff) in
  lnot (Msg.ones_complement_sum ~init:(word32 src + word32 dst) payload)
  land 0xffff

let encode ~sport ~dport ~len ~cksum =
  let w = Codec.W.create header_bytes in
  Codec.W.u16 w sport;
  Codec.W.u16 w dport;
  Codec.W.u16 w len;
  Codec.W.u16 w cksum;
  Codec.W.contents w

let ephemeral t =
  let p = t.next_ephemeral in
  t.next_ephemeral <- (if p >= 65535 then 49152 else p + 1);
  p

let make_session t ~upper (lport, peer_ip, rport) =
  let cell = ref None in
  let self () = Option.get !cell in
  let lower_sess =
    Proto.open_ t.lower ~upper:t.p
      (Part.ip_open ~local:t.host.Host.ip ~peer:peer_ip ip_proto_udp)
  in
  let push msg =
    Stats.incr t.stats "tx";
    let len = header_bytes + Msg.length msg in
    let cksum =
      if t.checksum then begin
        Machine.charge t.host.Host.mach Machine.Checksum
          (Msg.length msg);
        let dst =
          Control.ip_exn (Proto.session_control lower_sess Get_peer_host)
        in
        pseudo_checksum ~src:t.host.Host.ip ~dst msg
      end
      else 0
    in
    Machine.charge t.host.Host.mach Machine.Header header_bytes;
    Proto.push lower_sess
      (Msg.push msg (encode ~sport:lport ~dport:rport ~len ~cksum))
  in
  let pop msg = Proto.deliver upper ~lower:(self ()) msg in
  let s_control = function
    | Control.Get_my_port -> Control.R_int lport
    | Control.Get_peer_port -> Control.R_int rport
    | ( Control.Get_peer_host | Control.Get_max_packet
      | Control.Get_opt_packet | Control.Get_mtu ) as req ->
        Proto.session_control lower_sess req
    | req -> Stats.control t.stats req
  in
  let close () = Demux.unbind t.demux (lport, peer_ip, rport) in
  let xs =
    Proto.make_session t.p
      ~name:
        (Printf.sprintf "udp(%d,%s:%d)" lport (Addr.Ip.to_string peer_ip)
           rport)
      { push; pop; s_control; close }
  in
  cell := Some xs;
  xs

let open_session t ~upper part =
  let peer_ip = Part.peer_ip part in
  let rport =
    match Part.find_port (Part.peer part) with
    | Some p -> p
    | None -> invalid_arg "Udp.open_: peer has no port"
  in
  let lport =
    match Part.find_port part.Part.local with
    | Some p -> p
    | None -> ephemeral t
  in
  Demux.open_ t.demux t ~upper (lport, peer_ip, rport)

let input t ~lower msg =
  Machine.charge t.host.Host.mach Machine.Header header_bytes;
  if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
  else
    let sport = Msg.u16 msg 0 and dport = Msg.u16 msg 2 in
    let len = Msg.u16 msg 4 and cksum = Msg.u16 msg 6 in
    if len < header_bytes || Msg.length msg < len then
      Stats.incr t.stats "rx-short"
    else
      let payload = Msg.sub msg header_bytes (len - header_bytes) in
      let src =
        Control.ip_exn (Proto.session_control lower Get_peer_host)
      in
      let checksum_ok =
        cksum = 0
        ||
        begin
          Machine.charge t.host.Host.mach Machine.Checksum
            (Msg.length payload);
          pseudo_checksum ~src ~dst:t.host.Host.ip payload = cksum
        end
      in
      if not checksum_ok then Stats.incr t.stats "rx-bad-checksum"
      else
        match Demux.resolve t.demux t (dport, src, sport) dport with
        | Some xs ->
            Stats.incr t.stats "rx";
            Proto.pop xs payload
        | None -> Stats.incr t.stats "rx-unbound"

let create ~host ~lower ?(checksum = false) () =
  let p = Proto.create ~host ~name:"UDP" () in
  let t =
    {
      host;
      lower;
      checksum;
      p;
      demux = Demux.create 16 ~make:make_session;
      next_ephemeral = 49152;
      stats = Proto.stats p;
    }
  in
  let ops =
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part ->
          match Part.find_port part.Part.local with
          | Some port -> Demux.enable t.demux port upper
          | None -> invalid_arg "Udp.open_enable: no local port");
      open_done = (fun ~upper part -> open_session t ~upper part);
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          (* UDP relies on the layer below to fragment, so it will push
             messages as large as that layer accepts (section 3.1). *)
          | Control.Get_max_msg_size -> Proto.control t.lower Get_max_packet
          | Control.Get_max_packet | Control.Get_opt_packet | Control.Get_mtu
            ->
              Proto.control t.lower req
          | req -> Stats.control t.stats req);
    }
  in
  Proto.set_ops p ops;
  Proto.open_enable t.lower ~upper:p (Part.ip_enable ip_proto_udp);
  Proto.declare_below p [ lower ];
  t
