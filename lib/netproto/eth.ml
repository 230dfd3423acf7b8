open Xkernel

let mtu = 1500 (* the paper's ethernet packet size *)
let header_bytes = Netdev.eth_header_bytes (* 14 *)

type t = {
  host : Host.t;
  dev : Netdev.t;
  p : Proto.t;
  (* Sessions keyed (peer, type); open_enable registers a type. *)
  demux : (t, Addr.Eth.t * int, Proto.session) Demux.t;
  stats : Stats.t;
  c_tx : Stats.counter;
  c_rx : Stats.counter;
}

let proto t = t.p

let encode_header ~dst ~src ~typ =
  let b = Bytes.create header_bytes in
  Codec.set_u48 b 0 (Addr.Eth.to_int dst);
  Codec.set_u48 b 6 (Addr.Eth.to_int src);
  Codec.set_u16 b 12 typ;
  Bytes.unsafe_to_string b

let common_control t = function
  | Control.Get_mtu | Control.Get_max_packet | Control.Get_opt_packet ->
      Control.R_int mtu
  | Control.Get_my_eth -> Control.R_eth t.host.Host.eth
  | req -> Stats.control t.stats req

let make_session t ~upper (peer, typ) =
  let cell = ref None in
  let self () = Option.get !cell in
  (* Every field of the header is fixed for the session's life. *)
  let hdr = encode_header ~dst:peer ~src:t.host.Host.eth ~typ in
  let push msg =
    Stats.tick t.c_tx;
    Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"ETH"
      ~dir:`Send msg;
    Machine.charge t.host.Host.mach Machine.Header header_bytes;
    Netdev.transmit t.dev (Msg.push msg hdr)
  in
  let pop msg = Proto.deliver upper ~lower:(self ()) msg in
  let s_control = function
    | Control.Get_peer_eth -> Control.R_eth peer
    | Control.Get_peer_proto -> Control.R_int typ
    | req -> common_control t req
  in
  let close () = Demux.unbind t.demux (peer, typ) in
  let xs =
    Proto.make_session t.p
      ~name:(Printf.sprintf "eth(%s,0x%04x)" (Addr.Eth.to_string peer) typ)
      { push; pop; s_control; close }
  in
  cell := Some xs;
  xs

let open_session t ~upper part =
  let peer_part = Part.peer part in
  let peer =
    match Part.find_eth peer_part with
    | Some e -> e
    | None -> invalid_arg "Eth.open_: peer has no ethernet address"
  in
  let typ =
    match
      (Part.find_eth_type peer_part, Part.find_eth_type part.Part.local)
    with
    | Some ty, _ | None, Some ty -> ty
    | None, None -> invalid_arg "Eth.open_: no ethernet type"
  in
  Demux.open_ t.demux t ~upper (peer, typ)

let session_key src typ = (Addr.Eth.v src, typ)

(* Shared receive path; the layer crossing itself is charged by the
   caller (device handler or Proto.deliver). *)
let input t msg =
  Machine.charge t.host.Host.mach Machine.Header header_bytes;
  if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
  else
    let dst = Addr.Eth.v (Msg.u48 msg 0) in
    let for_me =
      Addr.Eth.equal dst t.host.Host.eth || Addr.Eth.is_broadcast dst
    in
    if not for_me then Stats.incr t.stats "rx-other"
    else begin
      let src = Msg.u48 msg 6 and typ = Msg.u16 msg 12 in
      let rest = Msg.drop msg header_bytes in
      Stats.tick t.c_rx;
      Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"ETH"
        ~dir:`Recv rest;
      match Demux.find t.demux t ~key:session_key src typ typ with
      | Some xs -> Proto.pop xs rest
      | None -> Stats.incr t.stats "rx-unbound"
    end

let create ~host ~dev =
  let p = Proto.create ~host ~name:"ETH" () in
  let stats = Proto.stats p in
  let t =
    {
      host;
      dev;
      p;
      demux = Demux.create 16 ~make:make_session;
      stats;
      c_tx = Stats.counter stats "tx";
      c_rx = Stats.counter stats "rx";
    }
  in
  let ops =
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part ->
          match Part.find_eth_type part.Part.local with
          | Some typ -> Demux.enable t.demux typ upper
          | None -> invalid_arg "Eth.open_enable: no ethernet type");
      open_done = (fun ~upper part -> open_session t ~upper part);
      demux = (fun ~lower:_ msg -> input t msg);
      p_control = (fun req -> common_control t req);
    }
  in
  Proto.set_ops p ops;
  Netdev.set_handler dev (fun frame ->
      Machine.charge host.Host.mach Machine.Layer_crossing 0;
      input t frame);
  t
