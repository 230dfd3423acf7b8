open Xkernel

type t = {
  host : Host.t;
  eth : Eth.t;
  ip : Ip.t;
  arp : Arp.t;
  p : Proto.t;
  stats : Stats.t;
}

let proto t = t.p

(* The whole protocol is this one decision, made once per open; the
   session handed back belongs to ETH or IP, so no VIPaddr code runs on
   the message path. *)
let open_session t ~upper part =
  let peer_ip = Part.peer_ip part in
  let proto_num = Part.ip_proto part in
  match Arp.resolve t.arp peer_ip with
  | Some peer_eth when not (Addr.Eth.is_broadcast peer_eth) ->
      Stats.incr t.stats "open-eth";
      Proto.open_ (Eth.proto t.eth) ~upper
        (Part.v
           ~local:
             [
               Part.Eth t.host.Host.eth;
               Part.Eth_type (Addr.eth_type_of_ip_proto proto_num);
             ]
           ~remotes:[ [ Part.Eth peer_eth ] ]
           ())
  | _ ->
      Stats.incr t.stats "open-ip";
      Proto.open_ (Ip.proto t.ip) ~upper
        (Part.ip_open ~local:t.host.Host.ip ~peer:peer_ip proto_num)

let create ~host ~eth ~ip ~arp =
  let p = Proto.create ~host ~name:"VIPaddr" ~virtual_:true () in
  let t = { host; eth; ip; arp; p; stats = Proto.stats p } in
  let ops =
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part ->
          let proto_num = Part.ip_proto part in
          Proto.open_enable (Eth.proto t.eth) ~upper
            (Part.v
               ~local:[ Part.Eth_type (Addr.eth_type_of_ip_proto proto_num) ]
               ());
          Proto.open_enable (Ip.proto t.ip) ~upper (Part.ip_enable proto_num));
      open_done = (fun ~upper part -> open_session t ~upper part);
      demux =
        (fun ~lower:_ _ ->
          (* Nothing ever registers VIPaddr as an upper protocol. *)
          Stats.incr t.stats "rx-unexpected");
      p_control =
        (fun req ->
          match req with
          | Control.Get_max_packet -> Control.R_int Ip.max_packet
          | Control.Get_opt_packet | Control.Get_mtu ->
              Proto.control (Eth.proto t.eth) Control.Get_mtu
          | Control.Get_my_host -> Control.R_ip host.Host.ip
          | req -> Stats.control t.stats req);
    }
  in
  Proto.set_ops p ops;
  Proto.declare_below p [ Eth.proto eth; Ip.proto ip ];
  t
