open Xkernel

type t = {
  host : Host.t;
  eth : Eth.t;
  ip : Ip.t;
  arp : Arp.t;
  adv : Vip_adv.t option;
  p : Proto.t;
  demux : (t, Addr.Ip.t * int, Proto.session) Demux.t; (* (peer ip, proto) *)
  bound : Proto.session Lower_id.cache; (* lower session -> its session here *)
  stats : Stats.t;
  c_tx_eth : Stats.counter;
  c_tx_ip : Stats.counter;
}

let proto t = t.p
let eth_payload t = Control.int_exn (Proto.control (Eth.proto t.eth) Get_mtu)

(* The largest message the upper protocol says it will ever push.
   Sprite RPC answers 1500 (it fragments for itself); UDP answers IP's
   maximum (it relies on the layer below to fragment); a protocol that
   does not answer is assumed to need the full IP service. *)
let upper_max_msg upper =
  match Proto.control upper Control.Get_max_msg_size with
  | Control.R_int n -> n
  | _ -> Ip.max_packet

let eth_part t ~peer_eth ~proto_num =
  Part.v
    ~local:
      [
        Part.Eth t.host.Host.eth;
        Part.Eth_type (Addr.eth_type_of_ip_proto proto_num);
      ]
    ~remotes:[ [ Part.Eth peer_eth ] ]
    ()

let make_session t ~upper (peer_ip, proto_num) =
  (* Open-time binding: resolve locality with ARP, ask the upper
     protocol its maximum message size, then open ETH, IP or both. *)
  let max_msg = upper_max_msg upper in
  let payload = eth_payload t in
  (* The peer must both be on the local wire (ARP) and — when the
     advertisement table is in use — have announced that it runs VIP;
     otherwise raw-ethernet VIP packets would just be dropped on its
     floor (section 3.1). *)
  let peer_runs_vip =
    match t.adv with None -> true | Some adv -> Vip_adv.supports adv peer_ip
  in
  let local_eth = if peer_runs_vip then Arp.resolve t.arp peer_ip else None in
  let eth_sess =
    match local_eth with
    | Some peer_eth when not (Addr.Eth.is_broadcast peer_eth) ->
        Some
          (Proto.open_ (Eth.proto t.eth) ~upper:t.p
             (eth_part t ~peer_eth ~proto_num))
    | _ -> None
  in
  let need_ip =
    match eth_sess with None -> true | Some _ -> max_msg > payload
  in
  let ip_sess =
    if need_ip then
      Some
        (Proto.open_ (Ip.proto t.ip) ~upper:t.p
           (Part.ip_open ~local:t.host.Host.ip ~peer:peer_ip proto_num))
    else None
  in
  Stats.incr t.stats
    (match (eth_sess, ip_sess) with
    | Some _, Some _ -> "open-both"
    | Some _, None -> "open-eth"
    | None, Some _ -> "open-ip"
    | None, None -> "open-none");
  let cell = ref None in
  let self () = Option.get !cell in
  let push msg =
    Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"VIP"
      ~dir:`Send msg;
    (* The single test in VIP push (its cost is the Virtual_op charged
       by Proto.push). *)
    match (eth_sess, ip_sess) with
    | Some es, _ when Msg.length msg <= payload ->
        Stats.tick t.c_tx_eth;
        Proto.push es msg
    | _, Some is ->
        Stats.tick t.c_tx_ip;
        Proto.push is msg
    | Some es, None ->
        (* The upper protocol exceeded its advertised maximum; all we
           can do is let the ethernet refuse it. *)
        Stats.incr t.stats "tx-oversize";
        Proto.push es msg
    | None, None -> Stats.incr t.stats "tx-unroutable"
  in
  let pop msg = Proto.deliver upper ~lower:(self ()) msg in
  (* Invariant answers, built once: FRAGMENT asks for the packet size
     per message. *)
  let r_peer = Control.R_ip peer_ip and r_payload = Control.R_int payload in
  let r_max_packet =
    Control.R_int (match ip_sess with Some _ -> Ip.max_packet | None -> payload)
  in
  let s_control = function
    | Control.Get_peer_host -> r_peer
    | Control.Get_my_host -> Control.R_ip t.host.Host.ip
    | Control.Get_peer_proto | Control.Get_my_proto -> Control.R_int proto_num
    | Control.Get_opt_packet | Control.Get_mtu -> r_payload
    | Control.Get_max_packet -> r_max_packet
    | req -> Stats.control t.stats req
  in
  let close () =
    Demux.unbind t.demux (peer_ip, proto_num);
    Lower_id.clear t.bound
  in
  let xs =
    Proto.make_session t.p
      ~name:
        (Printf.sprintf "vip(%s,%d)" (Addr.Ip.to_string peer_ip) proto_num)
      { push; pop; s_control; close }
  in
  cell := Some xs;
  xs

let open_session t ~upper part =
  let peer_ip = Part.peer_ip part in
  Demux.open_ t.demux t ~upper (peer_ip, Part.ip_proto part)

let trace_recv t msg =
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"VIP"
    ~dir:`Recv msg

(* A lower session's first message identifies its peer and resolves
   the session here; the rest find that session bound to it. *)
let input t ~lower msg =
  match Lower_id.find t.bound lower with
  | xs ->
      trace_recv t msg;
      Proto.pop xs msg
  | exception Not_found -> (
      match Lower_id.identify ~arp:t.arp lower with
      | None -> Stats.incr t.stats "rx-unidentified"
      | Some (peer_ip, proto_num) -> (
          trace_recv t msg;
          match Demux.resolve t.demux t (peer_ip, proto_num) proto_num with
          | Some xs ->
              Lower_id.bind t.bound lower xs;
              Proto.pop xs msg
          | None -> Stats.incr t.stats "rx-unbound"))

let create ~host ~eth ~ip ~arp ?adv () =
  let p = Proto.create ~host ~name:"VIP" ~virtual_:true () in
  let stats = Proto.stats p in
  let t =
    {
      host;
      eth;
      ip;
      arp;
      adv;
      p;
      demux = Demux.create 16 ~make:make_session;
      bound = Lower_id.cache ~arp;
      stats;
      c_tx_eth = Stats.counter stats "tx-eth";
      c_tx_ip = Stats.counter stats "tx-ip";
    }
  in
  let ops =
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part ->
          let proto_num = Part.ip_proto part in
          Demux.enable t.demux proto_num upper;
          (* Enable both lower paths: messages may arrive via the mapped
             ethernet type or via IP. *)
          Proto.open_enable (Eth.proto t.eth) ~upper:t.p
            (Part.v
               ~local:[ Part.Eth_type (Addr.eth_type_of_ip_proto proto_num) ]
               ());
          Proto.open_enable (Ip.proto t.ip) ~upper:t.p
            (Part.ip_enable proto_num));
      open_done = (fun ~upper part -> open_session t ~upper part);
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          | Control.Get_max_packet -> Control.R_int Ip.max_packet
          | Control.Get_opt_packet | Control.Get_mtu ->
              Control.R_int (eth_payload t)
          | Control.Get_my_host -> Control.R_ip host.Host.ip
          | req -> Stats.control t.stats req);
    }
  in
  Proto.set_ops p ops;
  Proto.declare_below p [ Eth.proto eth; Ip.proto ip ];
  t
