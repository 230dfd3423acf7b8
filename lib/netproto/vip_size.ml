open Xkernel

type t = {
  host : Host.t;
  bulk : Proto.t;
  direct : Proto.t;
  arp : Arp.t;
  p : Proto.t;
  demux : (t, Addr.Ip.t * int, Proto.session) Demux.t; (* (peer ip, proto) *)
  bound : Proto.session Lower_id.cache; (* lower session -> its session here *)
  stats : Stats.t;
}

let proto t = t.p

let upper_max_msg upper =
  match Proto.control upper Control.Get_max_msg_size with
  | Control.R_int n -> n
  | _ -> max_int

let make_session t ~upper (peer_ip, proto_num) =
  let part = Part.ip_open ~local:t.host.Host.ip ~peer:peer_ip proto_num in
  let direct_sess = Proto.open_ t.direct ~upper:t.p part in
  let threshold =
    Control.int_exn (Proto.session_control direct_sess Control.Get_opt_packet)
  in
  let bulk_sess =
    if upper_max_msg upper > threshold then
      Some (Proto.open_ t.bulk ~upper:t.p part)
    else None
  in
  let cell = ref None in
  let self () = Option.get !cell in
  let push msg =
    (* The single size test; its cost is the Virtual_op charged by
       Proto.push. *)
    match bulk_sess with
    | Some bs when Msg.length msg > threshold ->
        Stats.incr t.stats "tx-bulk";
        Proto.push bs msg
    | _ ->
        Stats.incr t.stats "tx-direct";
        Proto.push direct_sess msg
  in
  let pop msg = Proto.deliver upper ~lower:(self ()) msg in
  let s_control = function
    | Control.Get_peer_host -> Control.R_ip peer_ip
    | Control.Get_my_host -> Control.R_ip t.host.Host.ip
    | Control.Get_peer_proto | Control.Get_my_proto -> Control.R_int proto_num
    | Control.Get_opt_packet | Control.Get_mtu -> Control.R_int threshold
    | Control.Get_max_packet -> (
        match bulk_sess with
        | Some bs -> Proto.session_control bs Control.Get_max_packet
        | None -> Control.R_int threshold)
    | Control.Get_frag_size as req -> (
        match bulk_sess with
        | Some bs -> Proto.session_control bs req
        | None -> Control.Unsupported)
    | req -> Stats.control t.stats req
  in
  let close () =
    Demux.unbind t.demux (peer_ip, proto_num);
    Lower_id.clear t.bound
  in
  let xs =
    Proto.make_session t.p
      ~name:
        (Printf.sprintf "vipsize(%s,%d)" (Addr.Ip.to_string peer_ip)
           proto_num)
      { push; pop; s_control; close }
  in
  cell := Some xs;
  xs

let open_session t ~upper part =
  let peer_ip = Part.peer_ip part in
  Demux.open_ t.demux t ~upper (peer_ip, Part.ip_proto part)

(* As VIP's: identify and resolve on a lower session's first message
   only. *)
let input t ~lower msg =
  match Lower_id.find t.bound lower with
  | xs -> Proto.pop xs msg
  | exception Not_found -> (
      match Lower_id.identify ~arp:t.arp lower with
      | None -> Stats.incr t.stats "rx-unidentified"
      | Some (peer_ip, proto_num) -> (
          match Demux.resolve t.demux t (peer_ip, proto_num) proto_num with
          | Some xs ->
              Lower_id.bind t.bound lower xs;
              Proto.pop xs msg
          | None -> Stats.incr t.stats "rx-unbound"))

let create ~host ~bulk ~direct ~arp =
  let p = Proto.create ~host ~name:"VIPsize" ~virtual_:true () in
  let t =
    {
      host;
      bulk;
      direct;
      arp;
      p;
      demux = Demux.create 16 ~make:make_session;
      bound = Lower_id.cache ~arp;
      stats = Proto.stats p;
    }
  in
  let ops =
    {
      Proto.open_ = (fun ~upper part -> open_session t ~upper part);
      open_enable =
        (fun ~upper part ->
          let proto_num = Part.ip_proto part in
          Demux.enable t.demux proto_num upper;
          let enable_part = Part.ip_enable proto_num in
          Proto.open_enable t.bulk ~upper:t.p enable_part;
          Proto.open_enable t.direct ~upper:t.p enable_part);
      open_done = (fun ~upper part -> open_session t ~upper part);
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          | Control.Get_max_packet -> Proto.control t.bulk req
          | Control.Get_opt_packet | Control.Get_mtu ->
              Proto.control t.direct Control.Get_opt_packet
          | Control.Get_my_host -> Control.R_ip host.Host.ip
          | req -> Stats.control t.stats req);
    }
  in
  Proto.set_ops p ops;
  Proto.declare_below p [ bulk; direct ];
  t
