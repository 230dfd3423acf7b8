open Xkernel

let eth_type_vip_adv = 0x4101 (* just past VIP's mapped range *)
let op_beacon = 1
let op_query = 2
let version = 1
let packet_bytes = 6

type t = {
  host : Host.t;
  eth : Eth.t;
  p : Proto.t;
  table : (int, unit) Hashtbl.t; (* advertiser IPs *)
  mutable bcast : Proto.session option;
  stats : Stats.t;
}

let proto t = t.p

let supports t ip =
  Addr.Ip.equal ip t.host.Host.ip || Hashtbl.mem t.table (Addr.Ip.to_int ip)

let broadcast_session t =
  match t.bcast with
  | Some s -> s
  | None ->
      let s =
        Proto.open_ (Eth.proto t.eth) ~upper:t.p
          (Part.v
             ~local:[ Part.Eth t.host.Host.eth; Part.Eth_type eth_type_vip_adv ]
             ~remotes:[ [ Part.Eth Addr.Eth.broadcast ] ]
             ())
      in
      t.bcast <- Some s;
      s

let send t ~op =
  let b = Bytes.create packet_bytes in
  Codec.set_u8 b 0 op;
  Codec.set_u32 b 1 (Addr.Ip.to_int t.host.Host.ip);
  Codec.set_u8 b 5 version;
  Machine.charge t.host.Host.mach Machine.Header packet_bytes;
  Proto.push (broadcast_session t) (Msg.of_string (Bytes.unsafe_to_string b))

let advertise t =
  Stats.incr t.stats "beacon-tx";
  send t ~op:op_beacon

let query t =
  Stats.incr t.stats "query-tx";
  send t ~op:op_query

let input t msg =
  Machine.charge t.host.Host.mach Machine.Header packet_bytes;
  if Msg.length msg < packet_bytes then Stats.incr t.stats "rx-runt"
  else
    let op = Msg.u8 msg 0 and ip = Addr.Ip.of_int32_bits (Msg.u32 msg 1) in
    if op = op_beacon then begin
      Stats.incr t.stats "beacon-rx";
      if not (Addr.Ip.equal ip t.host.Host.ip) then
        Hashtbl.replace t.table (Addr.Ip.to_int ip) ()
    end
    else if op = op_query then begin
      Stats.incr t.stats "query-rx";
      (* everyone who hears a query re-advertises, and we also learn
         the querier if it beacons *)
      advertise t
    end
    else Stats.incr t.stats "rx-malformed"

let create ~host ~eth =
  let p = Proto.create ~host ~name:"VIP-ADV" () in
  let t =
    { host; eth; p; table = Hashtbl.create 8; bcast = None; stats = Proto.stats p }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Vip_adv: broadcast only");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Vip_adv: implicit");
      open_done = (fun ~upper:_ _ -> invalid_arg "Vip_adv: broadcast only");
      demux = (fun ~lower:_ msg -> input t msg);
      p_control = (fun req -> Stats.control t.stats req);
    };
  Proto.open_enable (Eth.proto eth) ~upper:p
    (Part.v ~local:[ Part.Eth_type eth_type_vip_adv ] ());
  Proto.declare_below p [ Eth.proto eth ];
  (* announce ourselves as soon as the simulation starts *)
  Sim.spawn (Host.sim host) ~name:(host.Host.name ^ ":vip-adv") (fun () ->
      advertise t);
  t
