open Xkernel

type node = {
  host : Host.t;
  dev : Netdev.t;
  eth : Eth.t;
  arp : Arp.t;
  ip : Ip.t;
  vip : Vip.t;
  vip_addr : Vip_addr.t;
}

type t = { sim : Sim.t; wire : Wire.t; nodes : node array }

let eth_base = 0x08_00_20_00_00_00

let make_node sim wire ~name ~ip_addr ~eth_addr ~profile ~gateway =
  let host =
    Host.create sim ~name ~ip:ip_addr ~eth:(Addr.Eth.v eth_addr) ~profile ()
  in
  let dev = Netdev.create ~host ~wire in
  let eth = Eth.create ~host ~dev in
  let arp = Arp.create ~host ~eth in
  let ip =
    Ip.create ~host
      ~ifaces:[ { Ip.if_ip = host.Host.ip; if_eth = eth; if_arp = arp } ]
      ?gateway ()
  in
  let vip = Vip.create ~host ~eth ~ip ~arp () in
  let vip_addr = Vip_addr.create ~host ~eth ~ip ~arp in
  { host; dev; eth; arp; ip; vip; vip_addr }

let create_net sim wire ~net_prefix ~count ~profile ~gateway ~eth_off =
  let nodes =
    Array.init count (fun i ->
        make_node sim wire
          ~name:(Printf.sprintf "h%d.%d" net_prefix i)
          ~ip_addr:(Addr.Ip.v 10 0 net_prefix (i + 1))
          ~eth_addr:(eth_base + (net_prefix * 256) + eth_off + i)
          ~profile ~gateway)
  in
  { sim; wire; nodes }

(* [n] hosts of [profile] (default Sun 3/75) on one wire. *)
let one_wire ?max_events ~n ?(profile = Machine.xkernel_sun3) ~seed () =
  let sim = Sim.create ?max_events ~seed () in
  let wire = Wire.create sim ~seed () in
  create_net sim wire ~net_prefix:0 ~count:n ~profile ~gateway:None ~eth_off:0

let create ?(n = 2) ?profile ?(seed = 42) () = one_wire ~n ?profile ~seed ()

type fanin = { fan : t; server : node; clients : node array }

let create_fanin ?max_events ?(clients = 4) ?(seed = 42) () =
  if clients < 1 then invalid_arg "World.create_fanin: clients < 1";
  let t = one_wire ?max_events ~n:(clients + 1) ~seed () in
  {
    fan = t;
    server = t.nodes.(0);
    clients = Array.sub t.nodes 1 clients;
  }

type fanout = { fo : t; servers : node array; fo_clients : node array }

(* Servers occupy node (and device) indices 0 .. servers-1, so a chaos
   plan targeting replica k is simply [Crash k] against {!devices}. *)
let create_fanout ?max_events ?(clients = 4) ?(servers = 2) ?(seed = 42) () =
  if clients < 1 then invalid_arg "World.create_fanout: clients < 1";
  if servers < 1 then invalid_arg "World.create_fanout: servers < 1";
  let t = one_wire ?max_events ~n:(servers + clients) ~seed () in
  {
    fo = t;
    servers = Array.sub t.nodes 0 servers;
    fo_clients = Array.sub t.nodes servers clients;
  }

let devices t = Array.map (fun n -> n.dev) t.nodes

let node t i = t.nodes.(i)
let ip_of t i = (node t i).host.Host.ip
let run t = Sim.run t.sim
let spawn t f = Sim.spawn t.sim f

type internet = {
  inet_sim : Sim.t;
  west : t;
  east : t;
  router : node * node;
}

let create_internet () =
  let profile = Machine.xkernel_sun3 in
  let sim = Sim.create ~seed:42 () in
  let wire_w = Wire.create sim ~seed:42 () in
  let wire_e = Wire.create sim ~seed:43 () in
  let gw_w = Addr.Ip.v 10 0 0 254 and gw_e = Addr.Ip.v 10 0 1 254 in
  let west =
    create_net sim wire_w ~net_prefix:0 ~count:2 ~profile
      ~gateway:(Some gw_w) ~eth_off:0
  in
  let east =
    create_net sim wire_e ~net_prefix:1 ~count:2 ~profile
      ~gateway:(Some gw_e) ~eth_off:0
  in
  (* The router is one box with an interface (and therefore a host
     record carrying the interface address) on each wire; a single
     forwarding IP instance spans both. *)
  let rw_host =
    Host.create sim ~name:"router.w" ~ip:gw_w
      ~eth:(Addr.Eth.v (eth_base + 0xf0))
      ~profile ()
  in
  let re_host =
    Host.create sim ~name:"router.e" ~ip:gw_e
      ~eth:(Addr.Eth.v (eth_base + 0xf1))
      ~profile ()
  in
  let mk_iface host wire =
    let dev = Netdev.create ~host ~wire in
    let eth = Eth.create ~host ~dev in
    let arp = Arp.create ~host ~eth in
    (dev, eth, arp)
  in
  let dev_w, eth_w, arp_w = mk_iface rw_host wire_w in
  let dev_e, eth_e, arp_e = mk_iface re_host wire_e in
  let router_ip =
    Ip.create ~host:rw_host
      ~ifaces:
        [
          { Ip.if_ip = gw_w; if_eth = eth_w; if_arp = arp_w };
          { Ip.if_ip = gw_e; if_eth = eth_e; if_arp = arp_e };
        ]
      ~forward:true ()
  in
  let mk_router_node host dev eth arp =
    let vip = Vip.create ~host ~eth ~ip:router_ip ~arp () in
    let vip_addr = Vip_addr.create ~host ~eth ~ip:router_ip ~arp in
    { host; dev; eth; arp; ip = router_ip; vip; vip_addr }
  in
  {
    inet_sim = sim;
    west;
    east;
    router =
      ( mk_router_node rw_host dev_w eth_w arp_w,
        mk_router_node re_host dev_e eth_e arp_e );
  }

type port = {
  pt_host : Host.t;
  pt_dev : Netdev.t;
  pt_eth : Eth.t;
  pt_arp : Arp.t;
  pt_wire : Wire.t;
  pt_label : string;
}

type switched = { sw : fanout; sw_ip : Ip.t; sw_ports : port array }

(* The switch generalizes [create_internet]'s two-interface router to N
   ports: one host record per port (carrying that port's gateway
   address, which is what its ARP answers for and what its device
   filters on), and a single forwarding IP instance spanning all of
   them.  Per-port receive and transmit costs charge per-port engines;
   IP-level work — routing, and any in-network computation installed via
   [Ip.set_forward_hook] — charges port 0's engine, the fabric CPU. *)
let create_switched ?max_events ?(clients = 4) ?(servers = 1) ?profile
    ?(seed = 42) () =
  let port_profile = Option.value profile ~default:Machine.switch_fabric in
  let profile = Option.value profile ~default:Machine.xkernel_sun3 in
  if clients < 1 then invalid_arg "World.create_switched: clients < 1";
  if servers < 1 then invalid_arg "World.create_switched: servers < 1";
  let n = servers + clients in
  (* Each port is its own 10.0.<i>.x network; the prefix byte bounds N. *)
  if n > 200 then invalid_arg "World.create_switched: too many hosts";
  let sim = Sim.create ?max_events ~seed () in
  let label i =
    if i < servers then Printf.sprintf "s%d" i
    else Printf.sprintf "c%d" (i - servers)
  in
  let wires =
    Array.init n (fun i -> Wire.create sim ~seed:(seed + i) ~label:(label i) ())
  in
  let gw i = Addr.Ip.v 10 0 i 254 in
  let nodes =
    Array.init n (fun i ->
        (create_net sim wires.(i) ~net_prefix:i ~count:1 ~profile
           ~gateway:(Some (gw i)) ~eth_off:0)
          .nodes.(0))
  in
  let ports =
    Array.init n (fun i ->
        let pt_host =
          Host.create sim
            ~name:(Printf.sprintf "switch.p%d" i)
            ~ip:(gw i)
            ~eth:(Addr.Eth.v (eth_base + 0xff0000 + i))
            ~profile:port_profile ()
        in
        let pt_dev = Netdev.create ~host:pt_host ~wire:wires.(i) in
        let pt_eth = Eth.create ~host:pt_host ~dev:pt_dev in
        let pt_arp = Arp.create ~host:pt_host ~eth:pt_eth in
        {
          pt_host;
          pt_dev;
          pt_eth;
          pt_arp;
          pt_wire = wires.(i);
          pt_label = label i;
        })
  in
  let sw_ip =
    Ip.create ~host:ports.(0).pt_host
      ~ifaces:
        (Array.to_list
           (Array.map
              (fun p ->
                {
                  Ip.if_ip = p.pt_host.Host.ip;
                  if_eth = p.pt_eth;
                  if_arp = p.pt_arp;
                })
              ports))
      ~forward:true ()
  in
  (* [t.wire] must name one wire; server 0's access link is the one a
     single-wire experiment most often watches. *)
  let t = { sim; wire = wires.(0); nodes } in
  {
    sw =
      {
        fo = t;
        servers = Array.sub nodes 0 servers;
        fo_clients = Array.sub nodes servers clients;
      };
    sw_ip;
    sw_ports = ports;
  }

let switched_wires sw =
  Array.to_list (Array.map (fun p -> (p.pt_label, p.pt_wire)) sw.sw_ports)

let switch_machines sw = Array.map (fun p -> p.pt_host.Host.mach) sw.sw_ports

let port_wire sw ~label =
  match
    Array.find_opt (fun p -> String.equal p.pt_label label) sw.sw_ports
  with
  | Some p -> p.pt_wire
  | None -> invalid_arg (Printf.sprintf "World.port_wire: no port %S" label)
