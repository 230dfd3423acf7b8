open Xkernel
module World = Netproto.World
module Icmp = Netproto.Icmp

let mk (n : World.node) = Icmp.create ~host:n.World.host ~ip:n.World.ip

let ping_local () =
  let w = World.create () in
  let i0 = mk (World.node w 0) and i1 = mk (World.node w 1) in
  ignore i1;
  let rtt = Tutil.run_in w (fun () -> Icmp.ping i0 ~peer:(World.ip_of w 1) ()) in
  Alcotest.(check bool) "echo comes back" true
    (match rtt with Some t -> t > 0. | None -> false);
  Tutil.check_int "request counted" 1 (Icmp.stat i0 "echo-tx");
  Tutil.check_int "served on the peer" 1 (Icmp.stat i1 "echo-rx")

let ping_across_router () =
  let inet = World.create_internet () in
  let wn = World.node inet.World.west 0 in
  let en = World.node inet.World.east 0 in
  let iw = Icmp.create ~host:wn.World.host ~ip:wn.World.ip in
  let _ie = Icmp.create ~host:en.World.host ~ip:en.World.ip in
  let rtt = ref None in
  Sim.spawn inet.World.inet_sim (fun () ->
      rtt := Icmp.ping iw ~peer:en.World.host.Host.ip ~timeout:5.0 ());
  Sim.run inet.World.inet_sim;
  Alcotest.(check bool) "cross-network ping" true (!rtt <> None)

let ping_timeout () =
  let w = World.create () in
  let i0 = mk (World.node w 0) in
  (* no ICMP instance on the peer: the request dies quietly *)
  let rtt =
    Tutil.run_in w (fun () -> Icmp.ping i0 ~peer:(World.ip_of w 1) ~timeout:0.2 ())
  in
  Alcotest.(check bool) "no reply" true (rtt = None)

let payload_sizes () =
  (* A ping carries 56 bytes of payload each way: once ARP is warm, the
     request and the reply are each ETH 14 + IP 20 + ICMP 8 + 56 bytes
     on the wire. *)
  let w = World.create () in
  let i0 = mk (World.node w 0) and _i1 = mk (World.node w 1) in
  let ping () =
    Tutil.run_in w (fun () ->
        match Icmp.ping i0 ~peer:(World.ip_of w 1) () with
        | Some _ -> ()
        | None -> Alcotest.fail "ping timed out")
  in
  ping ();
  let frames = ref [] in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ frame ->
         frames := Msg.length frame :: !frames;
         []));
  ping ();
  Alcotest.(check (list int)) "request and reply frames" [ 98; 98 ] !frames

let ttl_exceeded_reported () =
  (* Force a routing loop at the router: a ttl-1 datagram arriving at
     the router cannot be forwarded, and the sender hears about it. *)
  let inet = World.create_internet () in
  let wn = World.node inet.World.west 0 in
  let iw = Icmp.create ~host:wn.World.host ~ip:wn.World.ip in
  let router_ip = (fst inet.World.router).World.ip in
  let _ir =
    Icmp.create ~host:(fst inet.World.router).World.host ~ip:router_ip
  in
  let events = ref [] in
  Icmp.on_event iw (fun ev -> events := ev :: !events);
  (* Lower the sender's TTL to 1 so the first hop is the last. *)
  (match
     Proto.control (Netproto.Ip.proto wn.World.ip) (Control.Set_ttl 1)
   with
  | Control.R_unit -> ()
  | _ -> Alcotest.fail "Set_ttl unsupported");
  let en = World.node inet.World.east 0 in
  Sim.spawn inet.World.inet_sim (fun () ->
      let sess =
        Proto.open_ (Netproto.Ip.proto wn.World.ip)
          ~upper:(Proto.create ~host:wn.World.host ~name:"X" ())
          (Part.v
             ~local:[ Part.Ip wn.World.host.Host.ip; Part.Ip_proto 77 ]
             ~remotes:[ [ Part.Ip en.World.host.Host.ip; Part.Ip_proto 77 ] ]
             ())
      in
      Proto.push sess (Msg.of_string "dies at the router"));
  Sim.run inet.World.inet_sim;
  Alcotest.(check bool) "time exceeded received" true
    (List.exists (function Icmp.Time_exceeded _ -> true | _ -> false) !events)

let proto_unreachable_reported () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let i0 = mk n0 and i1 = mk n1 in
  ignore i1;
  let events = ref [] in
  Icmp.on_event i0 (fun ev -> events := ev :: !events);
  (* Send to a protocol number nothing on n1 has enabled. *)
  Tutil.run_in w (fun () ->
      let sess =
        Proto.open_ (Netproto.Ip.proto n0.World.ip)
          ~upper:(Proto.create ~host:n0.World.host ~name:"X" ())
          (Part.v
             ~local:[ Part.Ip n0.World.host.Host.ip; Part.Ip_proto 123 ]
             ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto 123 ] ]
             ())
      in
      Proto.push sess (Msg.of_string "nobody listens"));
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.1);
  Alcotest.(check bool) "unreachable received" true
    (List.exists
       (function
         | Icmp.Unreachable { code; _ } ->
             code = Icmp.code_proto_unreachable
         | _ -> false)
       !events)

let corrupted_icmp_dropped () =
  let w = World.create () in
  let i0 = mk (World.node w 0) and i1 = mk (World.node w 1) in
  (* Warm ARP first, then corrupt the ICMP payload region of every
     frame: the ICMP checksum must reject it (IP's checksum only covers
     the IP header). *)
  Tutil.run_in w (fun () -> ignore (Icmp.ping i0 ~peer:(World.ip_of w 1) ()));
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Corrupt 50 ]));
  let rtt =
    Tutil.run_in w (fun () -> Icmp.ping i0 ~peer:(World.ip_of w 1) ~timeout:0.2 ())
  in
  Alcotest.(check bool) "no reply to corrupted echo" true (rtt = None);
  Alcotest.(check bool) "checksum rejections counted" true
    (Icmp.stat i1 "rx-bad-checksum" + Icmp.stat i0 "rx-bad-checksum" > 0)

let () =
  Alcotest.run "icmp"
    [
      ( "echo",
        [
          Alcotest.test_case "ping local" `Quick ping_local;
          Alcotest.test_case "ping across router" `Quick ping_across_router;
          Alcotest.test_case "ping timeout" `Quick ping_timeout;
          Alcotest.test_case "payload sizes" `Quick payload_sizes;
          Alcotest.test_case "corruption rejected" `Quick corrupted_icmp_dropped;
        ] );
      ( "errors",
        [
          Alcotest.test_case "ttl exceeded" `Quick ttl_exceeded_reported;
          Alcotest.test_case "protocol unreachable" `Quick
            proto_unreachable_reported;
        ] );
    ]
