(* The switched star topology: N-port IP forwarding (ARP per port, ICMP
   through two hops, TTL, no forwarding loops), per-wire labelled stats,
   and chaos plans cutting a named access link. *)

open Xkernel
module World = Netproto.World
module Fragment = Rpc.Fragment
module Channel = Rpc.Channel
module Select = Rpc.Select

let icmp_pair sw i j =
  let ni = World.node sw.World.sw.World.fo i
  and nj = World.node sw.World.sw.World.fo j in
  let ci =
    Netproto.Icmp.create ~host:ni.World.host ~ip:ni.World.ip
  and _cj =
    Netproto.Icmp.create ~host:nj.World.host ~ip:nj.World.ip
  in
  (ci, ni, nj)

let arp_resolves_per_port_gateway () =
  (* Each host's ARP resolves its own gateway to the facing switch
     port's ethernet address — and only that port answers. *)
  let sw = World.create_switched ~clients:2 ~servers:1 () in
  let n1 = World.node sw.World.sw.World.fo 1 in
  let gw = Addr.Ip.v 10 0 1 254 in
  let resolved =
    Tutil.run_in sw.World.sw.World.fo (fun () ->
        Netproto.Arp.resolve n1.World.arp gw)
  in
  match resolved with
  | None -> Alcotest.fail "gateway did not resolve"
  | Some eth ->
      Alcotest.check Tutil.ip "port host carries the gateway address" gw
        sw.World.sw_ports.(1).World.pt_host.Host.ip;
      Alcotest.(check bool)
        "resolved to the facing port's ethernet address" true
        (Addr.Eth.equal eth sw.World.sw_ports.(1).World.pt_host.Host.eth)

let ping_crosses_the_switch () =
  (* Client -> switch -> server and back: two IP forwards, nonzero
     round-trip time, no extra copies. *)
  let sw = World.create_switched ~clients:2 ~servers:1 () in
  let ci, _, nj = icmp_pair sw 1 0 in
  let rtt =
    Tutil.run_in sw.World.sw.World.fo (fun () ->
        Netproto.Icmp.ping ci ~peer:nj.World.host.Host.ip ())
  in
  (match rtt with
  | None -> Alcotest.fail "ping did not come back"
  | Some t -> Alcotest.(check bool) "took time" true (t > 0.));
  Tutil.check_int "request and reply each forwarded once" 2
    (Tutil.stat (Netproto.Ip.proto sw.World.sw_ip) "forwarded")

let ttl_expires_at_the_switch () =
  (* A datagram arriving with TTL 1 dies in the fabric: counted, never
     forwarded, and reported back as ICMP Time-Exceeded from the
     switch's own ICMP to the sender's. *)
  let sw = World.create_switched ~clients:1 ~servers:1 () in
  let _sw_icmp =
    Netproto.Icmp.create
      ~host:sw.World.sw_ports.(0).World.pt_host
      ~ip:sw.World.sw_ip
  in
  let ci, ni, nj = icmp_pair sw 1 0 in
  let exceeded = ref 0 in
  Netproto.Icmp.on_event ci (function
    | Netproto.Icmp.Time_exceeded _ -> incr exceeded
    | _ -> ());
  ignore (Proto.control (Netproto.Ip.proto ni.World.ip) (Control.Set_ttl 1));
  let proto_num = 99 in
  Tutil.run_in sw.World.sw.World.fo (fun () ->
      let sess =
        Proto.open_ (Netproto.Ip.proto ni.World.ip)
          ~upper:(Proto.create ~host:ni.World.host ~name:"RAW" ())
          (Part.v
             ~local:[ Part.Ip ni.World.host.Host.ip; Part.Ip_proto proto_num ]
             ~remotes:
               [ [ Part.Ip nj.World.host.Host.ip; Part.Ip_proto proto_num ] ]
             ())
      in
      Proto.push sess (Msg.of_string "doomed");
      Sim.delay sw.World.sw.World.fo.World.sim 0.1);
  Tutil.check_int "switch counted the expiry" 1
    (Tutil.stat (Netproto.Ip.proto sw.World.sw_ip) "ttl-exceeded");
  Tutil.check_int "time-exceeded reported to the source" 1 !exceeded;
  Tutil.check_int "nothing was forwarded" 0
    (Tutil.stat (Netproto.Ip.proto sw.World.sw_ip) "forwarded")

(* Any (source, destination) port pair: the ping crosses exactly two
   forwards — datagrams neither loop among the ports nor fan out. *)
let qcheck_no_forwarding_loops =
  Tutil.qtest ~count:15 "random port pairs forward exactly twice"
    QCheck.(pair (int_bound 3) (int_bound 3))
    (fun (i, j) ->
      QCheck.assume (i <> j);
      let sw = World.create_switched ~clients:2 ~servers:2 () in
      let ci, _, nj = icmp_pair sw i j in
      let rtt =
        Tutil.run_in sw.World.sw.World.fo (fun () ->
            Netproto.Icmp.ping ci ~peer:nj.World.host.Host.ip ())
      in
      rtt <> None
      && Tutil.stat (Netproto.Ip.proto sw.World.sw_ip) "forwarded" = 2)

let labelled_wires_register_distinct_stats () =
  (* Satellite regression: two wires in one registry under distinct
     names, counting their own traffic — not each other's. *)
  Stats.reset_registry ();
  let sw = World.create_switched ~clients:2 ~servers:1 () in
  let ci, _, nj = icmp_pair sw 1 0 in
  ignore
    (Tutil.run_in sw.World.sw.World.fo (fun () ->
         Netproto.Icmp.ping ci ~peer:nj.World.host.Host.ip ()));
  let table l =
    match Stats.find ("wire/" ^ l) with
    | Some t -> t
    | None -> Alcotest.failf "wire/%s not registered" l
  in
  Alcotest.(check bool) "client wire saw frames" true
    (Stats.get (table "c0") "frames" > 0);
  Alcotest.(check bool) "server wire saw frames" true
    (Stats.get (table "s0") "frames" > 0);
  Tutil.check_int "idle wire stayed silent" 0
    (Stats.get (table "c1") "frames");
  Alcotest.(check bool) "wire bytes mirrored" true
    (Stats.get (table "c0") "bytes"
    = (Wire.stats (World.port_wire sw ~label:"c0")).Wire.bytes)

(* SELECT-CHANNEL-FRAGMENT-VIP client and server on switched nodes. *)
let lnode (n : World.node) =
  let f =
    Fragment.create ~host:n.World.host
      ~lower:(Netproto.Vip.proto n.World.vip)
  in
  let ch = Channel.create ~host:n.World.host ~lower:(Fragment.proto f) () in
  Select.create ~host:n.World.host ~channel:ch

let chaos_cuts_a_server_access_link () =
  (* A chaos plan unplugs the server's named wire mid-run: calls inside
     the window time out, the cut is counted [partitioned] on that wire
     alone, and calls after the heal succeed. *)
  let sw = World.create_switched ~clients:2 ~servers:1 () in
  let w = sw.World.sw.World.fo in
  let server = World.node w 0 and client = World.node w 1 in
  let sel_s = lnode server and sel_c = lnode client in
  Select.register sel_s ~command:Rpc.Stacks.cmd_echo (fun req -> Ok req);
  Select.serve sel_s;
  Chaos.apply ~wires:(World.switched_wires sw) ~wire:w.World.wire
    ~devices:(World.devices w)
    [ { Chaos.from_t = 0.5; until_t = 20.0; spec = Chaos.Wire_down "s0" } ];
  let during, after =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel_c ~server:server.World.host.Host.ip in
        ignore
          (Tutil.ok_exn "warm"
             (Select.call cl ~command:Rpc.Stacks.cmd_echo
                (Msg.of_string "warm")));
        Sim.delay w.World.sim (0.6 -. Sim.now w.World.sim);
        let during =
          Select.call cl ~command:Rpc.Stacks.cmd_echo (Msg.of_string "cut")
        in
        Sim.delay w.World.sim (21.0 -. Sim.now w.World.sim);
        let after =
          Select.call cl ~command:Rpc.Stacks.cmd_echo (Msg.of_string "back")
        in
        (during, after))
  in
  Alcotest.(check bool) "call inside the window failed" true
    (Result.is_error during);
  (match after with
  | Ok reply -> Tutil.check_str "healed" "back" (Msg.to_string reply)
  | Error e ->
      Alcotest.failf "call after heal failed: %s" (Rpc.Rpc_error.to_string e));
  Alcotest.(check bool) "cut counted as partitioned on s0" true
    ((Wire.stats (World.port_wire sw ~label:"s0")).Wire.partitioned > 0);
  Tutil.check_int "client wire unaffected" 0
    (Wire.stats (World.port_wire sw ~label:"c0")).Wire.partitioned;
  Alcotest.(check bool) "wire back up" true
    (not (Wire.is_down (World.port_wire sw ~label:"s0")))

let chaos_rejects_unknown_wire () =
  let sw = World.create_switched ~clients:1 ~servers:1 () in
  let w = sw.World.sw.World.fo in
  let rejected plan =
    match
      Chaos.apply ~wires:(World.switched_wires sw) ~wire:w.World.wire
        ~devices:(World.devices w) plan
    with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "unknown wire name" true
    (rejected
       [ { Chaos.from_t = 0.; until_t = 1.; spec = Chaos.Wire_down "s9" } ]);
  Alcotest.(check bool) "wire loss probability above 1" true
    (rejected
       [
         {
           Chaos.from_t = 0.;
           until_t = 1.;
           spec = Chaos.Wire_loss { wire = "s0"; p = 1.5 };
         };
       ])

let wire_loss_on_named_wire () =
  (* Total loss on the server's access link behaves like the cut: the
     call times out, and the drops land on that wire's own counters. *)
  let sw = World.create_switched ~clients:1 ~servers:1 () in
  let w = sw.World.sw.World.fo in
  let server = World.node w 0 and client = World.node w 1 in
  let sel_s = lnode server and sel_c = lnode client in
  Select.register sel_s ~command:Rpc.Stacks.cmd_echo (fun req -> Ok req);
  Select.serve sel_s;
  Chaos.apply ~wires:(World.switched_wires sw) ~wire:w.World.wire
    ~devices:(World.devices w)
    [
      {
        Chaos.from_t = 0.5;
        until_t = 20.0;
        spec = Chaos.Wire_loss { wire = "s0"; p = 1.0 };
      };
    ];
  let during =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel_c ~server:server.World.host.Host.ip in
        ignore
          (Tutil.ok_exn "warm"
             (Select.call cl ~command:Rpc.Stacks.cmd_echo
                (Msg.of_string "warm")));
        Sim.delay w.World.sim (0.6 -. Sim.now w.World.sim);
        Select.call cl ~command:Rpc.Stacks.cmd_echo (Msg.of_string "lost"))
  in
  Alcotest.(check bool) "call inside the loss window failed" true
    (Result.is_error during);
  Alcotest.(check bool) "drops counted on s0" true
    ((Wire.stats (World.port_wire sw ~label:"s0")).Wire.dropped > 0);
  Tutil.check_int "client wire dropped nothing" 0
    (Wire.stats (World.port_wire sw ~label:"c0")).Wire.dropped

let () =
  Alcotest.run "switch"
    [
      ( "forwarding",
        [
          Alcotest.test_case "ARP resolves per-port gateway" `Quick
            arp_resolves_per_port_gateway;
          Alcotest.test_case "ping crosses the switch" `Quick
            ping_crosses_the_switch;
          Alcotest.test_case "TTL expires at the switch" `Quick
            ttl_expires_at_the_switch;
          qcheck_no_forwarding_loops;
        ] );
      ( "wires",
        [
          Alcotest.test_case "labelled wires, distinct stats" `Quick
            labelled_wires_register_distinct_stats;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "cut a server access link" `Quick
            chaos_cuts_a_server_access_link;
          Alcotest.test_case "validation" `Quick chaos_rejects_unknown_wire;
          Alcotest.test_case "loss on a named wire" `Quick
            wire_loss_on_named_wire;
        ] );
    ]
