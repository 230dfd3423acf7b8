open Xkernel
module World = Netproto.World

let sink host =
  let received = ref [] in
  let p = Proto.create ~host ~name:"SINK" () in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "sink");
      open_enable = (fun ~upper:_ _ -> invalid_arg "sink");
      open_done = (fun ~upper:_ _ -> invalid_arg "sink");
      demux = (fun ~lower:_ msg -> received := Msg.to_string msg :: !received);
      p_control = (fun _ -> Control.Unsupported);
    };
  (p, received)

let setup ?(checksum = false) w =
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let udp0 =
    Netproto.Udp.create ~host:n0.World.host
      ~lower:(Netproto.Ip.proto n0.World.ip) ~checksum ()
  in
  let udp1 =
    Netproto.Udp.create ~host:n1.World.host
      ~lower:(Netproto.Ip.proto n1.World.ip) ~checksum ()
  in
  (n0, n1, udp0, udp1)

let open_session w (n0 : World.node) (n1 : World.node) udp0 ~sport ~dport =
  Tutil.run_in w (fun () ->
      Proto.open_ (Netproto.Udp.proto udp0)
        ~upper:(fst (sink n0.World.host))
        (Part.v
           ~local:[ Part.Ip n0.World.host.Host.ip; Part.Port sport ]
           ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Port dport ] ]
           ()))

let basic_delivery () =
  let w = World.create () in
  let n0, n1, udp0, udp1 = setup w in
  let p1, got = sink n1.World.host in
  Proto.open_enable (Netproto.Udp.proto udp1) ~upper:p1
    (Part.v ~local:[ Part.Port 1234 ] ());
  let sess = open_session w n0 n1 udp0 ~sport:555 ~dport:1234 in
  Tutil.run_in w (fun () -> Proto.push sess (Msg.of_string "datagram"));
  Alcotest.(check (list string)) "delivered" [ "datagram" ] !got

let port_demux () =
  let w = World.create () in
  let n0, n1, udp0, udp1 = setup w in
  let pa, got_a = sink n1.World.host in
  let pb, got_b = sink n1.World.host in
  Proto.open_enable (Netproto.Udp.proto udp1) ~upper:pa
    (Part.v ~local:[ Part.Port 1 ] ());
  Proto.open_enable (Netproto.Udp.proto udp1) ~upper:pb
    (Part.v ~local:[ Part.Port 2 ] ());
  let s1 = open_session w n0 n1 udp0 ~sport:555 ~dport:1 in
  let s2 = open_session w n0 n1 udp0 ~sport:555 ~dport:2 in
  Tutil.run_in w (fun () ->
      Proto.push s1 (Msg.of_string "one");
      Proto.push s2 (Msg.of_string "two"));
  Alcotest.(check (list string)) "port 1" [ "one" ] !got_a;
  Alcotest.(check (list string)) "port 2" [ "two" ] !got_b

let unbound_port_dropped () =
  let w = World.create () in
  let n0, n1, udp0, udp1 = setup w in
  let sess = open_session w n0 n1 udp0 ~sport:555 ~dport:9999 in
  Tutil.run_in w (fun () -> Proto.push sess (Msg.of_string "void"));
  Tutil.check_int "rx-unbound" 1 (Tutil.stat (Netproto.Udp.proto udp1) "rx-unbound")

let close_then_reopen () =
  (* Closing a passively opened session unbinds it; the port is still
     enabled, so the next datagram opens a fresh session. *)
  let w = World.create () in
  let n0, n1, udp0, udp1 = setup w in
  let lowers = ref [] in
  let p1 = Proto.create ~host:n1.World.host ~name:"SINK" () in
  Proto.set_ops p1
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "sink");
      open_enable = (fun ~upper:_ _ -> invalid_arg "sink");
      open_done = (fun ~upper:_ _ -> invalid_arg "sink");
      demux = (fun ~lower _ -> lowers := lower :: !lowers);
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.open_enable (Netproto.Udp.proto udp1) ~upper:p1
    (Part.v ~local:[ Part.Port 1234 ] ());
  let sess = open_session w n0 n1 udp0 ~sport:555 ~dport:1234 in
  let send s = Tutil.run_in w (fun () -> Proto.push sess (Msg.of_string s)) in
  send "one";
  send "two";
  let first =
    match !lowers with
    | [ b; a ] ->
        Tutil.check_bool "second datagram hit the bound session" true (a == b);
        a
    | _ -> Alcotest.fail "expected two deliveries"
  in
  Proto.close first;
  send "three";
  (match !lowers with
  | c :: _ ->
      Tutil.check_bool "fresh session" false (c == first);
      Tutil.check_str "same peer and ports" (Proto.session_name first)
        (Proto.session_name c)
  | [] -> Alcotest.fail "no delivery");
  Tutil.check_int "all delivered" 3 (List.length !lowers);
  Tutil.check_int "rx on every datagram" 3
    (Tutil.stat (Netproto.Udp.proto udp1) "rx");
  Tutil.check_int "none unbound" 0
    (Tutil.stat (Netproto.Udp.proto udp1) "rx-unbound")

let large_message_via_ip_frag () =
  (* UDP depends on IP to fragment (section 3.1). *)
  let w = World.create () in
  let n0, n1, udp0, udp1 = setup w in
  let p1, got = sink n1.World.host in
  Proto.open_enable (Netproto.Udp.proto udp1) ~upper:p1
    (Part.v ~local:[ Part.Port 1234 ] ());
  let sess = open_session w n0 n1 udp0 ~sport:555 ~dport:1234 in
  let payload = Tutil.body 9000 in
  Tutil.run_in w (fun () -> Proto.push sess (Msg.of_string payload));
  (match !got with
  | [ s ] -> Tutil.check_str "9k through IP fragmentation" payload s
  | _ -> Alcotest.fail "expected one delivery");
  Alcotest.(check bool) "IP fragmented" true
    (Tutil.stat (Netproto.Ip.proto (World.node w 0).World.ip) "tx-frag" > 0)

let checksum_detects_payload_corruption () =
  let w = World.create () in
  (* Corrupt a payload byte: eth(14) + ip(20) + udp(8) + 2 *)
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Corrupt 44 ]));
  let n0, n1, udp0, udp1 = setup ~checksum:true w in
  let p1, got = sink n1.World.host in
  Proto.open_enable (Netproto.Udp.proto udp1) ~upper:p1
    (Part.v ~local:[ Part.Port 1234 ] ());
  let sess = open_session w n0 n1 udp0 ~sport:555 ~dport:1234 in
  Tutil.run_in w (fun () -> Proto.push sess (Msg.of_string "precious data"));
  Alcotest.(check (list string)) "dropped, not delivered corrupted" [] !got;
  Tutil.check_int "bad checksum counted" 1
    (Tutil.stat (Netproto.Udp.proto udp1) "rx-bad-checksum")

let no_checksum_lets_corruption_through () =
  (* The checksum-off configuration delivers the damaged payload —
     the contrast that justifies the option. *)
  let w = World.create () in
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Corrupt 44 ]));
  let n0, n1, udp0, udp1 = setup ~checksum:false w in
  let p1, got = sink n1.World.host in
  Proto.open_enable (Netproto.Udp.proto udp1) ~upper:p1
    (Part.v ~local:[ Part.Port 1234 ] ());
  let sess = open_session w n0 n1 udp0 ~sport:555 ~dport:1234 in
  Tutil.run_in w (fun () -> Proto.push sess (Msg.of_string "precious data"));
  match !got with
  | [ s ] -> Alcotest.(check bool) "delivered damaged" false (s = "precious data")
  | _ -> Alcotest.fail "expected delivery"

let udp_over_vip () =
  (* Late binding: the same UDP code runs over VIP instead of IP. *)
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let udp0 =
    Netproto.Udp.create ~host:n0.World.host
      ~lower:(Netproto.Vip.proto n0.World.vip) ()
  in
  let udp1 =
    Netproto.Udp.create ~host:n1.World.host
      ~lower:(Netproto.Vip.proto n1.World.vip) ()
  in
  let p1, got = sink n1.World.host in
  Proto.open_enable (Netproto.Udp.proto udp1) ~upper:p1
    (Part.v ~local:[ Part.Port 80 ] ());
  Tutil.run_in w (fun () ->
      let sess =
        Proto.open_ (Netproto.Udp.proto udp0)
          ~upper:(fst (sink n0.World.host))
          (Part.v
             ~local:[ Part.Ip n0.World.host.Host.ip; Part.Port 81 ]
             ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Port 80 ] ]
             ())
      in
      Proto.push sess (Msg.of_string "via vip"));
  Alcotest.(check (list string)) "delivered over VIP" [ "via vip" ] !got;
  (* UDP advertises IP-sized messages, so VIP opened both paths and the
     small datagram went over the ethernet. *)
  Alcotest.(check bool) "VIP used ethernet path" true
    (Tutil.stat (Netproto.Vip.proto n0.World.vip) "tx-eth" >= 1)

let () =
  Alcotest.run "udp"
    [
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick basic_delivery;
          Alcotest.test_case "port demux" `Quick port_demux;
          Alcotest.test_case "unbound port" `Quick unbound_port_dropped;
          Alcotest.test_case "close then reopen" `Quick close_then_reopen;
          Alcotest.test_case "large via IP fragmentation" `Quick
            large_message_via_ip_frag;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "detects corruption" `Quick
            checksum_detects_payload_corruption;
          Alcotest.test_case "off lets corruption through" `Quick
            no_checksum_lets_corruption_through;
        ] );
      ( "late-binding",
        [ Alcotest.test_case "UDP over VIP" `Quick udp_over_vip ] );
    ]
