open Xkernel
module World = Netproto.World

(* Upper protocol over IP that records deliveries. *)
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

let proto_num = 200

let setup w =
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let p1, got1 = sink n1.World.host in
  Proto.open_enable (Netproto.Ip.proto n1.World.ip) ~upper:p1
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let send msg =
    Tutil.run_in w (fun () ->
        let sess =
          Proto.open_ (Netproto.Ip.proto n0.World.ip)
            ~upper:(fst (sink n0.World.host))
            (Part.v
               ~local:[ Part.Ip n0.World.host.Host.ip; Part.Ip_proto proto_num ]
               ~remotes:
                 [ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto proto_num ] ]
               ())
        in
        Proto.push sess msg)
  in
  (n0, n1, send, got1)

let small_datagram () =
  let w = World.create () in
  let _, _, send, got = setup w in
  send (Msg.of_string "small");
  Alcotest.(check (list string)) "delivered" [ "small" ] !got

let empty_datagram () =
  let w = World.create () in
  let _, _, send, got = setup w in
  send Msg.empty;
  Alcotest.(check (list string)) "empty ok" [ "" ] !got

let fragmentation_roundtrip () =
  let w = World.create () in
  let n0, n1, send, got = setup w in
  let payload = Tutil.body 5000 in
  send (Msg.of_string payload);
  (match !got with
  | [ s ] -> Tutil.check_str "reassembled" payload s
  | _ -> Alcotest.fail "expected one delivery");
  Alcotest.(check bool) "sender fragmented" true
    (Tutil.stat (Netproto.Ip.proto n0.World.ip) "tx-frag" >= 3);
  Alcotest.(check bool) "receiver saw fragments" true
    (Tutil.stat (Netproto.Ip.proto n1.World.ip) "rx-frag" >= 3)

let max_size_datagram () =
  let w = World.create () in
  let _, _, send, got = setup w in
  let payload = String.make Netproto.Ip.max_packet 'M' in
  send (Msg.of_string payload);
  match !got with
  | [ s ] -> Tutil.check_int "64k reassembled" Netproto.Ip.max_packet (String.length s)
  | _ -> Alcotest.fail "expected one delivery"

let oversize_rejected () =
  let w = World.create () in
  let n0, _, send, got = setup w in
  send (Msg.fill (Netproto.Ip.max_packet + 1) 'x');
  Alcotest.(check (list string)) "nothing delivered" [] !got;
  Tutil.check_int "counted too-big" 1
    (Tutil.stat (Netproto.Ip.proto n0.World.ip) "too-big")

let corrupt_header_dropped () =
  let w = World.create () in
  let n1 = World.node w 1 in
  let _, _, send, got = setup w in
  (* Warm up ARP and the session first, then flip a byte inside the IP
     header of every subsequent frame (eth 14 + offset 8 = ttl). *)
  send (Msg.of_string "warm");
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Corrupt 22 ]));
  send (Msg.of_string "doomed");
  Alcotest.(check (list string)) "only warm-up delivered" [ "warm" ] !got;
  Alcotest.(check bool) "checksum counter" true
    (Tutil.stat (Netproto.Ip.proto n1.World.ip) "rx-bad-checksum" >= 1)

let lost_fragment_times_out () =
  let w = World.create () in
  let n1 = World.node w 1 in
  let _, _, send, got = setup w in
  (* Warm up ARP (frames 0-1) and the session (frame 2), then drop one
     fragment of the real message: reassembly must not deliver, and the
     partial state must be garbage collected. *)
  send (Msg.of_string "warm");
  Wire.set_fault_hook w.World.wire
    (Some (fun n _ -> if n = 4 then [ Wire.Drop ] else []));
  send (Msg.fill 4000 'f');
  Alcotest.(check (list string)) "not delivered" [ "warm" ] !got;
  (* run past the reassembly timer *)
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 2.0);
  Tutil.check_int "reassembly GCed" 1
    (Tutil.stat (Netproto.Ip.proto n1.World.ip) "reasm-timeout")

let reordered_fragments_ok () =
  let w = World.create () in
  (* Delay the first fragment so it arrives after the others. *)
  Wire.set_fault_hook w.World.wire
    (Some (fun n _ -> if n = 0 then [ Wire.Delay 0.01 ] else []));
  let _, _, send, got = setup w in
  let payload = Tutil.body 4000 in
  send (Msg.of_string payload);
  match !got with
  | [ s ] -> Tutil.check_str "reassembled out of order" payload s
  | _ -> Alcotest.fail "expected one delivery"

let duplicate_fragments_ok () =
  let w = World.create () in
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  let _, _, send, got = setup w in
  let payload = Tutil.body 3000 in
  send (Msg.of_string payload);
  (* IP is unreliable: duplicated fragments may yield the datagram once
     or twice, but every copy must be intact — no corrupted hybrids. *)
  Alcotest.(check bool) "delivered at least once" true (!got <> []);
  List.iter (fun s -> Tutil.check_str "intact copy" payload s) !got

let routing_via_gateway () =
  let inet = World.create_internet () in
  let wn = World.node inet.World.west 0 in
  let en = World.node inet.World.east 0 in
  let p_e, got = sink en.World.host in
  Proto.open_enable (Netproto.Ip.proto en.World.ip) ~upper:p_e
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let result = ref [] in
  Sim.spawn inet.World.inet_sim (fun () ->
      let sess =
        Proto.open_ (Netproto.Ip.proto wn.World.ip)
          ~upper:(fst (sink wn.World.host))
          (Part.v
             ~local:[ Part.Ip wn.World.host.Host.ip; Part.Ip_proto proto_num ]
             ~remotes:[ [ Part.Ip en.World.host.Host.ip; Part.Ip_proto proto_num ] ]
             ())
      in
      Proto.push sess (Msg.of_string "across the router");
      result := [ "sent" ]);
  Sim.run inet.World.inet_sim;
  Alcotest.(check (list string)) "sent" [ "sent" ] !result;
  Alcotest.(check (list string)) "forwarded end to end" [ "across the router" ] !got;
  Alcotest.(check bool) "router counted it" true
    (Tutil.stat (Netproto.Ip.proto (fst inet.World.router).World.ip) "forwarded" >= 1)

let fragments_forwarded () =
  let inet = World.create_internet () in
  let wn = World.node inet.World.west 0 in
  let en = World.node inet.World.east 0 in
  let p_e, got = sink en.World.host in
  Proto.open_enable (Netproto.Ip.proto en.World.ip) ~upper:p_e
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let payload = Tutil.body 4000 in
  Sim.spawn inet.World.inet_sim (fun () ->
      let sess =
        Proto.open_ (Netproto.Ip.proto wn.World.ip)
          ~upper:(fst (sink wn.World.host))
          (Part.v
             ~local:[ Part.Ip wn.World.host.Host.ip; Part.Ip_proto proto_num ]
             ~remotes:[ [ Part.Ip en.World.host.Host.ip; Part.Ip_proto proto_num ] ]
             ())
      in
      Proto.push sess (Msg.of_string payload));
  Sim.run inet.World.inet_sim;
  match !got with
  | [ s ] -> Tutil.check_str "fragments crossed router" payload s
  | _ -> Alcotest.fail "expected one delivery"

let no_route_counted () =
  let w = World.create () in
  let n0 = World.node w 0 in
  Tutil.run_in w (fun () ->
      let sess =
        Proto.open_ (Netproto.Ip.proto n0.World.ip)
          ~upper:(fst (sink n0.World.host))
          (Part.v
             ~local:[ Part.Ip n0.World.host.Host.ip; Part.Ip_proto proto_num ]
             ~remotes:[ [ Part.Ip (Addr.Ip.v 192 168 9 9); Part.Ip_proto proto_num ] ]
             ())
      in
      Proto.push sess (Msg.of_string "nowhere"));
  Tutil.check_int "no-route" 1 (Tutil.stat (Netproto.Ip.proto n0.World.ip) "no-route")

let controls () =
  let w = World.create () in
  let n0 = World.node w 0 in
  let p = Netproto.Ip.proto n0.World.ip in
  Tutil.check_int "max packet" 65515 (Control.int_exn (Proto.control p Control.Get_max_packet));
  Tutil.check_int "opt packet" 1480 (Control.int_exn (Proto.control p Control.Get_opt_packet))

(* A runt, and a header whose total length runs past the bytes that
   arrived, handed to IP from below: each is counted and dropped. *)
let runt_and_short_counted () =
  let w = World.create () in
  let n0, n1, _, got = setup w in
  let ip_int (n : World.node) =
    Int32.of_int (Addr.Ip.to_int n.World.host.Host.ip)
  in
  let h = Bytes.make 20 '\000' in
  Bytes.set_uint8 h 0 0x45;
  Bytes.set_uint16_be h 2 (20 + 100);
  Bytes.set_uint8 h 8 32;
  Bytes.set_uint8 h 9 proto_num;
  Bytes.set_int32_be h 12 (ip_int n0);
  Bytes.set_int32_be h 16 (ip_int n1);
  Bytes.set_uint16_be h 10 (Codec.ip_checksum (Bytes.to_string h));
  let ip1 = Netproto.Ip.proto n1.World.ip in
  Tutil.deliver_from_below w ~host:n1.World.host ~peer:n0.World.host.Host.ip ip1
    [
      Msg.of_string (String.make 19 '\000');
      Msg.of_string (Bytes.to_string h ^ String.make 10 'x');
    ];
  Tutil.check_int "runt" 1 (Tutil.stat ip1 "rx-runt");
  Tutil.check_int "short" 1 (Tutil.stat ip1 "rx-short");
  Tutil.check_int "bad checksum" 0 (Tutil.stat ip1 "rx-bad-checksum");
  Alcotest.(check (list string)) "nothing delivered" [] !got

let () =
  Alcotest.run "ip"
    [
      ( "datagrams",
        [
          Alcotest.test_case "small" `Quick small_datagram;
          Alcotest.test_case "empty" `Quick empty_datagram;
          Alcotest.test_case "controls" `Quick controls;
        ] );
      ( "fragmentation",
        [
          Alcotest.test_case "roundtrip" `Quick fragmentation_roundtrip;
          Alcotest.test_case "64k maximum" `Quick max_size_datagram;
          Alcotest.test_case "oversize rejected" `Quick oversize_rejected;
          Alcotest.test_case "lost fragment times out" `Quick lost_fragment_times_out;
          Alcotest.test_case "reordered fragments" `Quick reordered_fragments_ok;
          Alcotest.test_case "duplicate fragments" `Quick duplicate_fragments_ok;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "corrupt header dropped" `Quick corrupt_header_dropped;
          Alcotest.test_case "runt and short counted" `Quick
            runt_and_short_counted;
          Alcotest.test_case "no route counted" `Quick no_route_counted;
        ] );
      ( "routing",
        [
          Alcotest.test_case "via gateway" `Quick routing_via_gateway;
          Alcotest.test_case "fragments forwarded" `Quick fragments_forwarded;
        ] );
    ]
