open Xkernel
module World = Netproto.World
module Probe = Netproto.Probe

let vip_stat (n : World.node) name = Tutil.stat (Netproto.Vip.proto n.World.vip) name

let local_small_uses_eth_only () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  (* Probe advertises max 1480: VIP should not open IP at all. *)
  let pc = Probe.create ~host:n0.World.host ~lower:(Netproto.Vip.proto n0.World.vip) () in
  let ps = Probe.create ~host:n1.World.host ~lower:(Netproto.Vip.proto n1.World.vip) () in
  Probe.serve ps;
  let rtt = Tutil.run_in w (fun () -> Probe.rtt pc ~peer:n1.World.host.Host.ip ()) in
  Alcotest.(check bool) "echoed" true (rtt <> None);
  Tutil.check_int "opened ethernet only" 1 (vip_stat n0 "open-eth");
  Tutil.check_int "no dual session" 0 (vip_stat n0 "open-both");
  Alcotest.(check bool) "sent over ethernet" true (vip_stat n0 "tx-eth" > 0);
  Tutil.check_int "nothing over IP" 0 (vip_stat n0 "tx-ip");
  (* IP protocol object on the client saw no traffic at all. *)
  Tutil.check_int "IP idle" 0 (Tutil.stat (Netproto.Ip.proto n0.World.ip) "tx")

let large_upper_opens_both () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  (* An upper protocol that may push up to 64k: VIP opens ETH and IP,
     then picks per message by length — the single test in push. *)
  let pc =
    Probe.create ~host:n0.World.host ~lower:(Netproto.Vip.proto n0.World.vip)
      ~max_msg:Netproto.Ip.max_packet ()
  in
  let ps =
    Probe.create ~host:n1.World.host ~lower:(Netproto.Vip.proto n1.World.vip)
      ~max_msg:Netproto.Ip.max_packet ()
  in
  Probe.serve ps;
  Tutil.run_in w (fun () ->
      Alcotest.(check bool) "small echo" true
        (Probe.rtt pc ~peer:n1.World.host.Host.ip ~size:100 () <> None);
      Alcotest.(check bool) "large echo" true
        (Probe.rtt pc ~peer:n1.World.host.Host.ip ~size:8000 ()
        <> None));
  Tutil.check_int "opened both" 1 (vip_stat n0 "open-both");
  Alcotest.(check bool) "small went over ethernet" true (vip_stat n0 "tx-eth" > 0);
  Alcotest.(check bool) "large went over IP" true (vip_stat n0 "tx-ip" > 0)

let remote_peer_uses_ip () =
  let inet = World.create_internet () in
  let wn = World.node inet.World.west 0 in
  let en = World.node inet.World.east 0 in
  let pc = Probe.create ~host:wn.World.host ~lower:(Netproto.Vip.proto wn.World.vip) () in
  let ps = Probe.create ~host:en.World.host ~lower:(Netproto.Vip.proto en.World.vip) () in
  Probe.serve ps;
  let rtt = ref None in
  Sim.spawn inet.World.inet_sim (fun () ->
      rtt := Probe.rtt pc ~peer:en.World.host.Host.ip ());
  Sim.run inet.World.inet_sim;
  Alcotest.(check bool) "cross-network echo" true (!rtt <> None);
  (* ARP could not resolve the remote peer, so VIP fell back to IP. *)
  Tutil.check_int "opened IP" 1 (vip_stat wn "open-ip");
  Tutil.check_int "never opened ethernet session" 0 (vip_stat wn "open-eth")

let vip_cheaper_than_ip () =
  (* The whole point of Table I: on the local wire, VIP ≈ ETH < IP. *)
  let lat lower_of =
    let w = World.create () in
    let n0 = World.node w 0 and n1 = World.node w 1 in
    let pc = Probe.create ~host:n0.World.host ~lower:(lower_of n0) () in
    let ps = Probe.create ~host:n1.World.host ~lower:(lower_of n1) () in
    Probe.serve ps;
    Tutil.run_in w (fun () ->
        ignore (Probe.rtt pc ~peer:n1.World.host.Host.ip ());
        let t0 = Sim.now w.World.sim in
        for _ = 1 to 20 do
          ignore (Probe.rtt pc ~peer:n1.World.host.Host.ip ())
        done;
        (Sim.now w.World.sim -. t0) /. 20.)
  in
  let via_vip = lat (fun n -> Netproto.Vip.proto n.World.vip) in
  let via_ip = lat (fun n -> Netproto.Ip.proto n.World.ip) in
  Alcotest.(check bool)
    (Printf.sprintf "vip (%.3fms) < ip (%.3fms)" (via_vip *. 1e3) (via_ip *. 1e3))
    true
    (via_vip < via_ip);
  (* and the gap is substantial: IP costs ~0.3-0.4 ms extra round trip *)
  Alcotest.(check bool) "gap > 0.2ms" true (via_ip -. via_vip > 0.2e-3)

let headerless () =
  (* VIP adds no header: the ethernet payload for a VIP-carried probe
     is exactly the probe packet. *)
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let seen_len = ref 0 in
  let tap = Proto.create ~host:n1.World.host ~name:"TAP" () in
  Proto.set_ops tap
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "tap");
      open_enable = (fun ~upper:_ _ -> invalid_arg "tap");
      open_done = (fun ~upper:_ _ -> invalid_arg "tap");
      demux = (fun ~lower:_ msg -> seen_len := Msg.length msg);
      p_control = (fun _ -> Control.Unsupported);
    };
  (* Tap the raw ethernet type VIP maps protocol 200 onto. *)
  Proto.open_enable (Netproto.Eth.proto n1.World.eth) ~upper:tap
    (Part.v ~local:[ Part.Eth_type (Addr.eth_type_of_ip_proto 200) ] ());
  let pc = Probe.create ~host:n0.World.host ~lower:(Netproto.Vip.proto n0.World.vip) () in
  Tutil.run_in w (fun () ->
      ignore (Probe.rtt pc ~peer:n1.World.host.Host.ip ~size:11 ()));
  (* probe header (5) + payload (11): nothing from VIP. *)
  Tutil.check_int "no VIP header bytes" 16 !seen_len

let vip_addr_returns_lower_session () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let upper = Proto.create ~host:n0.World.host ~name:"UP" () in
  Proto.set_ops upper
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "up");
      open_enable = (fun ~upper:_ _ -> invalid_arg "up");
      open_done = (fun ~upper:_ _ -> invalid_arg "up");
      demux = (fun ~lower:_ _ -> ());
      p_control = (fun _ -> Control.Unsupported);
    };
  let sess =
    Tutil.run_in w (fun () ->
        Proto.open_ (Netproto.Vip_addr.proto n0.World.vip_addr) ~upper
          (Part.v
             ~local:[ Part.Ip n0.World.host.Host.ip; Part.Ip_proto 200 ]
             ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto 200 ] ]
             ()))
  in
  (* The session handed back belongs to ETH, not to VIPaddr. *)
  Tutil.check_str "owned by ETH" "ETH" (Proto.name (Proto.session_proto sess))

let probe_swaps_ip_for_vip_unchanged () =
  (* The uniform interface: the same Probe code runs over IP or VIP
     with no change but the protocol object handed to it. *)
  List.iter
    (fun lower_of ->
      let w = World.create () in
      let n0 = World.node w 0 and n1 = World.node w 1 in
      let pc = Probe.create ~host:n0.World.host ~lower:(lower_of n0) () in
      let ps = Probe.create ~host:n1.World.host ~lower:(lower_of n1) () in
      Probe.serve ps;
      let r = Tutil.run_in w (fun () -> Probe.rtt pc ~peer:n1.World.host.Host.ip ()) in
      Alcotest.(check bool) "echo works" true (r <> None))
    [
      (fun (n : World.node) -> Netproto.Ip.proto n.World.ip);
      (fun (n : World.node) -> Netproto.Vip.proto n.World.vip);
      (fun (n : World.node) -> Netproto.Vip_addr.proto n.World.vip_addr);
    ]

let advertisement_gates_ethernet_path () =
  (* Section 3.1's generalization: with the broadcast advertisement
     table in play, VIP takes the ethernet path only toward hosts that
     announced VIP support; everyone else is reached via IP even though
     ARP resolves them. *)
  let w = World.create ~n:3 () in
  let n0 = World.node w 0 and n1 = World.node w 1 and n2 = World.node w 2 in
  (* n0 and n1 run the advertisement protocol; n2 does not. *)
  let adv0 = Netproto.Vip_adv.create ~host:n0.World.host ~eth:n0.World.eth in
  let _adv1 = Netproto.Vip_adv.create ~host:n1.World.host ~eth:n1.World.eth in
  let vip0 =
    Netproto.Vip.create ~host:n0.World.host ~eth:n0.World.eth ~ip:n0.World.ip
      ~arp:n0.World.arp ~adv:adv0 ()
  in
  (* let the beacons fly *)
  Netproto.World.run w;
  Alcotest.(check bool) "n0 learned n1" true
    (Netproto.Vip_adv.supports adv0 n1.World.host.Host.ip);
  Alcotest.(check bool) "n0 did not learn n2" false
    (Netproto.Vip_adv.supports adv0 n2.World.host.Host.ip);
  (* open toward both peers; only the advertiser gets an ETH session *)
  let upper =
    let p = Proto.create ~host:n0.World.host ~name:"SMALL" () in
    Proto.set_ops p
      {
        Proto.open_ = (fun ~upper:_ _ -> invalid_arg "small");
        open_enable = (fun ~upper:_ _ -> invalid_arg "small");
        open_done = (fun ~upper:_ _ -> invalid_arg "small");
        demux = (fun ~lower:_ _ -> ());
        p_control =
          (function
          | Control.Get_max_msg_size -> Control.R_int 100
          | _ -> Control.Unsupported);
      };
    p
  in
  let open_to peer =
    Tutil.run_in w (fun () ->
        ignore
          (Proto.open_ (Netproto.Vip.proto vip0) ~upper
             (Part.v
                ~local:[ Part.Ip n0.World.host.Host.ip; Part.Ip_proto 201 ]
                ~remotes:[ [ Part.Ip peer; Part.Ip_proto 201 ] ]
                ())))
  in
  open_to n1.World.host.Host.ip;
  Tutil.check_int "advertiser: ethernet" 1
    (Tutil.stat (Netproto.Vip.proto vip0) "open-eth");
  open_to n2.World.host.Host.ip;
  Tutil.check_int "non-advertiser: IP fallback" 1
    (Tutil.stat (Netproto.Vip.proto vip0) "open-ip")

let query_reaches_late_joiner () =
  let w = World.create ~n:2 () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let adv0 = Netproto.Vip_adv.create ~host:n0.World.host ~eth:n0.World.eth in
  Netproto.World.run w;
  (* n1 starts advertising only later — its initial beacon predates n0?
     No: both beacons flew already.  Simulate a late joiner by flushing
     n0's table, then querying. *)
  ignore (Proto.control (Netproto.Vip_adv.proto adv0) Control.Flush_cache);
  let _adv1 = Netproto.Vip_adv.create ~host:n1.World.host ~eth:n1.World.eth in
  Tutil.run_in w (fun () -> Netproto.Vip_adv.query adv0);
  Netproto.World.run w;
  Alcotest.(check bool) "query repopulated the table" true
    (Netproto.Vip_adv.supports adv0 n1.World.host.Host.ip)

let graph_rendering () =
  let w = World.create () in
  let n0 = World.node w 0 in
  let s = Format.asprintf "%a" Proto.pp_graph [ Netproto.Vip.proto n0.World.vip ] in
  let contains hay needle =
    let ln = String.length needle and lh = String.length hay in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "VIP (virtual)" true (contains s "VIP (virtual)");
  Alcotest.(check bool) "ETH below" true (contains s "ETH");
  Alcotest.(check bool) "IP below" true (contains s "IP")

(* --- the binding of a lower session to its upper session ---

   VIP and VIPsize identify a lower session's peer on its first message
   and bind the session they resolve it to; these cases pin the two
   events that must undo a binding. *)

let vip_of (n : World.node) = Netproto.Vip.proto n.World.vip

let vip_size_of (n : World.node) =
  let vaddr = Netproto.Vip_addr.proto n.World.vip_addr in
  let frag = Rpc.Fragment.create ~host:n.World.host ~lower:vaddr in
  Netproto.Vip_size.proto
    (Netproto.Vip_size.create ~host:n.World.host ~bulk:(Rpc.Fragment.proto frag)
       ~direct:vaddr ~arp:n.World.arp)

(* An upper protocol that records the lower session of each message. *)
let recorder host =
  let seen = ref [] in
  let p = Proto.create ~host ~name:"REC" () in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "rec");
      open_enable = (fun ~upper:_ _ -> invalid_arg "rec");
      open_done = (fun ~upper:_ _ -> invalid_arg "rec");
      demux = (fun ~lower _ -> seen := lower :: !seen);
      p_control = (fun _ -> Control.Unsupported);
    };
  (p, seen)

let part_to (local : World.node) (peer : World.node) =
  Part.v
    ~local:[ Part.Ip local.World.host.Host.ip; Part.Ip_proto 200 ]
    ~remotes:[ [ Part.Ip peer.World.host.Host.ip; Part.Ip_proto 200 ] ]
    ()

(* Node 0 sends small messages to a recorder enabled on node 1. *)
let binding_rig make =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let p0 = make n0 and p1 = make n1 in
  let rec1, seen = recorder n1.World.host in
  Proto.open_enable p1 ~upper:rec1 (Part.v ~local:[ Part.Ip_proto 200 ] ());
  let rec0, _ = recorder n0.World.host in
  let s0 = Tutil.run_in w (fun () -> Proto.open_ p0 ~upper:rec0 (part_to n0 n1)) in
  let send () = Tutil.run_in w (fun () -> Proto.push s0 (Msg.of_string "x")) in
  send ();
  Tutil.check_int "first message delivered" 1 (List.length !seen);
  (w, n0, n1, p1, rec1, seen, send)

let rebinds_after_close make () =
  let w, n0, n1, p1, rec1, seen, send = binding_rig make in
  let first = List.hd !seen in
  Proto.close first;
  let reopened =
    Tutil.run_in w (fun () -> Proto.open_ p1 ~upper:rec1 (part_to n1 n0))
  in
  Alcotest.(check bool) "a new session" true
    (Proto.session_id reopened <> Proto.session_id first);
  send ();
  Tutil.check_int "second message delivered" 2 (List.length !seen);
  Tutil.check_int "on the reopened session" (Proto.session_id reopened)
    (Proto.session_id (List.hd !seen))

let stale_eth_unidentified make () =
  let w, n0, n1, p1, _, seen, send = binding_rig make in
  (* Node 1's ARP hears that node 0's address moved to another ethernet
     address; node 0 keeps sending from its own. *)
  let moved =
    let c = Bytes.create 21 in
    Codec.set_u8 c 0 (2 (* reply *));
    Codec.set_u32 c 1 (Addr.Ip.to_int n0.World.host.Host.ip);
    Codec.set_u48 c 5 0x0800200000ff;
    Codec.set_u32 c 11 (Addr.Ip.to_int n1.World.host.Host.ip);
    Codec.set_u48 c 15 (Addr.Eth.to_int n1.World.host.Host.eth);
    Msg.of_string (Bytes.unsafe_to_string c)
  in
  Tutil.run_in w (fun () ->
      Proto.deliver (Netproto.Arp.proto n1.World.arp) ~lower:(List.hd !seen) moved);
  send ();
  Tutil.check_int "not delivered" 1 (List.length !seen);
  Tutil.check_int "counted unidentified" 1 (Tutil.stat p1 "rx-unidentified")

(* Allocation budget for the frame path below FRAGMENT: one 1 KB
   message pushed into a VIP session on h0 and delivered to the protocol
   above VIP on h1, over ETH, the device and the wire, in minor words
   per frame.  OCaml 5.1.1 measures 41.26 (budget 45), with the header
   push, the wire's one delivery event and the fiber switches of the
   transmitter and of the receiving shepherd in it.  Building the ETH
   header per push reads 47.26; that, a key tuple per ETH demux, a
   queue cell per queued frame, a boxed arrival delay, and a closure
   and a second event per delivery read 64.26 together.  The batch runs
   once first, so the transmit ring and the event heaps have grown
   before the measured run. *)
let frame_budget = 45.

let frame_words () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let got = ref 0 in
  let sink = Proto.create ~host:n1.World.host ~name:"SINK" () in
  Proto.set_ops sink
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "sink");
      open_enable = (fun ~upper:_ _ -> invalid_arg "sink");
      open_done = (fun ~upper:_ _ -> invalid_arg "sink");
      demux = (fun ~lower:_ _ -> incr got);
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.open_enable (Netproto.Vip.proto n1.World.vip) ~upper:sink
    (Part.ip_enable 200);
  let sess =
    Tutil.run_in w (fun () ->
        Proto.open_ (Netproto.Vip.proto n0.World.vip) ~upper:sink
          (Part.ip_open ~local:n0.World.host.Host.ip
             ~peer:n1.World.host.Host.ip 200))
  in
  let frame = Msg.fill 1024 'v' and n = 2_000 in
  let batch () =
    World.spawn w (fun () ->
        for _ = 1 to n do
          Proto.push sess frame
        done)
  in
  batch ();
  World.run w;
  batch ();
  let w0 = Gc.minor_words () in
  World.run w;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Tutil.check_int "every frame delivered" (2 * n) !got;
  words

let measured = ref nan

let frame_alloc_budget () =
  let words = frame_words () in
  measured := words;
  if not (words <= frame_budget) then
    Alcotest.failf "1 KB frame over ETH+VIP: %.2f words > %g" words
      frame_budget

let () =
  Alcotest.run ~and_exit:false "vip"
    [
      ( "path selection",
        [
          Alcotest.test_case "local small: ETH only" `Quick local_small_uses_eth_only;
          Alcotest.test_case "large upper: both, split by size" `Quick
            large_upper_opens_both;
          Alcotest.test_case "remote peer: IP" `Quick remote_peer_uses_ip;
        ] );
      ( "properties",
        [
          Alcotest.test_case "VIP cheaper than IP" `Quick vip_cheaper_than_ip;
          Alcotest.test_case "header-less" `Quick headerless;
          Alcotest.test_case "VIPaddr returns lower session" `Quick
            vip_addr_returns_lower_session;
          Alcotest.test_case "uniform substitution" `Quick
            probe_swaps_ip_for_vip_unchanged;
          Alcotest.test_case "graph rendering" `Quick graph_rendering;
        ] );
      ( "advertisement",
        [
          Alcotest.test_case "table gates ethernet path" `Quick
            advertisement_gates_ethernet_path;
          Alcotest.test_case "query reaches late joiner" `Quick
            query_reaches_late_joiner;
        ] );
      ( "binding",
        [
          Alcotest.test_case "VIP: rebinds after close" `Quick
            (rebinds_after_close vip_of);
          Alcotest.test_case "VIP: ARP move unidentifies" `Quick
            (stale_eth_unidentified vip_of);
          Alcotest.test_case "VIPsize: rebinds after close" `Quick
            (rebinds_after_close vip_size_of);
          Alcotest.test_case "VIPsize: ARP move unidentifies" `Quick
            (stale_eth_unidentified vip_size_of);
        ] );
      ( "allocation",
        [ Alcotest.test_case "allocation budget" `Quick frame_alloc_budget ] );
    ];
  print_string "\n\nallocation budget, minor words/op:\n";
  Printf.printf "  %-32s %6.2f (budget %g)\n" "1 KB frame, ETH+VIP" !measured
    frame_budget
