open Xkernel
module World = Netproto.World
module Probe = Netproto.Probe

(* --- Netdev --- *)

let frame ~dst ~src ~typ payload =
  let b = Bytes.create 14 in
  Codec.set_u48 b 0 (Addr.Eth.to_int dst);
  Codec.set_u48 b 6 (Addr.Eth.to_int src);
  Codec.set_u16 b 12 typ;
  Msg.push (Msg.of_string payload) (Bytes.unsafe_to_string b)

let dst_filter () =
  let w = World.create ~n:3 () in
  let n0 = World.node w 0 and n1 = World.node w 1 and n2 = World.node w 2 in
  let hits1 = ref 0 and hits2 = ref 0 in
  Netdev.set_handler n1.World.dev (fun _ -> incr hits1);
  Netdev.set_handler n2.World.dev (fun _ -> incr hits2);
  World.spawn w (fun () ->
      Netdev.transmit n0.World.dev
        (frame ~dst:n1.World.host.Host.eth ~src:n0.World.host.Host.eth
           ~typ:0x9999 "x"));
  World.run w;
  Tutil.check_int "addressed station" 1 !hits1;
  Tutil.check_int "other station filtered" 0 !hits2

let broadcast_reaches_everyone () =
  let w = World.create ~n:3 () in
  let n0 = World.node w 0 in
  let hits = Array.make 3 0 in
  for i = 1 to 2 do
    Netdev.set_handler (World.node w i).World.dev (fun _ ->
        hits.(i) <- hits.(i) + 1)
  done;
  World.spawn w (fun () ->
      Netdev.transmit n0.World.dev
        (frame ~dst:Addr.Eth.broadcast ~src:n0.World.host.Host.eth ~typ:0x9999
           "b"));
  World.run w;
  Tutil.check_int "n1" 1 hits.(1);
  Tutil.check_int "n2" 1 hits.(2)

let promiscuous_tap () =
  let w = World.create ~n:3 () in
  let n0 = World.node w 0 and n1 = World.node w 1 and n2 = World.node w 2 in
  let snoop = ref 0 in
  Netdev.set_promiscuous n2.World.dev true;
  Netdev.set_handler n2.World.dev (fun _ -> incr snoop);
  Netdev.set_handler n1.World.dev (fun _ -> ());
  World.spawn w (fun () ->
      Netdev.transmit n0.World.dev
        (frame ~dst:n1.World.host.Host.eth ~src:n0.World.host.Host.eth
           ~typ:0x9999 "private"));
  World.run w;
  Tutil.check_int "promiscuous device sees other traffic" 1 !snoop

(* The wire asks each station's address filter as it sends a frame, so
   on a 5-station wire a unicast frame costs one delivery event, the
   addressed station's, while [delivered] still counts a copy per tap.
   The event count is checked against the same frame on a 2-station
   wire, where the addressed station is the only one.  Broadcast frames
   and a promiscuous tap still get every copy; a corrupted copy is judged
   by its own (damaged) destination and a duplicate by the clean frame. *)
let filter_at_transmit () =
  let send ?(n = 5) ?(promiscuous = []) ?faults ~dst () =
    let w = World.create ~n () in
    let n0 = World.node w 0 in
    let hits = Array.make n 0 in
    for i = 1 to n - 1 do
      let dev = (World.node w i).World.dev in
      Netdev.set_handler dev (fun _ -> hits.(i) <- hits.(i) + 1);
      Netdev.set_promiscuous dev (List.mem i promiscuous)
    done;
    Wire.set_fault_hook w.World.wire
      (Option.map (fun f _ _ -> f) faults);
    (* The transmitter fibers start and park. *)
    World.run w;
    let before = Sim.processed w.World.sim in
    World.spawn w (fun () ->
        Netdev.transmit n0.World.dev
          (frame ~dst:(dst w) ~src:n0.World.host.Host.eth ~typ:0x9999 "x"));
    World.run w;
    ( Sim.processed w.World.sim - before,
      (Wire.stats w.World.wire).Wire.delivered,
      Array.to_list hits )
  in
  let to_n1 w = (World.node w 1).World.host.Host.eth in
  let events, delivered, hits = send ~dst:to_n1 () in
  let events_2, _, _ = send ~n:2 ~dst:to_n1 () in
  Tutil.check_int "events, as with one other station" events_2 events;
  Tutil.check_int "delivered counts every tap" 4 delivered;
  Alcotest.(check (list int)) "only the addressed station" [ 0; 1; 0; 0; 0 ]
    hits;
  let _, delivered, hits = send ~dst:(fun _ -> Addr.Eth.broadcast) () in
  Tutil.check_int "broadcast: delivered" 4 delivered;
  Alcotest.(check (list int)) "broadcast reaches all" [ 0; 1; 1; 1; 1 ] hits;
  let _, _, hits = send ~promiscuous:[ 3 ] ~dst:to_n1 () in
  Alcotest.(check (list int)) "promiscuous tap" [ 0; 1; 0; 1; 0 ] hits;
  (* Offset 5 flips the destination's last byte: no station's address. *)
  let _, delivered, hits =
    send ~faults:[ Wire.Duplicate; Wire.Corrupt 5 ] ~dst:to_n1 ()
  in
  Tutil.check_int "two copies per tap" 8 delivered;
  Alcotest.(check (list int)) "only the clean duplicate arrives"
    [ 0; 1; 0; 0; 0 ] hits

let peek_dst_works () =
  let f = frame ~dst:(Addr.Eth.v 0xaabbccddeeff) ~src:(Addr.Eth.v 1) ~typ:0 "" in
  Alcotest.(check bool) "peek" true
    (Netdev.peek_dst f = Some (Addr.Eth.v 0xaabbccddeeff));
  Alcotest.(check bool) "runt" true (Netdev.peek_dst (Msg.of_string "ab") = None)

let pipelining_overlaps () =
  (* transmit returns after the driver charge, not after serialization:
     queueing 4 frames costs far less than 4 serializations. *)
  let w = World.create () in
  let n0 = World.node w 0 in
  let queued_at = ref 0. in
  World.spawn w (fun () ->
      for _ = 1 to 4 do
        Netdev.transmit n0.World.dev
          (frame ~dst:(World.node w 1).World.host.Host.eth
             ~src:n0.World.host.Host.eth ~typ:0x9999 (String.make 1400 'x'))
      done;
      queued_at := Sim.now w.World.sim);
  World.run w;
  let serialization =
    float_of_int (Wire.on_wire_bytes 1414 * 8) /. 10e6 *. 4.
  in
  Alcotest.(check bool)
    (Printf.sprintf "queued in %.2fms < 4 serializations %.2fms"
       (!queued_at *. 1e3) (serialization *. 1e3))
    true
    (!queued_at < serialization);
  Alcotest.(check bool) "wire still drained it all" true
    (Sim.now w.World.sim >= serialization)

(* --- Probe --- *)

let probe_rtt_and_timeout () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let pc = Probe.create ~host:n0.World.host ~lower:(Netproto.Vip.proto n0.World.vip) () in
  let ps = Probe.create ~host:n1.World.host ~lower:(Netproto.Vip.proto n1.World.vip) () in
  Probe.serve ps;
  let r1 = Tutil.run_in w (fun () -> Probe.rtt pc ~peer:n1.World.host.Host.ip ()) in
  Alcotest.(check bool) "positive rtt" true
    (match r1 with Some t -> t > 0. | None -> false);
  Tutil.check_int "one echo" 1 (Tutil.stat (Probe.proto ps) "echoed");
  (* now break the wire: rtt must time out, not hang *)
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Drop ]));
  let t0 = ref 0. in
  let r2 =
    Tutil.run_in w (fun () ->
        t0 := Sim.now w.World.sim;
        Probe.rtt pc ~peer:n1.World.host.Host.ip ())
  in
  Alcotest.(check bool) "timed out" true (r2 = None);
  (* a little send-side CPU time precedes the 1 s wait *)
  Alcotest.(check (float 1e-3)) "after roughly the timeout" 1.0
    (Sim.now w.World.sim -. !t0)

let probe_sizes_echoed () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let pc = Probe.create ~host:n0.World.host ~lower:(Netproto.Ip.proto n0.World.ip) () in
  let ps = Probe.create ~host:n1.World.host ~lower:(Netproto.Ip.proto n1.World.ip) () in
  Probe.serve ps;
  Tutil.run_in w (fun () ->
      List.iter
        (fun size ->
          match Probe.rtt pc ~peer:n1.World.host.Host.ip ~size () with
          | Some _ -> ()
          | None -> Alcotest.failf "size %d timed out" size)
        [ 0; 1; 1400; 5000 ])

let larger_probes_take_longer () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let pc = Probe.create ~host:n0.World.host ~lower:(Netproto.Vip.proto n0.World.vip) () in
  let ps = Probe.create ~host:n1.World.host ~lower:(Netproto.Vip.proto n1.World.vip) () in
  Probe.serve ps;
  let rtt size =
    Tutil.run_in w (fun () ->
        Option.get (Probe.rtt pc ~peer:n1.World.host.Host.ip ~size ()))
  in
  ignore (rtt 0);
  let small = rtt 0 and big = rtt 1400 in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f < %.3f ms" (small *. 1e3) (big *. 1e3))
    true (small < big)

(* --- World topology --- *)

let world_addresses_distinct () =
  let w = World.create ~n:5 () in
  let ips = Array.to_list (Array.map (fun (n : World.node) -> Addr.Ip.to_int n.World.host.Host.ip) w.World.nodes) in
  let eths = Array.to_list (Array.map (fun (n : World.node) -> Addr.Eth.to_int n.World.host.Host.eth) w.World.nodes) in
  Tutil.check_int "distinct ips" 5 (List.length (List.sort_uniq compare ips));
  Tutil.check_int "distinct eths" 5 (List.length (List.sort_uniq compare eths))

let internet_isolated_wires () =
  (* Hosts on different wires cannot ARP each other; only IP+router
     connects them. *)
  let inet = World.create_internet () in
  let wn = World.node inet.World.west 0 in
  let en = World.node inet.World.east 0 in
  let resolved =
    let r = ref (Some Addr.Eth.broadcast) in
    Sim.spawn inet.World.inet_sim (fun () ->
        r := Netproto.Arp.resolve wn.World.arp en.World.host.Host.ip);
    Sim.run inet.World.inet_sim;
    !r
  in
  Alcotest.(check bool) "cross-wire ARP fails" true (resolved = None)

let () =
  Alcotest.run "netdev-probe"
    [
      ( "netdev",
        [
          Alcotest.test_case "destination filter" `Quick dst_filter;
          Alcotest.test_case "broadcast" `Quick broadcast_reaches_everyone;
          Alcotest.test_case "promiscuous tap" `Quick promiscuous_tap;
          Alcotest.test_case "filter at transmit" `Quick filter_at_transmit;
          Alcotest.test_case "peek_dst" `Quick peek_dst_works;
          Alcotest.test_case "tx pipelining" `Quick pipelining_overlaps;
        ] );
      ( "probe",
        [
          Alcotest.test_case "rtt and timeout" `Quick probe_rtt_and_timeout;
          Alcotest.test_case "payload sizes" `Quick probe_sizes_echoed;
          Alcotest.test_case "size monotonicity" `Quick larger_probes_take_longer;
        ] );
      ( "world",
        [
          Alcotest.test_case "distinct addresses" `Quick world_addresses_distinct;
          Alcotest.test_case "internet wire isolation" `Quick internet_isolated_wires;
        ] );
    ]
