open Xkernel
module World = Netproto.World
module Stream = Rpc.Stream

(* A STREAM pair over a chosen lower layer, with the receiver logging
   every in-order chunk. *)
let setup ?(lower = `Vip) w =
  let lower_of (n : World.node) =
    match lower with
    | `Vip -> Netproto.Vip.proto n.World.vip
    | `Ip -> Netproto.Ip.proto n.World.ip
  in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let s0 = Stream.create ~host:n0.World.host ~lower:(lower_of n0) in
  let s1 = Stream.create ~host:n1.World.host ~lower:(lower_of n1) in
  let received = Buffer.create 256 in
  Stream.on_receive s1 (fun ~peer:_ chunk ->
      Buffer.add_string received (Msg.to_string chunk));
  (s0, s1, received)

let send_all w conn payloads =
  Tutil.run_in w (fun () ->
      List.iter (fun p -> Stream.send conn (Msg.of_string p)) payloads;
      Stream.flush conn)

let simple_transfer () =
  let w = World.create () in
  let s0, _, received = setup w in
  let conn = Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1)) in
  send_all w conn [ "hello "; "stream "; "world" ];
  Tutil.check_str "in order, complete" "hello stream world"
    (Buffer.contents received);
  Tutil.check_int "all acked" (Stream.bytes_sent conn) (Stream.bytes_acked conn)

let large_transfer_segments () =
  let w = World.create () in
  let s0, s1, received = setup w in
  let conn = Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1)) in
  let payload = Tutil.body 50_000 in
  send_all w conn [ payload ];
  Tutil.check_str "50 KB intact" payload (Buffer.contents received);
  Alcotest.(check bool) "many segments" true (Stream.stat s0 "seg-tx" > 30);
  Tutil.check_int "no retransmissions on a clean wire" 0
    (Stream.stat s0 "retransmit");
  ignore s1

let window_blocks_sender () =
  (* The sender cannot run ahead of the acks: at most the window's 8
     segments are ever unacknowledged, and a 20 KB send fills it. *)
  let w = World.create () in
  let s0, _, received = setup w in
  let conn = Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1)) in
  (* A segment is what one VIP packet carries after STREAM's 13-byte
     header. *)
  let segment =
    Control.int_exn
      (Proto.control (Netproto.Vip.proto (World.node w 0).World.vip)
         Control.Get_opt_packet)
    - 13
  in
  let peak = ref 0 and sending = ref true in
  World.spawn w (fun () ->
      while !sending do
        peak := max !peak (Stream.bytes_sent conn - Stream.bytes_acked conn);
        Sim.delay w.World.sim 1e-5
      done);
  let payload = Tutil.body 20_000 in
  Tutil.run_in w (fun () ->
      Stream.send conn (Msg.of_string payload);
      Stream.flush conn;
      sending := false);
  Tutil.check_str "still intact" payload (Buffer.contents received);
  Tutil.check_int "unacknowledged bytes peak at 8 segments" (8 * segment) !peak

let loss_recovered () =
  let w = World.create () in
  let s0, _, received = setup w in
  let conn = Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1)) in
  (* warm the path (ARP) with a small chunk, then lose every 7th frame *)
  send_all w conn [ "warm." ];
  let k = ref 0 in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         incr k;
         if !k mod 7 = 0 then [ Wire.Drop ] else []));
  let payload = Tutil.body 30_000 in
  send_all w conn [ payload ];
  Tutil.check_str "delivered despite loss" ("warm." ^ payload)
    (Buffer.contents received);
  Alcotest.(check bool) "retransmissions happened" true
    (Stream.stat s0 "retransmit" > 0)

let reorder_recovered () =
  let w = World.create () in
  let s0, s1, received = setup w in
  let conn = Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1)) in
  send_all w conn [ "warm." ];
  let k = ref 0 in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         incr k;
         if !k mod 5 = 0 then [ Wire.Delay 0.004 ] else []));
  let payload = Tutil.body 20_000 in
  send_all w conn [ payload ];
  Tutil.check_str "in-order despite reordering" ("warm." ^ payload)
    (Buffer.contents received);
  Alcotest.(check bool) "receiver buffered out-of-order segments" true
    (Stream.stat s1 "rx-ooo" > 0)

let duplication_exactly_once () =
  let w = World.create () in
  let s0, _, received = setup w in
  let conn = Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1)) in
  send_all w conn [ "warm." ];
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  let payload = Tutil.body 10_000 in
  send_all w conn [ payload ];
  Tutil.check_str "exactly once" ("warm." ^ payload) (Buffer.contents received)

let breaks_when_peer_gone () =
  let w = World.create () in
  let s0, _, _ = setup w in
  let conn = Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1)) in
  send_all w conn [ "warm." ];
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Drop ]));
  let broke =
    Tutil.run_in w (fun () ->
        match
          Stream.send conn (Msg.of_string (Tutil.body 20_000));
          Stream.flush conn
        with
        | () -> false
        | exception Rpc.Stream.Broken -> true)
  in
  Alcotest.(check bool) "stream breaks after retries" true broke;
  Alcotest.(check bool) "send on broken stream raises" true
    (Tutil.run_in w (fun () ->
         match Stream.send conn (Msg.of_string "more") with
         | () -> false
         | exception Rpc.Stream.Broken -> true))

let bidirectional () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let s0 =
    Stream.create ~host:n0.World.host ~lower:(Netproto.Vip.proto n0.World.vip)
  in
  let s1 =
    Stream.create ~host:n1.World.host ~lower:(Netproto.Vip.proto n1.World.vip)
  in
  let got0 = Buffer.create 64 and got1 = Buffer.create 64 in
  Stream.on_receive s0 (fun ~peer:_ c -> Buffer.add_string got0 (Msg.to_string c));
  Stream.on_receive s1 (fun ~peer:_ c -> Buffer.add_string got1 (Msg.to_string c));
  Tutil.run_in w (fun () ->
      let c01 = Stream.connect s0 ~peer:n1.World.host.Host.ip in
      Stream.send c01 (Msg.of_string "ping from 0");
      Stream.flush c01);
  Tutil.run_in w (fun () ->
      let c10 = Stream.connect s1 ~peer:n0.World.host.Host.ip in
      Stream.send c10 (Msg.of_string "pong from 1");
      Stream.flush c10);
  Tutil.check_str "0 -> 1" "ping from 0" (Buffer.contents got1);
  Tutil.check_str "1 -> 0" "pong from 1" (Buffer.contents got0)

let same_code_over_ip_and_vip () =
  (* The section 5 point: unlike TCP, STREAM has no compiled-in
     dependency on IP, so it runs over VIP (and the local ethernet
     path) untouched. *)
  List.iter
    (fun lower ->
      let w = World.create () in
      let s0, _, received = setup ~lower w in
      let conn =
        Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1))
      in
      let payload = Tutil.body 8_000 in
      send_all w conn [ payload ];
      Tutil.check_str "transfer ok" payload (Buffer.contents received))
    [ `Ip; `Vip ];
  (* and over VIP the local stream actually used the ethernet path *)
  let w = World.create () in
  let s0, _, _ = setup ~lower:`Vip w in
  let conn = Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1)) in
  send_all w conn [ Tutil.body 4000 ];
  Alcotest.(check bool) "ethernet path" true
    (Tutil.stat (Netproto.Vip.proto (World.node w 0).World.vip) "tx-eth" > 0);
  Tutil.check_int "IP untouched" 0
    (Tutil.stat (Netproto.Ip.proto (World.node w 0).World.ip) "tx")

(* Sends chunks of [sizes] bytes through mild random faults seeded by
   [seed]; true when the receiver got exactly the bytes sent. *)
let intact_under_faults (seed, sizes) =
  let w = World.create ~seed () in
  let s0, _, received = setup w in
  let conn =
    Tutil.run_in w (fun () -> Stream.connect s0 ~peer:(World.ip_of w 1))
  in
  (* warm, then mild random faults *)
  send_all w conn [ "w" ];
  let rng = Random.State.make [| seed |] in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         match Random.State.int rng 12 with
         | 0 -> [ Wire.Drop ]
         | 1 -> [ Wire.Duplicate ]
         | 2 -> [ Wire.Delay 0.002 ]
         | _ -> []));
  let chunks = List.map Tutil.body sizes in
  send_all w conn chunks;
  String.equal (Buffer.contents received) ("w" ^ String.concat "" chunks)

let prop_integrity_random_chunks_and_faults =
  Tutil.qtest ~count:25 "byte stream intact under random chunks + faults"
    QCheck.(pair (int_bound 1000) (list_of_size (Gen.int_range 1 6) (int_range 1 4000)))
    intact_under_faults

let lost_segment_after_ack_race () =
  (* An ack that empties the queue while a retransmission timer is
     being scheduled left [rto_timer] naming a dead timer, so the next
     send armed none and its lost segment was never resent: the sender
     hung in [flush]. *)
  Alcotest.(check bool) "intact" true
    (intact_under_faults (14, [ 3386; 3006; 2975 ]))

let () =
  Alcotest.run "stream"
    [
      ( "transfer",
        [
          Alcotest.test_case "simple in-order" `Quick simple_transfer;
          Alcotest.test_case "50 KB, many segments" `Quick large_transfer_segments;
          Alcotest.test_case "window blocks sender" `Quick window_blocks_sender;
          Alcotest.test_case "bidirectional" `Quick bidirectional;
          Alcotest.test_case "IP and VIP, unchanged" `Quick same_code_over_ip_and_vip;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "loss recovered" `Quick loss_recovered;
          Alcotest.test_case "reorder recovered" `Quick reorder_recovered;
          Alcotest.test_case "duplication: exactly once" `Quick
            duplication_exactly_once;
          Alcotest.test_case "breaks when peer gone" `Quick breaks_when_peer_gone;
          prop_integrity_random_chunks_and_faults;
          Alcotest.test_case "timer armed after an ack race" `Quick
            lost_segment_after_ack_race;
        ] );
    ]
