(* STREAM over VIP: the stream-oriented composition of section 5.

   The paper explains why TCP cannot sit on VIP — it reads the IP
   header's length field and checksums across it.  STREAM carries its
   own length field, so the same code runs over IP or VIP; over VIP a
   local transfer stays on the raw ethernet path with no IP header on
   any packet.

   Run with:  dune exec examples/stream_transfer.exe *)

open Xkernel
module World = Netproto.World
module Stream = Rpc.Stream

let transfer ~label ~lower_of ~drop =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let s0 = Stream.create ~host:n0.World.host ~lower:(lower_of n0) in
  let s1 = Stream.create ~host:n1.World.host ~lower:(lower_of n1) in
  let received = Buffer.create 4096 in
  Stream.on_receive s1 (fun ~peer:_ chunk ->
      Buffer.add_string received (Msg.to_string chunk));
  let payload = String.init 65536 (fun i -> Char.chr (32 + (i mod 95))) in
  World.spawn w (fun () ->
      let conn = Stream.connect s0 ~peer:n1.World.host.Host.ip in
      (* lose frames mid-transfer; go-back-N recovers *)
      Wire.set_drop_rate w.World.wire drop;
      let t0 = Sim.now w.World.sim in
      Stream.send conn (Msg.of_string payload);
      Stream.flush conn;
      let dt = Sim.now w.World.sim -. t0 in
      Printf.printf "%-14s 64 KB in %6.1f ms (%.0f kB/s), %d segments, %d retransmitted — %s\n"
        label (dt *. 1e3)
        (65536. /. dt /. 1000.)
        (Stream.stat s0 "seg-tx")
        (Stream.stat s0 "retransmit")
        (if Buffer.contents received = payload then "intact" else "CORRUPT"));
  World.run w;
  w

let () =
  print_endline "One STREAM implementation, three delivery substrates:\n";
  let w_vip =
    transfer ~label:"over VIP" ~drop:0.
      ~lower_of:(fun (n : World.node) -> Netproto.Vip.proto n.World.vip)
  in
  let _ =
    transfer ~label:"over IP" ~drop:0.
      ~lower_of:(fun (n : World.node) -> Netproto.Ip.proto n.World.ip)
  in
  let _ =
    transfer ~label:"VIP + 3% loss" ~drop:0.03
      ~lower_of:(fun (n : World.node) -> Netproto.Vip.proto n.World.vip)
  in
  let vip0 = (World.node w_vip 0).World.vip in
  Printf.printf
    "\nOver VIP the whole 64 KB travelled the raw ethernet path: VIP sent %d\n\
     frames that way and the IP protocol object transmitted %d datagrams.\n\
     TCP could not do this (section 5: it depends on the IP header);\n\
     STREAM can, because its only dependency on the layer below is the\n\
     uniform interface.\n"
    (Control.int_exn (Proto.control (Netproto.Vip.proto vip0) (Control.Get_stat "tx-eth")))
    (Control.int_exn
       (Proto.control (Netproto.Ip.proto (World.node w_vip 0).World.ip)
          (Control.Get_stat "tx")))
