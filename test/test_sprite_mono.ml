open Xkernel
module World = Netproto.World
module M = Rpc.Sprite_mono

(* M.RPC-VIP with counting handlers on node 1. *)
let setup ?(lower = `Vip) w =
  let lower_of (n : World.node) =
    match lower with
    | `Vip -> Netproto.Vip.proto n.World.vip
    | `Ip -> Netproto.Ip.proto n.World.ip
  in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let m0 = M.create ~host:n0.World.host ~lower:(lower_of n0) in
  let m1 = M.create ~host:n1.World.host ~lower:(lower_of n1) in
  let execs = ref 0 in
  M.register m1 ~command:1 (fun msg ->
      incr execs;
      Ok msg);
  M.register m1 ~command:2 (fun _ -> Error 9);
  M.serve m1 ();
  let client = ref None in
  let cl () =
    match !client with
    | Some c -> c
    | None ->
        let c = M.connect m0 ~server:n1.World.host.Host.ip () in
        client := Some c;
        c
  in
  (m0, m1, cl, execs)

let call w cl ~command msg = Tutil.run_in w (fun () -> M.call (cl ()) ~command msg)

let basic_echo () =
  let w = World.create () in
  let _, _, cl, execs = setup w in
  let r = call w cl ~command:1 (Msg.of_string "hello sprite") in
  Tutil.check_str "echo" "hello sprite" (Msg.to_string (Tutil.ok_exn "r" r));
  Tutil.check_int "one execution" 1 !execs

let error_status () =
  let w = World.create () in
  let _, _, cl, _ = setup w in
  let r = call w cl ~command:2 Msg.empty in
  Alcotest.(check bool) "remote status" true (r = Error (Rpc.Rpc_error.Remote 9))

let unknown_command () =
  let w = World.create () in
  let _, _, cl, _ = setup w in
  let r = call w cl ~command:77 Msg.empty in
  Alcotest.(check bool) "unknown command errors" true
    (match r with Error (Rpc.Rpc_error.Remote _) -> true | _ -> false)

let internal_fragmentation () =
  let w = World.create () in
  let m0, m1, cl, _ = setup w in
  let payload = Tutil.body 16384 in
  let r = call w cl ~command:1 (Msg.of_string payload) in
  Tutil.check_str "16k each way" payload (Msg.to_string (Tutil.ok_exn "r" r));
  (* 16 request packets + 16 reply packets, all carrying SPRITE_HDR. *)
  Tutil.check_int "client sent 16 fragments" 16 (Tutil.stat (M.proto m0) "tx-frag");
  Tutil.check_int "server sent 16 fragments" 16 (Tutil.stat (M.proto m1) "tx-frag")

let large_via_own_fragmentation_stays_on_ethernet () =
  (* M.RPC tells VIP its messages never exceed one fragment, so even a
     16 KB RPC travels over the ethernet path, never IP (section 3.1). *)
  let w = World.create () in
  let n0 = World.node w 0 in
  let _, _, cl, _ = setup w in
  ignore (Tutil.ok_exn "r" (call w cl ~command:1 (Msg.fill 16384 'x')));
  Tutil.check_int "VIP opened ethernet only" 1
    (Tutil.stat (Netproto.Vip.proto n0.World.vip) "open-eth");
  Tutil.check_int "nothing via IP" 0
    (Tutil.stat (Netproto.Vip.proto n0.World.vip) "tx-ip")

let at_most_once_under_duplication () =
  let w = World.create () in
  let _, _, cl, execs = setup w in
  ignore (Tutil.ok_exn "warm" (call w cl ~command:1 (Msg.of_string "w")));
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  for _ = 1 to 5 do
    ignore (Tutil.ok_exn "dup" (call w cl ~command:1 (Msg.of_string "x")))
  done;
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.5);
  Tutil.check_int "once per call" 6 !execs

let selective_retransmission () =
  (* Drop one fragment of a 8-fragment request: the client must resend
     only what the server's partial ack reports missing. *)
  let w = World.create () in
  let m0, m1, cl, execs = setup w in
  ignore (Tutil.ok_exn "warm" (call w cl ~command:1 (Msg.of_string "w")));
  let k = ref 0 in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         incr k;
         if !k = 3 then [ Wire.Drop ] else []));
  let payload = Tutil.body 8192 in
  let r = call w cl ~command:1 (Msg.of_string payload) in
  Tutil.check_str "recovered" payload (Msg.to_string (Tutil.ok_exn "r" r));
  Tutil.check_int "executed once" 2 !execs;
  Alcotest.(check bool) "server partial-acked" true (Tutil.stat (M.proto m1) "ack-tx" >= 1);
  (* Selective: far fewer retransmissions than the 8 fragments. *)
  Alcotest.(check bool)
    (Printf.sprintf "selective resend (%d)" (Tutil.stat (M.proto m0) "retransmit"))
    true
    (Tutil.stat (M.proto m0) "retransmit" >= 1 && Tutil.stat (M.proto m0) "retransmit" <= 3)

let lost_reply_cached () =
  let w = World.create () in
  let m1_stats = ref 0 in
  let _, m1, cl, execs = setup w in
  ignore (Tutil.ok_exn "warm" (call w cl ~command:1 (Msg.of_string "w")));
  let armed = ref true in
  let k = ref 0 in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         if not !armed then []
         else begin
           incr k;
           if !k = 2 then begin
             armed := false;
             [ Wire.Drop ]
           end
           else []
         end));
  let r = call w cl ~command:1 (Msg.of_string "keep me once") in
  Tutil.check_str "cached reply arrives" "keep me once"
    (Msg.to_string (Tutil.ok_exn "r" r));
  Tutil.check_int "no re-execution" 2 !execs;
  m1_stats := Tutil.stat (M.proto m1) "cached-reply-tx";
  Alcotest.(check bool) "reply came from cache" true (!m1_stats >= 1)

let timeout_surfaces () =
  let w = World.create () in
  let _, _, cl, _ = setup w in
  ignore (Tutil.ok_exn "warm" (call w cl ~command:1 (Msg.of_string "w")));
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Drop ]));
  let r = call w cl ~command:1 Msg.empty in
  Alcotest.(check bool) "timeout" true (r = Error Rpc.Rpc_error.Timeout)

let server_reboot_detected () =
  let w = World.create () in
  let n1 = World.node w 1 in
  let _, _, cl, _ = setup w in
  ignore (Tutil.ok_exn "warm" (call w cl ~command:1 (Msg.of_string "w")));
  let fired = ref false in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         if !fired then []
         else begin
           fired := true;
           Host.reboot n1.World.host;
           [ Wire.Drop ]
         end));
  let r = call w cl ~command:1 (Msg.of_string "during") in
  Alcotest.(check bool) "reboot detected" true (r = Error Rpc.Rpc_error.Rebooted)

(* The client host crashes 5 ms into a call whose procedure takes
   10 ms: the call ends [Rebooted], its caller is not left parked, and
   the next call gets its own reply, executed once. *)
let client_crash_during_call () =
  let w = World.create () in
  let n0 = World.node w 0 in
  let _, m1, cl, execs = setup w in
  M.register m1 ~command:3 (fun msg ->
      incr execs;
      Sim.delay w.World.sim 0.01;
      Ok msg);
  ignore (Tutil.ok_exn "warm" (call w cl ~command:1 (Msg.of_string "w")));
  ignore (Sim.after w.World.sim 0.005 (fun () -> Host.reboot n0.World.host));
  let first, second =
    Tutil.run_in w (fun () ->
        let first = M.call (cl ()) ~command:3 (Msg.of_string "first") in
        (first, M.call (cl ()) ~command:3 (Msg.of_string "second")))
  in
  Alcotest.(check bool) "first call ended by the crash" true
    (first = Error Rpc.Rpc_error.Rebooted);
  Tutil.check_str "second call answered" "second"
    (Msg.to_string (Tutil.ok_exn "second" second));
  Tutil.check_int "each executed once" 3 !execs

let concurrent_channel_pool () =
  let w = World.create () in
  let _, _, cl, execs = setup w in
  let done_count = ref 0 in
  (* force client creation first *)
  ignore (Tutil.ok_exn "warm" (call w cl ~command:1 Msg.empty));
  for i = 1 to 12 do
    World.spawn w (fun () ->
        ignore
          (Tutil.ok_exn "conc"
             (M.call (cl ()) ~command:1 (Msg.fill (i * 100) 'c')));
        incr done_count)
  done;
  World.run w;
  Tutil.check_int "all completed" 12 !done_count;
  Tutil.check_int "all executed" 13 !execs

let equivalent_over_ip () =
  (* Late binding: same protocol code over IP instead of VIP. *)
  let w = World.create () in
  let _, _, cl, _ = setup ~lower:`Ip w in
  let payload = Tutil.body 4000 in
  let r = call w cl ~command:1 (Msg.of_string payload) in
  Tutil.check_str "works over IP" payload (Msg.to_string (Tutil.ok_exn "r" r))

(* A frame shorter than SPRITE_HDR, handed to the server from below, is
   counted and dropped. *)
let runt_counted () =
  let w = World.create () in
  let _, m1, _, execs = setup w in
  Tutil.deliver_from_below w ~host:(World.node w 1).World.host
    ~peer:(World.ip_of w 0) (M.proto m1)
    [ Msg.of_string (String.make (Rpc.Wire_fmt.Sprite.bytes - 1) '\001') ];
  Tutil.check_int "runt" 1 (Tutil.stat (M.proto m1) "rx-runt");
  Tutil.check_int "nothing executed" 0 !execs

let header_codec_roundtrip =
  let gen =
    QCheck.make
      QCheck.Gen.(
        tup4 (int_bound 0xffff) (int_bound 0xffff) (int_bound 0xffffffff)
          (int_bound 0xffff))
  in
  Tutil.qtest "SPRITE_HDR codec roundtrip" gen (fun (flags, chan, seq, cmd) ->
      let module H = Rpc.Wire_fmt.Sprite in
      let clnt = Addr.Ip.v 10 0 0 1 and srvr = Addr.Ip.v 10 0 0 2 in
      let m =
        Msg.of_string
          (H.encode ~flags ~clnt ~srvr ~channel:chan ~seq ~num:4 ~mask:0x8
             ~command:cmd ~boot_id:77 ~len:123 ~off:45)
      in
      H.flags m = flags
      && Addr.Ip.equal (H.clnt_host m) clnt
      && Addr.Ip.equal (H.srvr_host m) srvr
      && H.channel m = chan && H.sequence_num m = seq && H.num_frags m = 4
      && H.frag_mask m = 0x8 && H.command m = cmd && H.boot_id m = 77
      && H.data1_sz m = 123)

let () =
  Alcotest.run "sprite_mono"
    [
      ( "calls",
        [
          Alcotest.test_case "basic echo" `Quick basic_echo;
          Alcotest.test_case "error status" `Quick error_status;
          Alcotest.test_case "unknown command" `Quick unknown_command;
          Alcotest.test_case "concurrent channel pool" `Quick concurrent_channel_pool;
          Alcotest.test_case "over IP (late binding)" `Quick equivalent_over_ip;
          Alcotest.test_case "runt counted" `Quick runt_counted;
          header_codec_roundtrip;
        ] );
      ( "fragmentation",
        [
          Alcotest.test_case "16k = 16 packets each way" `Quick internal_fragmentation;
          Alcotest.test_case "stays on ethernet under VIP" `Quick
            large_via_own_fragmentation_stays_on_ethernet;
          Alcotest.test_case "selective retransmission" `Quick selective_retransmission;
        ] );
      ( "at-most-once",
        [
          Alcotest.test_case "duplication" `Quick at_most_once_under_duplication;
          Alcotest.test_case "lost reply cached" `Quick lost_reply_cached;
          Alcotest.test_case "timeout" `Quick timeout_surfaces;
          Alcotest.test_case "server reboot" `Quick server_reboot_detected;
          Alcotest.test_case "client crash during a call" `Quick
            client_crash_during_call;
        ] );
    ]
