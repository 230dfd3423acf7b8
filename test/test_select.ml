open Xkernel
module World = Netproto.World
module Fragment = Rpc.Fragment
module Channel = Rpc.Channel
module Select = Rpc.Select

(* Full L.RPC stacks (SELECT-CHANNEL-FRAGMENT-VIP) on both nodes. *)
let setup ?(n_channels = 8) w =
  let mk (n : World.node) =
    let f = Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip) in
    let c = Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ~n_channels () in
    Select.create ~host:n.World.host ~channel:c
  in
  let sel0 = mk (World.node w 0) and sel1 = mk (World.node w 1) in
  (sel0, sel1)

let dispatch_by_command () =
  let w = World.create () in
  let sel0, sel1 = setup w in
  Select.register sel1 ~command:1 (fun _ -> Ok (Msg.of_string "one"));
  Select.register sel1 ~command:2 (fun _ -> Ok (Msg.of_string "two"));
  Select.serve sel1;
  let r1, r2 =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel0 ~server:(World.ip_of w 1) in
        ( Select.call cl ~command:1 Msg.empty,
          Select.call cl ~command:2 Msg.empty ))
  in
  Tutil.check_str "command 1" "one" (Msg.to_string (Tutil.ok_exn "c1" r1));
  Tutil.check_str "command 2" "two" (Msg.to_string (Tutil.ok_exn "c2" r2))

let unknown_command_status () =
  let w = World.create () in
  let sel0, sel1 = setup w in
  Select.serve sel1;
  let r =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel0 ~server:(World.ip_of w 1) in
        Select.call cl ~command:42 Msg.empty)
  in
  Alcotest.(check bool) "no-such-command status" true
    (r = Error (Rpc.Rpc_error.Remote Rpc.Wire_fmt.Select.status_no_command))

let handler_error_status () =
  let w = World.create () in
  let sel0, sel1 = setup w in
  Select.register sel1 ~command:1 (fun _ -> Error 7);
  Select.serve sel1;
  let r =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel0 ~server:(World.ip_of w 1) in
        Select.call cl ~command:1 Msg.empty)
  in
  Alcotest.(check bool) "handler status propagates" true
    (r = Error (Rpc.Rpc_error.Remote 7))

let arguments_and_results_roundtrip () =
  let w = World.create () in
  let sel0, sel1 = setup w in
  Select.register sel1 ~command:5 (fun req ->
      (* reverse the payload *)
      let s = Msg.to_string req in
      Ok (Msg.of_string (String.init (String.length s) (fun i ->
          s.[String.length s - 1 - i]))));
  Select.serve sel1;
  let r =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel0 ~server:(World.ip_of w 1) in
        Select.call cl ~command:5 (Msg.of_string "abcdef"))
  in
  Tutil.check_str "computed on server" "fedcba" (Msg.to_string (Tutil.ok_exn "r" r))

let large_args_and_reply () =
  let w = World.create () in
  let sel0, sel1 = setup w in
  Select.register sel1 ~command:1 (fun req -> Ok req);
  Select.serve sel1;
  let payload = Tutil.body 16000 in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel0 ~server:(World.ip_of w 1) in
        Select.call cl ~command:1 (Msg.of_string payload))
  in
  Tutil.check_str "16k each way" payload (Msg.to_string (Tutil.ok_exn "r" r))

let channel_pool_blocks () =
  (* With 2 channels, a third concurrent call must wait for a free
     channel — "it blocks if there are none available". *)
  let w = World.create () in
  let sel0, sel1 = setup ~n_channels:2 w in
  let active = ref 0 and peak = ref 0 and finished = ref 0 in
  Select.register sel1 ~command:1 (fun msg ->
      incr active;
      peak := max !peak !active;
      Sim.delay (Host.sim (World.node w 1).World.host) 0.01;
      decr active;
      Ok msg);
  Select.serve sel1;
  let cl = ref None in
  World.spawn w (fun () -> cl := Some (Select.connect sel0 ~server:(World.ip_of w 1)));
  World.run w;
  let cl = Option.get !cl in
  for _ = 1 to 4 do
    World.spawn w (fun () ->
        ignore (Tutil.ok_exn "pooled" (Select.call cl ~command:1 Msg.empty));
        incr finished)
  done;
  World.run w;
  Tutil.check_int "all completed" 4 !finished;
  Alcotest.(check bool) "never more than 2 in flight" true (!peak <= 2);
  Tutil.check_int "pool refilled" 2 (Select.free_channels cl)

let sessions_cached () =
  let w = World.create () in
  let sel0, sel1 = setup w in
  Select.register sel1 ~command:1 (fun m -> Ok m);
  Select.serve sel1;
  Tutil.run_in w (fun () ->
      let cl = Select.connect sel0 ~server:(World.ip_of w 1) in
      for _ = 1 to 20 do
        ignore (Tutil.ok_exn "r" (Select.call cl ~command:1 Msg.empty))
      done);
  (* Exactly one ARP exchange happened: everything else was cached. *)
  Tutil.check_int "one ARP request" 1
    (Tutil.stat (Netproto.Arp.proto (World.node w 0).World.arp) "request-tx")

let forwarding_select () =
  (* Three hosts: client -> forwarder -> worker.  Swapping SELECT for
     SELECT-FWD moves execution without touching CHANNEL/FRAGMENT. *)
  let w = World.create ~n:3 () in
  let mk (n : World.node) =
    let f = Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip) in
    Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ()
  in
  let ch0 = mk (World.node w 0) in
  let ch1 = mk (World.node w 1) in
  let ch2 = mk (World.node w 2) in
  let sel0 = Select.create ~host:(World.node w 0).World.host ~channel:ch0 in
  let fwd =
    Rpc.Select_fwd.create ~host:(World.node w 1).World.host ~channel:ch1
      ~delegate:(World.ip_of w 2)
  in
  Rpc.Select_fwd.serve fwd;
  let sel2 = Select.create ~host:(World.node w 2).World.host ~channel:ch2 in
  Select.register sel2 ~command:9 (fun m ->
      Ok (Msg.push m "worker:"));
  Select.serve sel2;
  let r =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel0 ~server:(World.ip_of w 1) in
        Select.call cl ~command:9 (Msg.of_string "job"))
  in
  Tutil.check_str "executed on the worker" "worker:job"
    (Msg.to_string (Tutil.ok_exn "fwd" r));
  Tutil.check_int "forwarder relayed" 1 (Rpc.Select_fwd.forwarded fwd);
  Tutil.check_int "worker handled" 1 (Tutil.stat (Select.proto sel2) "handled")

let rdgram_reliable_delivery () =
  let w = World.create () in
  let mk (n : World.node) =
    let f = Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip) in
    Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ()
  in
  let ch0 = mk (World.node w 0) and ch1 = mk (World.node w 1) in
  let rd0 = Rpc.Rdgram.create ~host:(World.node w 0).World.host ~channel:ch0 in
  let rd1 = Rpc.Rdgram.create ~host:(World.node w 1).World.host ~channel:ch1 in
  let inbox = ref [] in
  Rpc.Rdgram.listen rd1 (fun _src msg -> inbox := Msg.to_string msg :: !inbox);
  (* lose some frames: the datagram still arrives exactly once *)
  let n = ref 0 in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         incr n;
         if !n = 3 then [ Wire.Drop ] else []));
  Tutil.run_in w (fun () ->
      match Rpc.Rdgram.send rd0 ~dest:(World.ip_of w 1) (Msg.of_string "dgram") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send failed: %s" (Rpc.Rpc_error.to_string e));
  Alcotest.(check (list string)) "delivered exactly once" [ "dgram" ] !inbox

(* Frames no SELECT sends, handed to the server from below: each takes
   its branch and counter, and no procedure runs. *)
let malformed_frames_counted () =
  let w = World.create () in
  let _, sel1 = setup w in
  let ran = ref 0 in
  Select.register sel1 ~command:1 (fun m ->
      incr ran;
      Ok m);
  Select.serve sel1;
  let module S = Rpc.Wire_fmt.Select in
  let hdr typ = S.encode ~typ ~command:1 ~status:S.status_ok in
  Tutil.deliver_from_below w ~host:(World.node w 1).World.host
    ~peer:(World.ip_of w 0) (Select.proto sel1)
    (List.map Msg.of_string
       [
         "abc";
         hdr S.typ_reply;
         (* a stamped request one byte short of its stamp *)
         hdr S.typ_request_sharded ^ String.make (S.stamp_bytes - 1) '\000';
       ]);
  let stat = Tutil.stat (Select.proto sel1) in
  Tutil.check_int "runt" 1 (stat "rx-runt");
  Tutil.check_int "not a request" 1 (stat "rx-unexpected");
  Tutil.check_int "short stamp" 1 (stat "rx-malformed");
  Tutil.check_int "nothing ran" 0 !ran

(* A request SELECT drops as malformed ends its execution on the
   channel: the next call on that channel runs.  The client sends the
   malformed request straight through CHANNEL, on the one channel its
   SELECT client then uses too. *)
let malformed_request_frees_channel () =
  let module S = Rpc.Wire_fmt.Select in
  let w = World.create () in
  let mk (n : World.node) =
    let f =
      Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
    in
    Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ~n_channels:1 ()
  in
  let ch0 = mk (World.node w 0) and ch1 = mk (World.node w 1) in
  let sel0 = Select.create ~host:(World.node w 0).World.host ~channel:ch0 in
  let sel1 = Select.create ~host:(World.node w 1).World.host ~channel:ch1 in
  Select.register sel1 ~command:1 (fun m -> Ok m);
  Select.serve sel1;
  let sim = w.World.sim in
  let dropped, answered =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel0 ~server:(World.ip_of w 1) in
        let chan0 =
          Proto.open_ (Channel.proto ch0) ~upper:(Select.proto sel0)
            (Part.v
               ~local:
                 [
                   Part.Ip (World.ip_of w 0);
                   Part.Ip_proto Select.proto_num;
                   Part.Channel 0;
                 ]
               ~remotes:[ [ Part.Ip (World.ip_of w 1); Part.Ip_proto Select.proto_num ] ]
               ())
        in
        (* a stamped request without its stamp *)
        let bad =
          Msg.of_string (S.encode ~typ:S.typ_request_sharded ~command:1 ~status:0)
        in
        let dropped =
          Channel.call ~expires:(Sim.now sim +. 0.05) ch0 chan0 bad
        in
        (dropped, Select.call cl ~command:1 (Msg.of_string "next")))
  in
  Alcotest.(check bool) "the malformed call gets no answer" true
    (dropped = Error Rpc.Rpc_error.Timeout);
  Tutil.check_int "dropped as malformed" 1
    (Tutil.stat (Select.proto sel1) "rx-malformed");
  Tutil.check_str "the next call on the channel runs" "next"
    (Msg.to_string (Tutil.ok_exn "next" answered))

let () =
  Alcotest.run "select"
    [
      ( "dispatch",
        [
          Alcotest.test_case "by command" `Quick dispatch_by_command;
          Alcotest.test_case "unknown command" `Quick unknown_command_status;
          Alcotest.test_case "handler error status" `Quick handler_error_status;
          Alcotest.test_case "args/results roundtrip" `Quick
            arguments_and_results_roundtrip;
          Alcotest.test_case "16k args and reply" `Quick large_args_and_reply;
          Alcotest.test_case "malformed frames counted" `Quick
            malformed_frames_counted;
          Alcotest.test_case "malformed request frees its channel" `Quick
            malformed_request_frees_channel;
        ] );
      ( "channels",
        [
          Alcotest.test_case "pool blocks when exhausted" `Quick channel_pool_blocks;
          Alcotest.test_case "sessions cached" `Quick sessions_cached;
        ] );
      ( "alternative selectors",
        [
          Alcotest.test_case "forwarding SELECT" `Quick forwarding_select;
          Alcotest.test_case "reliable datagram on CHANNEL" `Quick
            rdgram_reliable_delivery;
        ] );
    ]
