(* Scripted fault injection: chaos plans driving CHANNEL's fault
   tolerance — total-loss windows, partitions, mid-call server crashes,
   duplicate replies, and the determinism of a seeded plan. *)

open Xkernel
module World = Netproto.World
module Fragment = Rpc.Fragment
module Channel = Rpc.Channel

let proto_num = 90

(* CHANNEL-FRAGMENT-VIP with a counting echo server, as in
   test_channel, plus the device array a chaos plan addresses. *)
let setup ?(n_channels = 8) w =
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let mk (n : World.node) =
    let f =
      Fragment.create ~host:n.World.host
        ~lower:(Netproto.Vip.proto n.World.vip)
    in
    Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ~n_channels ()
  in
  let ch0 = mk n0 and ch1 = mk n1 in
  let executions = ref 0 in
  let up = Proto.create ~host:n1.World.host ~name:"ECHO" () in
  Proto.set_ops up
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "echo");
      open_enable = (fun ~upper:_ _ -> invalid_arg "echo");
      open_done = (fun ~upper:_ _ -> invalid_arg "echo");
      demux =
        (fun ~lower msg ->
          incr executions;
          Proto.push lower msg);
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.open_enable (Channel.proto ch1) ~upper:up
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let sess chan =
    Tutil.run_in w (fun () ->
        Proto.open_ (Channel.proto ch0)
          ~upper:(Proto.create ~host:n0.World.host ~name:"NULL" ())
          (Part.v
             ~local:
               [
                 Part.Ip n0.World.host.Host.ip;
                 Part.Ip_proto proto_num;
                 Part.Channel chan;
               ]
             ~remotes:
               [ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto proto_num ] ]
             ()))
  in
  let devices = [| n0.World.dev; n1.World.dev |] in
  (ch0, ch1, sess, executions, devices)

let total_loss_times_out () =
  (* A 100%-loss window: the call fails with Timeout after exactly
     [retries] retransmissions — no more, no fewer. *)
  let w = World.create () in
  let ch0, _, sess, _, devices = setup w in
  let s = sess 0 in
  Chaos.apply ~wire:w.World.wire ~devices
    [ { Chaos.from_t = 0.1; until_t = 60.0; spec = Chaos.Burst_loss 1.0 } ];
  let result =
    Tutil.run_in w (fun () ->
        ignore
          (Tutil.ok_exn "warm" (Channel.call ch0 s (Msg.of_string "warm")));
        Sim.delay w.World.sim 0.15;
        Channel.call ch0 s (Msg.of_string "doomed"))
  in
  Alcotest.(check bool) "times out" true (result = Error Rpc.Rpc_error.Timeout);
  Tutil.check_int "exactly retries retransmissions" 5
    (Tutil.stat (Channel.proto ch0) "retransmit")

let partition_heals () =
  (* A partition window: deliveries are suppressed (counted as
     [partitioned], not [dropped]) and the call survives the cut via
     retransmission once it heals. *)
  let w = World.create () in
  let ch0, _, sess, execs, devices = setup w in
  let s = sess 0 in
  Chaos.apply ~wire:w.World.wire ~devices
    [
      {
        Chaos.from_t = 0.05;
        until_t = 0.12;
        spec = Chaos.Partition { a = [ 0 ]; b = [ 1 ] };
      };
    ];
  let result =
    Tutil.run_in w (fun () ->
        ignore
          (Tutil.ok_exn "warm" (Channel.call ch0 s (Msg.of_string "warm")));
        Sim.delay w.World.sim 0.055;
        Channel.call ch0 s (Msg.of_string "cut"))
  in
  (match result with
  | Ok reply -> Tutil.check_str "echoed across the heal" "cut" (Msg.to_string reply)
  | Error e -> Alcotest.failf "call failed: %s" (Rpc.Rpc_error.to_string e));
  Alcotest.(check bool) "partitioned counted" true
    ((Wire.stats w.World.wire).Wire.partitioned > 0);
  Alcotest.(check bool) "retransmitted across the window" true
    (Tutil.stat (Channel.proto ch0) "retransmit" > 0);
  Tutil.check_int "executed once per call" 2 !execs

let crash_mid_call_rebooted () =
  (* The server crashes while the client is retransmitting into a
     partition: the retransmission reaches the fresh incarnation, whose
     changed boot id surfaces as [Rebooted] — the client cannot know
     whether the procedure executed. *)
  let w = World.create () in
  let n1 = World.node w 1 in
  let ch0, _, sess, _, devices = setup w in
  let s = sess 0 in
  Chaos.apply ~wire:w.World.wire ~devices
    [
      {
        Chaos.from_t = 0.05;
        until_t = 0.12;
        spec = Chaos.Partition { a = [ 0 ]; b = [ 1 ] };
      };
      { Chaos.from_t = 0.06; until_t = 0.06; spec = Chaos.Crash 1 };
    ];
  let result =
    Tutil.run_in w (fun () ->
        ignore
          (Tutil.ok_exn "warm" (Channel.call ch0 s (Msg.of_string "warm")));
        Sim.delay w.World.sim 0.055;
        Channel.call ch0 s (Msg.of_string "during-crash"))
  in
  Alcotest.(check bool) "reboot surfaces" true
    (result = Error Rpc.Rpc_error.Rebooted);
  Tutil.check_int "server on its second incarnation" 2
    n1.World.host.Host.boot_id

let crash_clears_reply_cache () =
  (* A top-level reboot (outside any fiber): the server forgets its
     at-most-once state and reply cache, and a reconnecting client
     resumes cleanly against the fresh incarnation. *)
  let w = World.create () in
  let n1 = World.node w 1 in
  let ch0, ch1, sess, execs, _devices = setup w in
  let s = sess 0 in
  ignore
    (Tutil.ok_exn "before"
       (Tutil.run_in w (fun () -> Channel.call ch0 s (Msg.of_string "a"))));
  Host.reboot n1.World.host;
  Tutil.check_int "boot id advanced" 2 n1.World.host.Host.boot_id;
  Tutil.check_int "server channels torn down" 1
    (Tutil.stat (Channel.proto ch1) "crash-reset");
  (match Tutil.run_in w (fun () -> Channel.call ch0 s (Msg.of_string "b")) with
  | Ok reply -> Tutil.check_str "resumed" "b" (Msg.to_string reply)
  | Error e -> Alcotest.failf "resume failed: %s" (Rpc.Rpc_error.to_string e));
  Tutil.check_int "both executed" 2 !execs;
  Tutil.check_int "no duplicate requests seen" 0
    (Tutil.stat (Channel.proto ch1) "dup-req")

let duplicate_reply_stale () =
  (* Every frame duplicated: the second copy of each reply arrives
     after the transaction completed and is dropped as stale, without
     corrupting channel state or re-executing anything.  CHANNEL sits
     directly on VIP here — FRAGMENT below would dedup completed
     messages itself and hide the stale path under test. *)
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let mk (n : World.node) =
    Channel.create ~host:n.World.host
      ~lower:(Netproto.Vip.proto n.World.vip) ()
  in
  let ch0 = mk n0 and ch1 = mk n1 in
  let execs = ref 0 in
  let up = Proto.create ~host:n1.World.host ~name:"ECHO" () in
  Proto.set_ops up
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "echo");
      open_enable = (fun ~upper:_ _ -> invalid_arg "echo");
      open_done = (fun ~upper:_ _ -> invalid_arg "echo");
      demux =
        (fun ~lower msg ->
          incr execs;
          Proto.push lower msg);
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.open_enable (Channel.proto ch1) ~upper:up
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let s =
    Tutil.run_in w (fun () ->
        Proto.open_ (Channel.proto ch0)
          ~upper:(Proto.create ~host:n0.World.host ~name:"NULL" ())
          (Part.v
             ~local:
               [
                 Part.Ip n0.World.host.Host.ip;
                 Part.Ip_proto proto_num;
                 Part.Channel 0;
               ]
             ~remotes:
               [ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto proto_num ] ]
             ()))
  in
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  let r1 = Tutil.run_in w (fun () -> Channel.call ch0 s (Msg.of_string "one")) in
  let r2 = Tutil.run_in w (fun () -> Channel.call ch0 s (Msg.of_string "two")) in
  (match (r1, r2) with
  | Ok a, Ok b ->
      Tutil.check_str "first echo" "one" (Msg.to_string a);
      Tutil.check_str "second echo" "two" (Msg.to_string b)
  | _ -> Alcotest.fail "duplicated frames broke the calls");
  Alcotest.(check bool) "stale replies counted" true
    (Tutil.stat (Channel.proto ch0) "stale-rx" > 0);
  Tutil.check_int "at-most-once preserved" 2 !execs

let plan_is_deterministic () =
  (* The same seeded chaos plan twice: bit-identical counters. *)
  let run () =
    let w = World.create () in
    let ch0, _, sess, execs, devices = setup w in
    let s = sess 0 in
    (* The first (warm) call finishes in ~2 ms; the loss window opens
       just after it and covers the remaining calls. *)
    Chaos.apply ~wire:w.World.wire ~devices
      [
        { Chaos.from_t = 0.004; until_t = 2.0; spec = Chaos.Burst_loss 0.3 };
        { Chaos.from_t = 0.05; until_t = 0.15; spec = Chaos.Delay_spike 0.002 };
      ];
    let oks = ref 0 and errs = ref 0 in
    Tutil.run_in w (fun () ->
        for i = 1 to 12 do
          match Channel.call ch0 s (Msg.of_string (string_of_int i)) with
          | Ok _ -> incr oks
          | Error _ -> incr errs
        done);
    let st = Wire.stats w.World.wire in
    ( !oks,
      !errs,
      !execs,
      Tutil.stat (Channel.proto ch0) "retransmit",
      st.Wire.frames,
      st.Wire.dropped,
      st.Wire.delayed,
      Sim.now w.World.sim )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical outcome, counters and clock" true (a = b);
  let oks, errs, _, retr, _, dropped, _, _ = a in
  Alcotest.(check bool) "the plan actually bit" true
    (dropped > 0 && retr > 0 && oks + errs = 12)

let invalid_plans_rejected () =
  let w = World.create () in
  let _, _, _, _, devices = setup w in
  let wires = [ ("w", w.World.wire) ] in
  let rejected plan =
    match Chaos.apply ~wires ~wire:w.World.wire ~devices plan with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "device index out of range" true
    (rejected [ { Chaos.from_t = 0.; until_t = 1.; spec = Chaos.Crash 7 } ]);
  Alcotest.(check bool) "window ends before it starts" true
    (rejected
       [ { Chaos.from_t = 1.; until_t = 0.5; spec = Chaos.Burst_loss 0.1 } ]);
  Alcotest.(check bool) "loss probability above 1" true
    (rejected
       [ { Chaos.from_t = 0.; until_t = 1.; spec = Chaos.Burst_loss 1.5 } ]);
  Alcotest.(check bool) "nonpositive flap period" true
    (rejected
       [
         {
           Chaos.from_t = 0.;
           until_t = 1.;
           spec = Chaos.Link_flap { dev = 0; period = 0. };
         };
       ]);
  Alcotest.(check bool) "negative delay spike" true
    (rejected
       [ { Chaos.from_t = 0.; until_t = 1.; spec = Chaos.Delay_spike (-1.) } ]);
  (* A NaN compares false with everything, so each check must be
     written to fail on it. *)
  let window ?(from_t = 0.) ?(until_t = 1.) spec =
    [ { Chaos.from_t; until_t; spec } ]
  in
  List.iter
    (fun (what, plan) ->
      Alcotest.(check bool) ("NaN " ^ what) true (rejected plan))
    [
      ("window start", window ~from_t:nan (Chaos.Burst_loss 0.1));
      ("window end", window ~until_t:nan (Chaos.Burst_loss 0.1));
      ("loss probability", window (Chaos.Burst_loss nan));
      ("flap period", window (Chaos.Link_flap { dev = 0; period = nan }));
      ("delay spike", window (Chaos.Delay_spike nan));
      ("wire loss probability", window (Chaos.Wire_loss { wire = "w"; p = nan }));
    ];
  Alcotest.(check bool) "the same windows, no NaN, accepted" false
    (rejected
       (List.concat
          [
            window (Chaos.Burst_loss 0.1);
            window (Chaos.Link_flap { dev = 0; period = 0.5 });
            window (Chaos.Delay_spike 0.);
            window (Chaos.Wire_loss { wire = "w"; p = 0.5 });
          ]))

let plan_to_json () =
  let plan =
    [
      {
        Chaos.from_t = 0.1;
        until_t = 0.2;
        spec = Chaos.Partition { a = [ 0 ]; b = [ 1 ] };
      };
      { Chaos.from_t = 0.3; until_t = 0.3; spec = Chaos.Crash 1 };
    ]
  in
  Tutil.check_str "schema"
    "[{\"from\":0.1,\"until\":0.2,\"spec\":\"partition\",\"a\":[0],\"b\":[1]},\
     {\"from\":0.3,\"until\":0.3,\"spec\":\"crash\",\"dev\":1}]"
    (Json.to_string (Chaos.to_json plan))

let () =
  Alcotest.run "chaos"
    [
      ( "faults",
        [
          Alcotest.test_case "total loss times out" `Quick total_loss_times_out;
          Alcotest.test_case "partition heals" `Quick partition_heals;
          Alcotest.test_case "crash mid-call: Rebooted" `Quick
            crash_mid_call_rebooted;
          Alcotest.test_case "crash clears reply cache" `Quick
            crash_clears_reply_cache;
          Alcotest.test_case "duplicate reply is stale" `Quick
            duplicate_reply_stale;
        ] );
      ( "plans",
        [
          Alcotest.test_case "deterministic" `Quick plan_is_deterministic;
          Alcotest.test_case "validation" `Quick invalid_plans_rejected;
          Alcotest.test_case "json schema" `Quick plan_to_json;
        ] );
    ]
