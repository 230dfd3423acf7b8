open Xkernel
module World = Netproto.World
module Stacks = Rpc.Stacks
module Measure = Rpc.Measure

(* Integration: every measured configuration completes RPCs correctly,
   and the paper's qualitative performance claims hold. *)

let all_builders =
  [
    ("M.RPC-ETH", fun w -> Stacks.mrpc w ~lower:Stacks.L_eth);
    ("M.RPC-IP", fun w -> Stacks.mrpc w ~lower:Stacks.L_ip);
    ("M.RPC-VIP", fun w -> Stacks.mrpc w ~lower:Stacks.L_vip);
    ("L.RPC-VIP", fun w -> Stacks.lrpc w);
    ("SELECT-CHANNEL-VIPsize", Stacks.lrpc_vip_size);
  ]

let every_config_echoes () =
  List.iter
    (fun (name, mk) ->
      let w = World.create () in
      let e = mk w in
      let payload = Tutil.body 3000 in
      let r =
        Tutil.run_in w (fun () ->
            e.Stacks.call ~command:Stacks.cmd_echo (Msg.of_string payload))
      in
      Tutil.check_str (name ^ " echoes 3k") payload
        (Msg.to_string (Tutil.ok_exn name r)))
    all_builders

let every_config_null_call () =
  List.iter
    (fun (name, mk) ->
      let w = World.create () in
      let e = mk w in
      let r =
        Tutil.run_in w (fun () -> e.Stacks.call ~command:Stacks.cmd_null Msg.empty)
      in
      Alcotest.(check bool) (name ^ " null ok") true
        (match r with Ok m -> Msg.length m = 0 | Error _ -> false))
    all_builders

(* Stacks' standard command 3 sleeps for the microseconds its first four
   bytes name, then echoes. *)
let cmd_sleep = 3

let sleep_for us =
  let b = Bytes.create 4 in
  Codec.set_u32 b 0 us;
  Msg.of_string (Bytes.to_string b)

let outcome = function
  | Ok m -> "Ok " ^ String.escaped (Msg.to_string m)
  | Error e -> "Error " ^ Rpc.Rpc_error.to_string e

(* Runs [script] on a fresh two-host world built by [mk]; returns each
   call's outcome and how many procedures the server ran. *)
let scenario mk script =
  Stats.reset_registry ();
  let w = World.create () in
  let e = mk w in
  let outcomes = Tutil.run_in w (fun () -> script w e) in
  let executions =
    List.fold_left
      (fun acc (name, counters) ->
        if String.starts_with ~prefix:"h0.1/" name then
          acc + Option.value (List.assoc_opt "handled" counters) ~default:0
        else acc)
      0 (Stats.dump ())
  in
  (outcomes, executions)

(* Semantically equivalent services: same inputs, same outputs,
   different wire protocols.  The at-most-once rule is one module under
   both, so a slow procedure and a client crash end the same way too:
   the same outcome and reply per call, the same number of executions.
   The delays stay clear of both retry windows (about 0.4 s), which
   differ between the two. *)
let mono_and_layered_equivalent () =
  let call e ~command msg = outcome (e.Stacks.call ~command msg) in
  let sizes = [ 0; 1; 1024; 5000; 16000 ] in
  let echoes _ e =
    List.map
      (fun size -> call e ~command:Stacks.cmd_echo (Msg.of_string (Tutil.body size)))
      sizes
  and slow _ e =
    [
      call e ~command:cmd_sleep (sleep_for 1_000_000);
      call e ~command:Stacks.cmd_echo (Msg.of_string "after");
      call e ~command:cmd_sleep (sleep_for 50_000);
    ]
  and client_crash w e =
    let first = call e ~command:Stacks.cmd_echo (Msg.of_string "warm") in
    let client = (World.node w 0).World.host in
    ignore (Sim.after w.World.sim 0.005 (fun () -> Host.reboot client));
    let crashed = call e ~command:cmd_sleep (sleep_for 10_000) in
    [ first; crashed; call e ~command:Stacks.cmd_echo (Msg.of_string "again") ]
  in
  List.iter
    (fun (name, script, expected) ->
      let mono = scenario (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip) script in
      let layered = scenario (fun w -> Stacks.lrpc w) script in
      Alcotest.(check (pair (list string) int))
        (name ^ ": M.RPC outcomes and executions") expected mono;
      Alcotest.(check (pair (list string) int)) (name ^ ": L.RPC agrees") mono
        layered)
    [
      ( "echoes",
        echoes,
        ( List.map (fun size -> "Ok " ^ String.escaped (Tutil.body size)) sizes,
          List.length sizes ) );
      ( "slow procedure",
        slow,
        ( [ "Error timeout"; "Ok after"; "Ok " ^ String.escaped "\000\000\195P" ],
          3 ) );
      ( "client crash",
        client_crash,
        ([ "Ok warm"; "Error server rebooted"; "Ok again" ], 3) );
    ]

let layered_under_loss_and_dup () =
  (* End-to-end correctness of the full layered stack under a nasty
     wire: random drops, duplicates and reordering. *)
  let w = World.create ~seed:3 () in
  let e = Stacks.lrpc w in
  (* warm up cleanly, then make the wire nasty *)
  ignore
    (Tutil.run_in w (fun () -> e.Stacks.call ~command:Stacks.cmd_null Msg.empty));
  let rng = Random.State.make [| 99 |] in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         match Random.State.int rng 12 with
         | 0 -> [ Wire.Drop ]
         | 1 -> [ Wire.Duplicate ]
         | 2 -> [ Wire.Delay 0.001 ]
         | _ -> []));
  let payload = Tutil.body 8000 in
  Tutil.run_in w (fun () ->
      for _ = 1 to 10 do
        match e.Stacks.call ~command:Stacks.cmd_echo (Msg.of_string payload) with
        | Ok r -> Tutil.check_str "intact under faults" payload (Msg.to_string r)
        | Error Rpc.Rpc_error.Timeout -> () (* legitimate under heavy loss *)
        | Error e -> Alcotest.failf "unexpected: %s" (Rpc.Rpc_error.to_string e)
      done)

(* Exact simulator cost: events processed per call, measured inside
   one fiber after 5 warm-up null calls.  Event counts do not depend on
   the compiler or the host, so any change here is a change in what the
   stack does per call; update a figure only when that is the intent. *)
let events_per_call_exact () =
  let two_hosts mk () =
    let w = World.create () in
    (w, (mk w).Stacks.call)
  in
  List.iter
    (fun (name, mk, null_100, echo_10) ->
      let w, call = mk () in
      let sim = w.World.sim in
      let calls n command payload =
        let before = Sim.processed sim in
        for _ = 1 to n do
          ignore (Tutil.ok_exn name (call ~command payload))
        done;
        Sim.processed sim - before
      in
      let null, echo =
        Tutil.run_in w (fun () ->
            ignore (calls 5 Stacks.cmd_null Msg.empty);
            let null = calls 100 Stacks.cmd_null Msg.empty in
            (null, calls 10 Stacks.cmd_echo (Msg.fill 16000 'b')))
      in
      Tutil.check_int (name ^ ": events, 100 null calls") null_100 null;
      Tutil.check_int (name ^ ": events, 10 echoes of 16,000 B") echo_10 echo)
    (* A 16,000 B echo queues frames behind each other on the wire and
       charges behind each other on a CPU.  Each such hold is one timed
       wait to its known finish (2 events), where a semaphore hand-off
       took a third event: these rows fell by 1,600-1,920 when the CPU
       and the wire became FIFO servers.  A null call never queues. *)
    [
      ("L.RPC-VIP", two_hosts (fun w -> Stacks.lrpc w), 9900, 8828);
      ( "M.RPC-VIP",
        two_hosts (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip),
        6500,
        8430 );
      ("SELECT-CHANNEL-VIPsize", two_hosts Stacks.lrpc_vip_size, 7900, 7632);
      (* Five stations on one wire, and the three a frame is not
         addressed to cost no event: the same counts as two hosts. *)
      ( "L.RPC-VIP fan-in, 4 clients",
        (fun () ->
          let fi = World.create_fanin ~clients:4 () in
          (fi.World.fan, (Stacks.lrpc_fanin fi).Stacks.fan_call 0)),
        9900,
        8828 );
    ]

(* --- the paper's shape claims, asserted --- *)

let lat mk =
  let w = World.create () in
  Measure.latency w (mk w)

let vip_overhead_negligible () =
  let eth = lat (fun w -> Stacks.mrpc w ~lower:Stacks.L_eth) in
  let vip = lat (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip) in
  Alcotest.(check bool)
    (Printf.sprintf "VIP (%.2f) within 0.1ms of ETH (%.2f)" vip eth)
    true
    (vip -. eth < 0.1 && vip >= eth)

let ip_penalty_significant () =
  let eth = lat (fun w -> Stacks.mrpc w ~lower:Stacks.L_eth) in
  let ip = lat (fun w -> Stacks.mrpc w ~lower:Stacks.L_ip) in
  let penalty = ip -. eth in
  Alcotest.(check bool)
    (Printf.sprintf "IP penalty %.2fms in [0.2, 0.6]" penalty)
    true
    (penalty > 0.2 && penalty < 0.6)

let layering_costs_something_but_not_much () =
  let mono = lat (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip) in
  let layered = lat (fun w -> Stacks.lrpc w) in
  let penalty = layered -. mono in
  Alcotest.(check bool)
    (Printf.sprintf "layering penalty %.2fms in (0, 0.5)" penalty)
    true
    (penalty > 0. && penalty < 0.5)

let vip_size_recovers_monolithic_latency () =
  (* Section 4.3: bypassing FRAGMENT recovers M.RPC latency. *)
  let mono = lat (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip) in
  let layered = lat (fun w -> Stacks.lrpc w) in
  let bypass = lat Stacks.lrpc_vip_size in
  Alcotest.(check bool)
    (Printf.sprintf "bypass (%.2f) < layered (%.2f)" bypass layered)
    true (bypass < layered);
  Alcotest.(check bool)
    (Printf.sprintf "bypass (%.2f) within 0.15ms of mono (%.2f)" bypass mono)
    true
    (Float.abs (bypass -. mono) < 0.15)

let vip_size_still_handles_bulk () =
  (* The bypass must not break large messages: they go via FRAGMENT. *)
  let w = World.create () in
  let e = Stacks.lrpc_vip_size w in
  let payload = Tutil.body 16000 in
  let r =
    Tutil.run_in w (fun () ->
        e.Stacks.call ~command:Stacks.cmd_echo (Msg.of_string payload))
  in
  Tutil.check_str "16k through fig 3(b)" payload (Msg.to_string (Tutil.ok_exn "r" r))

let throughputs_comparable () =
  (* Both versions saturate the controller: within 10% of each other. *)
  let tput mk =
    let w = World.create () in
    (Measure.row w (mk w)).Measure.throughput_kbs
  in
  let mono = tput (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip) in
  let layered = tput (fun w -> Stacks.lrpc w) in
  Alcotest.(check bool)
    (Printf.sprintf "mono %.0f vs layered %.0f kB/s" mono layered)
    true
    (Float.abs (mono -. layered) /. mono < 0.10)

let fragment_handles_packets_uppers_handle_messages () =
  (* Section 4.2's CPU argument: for a 16 KB message FRAGMENT handles 16
     packets but CHANNEL and SELECT handle one message. *)
  let w = World.create () in
  let n0 = World.node w 0 in
  let frag =
    Rpc.Fragment.create ~host:n0.World.host ~lower:(Netproto.Vip.proto n0.World.vip)
  in
  let chan = Rpc.Channel.create ~host:n0.World.host ~lower:(Rpc.Fragment.proto frag) () in
  let sel = Rpc.Select.create ~host:n0.World.host ~channel:chan in
  (* server side *)
  let n1 = World.node w 1 in
  let frag1 =
    Rpc.Fragment.create ~host:n1.World.host ~lower:(Netproto.Vip.proto n1.World.vip)
  in
  let chan1 = Rpc.Channel.create ~host:n1.World.host ~lower:(Rpc.Fragment.proto frag1) () in
  let sel1 = Rpc.Select.create ~host:n1.World.host ~channel:chan1 in
  Rpc.Select.register sel1 ~command:1 (fun _ -> Ok Msg.empty);
  Rpc.Select.serve sel1;
  Tutil.run_in w (fun () ->
      let cl = Rpc.Select.connect sel ~server:(World.ip_of w 1) in
      ignore (Tutil.ok_exn "16k" (Rpc.Select.call cl ~command:1 (Msg.fill 16384 'x'))));
  Tutil.check_int "FRAGMENT sent 16 packets" 16
    (Tutil.stat (Rpc.Fragment.proto frag) "tx-frag");
  Tutil.check_int "CHANNEL sent 1 request" 1
    (Tutil.stat (Rpc.Channel.proto chan) "req-tx");
  Tutil.check_int "SELECT made 1 call" 1 (Tutil.stat (Rpc.Select.proto sel) "call")

let buffer_scheme_ablation_end_to_end () =
  (* Section 5 "Potential Pitfalls": per-header allocation adds roughly
     0.4 msec per layer of round trip. *)
  let lat_with scheme =
    let profile = Machine.with_buffer_scheme scheme Machine.xkernel_sun3 in
    let w = World.create ~profile () in
    Measure.latency w (Stacks.lrpc w)
  in
  let fast = lat_with Machine.Prealloc in
  let slow = lat_with Machine.Per_header_alloc in
  Alcotest.(check bool)
    (Printf.sprintf "per-header alloc hurts: %.2f vs %.2f" slow fast)
    true
    (slow -. fast > 0.8)

let sprite_profile_slower () =
  (* The N.RPC baseline: same protocol, heavier kernel. *)
  let xk = lat (fun w -> Stacks.mrpc w ~lower:Stacks.L_eth) in
  let sprite =
    let w = World.create ~profile:Machine.sprite_kernel () in
    Measure.latency w (Stacks.mrpc w ~lower:Stacks.L_eth)
  in
  Alcotest.(check bool)
    (Printf.sprintf "native sprite (%.2f) slower than x-kernel (%.2f)" sprite xk)
    true
    (sprite > xk +. 0.5)

let () =
  Alcotest.run "stacks"
    [
      ( "integration",
        [
          Alcotest.test_case "every config: null call" `Quick every_config_null_call;
          Alcotest.test_case "every config: 3k echo" `Quick every_config_echoes;
          Alcotest.test_case "mono and layered equivalent" `Quick
            mono_and_layered_equivalent;
          Alcotest.test_case "layered stack under faults" `Quick
            layered_under_loss_and_dup;
          Alcotest.test_case "VIPsize handles bulk" `Quick vip_size_still_handles_bulk;
          Alcotest.test_case "events per call, exact" `Quick events_per_call_exact;
        ] );
      ( "shape claims",
        [
          Alcotest.test_case "VIP overhead negligible" `Quick vip_overhead_negligible;
          Alcotest.test_case "IP penalty significant" `Quick ip_penalty_significant;
          Alcotest.test_case "layering penalty bounded" `Quick
            layering_costs_something_but_not_much;
          Alcotest.test_case "VIPsize recovers monolithic latency" `Quick
            vip_size_recovers_monolithic_latency;
          Alcotest.test_case "throughputs comparable" `Quick throughputs_comparable;
          Alcotest.test_case "packet counts per layer" `Quick
            fragment_handles_packets_uppers_handle_messages;
          Alcotest.test_case "buffer management ablation" `Quick
            buffer_scheme_ablation_end_to_end;
          Alcotest.test_case "sprite kernel slower" `Quick sprite_profile_slower;
        ] );
    ]
