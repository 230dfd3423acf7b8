(* Wall-clock microbenchmarks (Bechamel) of the infrastructure itself:
   one procedure call per layer crossing, message push/pop, header
   codecs, blocking on a semaphore or a busy CPU, a frame from host to
   host, FRAGMENT's split and reassembly, one REPLICA call.  The
   paper's tables and figures, in virtual time, come from [xkrpc exp
   all] ([--json FILE] for the machine-readable rows). *)

open Xkernel

let pr = Printf.printf

let microbench () =
  pr "\n=== Wall-clock microbenchmarks (Bechamel; real ns, not simulated) ===\n%!";
  let open Bechamel in
  let open Toolkit in
  (* Every row is also run here outside Bechamel, to count the minor
     words one run allocates: Bechamel's [minor_allocated] reads
     [Gc.quick_stat], which OCaml 5 brings up to date only at a minor
     collection. *)
  let runs = ref [] in
  let row ~name f =
    let run = Staged.unstage f in
    runs := (name, fun () -> ignore (Sys.opaque_identity (run ()))) :: !runs;
    Test.make ~name f
  in
  (* A chain of [n] trivial protocols on a zero-cost machine: the real
     price of one layer crossing in this infrastructure. *)
  let make_chain n =
    let sim = Sim.create () in
    let host =
      Host.create sim ~name:"bench" ~ip:(Addr.Ip.v 10 9 9 9)
        ~eth:(Addr.Eth.v 42) ~profile:Machine.zero_cost ()
    in
    let hits = ref 0 in
    let bottom_proto = Proto.create ~host ~name:"bottom" () in
    let bottom =
      Proto.make_session bottom_proto
        {
          Proto.push = (fun _ -> incr hits);
          pop = (fun _ -> ());
          s_control = (fun _ -> Control.Unsupported);
          close = (fun () -> ());
        }
    in
    let rec wrap k sess =
      if k = 0 then sess
      else begin
        let p = Proto.create ~host ~name:(Printf.sprintf "layer%d" k) () in
        let s =
          Proto.make_session p
            {
              Proto.push = (fun msg -> Proto.push sess msg);
              pop = (fun _ -> ());
              s_control = (fun _ -> Control.Unsupported);
              close = (fun () -> ());
            }
        in
        wrap (k - 1) s
      end
    in
    wrap n bottom
  in
  let crossing n =
    let top = make_chain n in
    let msg = Msg.of_string "x" in
    row ~name:(Printf.sprintf "push through %2d layers" n)
      (Staged.stage (fun () -> Proto.push top msg))
  in
  let msg_ops =
    let m = Msg.fill 1024 'a' in
    [
      row ~name:"msg push+drop 36B header"
        (Staged.stage (fun () ->
             ignore (Msg.drop (Msg.push m (String.make 36 'h')) 36)));
      row ~name:"msg split+append 1KB"
        (Staged.stage (fun () -> ignore (Msg.append (fst (Msg.split m 512)) m)));
      row ~name:"SPRITE_HDR encode + read"
        (Staged.stage
           (let module H = Rpc.Wire_fmt.Sprite in
            let clnt = Addr.Ip.v 10 0 0 1 and srvr = Addr.Ip.v 10 0 0 2 in
            fun () ->
              let m =
                Msg.of_string
                  (H.encode ~flags:1 ~clnt ~srvr ~channel:1 ~seq:7 ~num:1
                     ~mask:1 ~command:3 ~boot_id:1 ~len:0 ~off:0)
              in
              ignore
                (Sys.opaque_identity
                   (H.flags m + Addr.Ip.to_int (H.clnt_host m)
                  + Addr.Ip.to_int (H.srvr_host m) + H.channel m
                  + H.sequence_num m + H.num_frags m + H.frag_mask m
                  + H.command m + H.boot_id m + H.data1_sz m))));
      row ~name:"CHANNEL header encode + read"
        (Staged.stage
           (let module C = Rpc.Wire_fmt.Channel in
            fun () ->
              let m =
                Msg.of_string
                  (C.encode ~flags:Rpc.Wire_fmt.Flags.request ~channel:3
                     ~proto:Rpc.Select.proto_num ~seq:7 ~error:0 ~boot_id:1
                     ~deadline_us:(-1))
              in
              ignore
                (Sys.opaque_identity
                   (C.header_len m + C.flags m + C.channel m
                  + C.protocol_num m + C.sequence_num m + C.error m
                  + C.boot_id m + C.deadline_us m))));
      row ~name:"FRAGMENT header encode + read"
        (Staged.stage
           (let module F = Rpc.Wire_fmt.Fragment in
            let clnt = Addr.Ip.v 10 0 0 1 and srvr = Addr.Ip.v 10 0 0 2 in
            fun () ->
              let m =
                Msg.of_string
                  (F.encode ~typ:F.typ_data ~clnt ~srvr ~proto:93 ~seq:7
                     ~num:1 ~mask:1 ~len:22)
              in
              ignore
                (Sys.opaque_identity
                   (F.typ m + Addr.Ip.to_int (F.clnt_host m)
                  + Addr.Ip.to_int (F.srvr_host m) + F.protocol_num m
                  + F.sequence_num m + F.num_frags m + F.frag_mask m + F.len m))));
      row ~name:"IP checksum over 20B"
        (Staged.stage
           (let hdr = String.make 20 '\x42' in
            fun () -> ignore (Codec.ip_checksum hdr)));
    ]
  in
  (* Blocking primitives.  One run of "semaphore hand-off" wakes a fiber
     parked on a semaphore, lets it continue and park again.  "CPU
     charge, lone fiber" is the same hand-off with one uncontended
     [Machine.charge] between the wake and the park; nothing else is queued,
     so the charge's wait runs in place, and the gap between the two
     rows is its cost.  Eight fibers loop on [Machine.charge] against one
     CPU, and one run of "CPU charge, 8 contending fibers" advances the
     clock by one charge's cost, so exactly one charge completes: the
     holder's timed wait ends and it queues its next charge behind the
     other seven, whose finish times are already set.  The last charge row adds 4,096 timers that each
     re-arm 2 s out when they fire, the standing population FRAGMENT's
     discard timers kept on a busy host when it armed one per message.  The charge's own events do not
     sift past them, but the row still pays for the timers that fire.
     "event queue, 64 timers in near" is the queue's own figure: two
     fibers loop on [Sim.delay] half a period apart, so each wait is
     queued, over 64 timers that stay in the near heap (each re-arms
     0.4 s out when it fires; one fires every 6,250 runs).  One run advances
     the clock half a period: one wake is popped, its fiber continues
     directly and pushes its next wait, a push and a pop on a heap of 66
     entries plus one fiber switch. *)
  let sync_ops =
    let handoff =
      let sim = Sim.create () in
      let sem = Sim.Semaphore.create sim 0 in
      let rec waiter () =
        Sim.Semaphore.p sem;
        waiter ()
      in
      Sim.spawn sim waiter;
      Sim.run sim;
      fun () ->
        Sim.Semaphore.v sem;
        Sim.run sim
    in
    let contended_charge ~timers =
      let sim = Sim.create () in
      let m = Machine.create sim Machine.xkernel_sun3 in
      let cost = Machine.cost Machine.xkernel_sun3 Machine.Layer_crossing 0 in
      let rec rearm () = ignore (Sim.after sim 2.0 rearm) in
      for i = 1 to timers do
        ignore (Sim.after sim (2.0 *. float_of_int i /. float_of_int timers) rearm)
      done;
      for _ = 1 to 8 do
        let rec charger () =
          Machine.charge m Machine.Layer_crossing 0;
          charger ()
        in
        Sim.spawn sim charger
      done;
      fun () -> Sim.run ~until:(Sim.now sim +. cost) sim
    in
    let deep_queue =
      let sim = Sim.create () in
      let period = 2e-6 in
      let rec rearm () = ignore (Sim.after sim 0.4 rearm) in
      for i = 1 to 64 do
        ignore (Sim.after sim (0.3 +. (float_of_int i *. 1e-3)) rearm)
      done;
      for j = 0 to 1 do
        Sim.spawn sim (fun () ->
            if j = 1 then Sim.delay sim (period /. 2.);
            while true do
              Sim.delay sim period
            done)
      done;
      Sim.run ~until:period sim;
      fun () -> Sim.run ~until:(Sim.now sim +. (period /. 2.)) sim
    in
    let lone_charge =
      let sim = Sim.create () in
      let m = Machine.create sim Machine.xkernel_sun3 in
      let go = Sim.Semaphore.create sim 0 in
      let rec charger () =
        Sim.Semaphore.p go;
        Machine.charge m Machine.Layer_crossing 0;
        charger ()
      in
      Sim.spawn sim charger;
      Sim.run sim;
      fun () ->
        Sim.Semaphore.v go;
        Sim.run sim
    in
    [
      row ~name:"semaphore hand-off" (Staged.stage handoff);
      row ~name:"CPU charge, lone fiber" (Staged.stage lone_charge);
      row ~name:"CPU charge, 8 contending fibers"
        (Staged.stage (contended_charge ~timers:0));
      row ~name:"CPU charge, 4,096 pending 2 s timers"
        (Staged.stage (contended_charge ~timers:4096));
      row ~name:"event queue, 64 timers in near" (Staged.stage deep_queue);
    ]
  in
  (* One 16 KB message down through FRAGMENT on one host and up through
     FRAGMENT on another, over a lower layer that hands each fragment
     straight across: the split, 16 headers written and read, the send
     cache, the reassembly and delivery, and the timers they arm, on
     the calibrated machine.  A run drains the simulator, so the
     session's discard sweep fires inside it too. *)
  let fragment_16k =
    let sim = Sim.create () in
    let host i =
      Host.create sim ~name:(Printf.sprintf "frag%d" i) ~ip:(Addr.Ip.v 10 9 9 i)
        ~eth:(Addr.Eth.v i) ~profile:Machine.xkernel_sun3 ()
    in
    let h0 = host 1 and h1 = host 2 in
    (* A protocol whose one session pushes into [push]; it delivers
       nothing itself. *)
    let handoff ~host push =
      let p = Proto.create ~host ~name:"HANDOFF" () in
      let s =
        Proto.make_session p
          {
            Proto.push;
            pop = ignore;
            s_control = (fun _ -> Control.Unsupported);
            close = ignore;
          }
      in
      Proto.set_ops p
        {
          Proto.open_ = (fun ~upper:_ _ -> s);
          open_enable = (fun ~upper:_ _ -> ());
          open_done = (fun ~upper:_ _ -> s);
          demux = (fun ~lower:_ _ -> ());
          p_control = (fun _ -> Control.Unsupported);
        };
      (p, s)
    in
    let lower1, below1 = handoff ~host:h1 ignore in
    let f1 = Rpc.Fragment.create ~host:h1 ~lower:lower1 in
    let lower0, _ =
      handoff ~host:h0 (fun frame ->
          Proto.deliver (Rpc.Fragment.proto f1) ~lower:below1 frame)
    in
    let f0 = Rpc.Fragment.create ~host:h0 ~lower:lower0 in
    (* The protocol above FRAGMENT on either side: [handoff]'s demux
       drops what it is handed. *)
    let sink, _ = handoff ~host:h1 ignore in
    Proto.open_enable (Rpc.Fragment.proto f1) ~upper:sink
      (Part.v ~local:[ Part.Ip_proto 200 ] ());
    let body = Msg.fill 16384 'f' in
    let go = Sim.Semaphore.create sim 0 in
    Sim.spawn sim (fun () ->
        let sess =
          Proto.open_ (Rpc.Fragment.proto f0)
            ~upper:(fst (handoff ~host:h0 ignore))
            (Part.v
               ~local:[ Part.Ip h0.Host.ip; Part.Ip_proto 200 ]
               ~remotes:[ [ Part.Ip h1.Host.ip; Part.Ip_proto 200 ] ]
               ())
        in
        let rec sender () =
          Sim.Semaphore.p go;
          Proto.push sess body;
          sender ()
        in
        sender ());
    Sim.run sim;
    fun () ->
      Sim.Semaphore.v go;
      Sim.run sim
  in
  (* One 1 KB message pushed into a VIP session on one host and handed
     to the protocol above VIP on the other: VIP, ETH, the device's
     transmit ring and fiber, the wire and the receiving shepherd, on
     zero-cost machines, so the row is the simulator's own price of a
     frame.  A run drains the simulator. *)
  let frame_1k =
    let w = Netproto.World.create ~profile:Machine.zero_cost () in
    let n0 = Netproto.World.node w 0 and n1 = Netproto.World.node w 1 in
    let sink = Proto.create ~host:n1.Netproto.World.host ~name:"SINK" () in
    Proto.set_ops sink
      {
        Proto.open_ = (fun ~upper:_ _ -> invalid_arg "sink");
        open_enable = (fun ~upper:_ _ -> invalid_arg "sink");
        open_done = (fun ~upper:_ _ -> invalid_arg "sink");
        demux = (fun ~lower:_ _ -> ());
        p_control = (fun _ -> Control.Unsupported);
      };
    let vip (n : Netproto.World.node) = Netproto.Vip.proto n.Netproto.World.vip in
    Proto.open_enable (vip n1) ~upper:sink (Part.ip_enable 200);
    let body = Msg.fill 1024 'v' in
    let go = Sim.Semaphore.create w.Netproto.World.sim 0 in
    Netproto.World.spawn w (fun () ->
        let sess =
          Proto.open_ (vip n0) ~upper:sink
            (Part.ip_open ~local:n0.Netproto.World.host.Host.ip
               ~peer:n1.Netproto.World.host.Host.ip 200)
        in
        let rec sender () =
          Sim.Semaphore.p go;
          Proto.push sess body;
          sender ()
        in
        sender ());
    Netproto.World.run w;
    fun () ->
      Sim.Semaphore.v go;
      Netproto.World.run w
  in
  (* One REPLICA call over two stub endpoints that answer at once, on a
     zero-cost machine, so the row is the virtual protocol's own price:
     its attempt record, the primary leg's fiber and the timed read that
     bounds the attempt, plus the semaphore hand-off that starts each
     run (the "semaphore hand-off" row).  No hedge is armed: with every
     call taking no virtual time, the p99 that would delay it is 0. *)
  let replica_call =
    let sim = Sim.create () in
    let host =
      Host.create sim ~name:"replica" ~ip:(Addr.Ip.v 10 9 9 8)
        ~eth:(Addr.Eth.v 43) ~profile:Machine.zero_cost ()
    in
    let endpoint i =
      {
        Rpc.Select_replica.ep_addr = Addr.Ip.v 10 9 8 i;
        ep_call = (fun ?expires:_ ?shard:_ ~command:_ m -> Ok m);
      }
    in
    let r =
      Rpc.Select_replica.create ~host ~endpoints:[| endpoint 1; endpoint 2 |] ()
    in
    let go = Sim.Semaphore.create sim 0 in
    let rec caller () =
      Sim.Semaphore.p go;
      ignore (Rpc.Select_replica.call r ~command:1 Msg.empty);
      caller ()
    in
    Sim.spawn sim caller;
    Sim.run sim;
    fun () ->
      Sim.Semaphore.v go;
      Sim.run sim
  in
  (* One 64-byte datagram from a client through the switch of a
     zero-cost switched world to the server's IP: the client's IP, ETH,
     device and wire, the switch's IP receive and forward path with
     INC's miss path, and the server's side up to a sink.  The datagram
     is a FRAGMENT-CHANNEL-SELECT request for a cacheable command that
     is never answered, so every copy misses at the switch. *)
  let switched_64 =
    let module W = Netproto.World in
    let module F = Rpc.Wire_fmt.Fragment in
    let module C = Rpc.Wire_fmt.Channel in
    let module S = Rpc.Wire_fmt.Select in
    let sw =
      W.create_switched ~clients:1 ~servers:1 ~profile:Machine.zero_cost ()
    in
    let w = sw.W.sw.W.fo in
    let server = W.node w 0 and client = W.node w 1 in
    ignore
      (Rpc.Inc.install ~host:sw.W.sw_ports.(0).W.pt_host ~ip:sw.W.sw_ip
         ~cacheable:[ Rpc.Stacks.cmd_echo ] ());
    let sink = Proto.create ~host:server.W.host ~name:"SINK" () in
    Proto.set_ops sink
      {
        Proto.open_ = (fun ~upper:_ _ -> invalid_arg "sink");
        open_enable = (fun ~upper:_ _ -> invalid_arg "sink");
        open_done = (fun ~upper:_ _ -> invalid_arg "sink");
        demux = (fun ~lower:_ _ -> ());
        p_control = (fun _ -> Control.Unsupported);
      };
    let ip (n : W.node) = Netproto.Ip.proto n.W.ip in
    Proto.open_enable (ip server) ~upper:sink
      (Part.ip_enable Rpc.Fragment.proto_num);
    let body = String.make (64 - F.bytes - C.bytes - S.bytes) 'q' in
    let datagram =
      Msg.of_string
        (F.encode ~typ:F.typ_data ~clnt:client.W.host.Host.ip
           ~srvr:server.W.host.Host.ip ~proto:Rpc.Channel.proto_num ~seq:1
           ~num:1 ~mask:1
           ~len:(C.bytes + S.bytes + String.length body)
        ^ C.encode ~flags:Rpc.Wire_fmt.Flags.request ~channel:0 ~proto:1
            ~seq:1 ~error:0 ~boot_id:1 ~deadline_us:(-1)
        ^ S.encode ~typ:S.typ_request ~command:Rpc.Stacks.cmd_echo ~status:0
        ^ body)
    in
    let go = Sim.Semaphore.create w.W.sim 0 in
    W.spawn w (fun () ->
        let sess =
          Proto.open_ (ip client) ~upper:sink
            (Part.ip_open ~local:client.W.host.Host.ip
               ~peer:server.W.host.Host.ip Rpc.Fragment.proto_num)
        in
        let rec sender () =
          Sim.Semaphore.p go;
          Proto.push sess datagram;
          sender ()
        in
        sender ());
    W.run w;
    fun () ->
      Sim.Semaphore.v go;
      W.run w
  in
  let layer_ops =
    [
      row ~name:"1 KB frame, host to host (ETH+VIP+wire)"
        (Staged.stage frame_1k);
      row ~name:"FRAGMENT 16 KB send + reassemble" (Staged.stage fragment_16k);
      row ~name:"REPLICA call, 2 stub endpoints"
        (Staged.stage replica_call);
      row ~name:"64 B datagram through the switch (IP+INC)"
        (Staged.stage switched_64);
    ]
  in
  let tests =
    Test.make_grouped ~name:"xkernel"
      ([ crossing 1; crossing 5; crossing 10 ] @ msg_ops @ sync_ops @ layer_ops)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let words_per_run run =
    let n = 2_000 in
    run ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      run ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let words =
    List.map (fun (name, run) -> ("xkernel/" ^ name, words_per_run run)) !runs
  in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
        in
        (name, est, List.assoc name words) :: acc)
      results []
    |> List.sort compare
  in
  pr "%-48s %9s %11s\n" "" "ns/run" "words/run";
  List.iter (fun (name, ns, w) -> pr "%-48s %9.1f %11.2f\n" name ns w) rows;
  pr
    "\n(A layer crossing adds only a handful of ns of real work - the\n\
    \ x-kernel claim that a layer costs one procedure call.)\n"

(* No options: a misspelled flag exits 2 instead of running the whole
   set of benchmarks. *)
let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (takes no arguments)";
    exit 2
  end;
  pr "RPC in the x-Kernel: infrastructure microbenchmarks\n";
  pr "(the paper's tables and figures: xkrpc exp all [--json FILE])\n";
  microbench ()
