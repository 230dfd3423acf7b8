(* Experiment runners for every table and figure of the paper.
   Shared by bench/main.exe and the bin/xkrpc CLI. *)

open Xkernel
module World = Netproto.World

let pr = Printf.printf
let section title = pr "\n=== %s ===\n%!" title
let hr () = pr "%s\n" (String.make 78 '-')

(* --- shared row machinery ------------------------------------------------ *)

type paper_row = {
  p_lat : float option;
  p_tput : float option;
  p_incr : float option;
}

let paper ?lat ?tput ?incr () = { p_lat = lat; p_tput = tput; p_incr = incr }

let print_header () =
  pr "%-30s %18s %22s %24s\n" "Configuration" "Latency (msec)"
    "Throughput (kB/s)" "Incr. cost (msec/kB)";
  pr "%-30s %18s %22s %24s\n" "" "paper / here" "paper / here" "paper / here";
  hr ()

let opt_str f = function Some v -> Printf.sprintf f v | None -> "-"

let print_row name p (r : Measure.row) =
  pr "%-30s %8s / %-7.2f %10s / %-9.0f %12s / %-9.2f\n%!" name
    (opt_str "%.2f" p.p_lat) r.Measure.latency_ms
    (opt_str "%.0f" p.p_tput) r.throughput_kbs
    (opt_str "%.2f" p.p_incr) r.incr_cost_ms_per_kb

let measure_config ?profile mk =
  let w = World.create ?profile () in
  Measure.row w (mk w)

(* Every runner also returns its rows as JSON so bench/main and the CLI
   can emit machine-readable trajectory files alongside the tables. *)

let row_json ~table name (r : Measure.row) =
  Json.Obj
    [
      ("table", Json.Str table);
      ("config", Json.Str name);
      ("latency_ms", Json.Float r.Measure.latency_ms);
      ("throughput_kbs", Json.Float r.throughput_kbs);
      ("incr_cost_ms_per_kb", Json.Float r.incr_cost_ms_per_kb);
      ("client_cpu_ms", Json.Float r.client_cpu_ms);
    ]

let lat_json ~table name v =
  Json.Obj
    [
      ("table", Json.Str table);
      ("config", Json.Str name);
      ("latency_ms", Json.Float v);
    ]

(* --- intro comparison ---------------------------------------------------- *)

let intro () =
  section "Intro: UDP/IP user-to-user round trip (x-kernel vs SunOS 4.0)";
  let udp_lat ~profile =
    let w = World.create ~profile () in
    let pc, _ = Stacks.udp_probe w ~user_level:true in
    Measure.probe_latency w pc ~peer:(World.ip_of w 1)
  in
  let xk = udp_lat ~profile:Machine.xkernel_sun3 in
  let sunos = udp_lat ~profile:Machine.sunos_socket in
  pr "%-30s %8s / %-8s\n" "Configuration" "paper" "here";
  hr ();
  pr "%-30s %8.2f / %-8.2f\n" "UDP-IP-ETH in the x-kernel" 2.00 xk;
  pr "%-30s %8.2f / %-8.2f\n" "UDP in SunOS Release 4.0" 5.36 sunos;
  Json.Arr
    [
      lat_json ~table:"intro" "UDP-IP-ETH x-kernel" xk;
      lat_json ~table:"intro" "UDP SunOS 4.0" sunos;
    ]

(* --- Table I ------------------------------------------------------------- *)

let table1 () =
  section "Table I: Evaluating VIP";
  print_header ();
  let rows = ref [] in
  let emit name p r =
    print_row name p r;
    rows := row_json ~table:"I" name r :: !rows
  in
  (* N.RPC: the monolithic protocol under the heavier native-Sprite
     kernel cost profile (see DESIGN.md substitutions). *)
  emit "N_RPC (Sprite kernel model)"
    (paper ~lat:2.6 ~tput:700. ~incr:1.2 ())
    (measure_config ~profile:Machine.sprite_kernel (fun w ->
         Stacks.mrpc w ~lower:Stacks.L_eth));
  emit "M_RPC-ETH"
    (paper ~lat:1.73 ~tput:863. ~incr:1.04 ())
    (measure_config (fun w -> Stacks.mrpc w ~lower:Stacks.L_eth));
  emit "M_RPC-IP"
    (paper ~lat:2.10 ~tput:836. ~incr:1.05 ())
    (measure_config (fun w -> Stacks.mrpc w ~lower:Stacks.L_ip));
  emit "M_RPC-VIP"
    (paper ~lat:1.79 ~tput:860. ~incr:1.04 ())
    (measure_config (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip));
  Json.Arr (List.rev !rows)

(* --- Table II ------------------------------------------------------------ *)

let table2 () =
  section "Table II: Monolithic RPC versus Layered RPC";
  print_header ();
  let mono = measure_config (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip) in
  let layered = measure_config (fun w -> Stacks.lrpc w) in
  print_row "M_RPC-VIP" (paper ~lat:1.79 ~tput:860. ~incr:1.04 ()) mono;
  print_row "L_RPC-VIP" (paper ~lat:1.93 ~tput:839. ~incr:1.03 ()) layered;
  pr "\nCPU time per 16 KB call (client): monolithic %.2f ms, layered %.2f ms\n"
    mono.Measure.client_cpu_ms layered.Measure.client_cpu_ms;
  (* Section 4.2's note: FRAGMENT by itself reaches 865 kB/s. *)
  let w = World.create () in
  let pc, _ = Stacks.fragment_probe w in
  let points =
    Measure.probe_sweep w pc ~peer:(World.ip_of w 1)
  in
  let frag_alone =
    match points with
    | [ (size, t) ] ->
        (* the probe echoes the payload, so each direction carries [size]
           bytes in roughly half the round trip *)
        let kbs = Measure.throughput_kbs ~size (t /. 2.) in
        pr "FRAGMENT alone (paper 865 kB/s): %.0f kB/s\n" kbs;
        [
          Json.Obj
            [
              ("table", Json.Str "II");
              ("config", Json.Str "FRAGMENT alone");
              ("throughput_kbs", Json.Float kbs);
            ];
        ]
    | _ -> []
  in
  Json.Arr
    ([ row_json ~table:"II" "M_RPC-VIP" mono;
       row_json ~table:"II" "L_RPC-VIP" layered ]
    @ frag_alone)

(* --- Table III ----------------------------------------------------------- *)

let table3 () =
  section "Table III: Cost of Individual RPC Layers";
  pr "%-30s %16s %26s\n" "Configuration" "Latency (msec)"
    "Incr. cost (msec/layer)";
  pr "%-30s %16s %26s\n" "" "paper / here" "paper / here";
  hr ();
  let probe_lat mk =
    let w = World.create () in
    let pc, _ = mk w in
    Measure.probe_latency w pc ~peer:(World.ip_of w 1)
  in
  let call_lat mk =
    let w = World.create () in
    Measure.latency w (mk w)
  in
  let vip = probe_lat Stacks.vip_probe in
  let frag = probe_lat Stacks.fragment_probe in
  let chan = call_lat Stacks.channel_fragment_vip in
  let full = call_lat Stacks.lrpc in
  let rows = ref [] in
  let row name ~paper_lat ~paper_incr ~here ~prev =
    let incr =
      match prev with None -> "NA" | Some p -> Printf.sprintf "%.2f" (here -. p)
    in
    pr "%-30s %6.2f / %-7.2f %10s / %-8s\n" name paper_lat here
      (match paper_incr with None -> "NA" | Some v -> Printf.sprintf "%.2f" v)
      incr;
    let j =
      ("config", Json.Str name) :: ("latency_ms", Json.Float here)
      ::
      (match prev with
      | None -> []
      | Some p -> [ ("incr_cost_ms_per_layer", Json.Float (here -. p)) ])
    in
    rows := Json.Obj (("table", Json.Str "III") :: j) :: !rows
  in
  row "VIP" ~paper_lat:1.12 ~paper_incr:None ~here:vip ~prev:None;
  row "FRAGMENT-VIP" ~paper_lat:1.33 ~paper_incr:(Some 0.21) ~here:frag
    ~prev:(Some vip);
  row "CHANNEL-FRAGMENT-VIP" ~paper_lat:1.82 ~paper_incr:(Some 0.49) ~here:chan
    ~prev:(Some frag);
  row "SELECT-CHANNEL-FRAGMENT-VIP" ~paper_lat:1.93 ~paper_incr:(Some 0.11)
    ~here:full ~prev:(Some chan);
  Json.Arr (List.rev !rows)

(* --- Section 4.3: dynamically removing layers --------------------------- *)

let removal () =
  section "Section 4.3: Dynamically Removing Layers (Figure 3)";
  let mono =
    let w = World.create () in
    Measure.latency w (Stacks.mrpc w ~lower:Stacks.L_vip)
  in
  let layered =
    let w = World.create () in
    Measure.latency w (Stacks.lrpc w)
  in
  let w = World.create () in
  let e = Stacks.lrpc_vip_size w in
  let bypass = Measure.latency w e in
  pr "%-34s %8s / %-8s\n" "Configuration" "paper" "here";
  hr ();
  pr "%-34s %8.2f / %-8.2f\n" "M_RPC-VIP (monolithic)" 1.79 mono;
  pr "%-34s %8.2f / %-8.2f\n" "SELECT-CHANNEL-FRAGMENT-VIP" 1.93 layered;
  pr "%-34s %8.2f / %-8.2f\n" "SELECT-CHANNEL-VIPsize (fig 3b)" 1.78 bypass;
  pr "\nBypassing FRAGMENT recovers %.2f of the %.2f msec layering penalty.\n"
    (layered -. bypass) (layered -. mono);
  (* bulk traffic still flows (through FRAGMENT below VIPsize) *)
  let ok =
    let payload = Msg.fill 16000 'b' in
    let r = ref false in
    World.spawn w (fun () ->
        r :=
          match e.Stacks.call ~command:Stacks.cmd_echo payload with
          | Ok reply -> Msg.length reply = 16000
          | Error _ -> false);
    World.run w;
    !r
  in
  pr "16 KB messages still travel via FRAGMENT below VIPsize: %s\n"
    (if ok then "yes" else "NO - BROKEN");
  Json.Arr
    [
      lat_json ~table:"fig3" "M_RPC-VIP (monolithic)" mono;
      lat_json ~table:"fig3" "SELECT-CHANNEL-FRAGMENT-VIP" layered;
      lat_json ~table:"fig3" "SELECT-CHANNEL-VIPsize" bypass;
      Json.Obj
        [
          ("table", Json.Str "fig3");
          ("config", Json.Str "bulk via FRAGMENT below VIPsize");
          ("ok", Json.Bool ok);
        ];
    ]

(* --- figures: protocol graphs ------------------------------------------- *)

(* [fig2_extra] lets callers that link higher layers (Psync lives in a
   library above this one) contribute protocols to the Figure 2 suite. *)
let figures ?fig2_extra () =
  section "Figure 1: example x-kernel configuration (protocol graph)";
  let w = World.create () in
  let n0 = World.node w 0 in
  let udp =
    Netproto.Udp.create ~host:n0.World.host
      ~lower:(Netproto.Ip.proto n0.World.ip) ()
  in
  Format.printf "%a" Proto.pp_graph [ Netproto.Udp.proto udp ];
  section "Figure 2: VIP protocol suite (RPC, Psync, UDP above VIP)";
  let w2 = World.create () in
  let n0 = World.node w2 0 in
  let frag =
    Fragment.create ~host:n0.World.host
      ~lower:(Netproto.Vip.proto n0.World.vip)
  in
  let chan =
    Channel.create ~host:n0.World.host ~lower:(Fragment.proto frag) ()
  in
  let sel = Select.create ~host:n0.World.host ~channel:chan in
  let udp2 =
    Netproto.Udp.create ~host:n0.World.host
      ~lower:(Netproto.Vip.proto n0.World.vip) ()
  in
  let extra =
    match fig2_extra with
    | Some f -> [ f ~host:n0.World.host ~lower:(Fragment.proto frag) ]
    | None -> []
  in
  Format.printf "%a" Proto.pp_graph
    ([ Select.proto sel ] @ extra @ [ Netproto.Udp.proto udp2 ]);
  section "Figure 3: alternative configurations using RPC layers";
  let w3 = World.create () in
  let n = World.node w3 0 in
  let fa =
    Fragment.create ~host:n.World.host
      ~lower:(Netproto.Vip.proto n.World.vip)
  in
  let ca =
    Channel.create ~host:n.World.host ~lower:(Fragment.proto fa) ()
  in
  let sa = Select.create ~host:n.World.host ~channel:ca in
  pr "(a) FRAGMENT above VIP:\n";
  Format.printf "%a" Proto.pp_graph [ Select.proto sa ];
  let w4 = World.create () in
  let n = World.node w4 0 in
  let vaddr = Netproto.Vip_addr.proto n.World.vip_addr in
  let fb = Fragment.create ~host:n.World.host ~lower:vaddr in
  let vsize =
    Netproto.Vip_size.create ~host:n.World.host ~bulk:(Fragment.proto fb)
      ~direct:vaddr ~arp:n.World.arp
  in
  let cb =
    Channel.create ~host:n.World.host
      ~lower:(Netproto.Vip_size.proto vsize) ()
  in
  let sb = Select.create ~host:n.World.host ~channel:cb in
  pr "(b) FRAGMENT below VIPsize:\n";
  Format.printf "%a" Proto.pp_graph [ Select.proto sb ];
  (* graphs are diagrams, not measurements — nothing to export *)
  Json.Null

(* --- ablation: buffer management ----------------------------------------- *)

let ablation () =
  section "Ablation: buffer management (section 5, Potential Pitfalls)";
  let lat scheme =
    let profile = Machine.with_buffer_scheme scheme Machine.xkernel_sun3 in
    let w = World.create ~profile () in
    Measure.latency w (Stacks.lrpc w)
  in
  let pre = lat Machine.Prealloc in
  let per = lat Machine.Per_header_alloc in
  pr "L.RPC-VIP latency, pre-allocated header buffer:  %.2f msec\n" pre;
  pr "L.RPC-VIP latency, per-header buffer allocation: %.2f msec\n" per;
  pr
    "(paper: per-header allocation raised the minimum per-layer cost from\n\
    \ 0.11 to 0.50 msec; the %.2f msec gap above is that error, repeated at\n\
    \ every layer of the stack)\n"
    (per -. pre);
  Json.Arr
    [
      lat_json ~table:"ablation" "L_RPC-VIP prealloc buffers" pre;
      lat_json ~table:"ablation" "L_RPC-VIP per-header alloc" per;
    ]

(* --- CPU-time comparison -------------------------------------------------- *)

let cpu_note () =
  section "CPU time (sections 4.1-4.2: VIP and layering use less CPU)";
  let rows = ref [] in
  let row name mk =
    let r = measure_config mk in
    pr "%-30s client CPU per 16 KB call: %.2f ms\n" name
      r.Measure.client_cpu_ms;
    rows :=
      Json.Obj
        [
          ("table", Json.Str "cpu");
          ("config", Json.Str name);
          ("client_cpu_ms", Json.Float r.Measure.client_cpu_ms);
        ]
      :: !rows
  in
  row "M_RPC-IP" (fun w -> Stacks.mrpc w ~lower:Stacks.L_ip);
  row "M_RPC-VIP" (fun w -> Stacks.mrpc w ~lower:Stacks.L_vip);
  row "L_RPC-VIP" Stacks.lrpc;
  Json.Arr (List.rev !rows)

(* --- loss sweep: fixed vs adaptive retransmission timeout ---------------- *)

let loss_rates = [ 0.0; 0.02; 0.05; 0.10; 0.20 ]

let loss_sweep () =
  section "Loss sweep: fixed vs adaptive retransmission timeout";
  (* Null RPCs from [conc] concurrent client fibers over [conc]
     channels.  Concurrency matters: contention for the two hosts' CPUs
     inflates the round trip well past the fixed 20 ms step, so the
     fixed stack retransmits spuriously while the adaptive one tracks
     the real RTT — on top of whatever the configured drop rate does. *)
  let conc = 48 and warm = 4 and calls = 12 in
  pr "%d fibers x %d null calls per config (after %d warm-up calls each);\n"
    conc calls warm;
  pr "same world seed per rate; warm-up retransmissions excluded\n\n";
  pr "%6s %10s %6s %8s %12s %12s %10s\n" "drop" "config" "ok" "failed"
    "retransmits" "elapsed ms" "calls/s";
  hr ();
  let run ~adaptive ~rate =
    Stats.reset_registry ();
    let w = World.create () in
    (* [rto_load_floor:false]: these rows are pinned (§4.2).  At 48-way
       concurrency on one channel set, Karn's backoff persistence already
       converges the estimator through the congested warm-up; the floor
       would change the (published) retransmission counts without
       changing the experiment's verdict. *)
    let e = Stacks.lrpc ~adaptive ~rto_load_floor:false ~n_channels:conc w in
    let chan_stat name =
      match Stats.find (e.Stacks.client_host.Host.name ^ "/CHANNEL") with
      | Some st -> Stats.get st name
      | None -> 0
    in
    let ok = ref 0 and failed = ref 0 in
    let retr0 = ref 0 in
    let t0 = ref 0. and t1 = ref 0. in
    (* Loss-free warm-up at full concurrency, so both stacks enter the
       measured phase converged on the congested round-trip time the
       concurrency produces. *)
    let warm_left = ref conc in
    let measure () =
      retr0 := chan_stat "retransmit";
      Wire.set_drop_rate w.World.wire rate;
      t0 := Sim.now w.World.sim;
      let remaining = ref conc in
      for _ = 1 to conc do
        Sim.spawn w.World.sim (fun () ->
            for _ = 1 to calls do
              match e.Stacks.call ~command:Stacks.cmd_null Msg.empty with
              | Ok _ -> incr ok
              | Error _ -> incr failed
            done;
            decr remaining;
            if !remaining = 0 then t1 := Sim.now w.World.sim)
      done
    in
    for _ = 1 to conc do
      World.spawn w (fun () ->
          for _ = 1 to warm do
            ignore (e.Stacks.call ~command:Stacks.cmd_null Msg.empty)
          done;
          decr warm_left;
          if !warm_left = 0 then measure ())
    done;
    World.run w;
    let retr = chan_stat "retransmit" - !retr0 in
    let elapsed = !t1 -. !t0 in
    let config = if adaptive then "adaptive" else "fixed" in
    let rate_s = float_of_int (conc * calls) /. elapsed in
    pr "%5.0f%% %10s %6d %8d %12d %12.1f %10.0f\n%!" (rate *. 100.) config !ok
      !failed retr (elapsed *. 1e3) rate_s;
    ( retr,
      Json.Obj
        [
          ("table", Json.Str "loss");
          ("config", Json.Str config);
          ("drop", Json.Float rate);
          ("ok", Json.Int !ok);
          ("failed", Json.Int !failed);
          ("retransmits", Json.Int retr);
          ("elapsed_ms", Json.Float (elapsed *. 1e3));
          ("calls_per_sec", Json.Float rate_s);
          ("srtt_us", Json.Int (chan_stat "srtt-us"));
          ("rto_us", Json.Int (chan_stat "rto-us"));
        ] )
  in
  let rows = ref [] in
  let verdicts = ref [] in
  List.iter
    (fun rate ->
      let fixed_retr, fixed_row = run ~adaptive:false ~rate in
      let adapt_retr, adapt_row = run ~adaptive:true ~rate in
      rows := adapt_row :: fixed_row :: !rows;
      verdicts := (rate, fixed_retr, adapt_retr) :: !verdicts)
    loss_rates;
  pr "\n";
  List.iter
    (fun (rate, f, a) ->
      pr "at %.0f%% loss: adaptive %d vs fixed %d retransmissions (%s)\n"
        (rate *. 100.) a f
        (if a < f then "adaptive wins"
         else if a = f then "tie"
         else "fixed wins"))
    (List.rev !verdicts);
  Json.Arr (List.rev !rows)

(* --- open-loop helpers -------------------------------------------------- *)

(* Every open-loop experiment below drives {!Load.run_open}; these are
   the few readings they share. *)

let ms_at h q = float_of_int (Histogram.percentile h q) /. 1e3
let goodput n dt = if dt > 0. then float_of_int n /. dt else 0.

(* Sum a counter over every registered stats table: the server-side
   drops live in per-host CHANNEL, SELECT and ADMIT tables, the
   client-side governance counters in per-host REPLICA tables. *)
let sum_counter name =
  List.fold_left
    (fun acc (_, counters) ->
      acc + (try List.assoc name counters with Not_found -> 0))
    0 (Stats.dump ())

(* Zero when every arrival completed, failed or was shed. *)
let lost_calls ~arrivals (o : Load.tally) =
  arrivals - o.Load.o_completed - o.Load.o_failed - o.Load.o_shed

let sum_over xs f = Array.fold_left (fun a x -> a + f x) 0 xs

let map_version replicas =
  Array.fold_left (fun a r -> max a (Select_replica.map_version r)) 0 replicas

let check_known ~exp ~kind known names =
  List.iter
    (fun m ->
      if not (List.mem m known) then
        invalid_arg
          (Printf.sprintf "%s: unknown %s %S (try: %s)" exp kind m
             (String.concat ", " known)))
    names

(* Client [i]'s warm-up on a replicated stack: one null call per
   replica, so every (client, replica) pair — ARP, channel sessions,
   RTT estimators — is warm before the arrival clock starts. *)
let warm_replicas (s : Stacks.fanout_stack) i =
  for _ = 1 to Array.length s.Stacks.fos_servers do
    ignore (s.Stacks.fos_call i ~command:Stacks.cmd_null Msg.empty)
  done

(* --- capacity sweep: offered load vs throughput and tail latency --------- *)

(* The capacity "lrpc" stack uses the paper's fixed step timeout
   (20 msec base).  The adaptive (Jacobson/Karn) RTO — "lrpc-arto" —
   learns srtt ~2 msec at idle and then fires prematurely once
   queueing delay under load exceeds srtt + 4*rttvar; Karn's rule
   keeps retransmitted transactions from resampling, so the sweep
   measures an exponential-backoff storm instead of saturation.  Run
   both to see it. *)
let fan_builders =
  [
    ("mrpc-eth", fun f -> Stacks.mrpc_fanin ~lower:Stacks.L_eth f);
    ("mrpc-ip", fun f -> Stacks.mrpc_fanin ~lower:Stacks.L_ip f);
    ("mrpc-vip", fun f -> Stacks.mrpc_fanin ~lower:Stacks.L_vip f);
    ("lrpc", fun f -> Stacks.lrpc_fanin ~adaptive:false f);
    ("lrpc-arto", fun f -> Stacks.lrpc_fanin ~adaptive:true f);
  ]

let capacity_stacks_default = [ "mrpc-vip"; "lrpc" ]
let capacity_rates_default = [ 100.; 200.; 400.; 800.; 1200.; 1600.; 2000. ]
let capacity_conc_default = [ 1; 4; 16 ]

let capacity ?(stacks = capacity_stacks_default)
    ?(rates = capacity_rates_default) ?(arrivals = 300) ?(clients = 4)
    ?(window = 48) ?(conc = capacity_conc_default) () =
  section "Capacity sweep: offered load vs throughput and tail latency";
  pr "%d client hosts fan into 1 server; open loop: Poisson arrivals,\n"
    clients;
  pr "window %d (arrivals beyond it are shed), %d arrivals per step\n\n"
    window arrivals;
  pr "%10s %13s %8s %8s %8s %8s %8s %6s %6s %5s\n" "config" "mode"
    "offered" "achieved" "p50 ms" "p99 ms" "p99.9ms" "shed" "queue" "wire";
  hr ();
  check_known ~exp:"capacity" ~kind:"stack" (List.map fst fan_builders) stacks;
  let print_r (r : Load.result) =
    let p = ms_at r.Load.hist in
    pr "%10s %13s %8.0f %8.0f %8.2f %8.2f %8.2f %6d %6d %4.0f%%\n%!"
      r.Load.r_config r.r_mode r.offered_rps r.achieved_rps (p 50.) (p 99.)
      (p 99.9) r.shed r.queue_depth_max (r.wire_util *. 100.)
  in
  let row r =
    match Load.to_json r with
    | Json.Obj fields -> Json.Obj (("table", Json.Str "capacity") :: fields)
    | j -> j
  in
  let rows = ref [] in
  List.iter
    (fun stack ->
      let mk = List.assoc stack fan_builders in
      (* closed loop: throughput as a function of concurrency *)
      List.iter
        (fun fibers ->
          let f = World.create_fanin ~clients () in
          let r = Load.run_closed ~fibers (f : World.fanin) (mk f) in
          print_r r;
          rows := row r :: !rows)
        conc;
      (* open loop: offered-load sweep from idle past saturation *)
      List.iter
        (fun rate ->
          let f = World.create_fanin ~clients () in
          let r = Load.run_open_fan ~rate ~arrivals ~window f (mk f) in
          print_r r;
          rows := row r :: !rows)
        rates)
    stacks;
  pr
    "\n\
     (Reading the knee: achieved tracks offered while shed = 0; past\n\
    \ saturation achieved plateaus, p99 grows superlinearly and the\n\
    \ window starts shedding.)\n";
  Json.Arr (List.rev !rows)

(* --- failover: crash-availability over replicated servers ---------------- *)

let failover ?(servers = 4) ?(clients = 4) ?(rate = 800.) ?(arrivals = 400)
    ?(window = 64) ?(seed = 42) () =
  section "Failover: crash one of K replicas under open-loop load";
  pr "%d clients x round-robin over %d replicas; uniform arrivals at\n"
    clients servers;
  pr "%.0f calls/s, %d arrivals; replica 0 crashes and stays partitioned\n"
    rate arrivals;
  pr "mid-sweep, then heals\n\n";
  Stats.reset_registry ();
  (* Per-attempt and whole-call bounds, and the suspect-probe cadence.
     All well above the warmed null-RTT (~2.5 ms) and well below the
     CHANNEL RTO ladder a dead host would otherwise cost. *)
  let attempt_timeout = 0.04 and deadline = 0.4 and probation = 0.03 in
  (* Absolute schedule, so the chaos plan can be compiled before the
     run starts: warm-up happens before [t_start]; the dispatcher then
     idles until exactly [t_start]. *)
  let t_start = 0.25 in
  let duration = float_of_int arrivals /. rate in
  let crash_t = t_start +. (duration *. 0.3) in
  let outage = duration *. 0.25 in
  let heal_t = crash_t +. outage in
  let fo = World.create_fanout ~clients ~servers ~seed () in
  let w = fo.World.fo in
  let sim = w.World.sim in
  let s =
    Stacks.lrpc_fanout ~attempt_timeout ~deadline ~probation fo
  in
  (* Replica 0 reboots at the crash instant and is unreachable until
     [heal_t] — a host that is down for a while, not a blink. *)
  Chaos.apply ~wire:w.World.wire ~devices:(World.devices w)
    [
      { Chaos.from_t = crash_t; until_t = heal_t; spec = Chaos.Crash 0 };
      {
        Chaos.from_t = crash_t;
        until_t = heal_t;
        spec =
          Chaos.Partition
            { a = [ 0 ]; b = List.init (servers + clients - 1) (fun i -> i + 1) };
      };
    ];
  let pre = ref 0 and blip = ref 0 and post = ref 0 in
  let max_lat = ref 0. in
  let shed_after_heal = ref 0 in
  let o =
    Load.run_open ~arrival:Load.Uniform ~arrivals ~window ~start_at:t_start
      ~warmup:(warm_replicas s)
      ~on_shed:(fun _ -> if Sim.now sim >= heal_t then incr shed_after_heal)
      ~on_done:(fun _ t r ->
        let now = Sim.now sim in
        (match r with
        | Ok _ ->
            if now < crash_t then incr pre
            else if now < heal_t then incr blip
            else incr post
        | Error _ -> ());
        if now -. t > !max_lat then max_lat := now -. t)
      ~rate w ~clients:(Array.length s.Stacks.fos_clients)
      (fun i ~key:_ -> s.Stacks.fos_call i ~command:Stacks.cmd_null Msg.empty)
  in
  let hist = Load.merged o.Load.o_hists in
  let replicas = s.Stacks.fos_replicas in
  let failovers = sum_over replicas Select_replica.failovers in
  let probes_sent = sum_over replicas Select_replica.probes_sent in
  let probes_ok = sum_over replicas Select_replica.probes_ok in
  let g_pre = goodput !pre (crash_t -. t_start) in
  let g_blip = goodput !blip outage in
  let g_post = goodput !post (o.Load.o_t_end -. heal_t) in
  pr "%12s %10s %10s %10s %8s %8s %8s\n" "phase" "goodput/s" "" "" "p99 ms"
    "p99.9ms" "max ms";
  hr ();
  pr "%12s %10.0f\n" "pre-crash" g_pre;
  pr "%12s %10.0f\n" "outage" g_blip;
  pr "%12s %10.0f\n" "healed" g_post;
  pr "%12s %10s %10s %10s %8.2f %8.2f %8.2f\n%!" "all" "" "" ""
    (ms_at hist 99.) (ms_at hist 99.9) (!max_lat *. 1e3);
  pr
    "\n\
     completed %d  failed %d  shed %d  failovers %d  probes %d/%d ok\n\
     (The outage dip is bounded by one replica's share: each client\n\
    \ fails over after one %.0f ms attempt, marks replica 0 suspect and\n\
    \ routes around it until a probe heals it.)\n"
    o.Load.o_completed o.Load.o_failed o.Load.o_shed failovers probes_ok
    probes_sent (attempt_timeout *. 1e3);
  Json.Arr
    [
      Json.Obj
        [
          ("table", Json.Str "failover");
          ("config", Json.Str s.Stacks.fos_name);
          ("servers", Json.Int servers);
          ("clients", Json.Int clients);
          ("seed", Json.Int seed);
          ("map_version", Json.Int (map_version replicas));
          ("offered_rps", Json.Float rate);
          ("arrivals", Json.Int arrivals);
          ("completed", Json.Int o.Load.o_completed);
          ("failed", Json.Int o.Load.o_failed);
          ("shed", Json.Int o.Load.o_shed);
          ("shed_after_heal", Json.Int !shed_after_heal);
          ("failovers", Json.Int failovers);
          ("probes_sent", Json.Int probes_sent);
          ("probes_ok", Json.Int probes_ok);
          ("crash_ms", Json.Float ((crash_t -. t_start) *. 1e3));
          ("outage_ms", Json.Float (outage *. 1e3));
          ("goodput_pre_rps", Json.Float g_pre);
          ("goodput_outage_rps", Json.Float g_blip);
          ("goodput_healed_rps", Json.Float g_post);
          ("attempt_timeout_us", Json.Int (Load.us_of attempt_timeout));
          ("deadline_us", Json.Int (Load.us_of deadline));
          ("max_us", Json.Int (Load.us_of !max_lat));
          ("pending_max", Json.Int o.Load.o_pending_max);
          ("latency_us", Histogram.to_json hist);
        ];
    ]

(* --- rebalance: dynamic shard map under chaos ----------------------------- *)

let rebalance_modes = [ "static"; "crash-rebalance"; "skew-rebalance" ]

let rebalance ?(servers = 4) ?(clients = 4) ?(shards = 16) ?(rate = 800.)
    ?(arrivals = 600) ?(window = 64) ?(seed = 42) ?(modes = rebalance_modes) ()
    =
  section "Rebalance: dynamic shard map, chaos crash and load skew";
  pr "%d clients x %d shards over %d replicas; uniform arrivals at\n" clients
    shards servers;
  pr
    "%.0f calls/s, %d arrivals per mode; seed %d.  Mid-run, crash modes\n\
     lose replica 0 for good; the skew mode redirects half the arrivals\n\
     at one hot shard.\n\n"
    rate arrivals seed;
  check_known ~exp:"rebalance" ~kind:"mode" rebalance_modes modes;
  (* Same per-attempt bounds as the failover experiment, plus bounded
     probes so a crashed owner is declared Dead in a couple hundred
     milliseconds instead of after the CHANNEL RTO ladder. *)
  let attempt_timeout = 0.04 and deadline = 0.4 in
  let probation = 0.02 and probe_timeout = 0.03 and probe_limit = 2 in
  let drain_deadline = 0.05 in
  let t_start = 0.25 in
  let duration = float_of_int arrivals /. rate in
  if duration < 0.55 then
    invalid_arg "rebalance: arrivals/rate too short for the phase grid";
  let chaos_t = t_start +. (duration *. 0.3) in
  (* The dip phase is a fixed quarter second from the fault: long
     enough for health detection (~200 ms with the bounds above) plus a
     rebalance tick and the MAP push. *)
  let dip_window = 0.25 in
  let heal_t = chaos_t +. dip_window in
  let t_stop = t_start +. duration +. 0.6 in
  let step mode =
    Stats.reset_registry ();
    let crash = mode <> "skew-rebalance" in
    let fo = World.create_fanout ~clients ~servers ~seed () in
    let w = fo.World.fo in
    let sim = w.World.sim in
    let map = Shard_map.create ~seed ~shards ~replicas:servers in
    let s =
      Stacks.lrpc_fanout ~attempt_timeout ~deadline ~probation ~probe_limit
        ~probe_timeout ~drain_deadline ~policy:Select_replica.Hash
        ~shard_map:map fo
    in
    let coord = Option.get s.Stacks.fos_coord in
    let v0 = Shard_map.version (Shard_map.Coordinator.current coord) in
    (* The skew mode's hot keys: the full shard set of shard 0's
       initial owner, so that moving shards out of the hot replica one
       by one genuinely drains it (one monolithic hot shard could never
       be balanced by moving it around). *)
    let hot_shards =
      let hot_owner = Shard_map.owner map ~shard:0 in
      Array.of_list
        (List.filter
           (fun sh -> Shard_map.owner map ~shard:sh = hot_owner)
           (List.init shards Fun.id))
    in
    if crash then
      (* Replica 0 reboots at the fault and stays partitioned for the
         whole run — a loss, not a blink; only a new map can restore
         its shards' goodput. *)
      Chaos.apply ~wire:w.World.wire ~devices:(World.devices w)
        [
          { Chaos.from_t = chaos_t; until_t = t_stop; spec = Chaos.Crash 0 };
          {
            Chaos.from_t = chaos_t;
            until_t = t_stop;
            spec =
              Chaos.Partition
                {
                  a = [ 0 ];
                  b = List.init (servers + clients - 1) (fun i -> i + 1);
                };
          };
        ];
    let replicas = s.Stacks.fos_replicas in
    (match mode with
    | "static" -> ()
    | _ ->
        (* Crash modes tick fast (reaction time is the headline); the
           skew mode uses a longer window so per-tick load deltas carry
           enough calls to beat sampling noise. *)
        let rb =
          Rebalance.create ~host:s.Stacks.fos_clients.(0) ~coord
            ~replica_health:(Rebalance.majority_health replicas)
            ~shard_load:(Rebalance.summed_load ~shards replicas)
            ~interval:(if crash then 0.025 else 0.05)
            ~on_crash:crash ~on_skew:(not crash) ()
        in
        (* The controller starts ticking at the fault instant, so all
           modes share an identical pre phase and the reaction time
           [t_rebalance_ms] is measured from the fault.  (Left running
           from time zero, the skew policy would instead spend the pre
           phase smoothing the rendezvous map's natural lumpiness —
           seed 42 deals 7/2/5/2 shards across the four replicas.) *)
        ignore
          (Sim.after sim chaos_t (fun () ->
               Rebalance.start rb ~until:(t_start +. duration))));
    let h_pre = Histogram.create ()
    and h_dip = Histogram.create ()
    and h_heal = Histogram.create () in
    let pre = ref 0 and dip = ref 0 and heal = ref 0 in
    let t_rebalanced = ref None in
    (* A monitor fiber timestamps the first client-visible map change —
       the control plane's reaction time. *)
    Sim.spawn sim (fun () ->
        while !t_rebalanced = None && Sim.now sim < t_stop do
          if
            Array.exists (fun cl -> Select_replica.map_version cl > v0) replicas
          then t_rebalanced := Some (Sim.now sim)
          else Sim.delay sim 0.005
        done);
    let o =
      Load.run_open ~arrival:Load.Uniform ~arrivals ~window ~start_at:t_start
        ~warmup:(warm_replicas s)
        ~key:(fun k ->
          (* Uniform keys sweep the shards; in the skew mode every
             second arrival after the fault instant hits one of the
             hot replica's shards. *)
          if mode = "skew-rebalance" && Sim.now sim >= chaos_t && k mod 2 = 0
          then hot_shards.(k / 2 mod Array.length hot_shards)
          else k)
        ~on_done:(fun _ t r ->
          match r with
          | Ok _ ->
              let now = Sim.now sim in
              let n, h =
                if now < chaos_t then (pre, h_pre)
                else if now < heal_t then (dip, h_dip)
                else (heal, h_heal)
              in
              incr n;
              Histogram.record h (Load.us_of (now -. t))
          | Error _ -> ())
        ~rate w ~clients:(Array.length s.Stacks.fos_clients)
        (fun i ~key ->
          s.Stacks.fos_call i ~key ~command:Stacks.cmd_null Msg.empty)
    in
    let lost = lost_calls ~arrivals o in
    let moved = Shard_map.Coordinator.moved coord in
    let g_pre = goodput !pre (chaos_t -. t_start) in
    let g_dip = goodput !dip dip_window in
    let g_heal = goodput !heal (o.Load.o_t_end -. heal_t) in
    let t_reb_ms =
      match !t_rebalanced with
      | Some t -> (t -. chaos_t) *. 1e3
      | None -> -1.
    in
    pr "%16s %8.0f %8.0f %8.0f %6d %6d %8.1f %8.2f %8.2f\n%!" mode g_pre g_dip
      g_heal moved lost t_reb_ms (ms_at h_dip 99.) (ms_at h_dip 99.9);
    Json.Obj
      [
        ("table", Json.Str "rebalance");
        ("mode", Json.Str mode);
        ("config", Json.Str s.Stacks.fos_name);
        ("servers", Json.Int servers);
        ("clients", Json.Int clients);
        ("shards", Json.Int shards);
        ("seed", Json.Int seed);
        ("offered_rps", Json.Float rate);
        ("arrivals", Json.Int arrivals);
        ("completed", Json.Int o.Load.o_completed);
        ("failed", Json.Int o.Load.o_failed);
        ("shed", Json.Int o.Load.o_shed);
        ("lost_calls", Json.Int lost);
        ("moved_shards", Json.Int moved);
        ("map_version", Json.Int (map_version replicas));
        ("map_updates_rx", Json.Int (sum_counter "map-update-rx"));
        ("wrong_shard_rx", Json.Int (sum_counter "wrong-shard-rx"));
        ("wrong_shard_tx", Json.Int (sum_counter "wrong-shard-tx"));
        ("foreign_shard_rx", Json.Int (sum_counter "foreign-shard-rx"));
        ("handoff_forced", Json.Int (sum_counter "handoff-forced"));
        ("failovers", Json.Int (sum_over replicas Select_replica.failovers));
        ( "probes_sent",
          Json.Int (sum_over replicas Select_replica.probes_sent) );
        ("t_rebalance_ms", Json.Float t_reb_ms);
        ("goodput_pre_rps", Json.Float g_pre);
        ("goodput_dip_rps", Json.Float g_dip);
        ("goodput_healed_rps", Json.Float g_heal);
        ("pre_p99_ms", Json.Float (ms_at h_pre 99.));
        ("dip_p99_ms", Json.Float (ms_at h_dip 99.));
        ("dip_p999_ms", Json.Float (ms_at h_dip 99.9));
        ("healed_p99_ms", Json.Float (ms_at h_heal 99.));
        ("attempt_timeout_us", Json.Int (Load.us_of attempt_timeout));
        ("deadline_us", Json.Int (Load.us_of deadline));
        ("drain_deadline_us", Json.Int (Load.us_of drain_deadline));
        ("pending_max", Json.Int o.Load.o_pending_max);
        ("latency_us", Histogram.to_json (Load.merged o.Load.o_hists));
      ]
  in
  pr "%16s %8s %8s %8s %6s %6s %8s %8s %8s\n" "mode" "pre" "dip" "healed"
    "moved" "lost" "t_reb ms" "dip p99" "p99.9";
  hr ();
  let rows = List.map step modes in
  pr
    "\n\
     (Reading the table: goodput survives the crash in every mode —\n\
    \ the REPLICA health machinery below the map routes around the dead\n\
    \ owner — so the map's value shows elsewhere.  \"static\" serves\n\
    \ every orphaned-shard call at a non-owner forever (foreign_shard_rx\n\
    \ climbs for the rest of the run); the crash rebalancer installs a\n\
    \ new map and ownership converges, with the wrong-shard handshake\n\
    \ absorbing the disagreement window; the skew rebalancer drains the\n\
    \ hot replica shard by shard.  lost_calls must be 0: every arrival\n\
    \ is completed, failed or shed.)\n";
  Json.Arr rows

(* --- overload: open-loop rate sweep across control stacks ---------------- *)

(* Application procedure for the overload sweep: burns 500 us of
   server CPU, then checks the caller's absolute deadline (stamped in
   the request body) to account CPU spent on replies nobody will read. *)
let cmd_work = 9

let overload_controls = [ "none"; "deadline"; "deadline+admit"; "full" ]

let overload ?(servers = 2) ?(clients = 4) ?(rates = [ 600.; 1200.; 2000. ])
    ?(arrivals = 600) ?(window = 256) ?(controls = overload_controls) ?spike ()
    =
  let service_us = 500 and deadline = 0.025 in
  section "Overload: open-loop rate sweep, control stacks side by side";
  pr "%d clients x round-robin over %d replicas; uniform arrivals,\n" clients
    servers;
  pr "%d arrivals per step; %d us of server CPU per call, %.0f ms deadline\n\n"
    arrivals service_us (deadline *. 1e3);
  check_known ~exp:"overload" ~kind:"control" overload_controls controls;
  let service_s = float_of_int service_us *. 1e-6 in
  let attempt_timeout = deadline /. 2. in
  (* Bounded so a full queue's sojourn stays under the deadline:
     queue_limit * (service + per-call protocol cost) < deadline. *)
  let admit_cfg =
    {
      Admit.queue_limit = 16;
      codel_target = deadline /. 5.;
      codel_interval = deadline;
      lifo = false;
    }
  in
  let t_start = 0.25 in
  (* One step: fresh default-seed world, so every (control, rate) cell
     is independent and the whole sweep is deterministic. *)
  let step control rate =
    Stats.reset_registry ();
    let fo = World.create_fanout ~clients ~servers () in
    let w = fo.World.fo in
    let sim = w.World.sim in
    let s =
      match control with
      | "none" -> Stacks.lrpc_fanout ~attempt_timeout ~deadline fo
      | "deadline" ->
          Stacks.lrpc_fanout ~attempt_timeout ~deadline
            ~propagate_deadline:true fo
      | "deadline+admit" ->
          Stacks.lrpc_fanout ~attempt_timeout ~deadline
            ~propagate_deadline:true ~admit:admit_cfg fo
      | _ ->
          Stacks.lrpc_fanout ~attempt_timeout ~deadline
            ~propagate_deadline:true ~admit:admit_cfg ~retry_budget:0.1
            ~hedge:true fo
    in
    let duration = float_of_int arrivals /. rate in
    (match spike with
    | None -> ()
    | Some extra ->
        (* A congestion spike over the middle half of the arrival
           window: every frame is delayed by [extra]. *)
        Chaos.apply ~wire:w.World.wire ~devices:(World.devices w)
          [
            {
              Chaos.from_t = t_start +. (duration *. 0.25);
              until_t = t_start +. (duration *. 0.75);
              spec = Chaos.Delay_spike extra;
            };
          ]);
    let wasted_us = ref 0 and handler_runs = ref 0 in
    Array.iteri
      (fun k sel_s ->
        let mach = s.Stacks.fos_servers.(k).Host.mach in
        Select.register sel_s ~command:cmd_work (fun req ->
            Machine.charge_one mach (Machine.Busy service_s);
            incr handler_runs;
            let dl_us = Msg.u48 req 0 in
            if Load.us_of (Sim.now sim) > dl_us then
              wasted_us := !wasted_us + service_us;
            Ok Msg.empty))
      s.Stacks.fos_selects;
    let busy_errs = ref 0 in
    let o =
      Load.run_open ~arrival:Load.Uniform ~arrivals ~window ~start_at:t_start
        ~warmup:(warm_replicas s)
        ~on_start:(fun () ->
          (* Warm-up traffic is settled by now: count only the sweep's
             CPU. *)
          Array.iter
            (fun (h : Host.t) -> Machine.reset_cpu_seconds h.Host.mach)
            s.Stacks.fos_servers)
        ~on_done:(fun _ _ -> function
          | Error Rpc_error.Busy -> incr busy_errs
          | _ -> ())
        ~rate w ~clients:(Array.length s.Stacks.fos_clients)
        (fun i ~key:_ ->
          let wr = Codec.W.create 6 in
          Codec.W.u48 wr (Load.us_of (Sim.now sim +. deadline));
          s.Stacks.fos_call i ~command:cmd_work
            (Msg.of_string (Codec.W.contents wr)))
    in
    let hist = Load.merged o.Load.o_hists in
    let sum_admit f = sum_over s.Stacks.fos_admits f in
    let sum_mach f =
      Array.fold_left
        (fun a (h : Host.t) -> a +. f h.Host.mach)
        0. s.Stacks.fos_servers
    in
    let goodput = goodput o.Load.o_completed (o.Load.o_t_end -. t_start) in
    let failovers = sum_over s.Stacks.fos_replicas Select_replica.failovers in
    let busy_rejects = sum_admit Admit.busy_rejected in
    let expired_server = sum_counter "deadline-expired-server" in
    let exhausted = sum_counter "retry-budget-exhausted" in
    pr "%15s %8.0f %8.0f %8.2f %8.2f %9d %7d %7d %7d %5d\n%!" control rate
      goodput (ms_at hist 99.) (ms_at hist 99.9) !wasted_us busy_rejects
      expired_server failovers exhausted;
    Json.Obj
      [
        ("table", Json.Str "overload");
        ("control", Json.Str control);
        ("config", Json.Str s.Stacks.fos_name);
        ("servers", Json.Int servers);
        ("clients", Json.Int clients);
        ("offered_rps", Json.Float rate);
        ("arrivals", Json.Int arrivals);
        ("service_us", Json.Int service_us);
        ("deadline_us", Json.Int (Load.us_of deadline));
        ("attempt_timeout_us", Json.Int (Load.us_of attempt_timeout));
        ("completed", Json.Int o.Load.o_completed);
        ("failed", Json.Int o.Load.o_failed);
        ("busy_errors", Json.Int !busy_errs);
        ("shed", Json.Int o.Load.o_shed);
        ("goodput_rps", Json.Float goodput);
        ("handler_runs", Json.Int !handler_runs);
        ("wasted_cpu_us", Json.Int !wasted_us);
        ("server_expired_drops", Json.Int expired_server);
        ("busy_rejects", Json.Int busy_rejects);
        ("codel_drops", Json.Int (sum_admit Admit.codel_dropped));
        ("admit_expired_drops", Json.Int (sum_admit Admit.expired_dropped));
        ("client_give_ups", Json.Int (sum_counter "deadline-give-up"));
        ("busy_reject_rx", Json.Int (sum_counter "busy-reject-rx"));
        ("retry_exhausted", Json.Int exhausted);
        ("failovers", Json.Int failovers);
        ("hedges_sent", Json.Int (sum_counter "hedge-sent"));
        ("hedge_wins", Json.Int (sum_counter "hedge-win"));
        ("all_dead", Json.Int (sum_counter "all-dead"));
        ("server_cpu_us", Json.Int (Load.us_of (sum_mach Machine.cpu_seconds)));
        ( "server_cpu_wait_us",
          Json.Int (Load.us_of (sum_mach Machine.cpu_wait_seconds)) );
        ("latency_us", Histogram.to_json hist);
      ]
  in
  pr "%15s %8s %8s %8s %8s %9s %7s %7s %7s %5s\n" "control" "rate" "goodput"
    "p99 ms" "p99.9" "wasted_us" "busy" "expired" "failov" "exh";
  hr ();
  let rows =
    List.concat_map
      (fun control -> List.map (fun rate -> step control rate) rates)
      controls
  in
  pr
    "\n\
     (Reading the sweep: past the knee, \"none\" burns server CPU on\n\
    \ expired calls [wasted_us] while goodput stalls; deadline\n\
    \ propagation sheds that work at the server; admission control adds\n\
    \ explicit busy pushback [busy]; the full stack also bounds retries\n\
    \ and hedges against the slow replica.)\n";
  Json.Arr rows

(* --- inc: in-network computation on the switch --------------------------- *)

let inc_modes = [ "no-inc"; "cold"; "hot" ]

let inc ?(clients = 4) ?(rate = 2500.) ?(arrivals = 1200) ?(window = 64)
    ?(seed = 42) ?(modes = inc_modes) () =
  section "INC: reply caching and shedding at the switch";
  pr "switched star, %d clients + 1 server; uniform arrivals at\n" clients;
  pr
    "%.0f calls/s, %d arrivals per mode; seed %d.  \"hot\" repeats one\n\
     cacheable request, \"cold\" never repeats, \"no-inc\" runs the same\n\
     hot workload through a plain forwarding switch.\n\n"
    rate arrivals seed;
  check_known ~exp:"inc" ~kind:"mode" inc_modes modes;
  (* Generous per-call bounds: the story here is server throughput, not
     timeout behaviour, and the cold switched path's first call pays the
     VIP gateway fallback (~0.3 s). *)
  let attempt_timeout = 0.5 and deadline = 2.0 in
  let t_start = 0.25 in
  let step mode =
    Stats.reset_registry ();
    let sw = World.create_switched ~clients ~servers:1 ~seed () in
    let w = sw.World.sw.World.fo in
    let s, inc_opt =
      match mode with
      | "no-inc" -> Stacks.lrpc_switched ~attempt_timeout ~deadline sw
      | _ ->
          Stacks.lrpc_switched ~attempt_timeout ~deadline
            ~inc_cacheable:[ Stacks.cmd_echo ] sw
    in
    let server_wire = World.port_wire sw ~label:"s0" in
    let server_mach = s.Stacks.fos_servers.(0).Host.mach in
    let switch_machs = World.switch_machines sw in
    let wire0 = ref (Wire.stats server_wire) in
    let body k =
      Msg.of_string
        (if mode = "cold" then Printf.sprintf "k%06d" k else "hot")
    in
    let o =
      Load.run_open ~arrival:Load.Uniform ~arrivals ~window ~start_at:t_start
        ~warmup:(fun i ->
          (* Distinct warm bodies: the hot key must first miss inside
             the measured window, like any real cache-warm story. *)
          ignore
            (s.Stacks.fos_call i ~command:Stacks.cmd_echo
               (Msg.of_string (Printf.sprintf "warm%d" i))))
        ~on_start:(fun () ->
          (* Warm-up traffic is settled: count only the sweep from here.
             (The warm calls may run past [t_start] — the cold switched
             path's first call is slow — so the measured window starts
             at whatever time dispatch actually begins.) *)
          Machine.reset_cpu_seconds server_mach;
          Array.iter Machine.reset_cpu_seconds switch_machs;
          wire0 := Wire.stats server_wire)
        ~rate w ~clients:(Array.length s.Stacks.fos_clients)
        (fun i ~key -> s.Stacks.fos_call i ~command:Stacks.cmd_echo (body key))
    in
    let hist = Load.merged o.Load.o_hists in
    let lost = lost_calls ~arrivals o in
    let wires = Wire.stats server_wire in
    let frames = wires.Wire.frames - !wire0.Wire.frames in
    let bytes = wires.Wire.bytes - !wire0.Wire.bytes in
    let switch_cpu =
      Array.fold_left (fun a mc -> a +. Machine.cpu_seconds mc) 0. switch_machs
    in
    let goodput =
      goodput o.Load.o_completed (o.Load.o_t_end -. o.Load.o_t0)
    in
    let istat f = match inc_opt with None -> 0 | Some i -> f i in
    pr "%8s %8.0f %8.0f %8.2f %8.2f %8d %9d %6d %6d %6d\n%!" mode rate goodput
      (ms_at hist 50.) (ms_at hist 99.) frames
      (Load.us_of (Machine.cpu_seconds server_mach))
      (istat Inc.hits) (istat Inc.misses) lost;
    Json.Obj
      [
        ("table", Json.Str "inc");
        ("mode", Json.Str mode);
        ("config", Json.Str s.Stacks.fos_name);
        ("clients", Json.Int clients);
        ("seed", Json.Int seed);
        ("offered_rps", Json.Float rate);
        ("arrivals", Json.Int arrivals);
        ("completed", Json.Int o.Load.o_completed);
        ("failed", Json.Int o.Load.o_failed);
        ("shed", Json.Int o.Load.o_shed);
        ("lost_calls", Json.Int lost);
        ("goodput_rps", Json.Float goodput);
        ("cache_hits", Json.Int (istat Inc.hits));
        ("cache_misses", Json.Int (istat Inc.misses));
        ("inc_sheds", Json.Int (istat Inc.sheds));
        ("inc_forwarded", Json.Int (istat Inc.forwarded));
        ("inc_stored", Json.Int (istat Inc.stored));
        ("inc_invalidated", Json.Int (istat Inc.invalidated));
        ("server_wire_frames", Json.Int frames);
        ("server_wire_bytes", Json.Int bytes);
        ( "server_cpu_us",
          Json.Int (Load.us_of (Machine.cpu_seconds server_mach)) );
        ("switch_cpu_us", Json.Int (Load.us_of switch_cpu));
        ("attempt_timeout_us", Json.Int (Load.us_of attempt_timeout));
        ("deadline_us", Json.Int (Load.us_of deadline));
        ("pending_max", Json.Int o.Load.o_pending_max);
        ("p50_ms", Json.Float (ms_at hist 50.));
        ("p99_ms", Json.Float (ms_at hist 99.));
        ("latency_us", Histogram.to_json hist);
      ]
  in
  pr "%8s %8s %8s %8s %8s %8s %9s %6s %6s %6s\n" "mode" "rate" "goodput"
    "p50 ms" "p99 ms" "s0 frm" "s0cpu_us" "hits" "miss" "lost";
  hr ();
  let rows = List.map step modes in
  pr
    "\n\
     (Reading the table: past the single-server knee, \"hot\" answers\n\
    \ repeats from the switch — goodput tracks the offered rate while\n\
    \ the server's wire and CPU stay near idle; \"cold\" pays the cache\n\
    \ machinery with no hits and should match \"no-inc\" — the hook's\n\
    \ overhead is the difference, and it is small.)\n";
  Json.Arr rows

(* --- shardscale: capacity over K with per-server wires ------------------- *)

let shardscale_modes = [ "uniform"; "zipf"; "zipf-rebalance" ]

let shardscale ?(ks = [ 1; 2; 4 ]) ?(clients = 8) ?(shards = 16)
    ?(rate = 4000.) ?(arrivals = 1200) ?(window = 128) ?(seed = 42)
    ?(modes = shardscale_modes) () =
  section "Shardscale: aggregate goodput over K servers, per-server wires";
  pr "switched star, %d clients, %d shards over K servers; uniform\n" clients
    shards;
  pr
    "arrivals at %.0f calls/s aggregate, %d arrivals per cell; seed %d.\n\
     Zipfian cells run at the largest K; \"zipf-rebalance\" adds the\n\
     skew rebalancer.\n\n"
    rate arrivals seed;
  check_known ~exp:"shardscale" ~kind:"mode" shardscale_modes modes;
  if ks = [] then invalid_arg "shardscale: empty K list";
  let kmax = List.fold_left max 1 ks in
  let attempt_timeout = 0.5 and deadline = 2.0 in
  let t_start = 0.25 in
  let duration = float_of_int arrivals /. rate in
  (* Zipf(1.2) over the shard space, inverse-CDF sampled from a seeded
     generator — hot shard 0 draws roughly a third of the arrivals. *)
  let zipf_cdf =
    let w = Array.init shards (fun i -> 1. /. Float.pow (float_of_int (i + 1)) 1.2) in
    let acc = ref 0. in
    Array.map (fun x -> acc := !acc +. x; !acc) w
  in
  let step mode servers =
    Stats.reset_registry ();
    let sw = World.create_switched ~clients ~servers ~seed () in
    let w = sw.World.sw.World.fo in
    let sim = w.World.sim in
    (* A balanced round-robin deal: the rendezvous constructor hands
       seed-42 deals as lumpy as 7/2/5/2, and the biggest share would
       bottleneck the whole sweep — this experiment measures capacity
       over K, not deal luck. *)
    let map =
      List.fold_left
        (fun m sh -> Shard_map.move m ~shard:sh ~to_:(sh mod servers))
        (Shard_map.create ~seed ~shards ~replicas:servers)
        (List.init shards Fun.id)
    in
    let s, _ =
      Stacks.lrpc_switched ~attempt_timeout ~deadline
        ~policy:Select_replica.Hash ~shard_map:map sw
    in
    let coord = Option.get s.Stacks.fos_coord in
    let rb_opt =
      if mode <> "zipf-rebalance" then None
      else
        Some
          (Rebalance.create ~host:s.Stacks.fos_clients.(0) ~coord
             ~replica_health:(fun _ -> `Up)
             ~shard_load:(Rebalance.summed_load ~shards s.Stacks.fos_replicas)
             ~interval:0.05 ~skew_ratio:1.5 ~on_crash:false ~on_skew:true ())
    in
    let zipf_st = Random.State.make [| seed; 77; servers |] in
    let zipf_key () =
      let u = Random.State.float zipf_st zipf_cdf.(shards - 1) in
      let rec find i = if u <= zipf_cdf.(i) then i else find (i + 1) in
      find 0
    in
    let o =
      Load.run_open ~arrival:Load.Uniform ~arrivals ~window ~start_at:t_start
        ~warmup:(warm_replicas s)
        ~on_start:(fun () ->
          (* The warm calls may run past [t_start] on the cold switched
             path, so the measured window starts when dispatch does —
             and the rebalancer's tick window follows it. *)
          (match rb_opt with
          | Some rb -> Rebalance.start rb ~until:(Sim.now sim +. duration)
          | None -> ());
          Array.iter
            (fun (h : Host.t) -> Machine.reset_cpu_seconds h.Host.mach)
            s.Stacks.fos_servers)
        ~key:(fun k -> if mode = "uniform" then k else zipf_key ())
        ~rate w ~clients:(Array.length s.Stacks.fos_clients)
        (fun i ~key ->
          s.Stacks.fos_call i ~key ~command:Stacks.cmd_null Msg.empty)
    in
    let hist = Load.merged o.Load.o_hists in
    let lost = lost_calls ~arrivals o in
    let goodput =
      goodput o.Load.o_completed (o.Load.o_t_end -. o.Load.o_t0)
    in
    let cpu_each =
      Array.map
        (fun (h : Host.t) -> Machine.cpu_seconds h.Host.mach)
        s.Stacks.fos_servers
    in
    let cpu_sum = Array.fold_left ( +. ) 0. cpu_each in
    let cpu_max = Array.fold_left Float.max 0. cpu_each in
    let moved = Shard_map.Coordinator.moved coord in
    pr "%16s %2d %8.0f %8.0f %8.2f %8.2f %6d %6d %6d\n%!" mode servers rate
      goodput (ms_at hist 50.) (ms_at hist 99.) o.Load.o_shed moved lost;
    Json.Obj
      [
        ("table", Json.Str "shardscale");
        ("mode", Json.Str mode);
        ("config", Json.Str s.Stacks.fos_name);
        ("servers", Json.Int servers);
        ("clients", Json.Int clients);
        ("shards", Json.Int shards);
        ("seed", Json.Int seed);
        ("offered_rps", Json.Float rate);
        ("arrivals", Json.Int arrivals);
        ("completed", Json.Int o.Load.o_completed);
        ("failed", Json.Int o.Load.o_failed);
        ("shed", Json.Int o.Load.o_shed);
        ("lost_calls", Json.Int lost);
        ("goodput_rps", Json.Float goodput);
        ("moved_shards", Json.Int moved);
        ("wrong_shard_rx", Json.Int (sum_counter "wrong-shard-rx"));
        ("foreign_shard_rx", Json.Int (sum_counter "foreign-shard-rx"));
        ("server_cpu_sum_us", Json.Int (Load.us_of cpu_sum));
        ("server_cpu_max_us", Json.Int (Load.us_of cpu_max));
        ("attempt_timeout_us", Json.Int (Load.us_of attempt_timeout));
        ("deadline_us", Json.Int (Load.us_of deadline));
        ("pending_max", Json.Int o.Load.o_pending_max);
        ("p50_ms", Json.Float (ms_at hist 50.));
        ("p99_ms", Json.Float (ms_at hist 99.));
        ("latency_us", Histogram.to_json hist);
      ]
  in
  pr "%16s %2s %8s %8s %8s %8s %6s %6s %6s\n" "mode" "K" "rate" "goodput"
    "p50 ms" "p99 ms" "shed" "moved" "lost";
  hr ();
  let cells =
    List.concat_map
      (fun mode ->
        if mode = "uniform" then List.map (fun k -> (mode, k)) ks
        else [ (mode, kmax) ])
      modes
  in
  let rows = List.map (fun (mode, k) -> step mode k) cells in
  pr
    "\n\
     (Reading the table: with every server on its own wire the uniform\n\
    \ rows scale near-linearly in K until the offered rate is met; the\n\
    \ zipf row bottlenecks on the hot shard's owner, and the skew\n\
    \ rebalancer claws back part of that slope by draining the hot\n\
    \ owner's other shards.  lost must be 0 in every cell.)\n";
  Json.Arr rows
