(* xkrpc — command-line driver for the reproduction.

   Subcommands:
     exp    run one experiment (or all) by id: intro, t1, t2, t3,
            removal, figures, ablation, cpu, loss, capacity, failover,
            rebalance, overload, inc, shardscale, all
     graph  print the protocol graph of a named configuration
     rpc    run an ad-hoc RPC workload (configurable size/count/loss)
     trace  run one RPC with packet tracing enabled *)

open Xkernel
module World = Netproto.World
module E = Rpc.Experiments

(* The open-loop experiments (capacity, failover, rebalance, overload,
   inc, shardscale) are parameterized from the command line; the paper
   experiments are closed (unit -> Json.t). *)
type cap_opts = {
  cap_stacks : string list option;
  cap_rates : float list option;
  cap_arrivals : int option;
  cap_clients : int option;
  cap_window : int option;
  cap_conc : int list option;
  cap_servers : int option;
  cap_controls : string list option;
  cap_spike : float option;
  cap_seed : int option;
  cap_shards : int option;
  cap_modes : string list option;
  cap_ks : int list option;
}

let experiments cap =
  [
    ("intro", E.intro);
    ("t1", E.table1);
    ("t2", E.table2);
    ("t3", E.table3);
    ("removal", E.removal);
    ( "figures",
      fun () ->
        E.figures
          ~fig2_extra:(fun ~host ~lower ->
            Psync.proto (Psync.create ~host ~lower))
          () );
    ("ablation", E.ablation);
    ("cpu", E.cpu_note);
    ("loss", E.loss_sweep);
    ( "capacity",
      fun () ->
        E.capacity ?stacks:cap.cap_stacks ?rates:cap.cap_rates
          ?arrivals:cap.cap_arrivals ?clients:cap.cap_clients
          ?window:cap.cap_window ?conc:cap.cap_conc () );
    ( "failover",
      fun () ->
        E.failover ?servers:cap.cap_servers ?clients:cap.cap_clients
          ?rate:
            (match cap.cap_rates with
            | Some (r :: _) -> Some r
            | _ -> None)
          ?arrivals:cap.cap_arrivals ?window:cap.cap_window ?seed:cap.cap_seed
          () );
    ( "rebalance",
      fun () ->
        E.rebalance ?servers:cap.cap_servers ?clients:cap.cap_clients
          ?shards:cap.cap_shards
          ?rate:
            (match cap.cap_rates with
            | Some (r :: _) -> Some r
            | _ -> None)
          ?arrivals:cap.cap_arrivals ?window:cap.cap_window ?seed:cap.cap_seed
          ?modes:cap.cap_modes () );
    ( "overload",
      fun () ->
        E.overload ?servers:cap.cap_servers ?clients:cap.cap_clients
          ?rates:cap.cap_rates ?arrivals:cap.cap_arrivals
          ?window:cap.cap_window ?controls:cap.cap_controls
          ?spike:cap.cap_spike () );
    ( "inc",
      fun () ->
        E.inc ?clients:cap.cap_clients
          ?rate:
            (match cap.cap_rates with
            | Some (r :: _) -> Some r
            | _ -> None)
          ?arrivals:cap.cap_arrivals ?window:cap.cap_window ?seed:cap.cap_seed
          ?modes:cap.cap_modes () );
    ( "shardscale",
      fun () ->
        E.shardscale ?ks:cap.cap_ks ?clients:cap.cap_clients
          ?shards:cap.cap_shards
          ?rate:
            (match cap.cap_rates with
            | Some (r :: _) -> Some r
            | _ -> None)
          ?arrivals:cap.cap_arrivals ?window:cap.cap_window ?seed:cap.cap_seed
          ?modes:cap.cap_modes () );
  ]

let write_json path doc =
  match Json.write_file path doc with
  | () -> Printf.printf "wrote JSON results to %s\n" path
  | exception Sys_error e ->
      Printf.eprintf "xkrpc: cannot write JSON: %s\n" e;
      exit 1

(* A numeric argument out of range: one line on stderr, exit code 2. *)
let usage_error msg =
  Printf.eprintf "xkrpc: %s\n" msg;
  exit 2

let run_exp json cap ids =
  let experiments = experiments cap in
  let ids = if ids = [] || List.mem "all" ids then List.map fst experiments else ids in
  let sections =
    List.map
      (fun id ->
        match List.assoc_opt id experiments with
        | Some f -> (
            try (id, f ()) with Invalid_argument msg -> usage_error msg)
        | None ->
            Printf.eprintf "unknown experiment %S (try: %s, all)\n" id
              (String.concat ", " (List.map fst experiments));
            exit 1)
      ids
  in
  match json with
  | None -> ()
  | Some path ->
      write_json path
        (Json.Obj
           [ ("experiments", Json.Obj sections); ("stats", Stats.json ()) ])

let stack_builders =
  [
    ("mrpc-eth", fun w -> Rpc.Stacks.mrpc w ~lower:Rpc.Stacks.L_eth);
    ("mrpc-ip", fun w -> Rpc.Stacks.mrpc w ~lower:Rpc.Stacks.L_ip);
    ("mrpc-vip", fun w -> Rpc.Stacks.mrpc w ~lower:Rpc.Stacks.L_vip);
    ("lrpc", fun w -> Rpc.Stacks.lrpc w);
    ("lrpc-vipsize", Rpc.Stacks.lrpc_vip_size);
  ]

let stack_names = String.concat ", " (List.map fst stack_builders)

let with_stack name f =
  match List.assoc_opt name stack_builders with
  | Some mk -> f mk
  | None ->
      Printf.eprintf "unknown configuration %S (try: %s)\n" name stack_names;
      exit 1

let run_graph name =
  with_stack name (fun mk ->
      let w = World.create () in
      let e = mk w in
      Format.printf "%a" Proto.pp_graph e.Rpc.Stacks.tops)

let run_rpc name size count drop seed json =
  if count < 1 then usage_error "--count must be at least 1";
  if not (drop >= 0. && drop <= 1.) then
    usage_error "--drop must be in [0, 1]";
  with_stack name (fun mk ->
      let w = World.create ~seed () in
      let e = mk w in
      let ok = ref 0 and failed = ref 0 in
      let total = ref 0. in
      World.spawn w (fun () ->
          (* warm up before enabling loss so ARP isn't part of the story *)
          ignore (e.Rpc.Stacks.call ~command:Rpc.Stacks.cmd_null Msg.empty);
          Wire.set_drop_rate w.World.wire drop;
          let payload = Msg.fill size 'x' in
          let t0 = Sim.now w.World.sim in
          for _ = 1 to count do
            match e.Rpc.Stacks.call ~command:Rpc.Stacks.cmd_null payload with
            | Ok _ -> incr ok
            | Error _ -> incr failed
          done;
          let dt = Sim.now w.World.sim -. t0 in
          total := dt;
          Printf.printf
            "%s: %d/%d calls ok (%d failed) in %.2f ms simulated\n" name !ok
            count !failed (dt *. 1e3);
          Printf.printf "per call: %.3f ms" (dt /. float_of_int count *. 1e3);
          if size > 0 then
            Printf.printf "  (%.0f kB/s)"
              (float_of_int size /. (dt /. float_of_int count) /. 1000.);
          print_newline ());
      World.run w;
      match json with
      | None -> ()
      | Some path ->
          write_json path
            (Json.Obj
               [
                 ( "workload",
                   Json.Obj
                     [
                       ("config", Json.Str name);
                       ("size", Json.Int size);
                       ("count", Json.Int count);
                       ("drop", Json.Float drop);
                       ("seed", Json.Int seed);
                       ("ok", Json.Int !ok);
                       ("failed", Json.Int !failed);
                       ("total_ms", Json.Float (!total *. 1e3));
                       ( "per_call_ms",
                         Json.Float (!total /. float_of_int count *. 1e3) );
                     ] );
                 ("stats", Stats.json ());
               ]))

let run_trace name size =
  Trace.set_level (Some Logs.Debug);
  with_stack name (fun mk ->
      let w = World.create () in
      let e = mk w in
      World.spawn w (fun () ->
          match e.Rpc.Stacks.call ~command:Rpc.Stacks.cmd_null (Msg.fill size 't') with
          | Ok _ -> Printf.printf "call completed at %.3f ms\n" (Sim.now w.World.sim *. 1e3)
          | Error err -> Printf.printf "call failed: %s\n" (Rpc.Rpc_error.to_string err));
      World.run w)

let run_ping remote =
  if remote then begin
    let inet = World.create_internet () in
    let wn = World.node inet.World.west 0 in
    let en = World.node inet.World.east 0 in
    let iw = Netproto.Icmp.create ~host:wn.World.host ~ip:wn.World.ip in
    let _ie = Netproto.Icmp.create ~host:en.World.host ~ip:en.World.ip in
    Sim.spawn inet.World.inet_sim (fun () ->
        for seq = 1 to 4 do
          match Netproto.Icmp.ping iw ~peer:en.World.host.Host.ip ~timeout:5.0 () with
          | Some rtt ->
              Printf.printf "64 bytes from %s (via router): seq=%d time=%.2f ms\n"
                (Addr.Ip.to_string en.World.host.Host.ip) seq (rtt *. 1e3)
          | None -> Printf.printf "seq=%d timed out\n" seq
        done);
    Sim.run inet.World.inet_sim
  end
  else begin
    let w = World.create () in
    let n0 = World.node w 0 and n1 = World.node w 1 in
    let i0 = Netproto.Icmp.create ~host:n0.World.host ~ip:n0.World.ip in
    let _i1 = Netproto.Icmp.create ~host:n1.World.host ~ip:n1.World.ip in
    World.spawn w (fun () ->
        for seq = 1 to 4 do
          match Netproto.Icmp.ping i0 ~peer:n1.World.host.Host.ip () with
          | Some rtt ->
              Printf.printf "64 bytes from %s: seq=%d time=%.2f ms\n"
                (Addr.Ip.to_string n1.World.host.Host.ip) seq (rtt *. 1e3)
          | None -> Printf.printf "seq=%d timed out\n" seq
        done);
    World.run w
  end

let run_check name =
  with_stack name (fun mk ->
      let w = World.create () in
      let e = mk w in
      let issues = Rpc.Meta.check e.Rpc.Stacks.tops in
      Format.printf "%a" Rpc.Meta.pp_report issues;
      if issues <> [] then exit 1)

(* --- cmdliner plumbing ---------------------------------------------------- *)

open Cmdliner

let json_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write results and the full stats dump to $(docv) as JSON")

(* Comma-separated list options for the open-loop experiments. *)
let split_list conv what s =
  try Some (List.map conv (String.split_on_char ',' (String.trim s)))
  with _ ->
    Printf.eprintf "xkrpc: cannot parse %s list %S\n" what s;
    exit 1

let cap_opts_term =
  let stacks =
    Arg.(
      value
      & opt (some string) None
      & info [ "stacks" ] ~docv:"S1,S2"
          ~doc:
            "Capacity sweep: stacks to drive (mrpc-eth, mrpc-ip, mrpc-vip, \
             lrpc, lrpc-arto)")
  in
  let rates =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates" ] ~docv:"R1,R2"
          ~doc:
            "Open-loop experiments: offered loads in calls/second; \
             failover, rebalance, inc and shardscale take the first")
  in
  let arrivals =
    Arg.(
      value
      & opt (some int) None
      & info [ "arrivals" ] ~docv:"N"
          ~doc:"Open-loop experiments: arrivals per step")
  in
  let clients =
    Arg.(
      value
      & opt (some int) None
      & info [ "load-clients" ] ~docv:"M"
          ~doc:"Open-loop experiments: client hosts calling the servers")
  in
  let window =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Open-loop experiments: pending-call window (beyond: shed)")
  in
  let conc =
    Arg.(
      value
      & opt (some string) None
      & info [ "conc" ] ~docv:"C1,C2"
          ~doc:"Capacity sweep: closed-loop concurrency steps (total fibers)")
  in
  let servers =
    Arg.(
      value
      & opt (some int) None
      & info [ "servers" ] ~docv:"K"
          ~doc:
            "Failover, rebalance and overload experiments: server replicas \
             behind the REPLICA map")
  in
  let controls =
    Arg.(
      value
      & opt (some string) None
      & info [ "controls" ] ~docv:"C1,C2"
          ~doc:
            "Overload sweep: control stacks to compare (none, deadline, \
             deadline+admit, full)")
  in
  let spike =
    Arg.(
      value
      & opt (some float) None
      & info [ "spike" ] ~docv:"SECS"
          ~doc:
            "Overload sweep: add a delay spike of $(docv) seconds over the \
             middle half of each step")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "exp-seed" ] ~docv:"SEED"
          ~doc:"Failover, rebalance, inc and shardscale experiments: world seed")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"S"
          ~doc:"Rebalance and shardscale experiments: virtual shards in the map")
  in
  let modes =
    Arg.(
      value
      & opt (some string) None
      & info [ "modes" ] ~docv:"M1,M2"
          ~doc:
            "Rebalance/inc/shardscale experiments: modes to run (e.g. \
             static, crash-rebalance, skew-rebalance; no-inc, cold, hot; \
             uniform, zipf, zipf-rebalance)")
  in
  let ks =
    Arg.(
      value
      & opt (some string) None
      & info [ "ks" ] ~docv:"K1,K2"
          ~doc:"Shardscale experiment: server counts to sweep")
  in
  let assemble stacks rates arrivals clients window conc servers controls spike
      seed shards modes ks =
    {
      cap_stacks = Option.map (fun s -> String.split_on_char ',' s) stacks;
      cap_rates =
        Option.bind rates (split_list float_of_string "rate");
      cap_arrivals = arrivals;
      cap_clients = clients;
      cap_window = window;
      cap_conc = Option.bind conc (split_list int_of_string "concurrency");
      cap_servers = servers;
      cap_controls = Option.map (fun s -> String.split_on_char ',' s) controls;
      cap_spike = spike;
      cap_seed = seed;
      cap_shards = shards;
      cap_modes = Option.map (fun s -> String.split_on_char ',' s) modes;
      cap_ks = Option.bind ks (split_list int_of_string "server count");
    }
  in
  Term.(
    const assemble $ stacks $ rates $ arrivals $ clients $ window $ conc
    $ servers $ controls $ spike $ seed $ shards $ modes $ ks)

let exp_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run experiments by id (default: all)")
    Term.(const run_exp $ json_opt $ cap_opts_term $ ids)

let config_pos =
  Arg.(value & pos 0 string "lrpc" & info [] ~docv:"CONFIG")

let graph_cmd =
  Cmd.v
    (Cmd.info "graph" ~doc:"Print a configuration's protocol graph")
    Term.(const run_graph $ config_pos)

let rpc_cmd =
  let size =
    Arg.(value & opt int 0 & info [ "s"; "size" ] ~docv:"BYTES" ~doc:"Request size")
  in
  let count =
    Arg.(value & opt int 100 & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of calls")
  in
  let drop =
    Arg.(
      value
      & opt float 0.
      & info [ "d"; "drop" ] ~docv:"P" ~doc:"Frame drop probability")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed")
  in
  Cmd.v
    (Cmd.info "rpc" ~doc:"Run an ad-hoc RPC workload")
    Term.(const run_rpc $ config_pos $ size $ count $ drop $ seed $ json_opt)

let trace_cmd =
  let size =
    Arg.(value & opt int 0 & info [ "s"; "size" ] ~docv:"BYTES" ~doc:"Request size")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run one RPC with packet tracing")
    Term.(const run_trace $ config_pos $ size)

let ping_cmd =
  let remote =
    Arg.(value & flag & info [ "r"; "remote" ] ~doc:"Ping across the router")
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"ICMP echo through the simulated network")
    Term.(const run_ping $ remote)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify a configuration against the meta-protocol rules")
    Term.(const run_check $ config_pos)

let () =
  let doc = "RPC in the x-Kernel — reproduction driver" in
  let info = Cmd.info "xkrpc" ~doc ~version:"1.0" in
  exit (Cmd.eval (Cmd.group info [ exp_cmd; graph_cmd; rpc_cmd; trace_cmd; ping_cmd; check_cmd ]))
