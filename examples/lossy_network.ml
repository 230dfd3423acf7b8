(* At-most-once and persistence on a lossy wire.

   Sweeps the drop rate of the shared ethernet from 0% to 30% and runs
   a batch of 16 KB RPCs through layered Sprite RPC, counting calls
   that succeed, calls that time out, and — the invariant that matters —
   how many times each call executed on the server.

   Run with:  dune exec examples/lossy_network.exe *)

open Xkernel
module World = Netproto.World

let calls = 20
let payload_size = 16000

let run_batch drop_rate =
  (* fresh registry per batch so the final dump shows only the last run *)
  Stats.reset_registry ();
  let w = World.create ~seed:(7 + int_of_float (drop_rate *. 100.)) () in
  let executions = ref 0 in
  let build (n : World.node) =
    let fragment =
      Rpc.Fragment.create ~host:n.World.host
        ~lower:(Netproto.Vip.proto n.World.vip)
    in
    let channel =
      Rpc.Channel.create ~host:n.World.host
        ~lower:(Rpc.Fragment.proto fragment) ()
    in
    (fragment, channel, Rpc.Select.create ~host:n.World.host ~channel)
  in
  let frag_c, chan_c, sel_c = build (World.node w 0) in
  let _, _, sel_s = build (World.node w 1) in
  Rpc.Select.register sel_s ~command:1 (fun msg ->
      incr executions;
      Ok msg);
  Rpc.Select.serve sel_s;
  let ok = ref 0 and timeouts = ref 0 in
  World.spawn w (fun () ->
      let cl = Rpc.Select.connect sel_c ~server:(World.ip_of w 1) in
      (* Warm up cleanly so ARP is not part of the story. *)
      ignore (Rpc.Select.call cl ~command:1 Msg.empty);
      Wire.set_drop_rate w.World.wire drop_rate;
      let payload = Msg.fill payload_size 'L' in
      for _ = 1 to calls do
        match Rpc.Select.call cl ~command:1 payload with
        | Ok reply ->
            assert (Msg.length reply = payload_size);
            incr ok
        | Error Rpc.Rpc_error.Timeout -> incr timeouts
        | Error e -> failwith (Rpc.Rpc_error.to_string e)
      done);
  World.run w;
  let stat p name = Control.int_exn (Proto.control p (Control.Get_stat name)) in
  Printf.printf "%5.0f%% %9d %9d %12d %12d %12d %14d\n%!" (drop_rate *. 100.)
    !ok !timeouts
    (!executions - 1) (* minus warm-up *)
    (stat (Rpc.Channel.proto chan_c) "retransmit")
    (stat (Rpc.Fragment.proto frag_c) "retransmit")
    (stat (Rpc.Fragment.proto frag_c) "nack-tx")

let () =
  Printf.printf
    "%d calls of %d KB through SELECT-CHANNEL-FRAGMENT-VIP per drop rate\n\n"
    calls (payload_size / 1000);
  Printf.printf "%5s %9s %9s %12s %12s %12s %14s\n" "drop" "ok" "timeout"
    "executions" "chan-rexmit" "frag-rexmit" "frag-nack-tx";
  print_endline (String.make 80 '-');
  List.iter run_batch [ 0.0; 0.01; 0.05; 0.10; 0.20; 0.30 ];
  print_endline
    "\nInvariant on display: executions never exceeds ok + timeouts — a call\n\
     may fail, but it never runs twice (at-most-once), no matter how many\n\
     retransmissions and fragment NACKs the loss forces underneath.";
  print_endline
    "FRAGMENT's NACKs repair most single-fragment losses cheaply; CHANNEL's\n\
     retransmissions (full-message retries) only kick in when a whole\n\
     message or a reply vanished.";
  (* Client-side counters from the last (30% drop) batch, via the stats
     registry: every nonzero counter of the h0.0/* protocol tables. *)
  print_endline "\nClient-side counters of the 30% batch (stats registry):";
  List.iter
    (fun (name, counters) ->
      if String.length name >= 5 && String.sub name 0 5 = "h0.0/" then
        let nonzero = List.filter (fun (_, v) -> v <> 0) counters in
        if nonzero <> [] then begin
          Printf.printf "  %-14s" name;
          List.iter (fun (k, v) -> Printf.printf " %s=%d" k v) nonzero;
          print_newline ()
        end)
    (Stats.dump ())
