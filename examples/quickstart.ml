(* Quickstart: build the layered RPC stack of the paper and make a call.

   Run with:  dune exec examples/quickstart.exe *)

open Xkernel
module World = Netproto.World

let () =
  (* Two simulated Sun 3/75s on an isolated 10 Mb/s ethernet. *)
  let w = World.create () in
  let client_node = World.node w 0 and server_node = World.node w 1 in

  (* Compose the paper's layered RPC on each host, bottom up:
     FRAGMENT over VIP, CHANNEL over FRAGMENT, SELECT over CHANNEL. *)
  let build (n : World.node) =
    let fragment =
      Rpc.Fragment.create ~host:n.World.host
        ~lower:(Netproto.Vip.proto n.World.vip)
    in
    let channel =
      Rpc.Channel.create ~host:n.World.host
        ~lower:(Rpc.Fragment.proto fragment) ()
    in
    Rpc.Select.create ~host:n.World.host ~channel
  in
  let client_sel = build client_node in
  let server_sel = build server_node in

  (* Register a procedure on the server: command 7 upcases its argument. *)
  Rpc.Select.register server_sel ~command:7 (fun request ->
      Ok (Msg.of_string (String.uppercase_ascii (Msg.to_string request))));
  Rpc.Select.serve server_sel;

  (* Protocol code runs in simulator fibers. *)
  World.spawn w (fun () ->
      let cl = Rpc.Select.connect client_sel ~server:server_node.World.host.Host.ip in
      match Rpc.Select.call cl ~command:7 (Msg.of_string "hello, x-kernel") with
      | Ok reply ->
          Printf.printf "reply: %S  (round trip %.2f ms of simulated time)\n"
            (Msg.to_string reply)
            (Sim.now w.World.sim *. 1e3)
      | Error e -> Printf.printf "call failed: %s\n" (Rpc.Rpc_error.to_string e));
  World.run w;

  (* The protocol graph we just used (the paper's Figure 3a). *)
  print_endline "\nprotocol graph:";
  Format.printf "%a" Proto.pp_graph [ Rpc.Select.proto client_sel ]
