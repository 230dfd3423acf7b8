(* Psync reusing FRAGMENT for bulk conversation messages.

   Three hosts hold a conversation with 16 KB messages.  FRAGMENT — the
   bulk-transfer protocol carved out of Sprite RPC — carries them,
   which is exactly why the paper made FRAGMENT unreliable: Psync wants
   big messages but must not inherit request/reply semantics
   (sections 3.2 and 5).

   Run with:  dune exec examples/bulk_psync.exe *)

open Xkernel
module World = Netproto.World

let () =
  let w = World.create ~n:3 () in
  let members = [ World.ip_of w 0; World.ip_of w 1; World.ip_of w 2 ] in
  let frag_of = Hashtbl.create 3 in
  let join i =
    let n = World.node w i in
    let fragment =
      Rpc.Fragment.create ~host:n.World.host
        ~lower:(Netproto.Vip.proto n.World.vip)
    in
    Hashtbl.replace frag_of i fragment;
    let ps =
      Psync.create ~host:n.World.host ~lower:(Rpc.Fragment.proto fragment)
    in
    Psync.join ps ~conv_id:42 ~members
  in
  let convs = ref [] in
  World.spawn w (fun () -> convs := List.map join [ 0; 1; 2 ]);
  World.run w;
  let c0, c1, c2 =
    match !convs with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  (* Everyone logs what they see, with the context that came along. *)
  let watch name cv =
    Psync.on_deliver cv (fun ~sender ~id ~context msg ->
        Printf.printf "  [%6.2f ms] %s <- %s: %d bytes (msg %d, context: %s)\n"
          (Sim.now w.World.sim *. 1e3)
          name
          (Addr.Ip.to_string sender)
          (Msg.length msg) id.Psync.seq
          (if context = [] then "none"
           else
             String.concat ", "
               (List.map
                  (fun (c : Psync.msg_id) ->
                    Printf.sprintf "%s#%d" (Addr.Ip.to_string c.origin) c.seq)
                  context)))
  in
  watch "h1" c1;
  watch "h2" c2;
  watch "h0" c0;
  (* Drop ~5% of frames: FRAGMENT's NACKs and Psync's context-driven
     resends keep the conversation causally intact anyway. *)
  Wire.set_drop_rate w.World.wire 0.05;
  World.spawn w (fun () ->
      print_endline "h0 posts a 16 KB report:";
      ignore (Psync.send c0 (Msg.fill 16000 'R'));
      Sim.delay w.World.sim 0.05;
      print_endline "h1 replies (in the context of h0's report):";
      ignore (Psync.send c1 (Msg.fill 2000 'r'));
      Sim.delay w.World.sim 0.05;
      print_endline "h2 follows up on both:";
      ignore (Psync.send c2 (Msg.fill 16000 'f'));
      Sim.delay w.World.sim 0.5);
  World.run w;
  let frag0 : Rpc.Fragment.t = Hashtbl.find frag_of 0 in
  Printf.printf
    "\nh0's FRAGMENT instance carried %d packets for those messages\n"
    (Control.int_exn
       (Proto.control (Rpc.Fragment.proto frag0) (Control.Get_stat "tx-frag")));
  Printf.printf "deliveries: h0=%d h1=%d h2=%d (each host sees the 2 it didn't send)\n"
    (Psync.delivered c0) (Psync.delivered c1) (Psync.delivered c2)
