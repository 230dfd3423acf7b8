(* Mix-and-match RPCs (section 5 of the paper).

   Sun RPC decomposed into SUN_SELECT + REQUEST_REPLY plus a library of
   optional authentication layers, recomposed three ways:

   1. SUN_SELECT - REQUEST_REPLY - VIP         (classic, zero-or-more)
   2. SUN_SELECT - REQUEST_REPLY - FRAGMENT    (bulk without IP)
   3. SUN_SELECT - CHANNEL - FRAGMENT          (at-most-once upgrade)
   and 1 again with AUTH_UNIX slotted in underneath.

   Run with:  dune exec examples/mix_and_match.exe *)

open Xkernel
module World = Netproto.World
module Sun = Rpc.Sun_select

let prog = 100003
let vers = 2
let proc_count = 1

let demo name ~mk_stack =
  let w = World.create () in
  let executions = ref 0 in
  let sun0 = mk_stack (World.node w 0) in
  let sun1 = mk_stack (World.node w 1) in
  Sun.register sun1 ~prog ~vers ~proc:proc_count (fun msg ->
      incr executions;
      Ok msg);
  Sun.serve sun1;
  (* Duplicate every frame: semantics differences become visible. *)
  Wire.set_dup_rate w.World.wire 1.0;
  World.spawn w (fun () ->
      let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog ~vers in
      let payload = Msg.fill 9000 'd' in
      for _ = 1 to 3 do
        match Sun.call cl ~proc:proc_count payload with
        | Ok reply -> assert (Msg.length reply = 9000)
        | Error e -> Printf.printf "  call failed: %s\n" (Rpc.Rpc_error.to_string e)
      done);
  (try World.run w with Failure m -> Printf.printf "  %s\n" m);
  Printf.printf "%-44s 3 calls -> %d executions\n" name !executions

let () =
  print_endline "Composing Sun RPC from building blocks:\n";
  demo "SUN_SELECT / REQUEST_REPLY / VIP" ~mk_stack:(fun (n : World.node) ->
      let rr =
        Rpc.Request_reply.create ~host:n.World.host
          ~lower:(Netproto.Vip.proto n.World.vip)
      in
      Sun.create ~host:n.World.host
        ~transaction:(Sun.over_request_reply rr ~proto_num:98));
  demo "SUN_SELECT / REQUEST_REPLY / FRAGMENT / VIP"
    ~mk_stack:(fun (n : World.node) ->
      let frag =
        Rpc.Fragment.create ~host:n.World.host
          ~lower:(Netproto.Vip.proto n.World.vip)
      in
      let rr =
        Rpc.Request_reply.create ~host:n.World.host
          ~lower:(Rpc.Fragment.proto frag)
      in
      Sun.create ~host:n.World.host
        ~transaction:(Sun.over_request_reply rr ~proto_num:98));
  demo "SUN_SELECT / CHANNEL / FRAGMENT / VIP" ~mk_stack:(fun (n : World.node) ->
      let frag =
        Rpc.Fragment.create ~host:n.World.host
          ~lower:(Netproto.Vip.proto n.World.vip)
      in
      let ch =
        Rpc.Channel.create ~host:n.World.host ~lower:(Rpc.Fragment.proto frag) ()
      in
      Sun.create ~host:n.World.host
        ~transaction:(Sun.over_channel ch ~proto_num:98));
  demo "SUN_SELECT / REQUEST_REPLY / AUTH_UNIX / VIP"
    ~mk_stack:(fun (n : World.node) ->
      let auth =
        Rpc.Auth.unix ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
          ~uid:100 ~gid:10
          ~allow:(fun ~uid ~gid:_ -> uid = 100)
          ()
      in
      let rr =
        Rpc.Request_reply.create ~host:n.World.host ~lower:(Rpc.Auth.proto auth)
      in
      Sun.create ~host:n.World.host
        ~transaction:(Sun.over_request_reply rr ~proto_num:98));
  print_endline
    "\nEvery frame was duplicated on the wire.  The bare REQUEST_REPLY stack\n\
     re-executes duplicated requests (zero-or-more semantics); the stacks\n\
     with FRAGMENT or CHANNEL below absorb the duplicates (FRAGMENT's\n\
     recently-completed cache, CHANNEL's at-most-once filter) — and only\n\
     the CHANNEL swap makes that a guarantee rather than an accident.\n\
     All without touching SUN_SELECT: the paper's mix-and-match argument."
