open Xkernel
module World = Netproto.World
module Fragment = Rpc.Fragment

(* Psync over FRAGMENT over VIP on [n] hosts, all joined to one
   conversation. *)
let setup w =
  let n = Array.length w.World.nodes in
  let members = List.init n (fun i -> World.ip_of w i) in
  let nodes = List.init n (fun i -> World.node w i) in
  let protos =
    List.map
      (fun (node : World.node) ->
        let f =
          Fragment.create ~host:node.World.host
            ~lower:(Netproto.Vip.proto node.World.vip)
        in
        Psync.create ~host:node.World.host ~lower:(Fragment.proto f))
      nodes
  in
  (* join opens sessions (ARP resolution), so it runs in a fiber *)
  Tutil.run_in w (fun () ->
      List.map (fun ps -> Psync.join ps ~conv_id:1 ~members) protos)

let log_deliveries cv =
  let log = ref [] in
  Psync.on_deliver cv (fun ~sender:_ ~id ~context:_ msg ->
      log := (id, Msg.to_string msg) :: !log);
  log

let broadcast_reaches_all () =
  let w = World.create ~n:3 () in
  match setup w with
  | [ c0; c1; c2 ] ->
      let l1 = log_deliveries c1 and l2 = log_deliveries c2 in
      Tutil.run_in w (fun () -> ignore (Psync.send c0 (Msg.of_string "hello all")));
      Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.2);
      Tutil.check_int "c1 got it" 1 (List.length !l1);
      Tutil.check_int "c2 got it" 1 (List.length !l2)
  | _ -> assert false

let context_carried () =
  let w = World.create ~n:2 () in
  match setup w with
  | [ c0; c1 ] ->
      let ctxs = ref [] in
      Psync.on_deliver c1 (fun ~sender:_ ~id:_ ~context msg ->
          ctxs := (Msg.to_string msg, context) :: !ctxs);
      Tutil.run_in w (fun () ->
          ignore (Psync.send c0 (Msg.of_string "first"));
          Sim.delay w.World.sim 0.05;
          ignore (Psync.send c0 (Msg.of_string "second")));
      Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.2);
      let ctx_of name = List.assoc name !ctxs in
      Tutil.check_int "first has empty context" 0 (List.length (ctx_of "first"));
      Tutil.check_int "second names its predecessor" 1 (List.length (ctx_of "second"))
  | _ -> assert false

let causal_order_under_reorder () =
  (* Delay the first message on the wire so the reply overtakes it; the
     receiver must still deliver in causal order. *)
  let w = World.create ~n:2 () in
  match setup w with
  | [ c0; c1 ] ->
      let order = ref [] in
      Psync.on_deliver c1 (fun ~sender:_ ~id:_ ~context:_ msg ->
          order := Msg.to_string msg :: !order);
      (* First psync data frame gets a big extra delay. *)
      let armed = ref true in
      Wire.set_fault_hook w.World.wire
        (Some
           (fun _ _ ->
             if !armed then begin
               armed := false;
               [ Wire.Delay 0.02 ]
             end
             else []));
      Tutil.run_in w (fun () ->
          ignore (Psync.send c0 (Msg.of_string "m1"));
          ignore (Psync.send c0 (Msg.of_string "m2")));
      Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.5);
      Alcotest.(check (list string)) "causal order preserved" [ "m1"; "m2" ]
        (List.rev !order)
  | _ -> assert false

let lost_message_recovered_by_context () =
  (* m1 is lost entirely; m2 arrives naming m1 in its context; the
     receiver asks m1's sender to resend — Psync's recovery. *)
  let w = World.create ~n:2 () in
  match setup w with
  | [ c0; c1 ] ->
      let order = ref [] in
      Psync.on_deliver c1 (fun ~sender:_ ~id:_ ~context:_ msg ->
          order := Msg.to_string msg :: !order);
      let armed = ref true in
      Wire.set_fault_hook w.World.wire
        (Some
           (fun _ _ ->
             if !armed then begin
               armed := false;
               [ Wire.Drop ]
             end
             else []));
      Tutil.run_in w (fun () ->
          ignore (Psync.send c0 (Msg.of_string "lost"));
          ignore (Psync.send c0 (Msg.of_string "carrier")));
      Tutil.run_in w (fun () -> Sim.delay w.World.sim 1.0);
      Alcotest.(check (list string)) "both delivered, in order"
        [ "lost"; "carrier" ] (List.rev !order);
      Tutil.check_int "nothing left blocked" 0 (Psync.blocked c1)
  | _ -> assert false

let many_to_many_conversation () =
  let w = World.create ~n:3 () in
  match setup w with
  | [ c0; c1; c2 ] ->
      let l0 = log_deliveries c0 and l1 = log_deliveries c1 and l2 = log_deliveries c2 in
      Tutil.run_in w (fun () ->
          ignore (Psync.send c0 (Msg.of_string "from-0"));
          Sim.delay w.World.sim 0.05;
          ignore (Psync.send c1 (Msg.of_string "from-1"));
          Sim.delay w.World.sim 0.05;
          ignore (Psync.send c2 (Msg.of_string "from-2")));
      Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.3);
      (* everyone sees the two messages they did not send *)
      Tutil.check_int "c0 sees 2" 2 (List.length !l0);
      Tutil.check_int "c1 sees 2" 2 (List.length !l1);
      Tutil.check_int "c2 sees 2" 2 (List.length !l2)
  | _ -> assert false

let bulk_messages_reuse_fragment () =
  (* Psync's 16 KB messages ride FRAGMENT — the reuse the paper made
     FRAGMENT unreliable for. *)
  let w = World.create ~n:2 () in
  match setup w with
  | [ c0; c1 ] ->
      let l1 = log_deliveries c1 in
      let payload = Tutil.body 16000 in
      Tutil.run_in w (fun () -> ignore (Psync.send c0 (Msg.of_string payload)));
      Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.5);
      (match !l1 with
      | [ (_, s) ] -> Tutil.check_str "16k conversation message" payload s
      | _ -> Alcotest.fail "expected one delivery");
      (* IP never touched: FRAGMENT under VIP keeps it on the wire *)
      Tutil.check_int "IP idle" 0
        (Tutil.stat (Netproto.Ip.proto (World.node w 0).World.ip) "tx")
  | _ -> assert false

let () =
  Alcotest.run "psync"
    [
      ( "conversations",
        [
          Alcotest.test_case "broadcast reaches members" `Quick broadcast_reaches_all;
          Alcotest.test_case "context carried" `Quick context_carried;
          Alcotest.test_case "many-to-many" `Quick many_to_many_conversation;
          Alcotest.test_case "16k via FRAGMENT reuse" `Quick
            bulk_messages_reuse_fragment;
        ] );
      ( "causality",
        [
          Alcotest.test_case "causal order under reorder" `Quick
            causal_order_under_reorder;
          Alcotest.test_case "loss recovered via context" `Quick
            lost_message_recovered_by_context;
        ] );
    ]
