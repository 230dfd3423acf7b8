open Xkernel
module World = Netproto.World
module RR = Rpc.Request_reply
module Sun = Rpc.Sun_select
module Fragment = Rpc.Fragment
module Channel = Rpc.Channel

let sun_proto = 98

(* SUN_SELECT over a transaction layer over a delivery stack, with a
   counting echo registered as (prog 100003, vers 2, proc 1). *)
let register_std sun execs =
  Sun.register sun ~prog:100003 ~vers:2 ~proc:1 (fun msg ->
      incr execs;
      Ok msg);
  Sun.register sun ~prog:100003 ~vers:2 ~proc:2 (fun _ -> Error 5)

let setup_rr w =
  let mk (n : World.node) =
    let rr =
      RR.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
    in
    (rr, Sun.create ~host:n.World.host ~transaction:(Sun.over_request_reply rr ~proto_num:sun_proto))
  in
  let rr0, sun0 = mk (World.node w 0) in
  let rr1, sun1 = mk (World.node w 1) in
  let execs = ref 0 in
  register_std sun1 execs;
  Sun.serve sun1;
  (rr0, rr1, sun0, sun1, execs)

let basic_sun_call () =
  let w = World.create () in
  let _, _, sun0, sun1, execs = setup_rr w in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:1 (Msg.of_string "nfs read"))
  in
  Tutil.check_str "echo" "nfs read" (Msg.to_string (Tutil.ok_exn "r" r));
  Tutil.check_int "executed" 1 !execs;
  Tutil.check_int "handled" 1 (Sun.calls_handled sun1)

let prog_unavail () =
  let w = World.create () in
  let _, _, sun0, _, _ = setup_rr w in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:42 ~vers:1 in
        Sun.call cl ~proc:1 Msg.empty)
  in
  Alcotest.(check bool) "program unavailable" true
    (r = Error (Rpc.Rpc_error.Remote Sun.status_prog_unavail))

let proc_unavail () =
  let w = World.create () in
  let _, _, sun0, _, _ = setup_rr w in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:99 Msg.empty)
  in
  Alcotest.(check bool) "procedure unavailable" true
    (r = Error (Rpc.Rpc_error.Remote Sun.status_proc_unavail))

let handler_status () =
  let w = World.create () in
  let _, _, sun0, _, _ = setup_rr w in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:2 Msg.empty)
  in
  Alcotest.(check bool) "handler status" true (r = Error (Rpc.Rpc_error.Remote 5))

let zero_or_more_reexecutes () =
  (* The defining contrast with CHANNEL: a duplicated request really is
     executed again, because REQUEST_REPLY keeps no server state. *)
  let w = World.create () in
  let _, rr1, sun0, _, execs = setup_rr w in
  Tutil.run_in w (fun () ->
      let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
      ignore (Tutil.ok_exn "warm" (Sun.call cl ~proc:1 (Msg.of_string "w"))));
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  Tutil.run_in w (fun () ->
      let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
      ignore (Tutil.ok_exn "dup" (Sun.call cl ~proc:1 (Msg.of_string "x"))));
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "re-executed (%d executions for 2 calls)" !execs)
    true (!execs > 2);
  Alcotest.(check bool) "server-side executions counted" true
    (Tutil.stat (RR.proto rr1) "executed" > 2)

let at_most_once_with_channel_swap () =
  (* "one can replace the REQUEST_REPLY protocol with the CHANNEL
     protocol": same SUN_SELECT, at-most-once semantics now hold. *)
  let w = World.create () in
  let mk (n : World.node) =
    let f =
      Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
    in
    let ch = Channel.create ~host:n.World.host ~lower:(Fragment.proto f) () in
    Sun.create ~host:n.World.host
      ~transaction:(Sun.over_channel ch ~proto_num:sun_proto)
  in
  let sun0 = mk (World.node w 0) in
  let sun1 = mk (World.node w 1) in
  let execs = ref 0 in
  register_std sun1 execs;
  Sun.serve sun1;
  Tutil.run_in w (fun () ->
      let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
      ignore (Tutil.ok_exn "warm" (Sun.call cl ~proc:1 (Msg.of_string "w"))));
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  Tutil.run_in w (fun () ->
      let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
      for _ = 1 to 5 do
        ignore (Tutil.ok_exn "amo" (Sun.call cl ~proc:1 (Msg.of_string "x")))
      done);
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.5);
  Tutil.check_int "exactly once per call" 6 !execs

let retransmit_on_loss () =
  let w = World.create () in
  let rr0, _, sun0, _, execs = setup_rr w in
  Tutil.run_in w (fun () ->
      let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
      ignore (Tutil.ok_exn "warm" (Sun.call cl ~proc:1 (Msg.of_string "w"))));
  let dropped = ref false in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         if !dropped then []
         else begin
           dropped := true;
           [ Wire.Drop ]
         end));
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:1 (Msg.of_string "again"))
  in
  Tutil.check_str "recovered" "again" (Msg.to_string (Tutil.ok_exn "r" r));
  Alcotest.(check bool) "retransmitted" true
    (Tutil.stat (RR.proto rr0) "retransmit" >= 1);
  Alcotest.(check bool) "at least the two executions" true (!execs >= 2)

(* --- authentication layers --- *)

let with_auth ~mk_auth w =
  let mk (n : World.node) =
    let auth = mk_auth n in
    let rr = RR.create ~host:n.World.host ~lower:(Rpc.Auth.proto auth) in
    ( auth,
      Sun.create ~host:n.World.host
        ~transaction:(Sun.over_request_reply rr ~proto_num:sun_proto) )
  in
  let a0, sun0 = mk (World.node w 0) in
  let a1, sun1 = mk (World.node w 1) in
  let execs = ref 0 in
  register_std sun1 execs;
  Sun.serve sun1;
  (a0, a1, sun0, sun1, execs)

let auth_none_passes () =
  let w = World.create () in
  let _, _, sun0, _, execs =
    with_auth w ~mk_auth:(fun (n : World.node) ->
        Rpc.Auth.none ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip) ())
  in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:1 (Msg.of_string "open sesame"))
  in
  Tutil.check_str "through AUTH_NONE" "open sesame"
    (Msg.to_string (Tutil.ok_exn "r" r));
  Tutil.check_int "executed" 1 !execs

let auth_unix_accepts_allowed_uid () =
  let w = World.create () in
  let mk_auth (n : World.node) =
    Rpc.Auth.unix ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
      ~uid:100 ~gid:10
      ~allow:(fun ~uid ~gid:_ -> uid = 100)
      ()
  in
  let _, _, sun0, _, execs = with_auth w ~mk_auth in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:1 (Msg.of_string "as uid 100"))
  in
  Tutil.check_str "accepted" "as uid 100" (Msg.to_string (Tutil.ok_exn "r" r));
  Tutil.check_int "executed" 1 !execs

(* A unix credential must be exactly a uid and a gid: one byte short or
   over is rejected even when its first word is an allowed uid. *)
let auth_unix_rejects_malformed () =
  let w = World.create () in
  let mk_auth (n : World.node) =
    Rpc.Auth.unix ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
      ~uid:100 ~gid:10
      ~allow:(fun ~uid ~gid:_ -> uid = 100)
      ()
  in
  let _, a1, _, _, execs = with_auth w ~mk_auth in
  let frame cred =
    let n = String.length cred in
    let b = Bytes.create (7 + n + 1) in
    Codec.set_u8 b 0 1 (* flavour: unix *);
    Codec.set_u32 b 1 95 (* REQUEST_REPLY *);
    Codec.set_u16 b 5 n;
    Codec.set_string b 7 cred;
    Codec.set_string b (7 + n) "x";
    Msg.of_string (Bytes.unsafe_to_string b)
  in
  let uid_100 = "\000\000\000\100" in
  Tutil.deliver_from_below w ~host:(World.node w 1).World.host
    ~peer:(World.ip_of w 0) (Rpc.Auth.proto a1)
    [
      frame (uid_100 ^ "\000\000\000");
      frame (uid_100 ^ "\000\000\000\010\000");
    ];
  Tutil.check_int "both rejected" 2 (Tutil.stat (Rpc.Auth.proto a1) "auth-reject");
  Tutil.check_int "never executed" 0 !execs

let auth_unix_rejects_wrong_uid () =
  let w = World.create () in
  let mk_auth (n : World.node) =
    Rpc.Auth.unix ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
      ~uid:666 ~gid:10
      ~allow:(fun ~uid ~gid:_ -> uid = 100)
      ()
  in
  let _, a1, sun0, _, execs = with_auth w ~mk_auth in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:1 (Msg.of_string "as uid 666"))
  in
  Alcotest.(check bool) "call times out" true (r = Error Rpc.Rpc_error.Timeout);
  Tutil.check_int "never executed" 0 !execs;
  Alcotest.(check bool) "rejections counted" true (Tutil.stat (Rpc.Auth.proto a1) "auth-reject" > 0)

let auth_digest_detects_tampering () =
  let w = World.create () in
  let mk_auth (n : World.node) =
    Rpc.Auth.digest ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
      ~key:"shared-secret" ()
  in
  let _, a1, sun0, _, execs = with_auth w ~mk_auth in
  (* First call clean. *)
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:1 (Msg.of_string "signed"))
  in
  Tutil.check_str "clean call passes" "signed" (Msg.to_string (Tutil.ok_exn "r" r));
  Tutil.check_int "one execution" 1 !execs;
  (* Now corrupt payload bytes on the wire: digest must catch it and the
     call must never execute. *)
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Corrupt 60 ]));
  let r2 =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:1 (Msg.of_string "tampered-with-payload"))
  in
  Alcotest.(check bool) "tampered call fails" true (r2 = Error Rpc.Rpc_error.Timeout);
  Tutil.check_int "still one execution" 1 !execs;
  Alcotest.(check bool) "digest rejections" true (Tutil.stat (Rpc.Auth.proto a1) "auth-reject" > 0)

let mix_sun_select_with_fragment () =
  (* "one can compose SUN_SELECT and REQUEST_REPLY with FRAGMENT rather
     than having to depend on IP to fragment large messages." *)
  let w = World.create () in
  let mk (n : World.node) =
    let f =
      Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
    in
    let rr = RR.create ~host:n.World.host ~lower:(Fragment.proto f) in
    ( f,
      Sun.create ~host:n.World.host
        ~transaction:(Sun.over_request_reply rr ~proto_num:sun_proto) )
  in
  let f0, sun0 = mk (World.node w 0) in
  let _, sun1 = mk (World.node w 1) in
  let execs = ref 0 in
  register_std sun1 execs;
  Sun.serve sun1;
  let payload = Tutil.body 12000 in
  let r =
    Tutil.run_in w (fun () ->
        let cl = Sun.connect sun0 ~server:(World.ip_of w 1) ~prog:100003 ~vers:2 in
        Sun.call cl ~proc:1 (Msg.of_string payload))
  in
  Tutil.check_str "12k both ways" payload (Msg.to_string (Tutil.ok_exn "r" r));
  Alcotest.(check bool) "FRAGMENT did the splitting" true
    (Tutil.stat (Fragment.proto f0) "tx-frag" >= 12);
  (* and IP stayed out of it entirely *)
  Tutil.check_int "IP idle" 0
    (Tutil.stat (Netproto.Ip.proto (World.node w 0).World.ip) "tx")

let () =
  Alcotest.run "sunrpc"
    [
      ( "sun_select",
        [
          Alcotest.test_case "basic call" `Quick basic_sun_call;
          Alcotest.test_case "program unavailable" `Quick prog_unavail;
          Alcotest.test_case "procedure unavailable" `Quick proc_unavail;
          Alcotest.test_case "handler status" `Quick handler_status;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "zero-or-more re-executes" `Quick zero_or_more_reexecutes;
          Alcotest.test_case "CHANNEL swap gives at-most-once" `Quick
            at_most_once_with_channel_swap;
          Alcotest.test_case "retransmit on loss" `Quick retransmit_on_loss;
        ] );
      ( "auth layers",
        [
          Alcotest.test_case "AUTH_NONE passes" `Quick auth_none_passes;
          Alcotest.test_case "AUTH_UNIX accepts" `Quick auth_unix_accepts_allowed_uid;
          Alcotest.test_case "AUTH_UNIX rejects" `Quick auth_unix_rejects_wrong_uid;
          Alcotest.test_case "AUTH_UNIX rejects malformed" `Quick
            auth_unix_rejects_malformed;
          Alcotest.test_case "AUTH_DIGEST detects tampering" `Quick
            auth_digest_detects_tampering;
        ] );
      ( "mix and match",
        [
          Alcotest.test_case "SUN_SELECT + RR + FRAGMENT" `Quick
            mix_sun_select_with_fragment;
        ] );
    ]
