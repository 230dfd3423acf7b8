open Xkernel
module World = Netproto.World
module Fragment = Rpc.Fragment
module Channel = Rpc.Channel

let proto_num = 90

(* CHANNEL-FRAGMENT-VIP with a counting echo server above CHANNEL. *)
let setup ?(server = fun msg -> msg) ?(n_channels = 8) ?adaptive w =
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let mk (n : World.node) =
    let f = Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip) in
    Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ~n_channels
      ?adaptive ()
  in
  let ch0 = mk n0 and ch1 = mk n1 in
  let executions = ref 0 in
  let up = Proto.create ~host:n1.World.host ~name:"ECHO" () in
  Proto.set_ops up
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "echo");
      open_enable = (fun ~upper:_ _ -> invalid_arg "echo");
      open_done = (fun ~upper:_ _ -> invalid_arg "echo");
      demux =
        (fun ~lower msg ->
          incr executions;
          Proto.push lower (server msg));
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.open_enable (Channel.proto ch1) ~upper:up
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let sess chan =
    Tutil.run_in w (fun () ->
        Proto.open_ (Channel.proto ch0)
          ~upper:(Proto.create ~host:n0.World.host ~name:"NULL" ())
          (Part.v
             ~local:
               [
                 Part.Ip n0.World.host.Host.ip;
                 Part.Ip_proto proto_num;
                 Part.Channel chan;
               ]
             ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto proto_num ] ]
             ()))
  in
  (ch0, ch1, sess, executions)

let call w ch sess msg = Tutil.run_in w (fun () -> Channel.call ch sess msg)

let basic_transaction () =
  let w = World.create () in
  let ch0, _, sess, execs = setup w in
  let s = sess 0 in
  (match call w ch0 s (Msg.of_string "ping") with
  | Ok reply -> Tutil.check_str "echo" "ping" (Msg.to_string reply)
  | Error e -> Alcotest.failf "failed: %s" (Rpc.Rpc_error.to_string e));
  Tutil.check_int "executed once" 1 !execs

let implicit_ack_no_extra_packets () =
  (* In the common case no acknowledgement packets exist: n calls
     produce exactly n requests + n replies at the channel layer. *)
  let w = World.create () in
  let ch0, ch1, sess, _ = setup w in
  let s = sess 0 in
  for i = 1 to 5 do
    ignore (Tutil.ok_exn "call" (call w ch0 s (Msg.of_string (string_of_int i))))
  done;
  Tutil.check_int "no retransmits" 0 (Tutil.stat (Channel.proto ch0) "retransmit");
  Tutil.check_int "no explicit acks" 0 (Tutil.stat (Channel.proto ch1) "ack-tx");
  Tutil.check_int "five requests" 5 (Tutil.stat (Channel.proto ch0) "req-tx");
  Tutil.check_int "five replies" 5 (Tutil.stat (Channel.proto ch1) "reply-tx")

let sequential_calls_reuse_channel () =
  let w = World.create () in
  let ch0, _, sess, execs = setup w in
  let s = sess 0 in
  for _ = 1 to 10 do
    ignore (Tutil.ok_exn "call" (call w ch0 s Msg.empty))
  done;
  Tutil.check_int "all executed" 10 !execs

let at_most_once_under_duplication () =
  let w = World.create () in
  let ch0, _ch1, sess, execs = setup w in
  let s = sess 0 in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")));
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  for _ = 1 to 5 do
    ignore (Tutil.ok_exn "dup call" (call w ch0 s (Msg.of_string "x")))
  done;
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.5);
  Tutil.check_int "executed exactly once per call" 6 !execs;
  (* The duplicates were absorbed below: either FRAGMENT's
     recently-completed cache or CHANNEL's duplicate filter saw them. *)
  Alcotest.(check bool) "replies survived duplication" true
    (Tutil.stat (Channel.proto ch0) "reply-rx" >= 6)

let lost_request_retransmitted () =
  let w = World.create () in
  let ch0, _, sess, execs = setup w in
  let s = sess 0 in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")));
  let dropped = ref false in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         if !dropped then []
         else begin
           dropped := true;
           [ Wire.Drop ]
         end));
  (match call w ch0 s (Msg.of_string "retry me") with
  | Ok r -> Tutil.check_str "echoed after retry" "retry me" (Msg.to_string r)
  | Error e -> Alcotest.failf "failed: %s" (Rpc.Rpc_error.to_string e));
  Tutil.check_int "one retransmission" 1 (Tutil.stat (Channel.proto ch0) "retransmit");
  Tutil.check_int "executed once" 2 !execs

let lost_reply_not_reexecuted () =
  (* The reply is lost; the client retransmits; the server answers from
     its reply cache without executing again — at-most-once. *)
  let w = World.create () in
  let ch0, ch1, sess, execs = setup w in
  let s = sess 0 in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")));
  let armed = ref true in
  let count = ref 0 in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         if not !armed then []
         else begin
           incr count;
           if !count = 2 then begin
             armed := false;
             [ Wire.Drop ]
           end
           else []
         end));
  (match call w ch0 s (Msg.of_string "once only") with
  | Ok r -> Tutil.check_str "got cached reply" "once only" (Msg.to_string r)
  | Error e -> Alcotest.failf "failed: %s" (Rpc.Rpc_error.to_string e));
  Tutil.check_int "executed once despite reply loss" 2 !execs;
  Tutil.check_int "cached reply used" 1
    (Tutil.stat (Channel.proto ch1) "cached-reply-tx")

let slow_server_explicit_ack () =
  let w = World.create () in
  let slow msg =
    Sim.delay w.World.sim 0.08;
    msg
  in
  let ch0, ch1, sess, execs = setup ~server:slow w in
  let s = sess 0 in
  (match call w ch0 s (Msg.of_string "slow") with
  | Ok r -> Tutil.check_str "eventually answered" "slow" (Msg.to_string r)
  | Error e -> Alcotest.failf "failed: %s" (Rpc.Rpc_error.to_string e));
  Tutil.check_int "executed once" 1 !execs;
  Alcotest.(check bool) "explicit ack sent" true
    (Tutil.stat (Channel.proto ch1) "ack-tx" >= 1);
  Alcotest.(check bool) "client saw the ack" true
    (Tutil.stat (Channel.proto ch0) "ack-rx" >= 1)

let timeout_when_server_gone () =
  let w = World.create () in
  let ch0, _, sess, _ = setup w in
  let s = sess 0 in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")));
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Drop ]));
  let result = call w ch0 s (Msg.of_string "void") in
  Alcotest.(check bool) "times out" true (result = Error Rpc.Rpc_error.Timeout);
  Tutil.check_int "five retries" 5 (Tutil.stat (Channel.proto ch0) "retransmit")

let multi_fragment_timeout_is_longer () =
  (* The step function: a 16-fragment request must not spuriously
     retransmit even though its transfer outlasts the single-fragment
     timeout. *)
  let w = World.create () in
  let ch0, _, sess, _ = setup w in
  let s = sess 0 in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")));
  ignore (Tutil.ok_exn "16k call" (call w ch0 s (Msg.fill 16000 'x')));
  Tutil.check_int "no spurious retransmit" 0
    (Tutil.stat (Channel.proto ch0) "retransmit")

let effective_timeout_reported () =
  (* Get_timeout reports the *effective* RTO: the step function before
     any sample, the adaptive estimate after a warm call. *)
  let w = World.create () in
  let ch0, _, sess, _ = setup w in
  let s = sess 0 in
  let get req = Control.float_exn (Proto.session_control s req) in
  Alcotest.(check (float 1e-9)) "cold: step function" 0.02
    (get Control.Get_timeout);
  Alcotest.(check (float 1e-9)) "cold: no srtt" 0. (get Control.Get_srtt);
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "a")));
  let srtt = get Control.Get_srtt in
  Alcotest.(check bool) "srtt measured" true (srtt > 0.);
  let rto = get Control.Get_rto in
  Alcotest.(check (float 1e-9)) "Get_timeout = Get_rto" rto
    (get Control.Get_timeout);
  Alcotest.(check bool) "adaptive RTO below the fixed step" true
    (rto < 0.02);
  Alcotest.(check bool) "RTO covers the measured RTT" true (rto > srtt)

let backoff_decays_after_fresh_sample () =
  (* Karn backoff persistence must not outlive the loss that earned it:
     a retransmitted-but-completed transaction decays the multiplier
     one step, and the first fresh sample clears it outright, so the
     armed RTO returns to srtt + 4*rttvar within one clean call. *)
  let w = World.create () in
  let ch0, _, sess, _ = setup w in
  let s = sess 0 in
  let get req = Control.float_exn (Proto.session_control s req) in
  for _ = 1 to 3 do
    ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")))
  done;
  (* Drop the next two frames: the call completes only after two
     retransmissions, so Karn's rule yields no sample and the backoff
     multiplier is pumped to 2. *)
  let drops = ref 2 in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         if !drops > 0 then begin
           decr drops;
           [ Wire.Drop ]
         end
         else []));
  ignore (Tutil.ok_exn "lossy" (call w ch0 s (Msg.of_string "x")));
  Wire.set_fault_hook w.World.wire None;
  let bare = get Control.Get_rto in
  (* The completion itself decayed one of the two backoff steps; the
     next transmission would still arm double the bare estimate. *)
  Alcotest.(check (float 1e-12)) "one backoff step survives the completion"
    (2. *. bare)
    (get Control.Get_rto_backed);
  ignore (Tutil.ok_exn "clean" (call w ch0 s (Msg.of_string "y")));
  let rto = get Control.Get_rto in
  Alcotest.(check (float 1e-12)) "fresh sample restores srtt + 4*rttvar" rto
    (get Control.Get_rto_backed);
  Alcotest.(check bool) "and the estimate is live" true
    (rto > get Control.Get_srtt)

let fixed_timeout_unchanged () =
  (* With adaptation off the step function governs forever. *)
  let w = World.create () in
  let ch0, _, sess, _ = setup ~adaptive:false w in
  let s = sess 0 in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "a")));
  Alcotest.(check (float 1e-9)) "still the step function" 0.02
    (Control.float_exn (Proto.session_control s Control.Get_timeout));
  Alcotest.(check (float 1e-9)) "no srtt kept" 0.
    (Control.float_exn (Proto.session_control s Control.Get_srtt));
  Tutil.check_int "no samples counted" 0
    (Tutil.stat (Channel.proto ch0) "rtt-sample")

let reboot_detected () =
  let w = World.create () in
  let n1 = World.node w 1 in
  let ch0, _, sess, _ = setup w in
  let s = sess 0 in
  ignore (Tutil.ok_exn "before" (call w ch0 s (Msg.of_string "a")));
  let fired = ref false in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         if !fired then []
         else begin
           fired := true;
           Host.reboot n1.World.host;
           [ Wire.Drop ]
         end));
  let result = call w ch0 s (Msg.of_string "during") in
  Alcotest.(check bool) "reboot surfaces" true
    (result = Error Rpc.Rpc_error.Rebooted)

let client_reboot_resets_server_state () =
  let w = World.create () in
  let n0 = World.node w 0 in
  let ch0, _, sess, execs = setup w in
  let s = sess 0 in
  ignore (Tutil.ok_exn "a" (call w ch0 s (Msg.of_string "a")));
  ignore (Tutil.ok_exn "b" (call w ch0 s (Msg.of_string "b")));
  Host.reboot n0.World.host;
  let s' = sess 1 in
  ignore (Tutil.ok_exn "after reboot" (call w ch0 s' (Msg.of_string "c")));
  Tutil.check_int "all executed" 3 !execs

let concurrent_channels () =
  let w = World.create () in
  let ch0, _, sess, execs = setup w in
  let s0 = sess 0 and s1 = sess 1 and s2 = sess 2 in
  let results = ref 0 in
  World.spawn w (fun () ->
      ignore (Tutil.ok_exn "c0" (Channel.call ch0 s0 (Msg.fill 3000 'a')));
      incr results);
  World.spawn w (fun () ->
      ignore (Tutil.ok_exn "c1" (Channel.call ch0 s1 (Msg.fill 3000 'b')));
      incr results);
  World.spawn w (fun () ->
      ignore (Tutil.ok_exn "c2" (Channel.call ch0 s2 Msg.empty));
      incr results);
  World.run w;
  Tutil.check_int "all three completed" 3 !results;
  Tutil.check_int "three executions" 3 !execs

let busy_channel_rejected () =
  (* A second concurrent call on the same channel is rejected with
     [Busy] — without crashing, and without disturbing the first. *)
  let w = World.create () in
  let ch0, _, sess, execs = setup w in
  let s = sess 0 in
  let first = ref None and second = ref None in
  World.spawn w (fun () ->
      first := Some (Channel.call ch0 s (Msg.of_string "first")));
  World.spawn w (fun () ->
      second := Some (Channel.call ch0 s (Msg.of_string "second")));
  World.run w;
  Alcotest.(check bool) "first call completed" true
    (match !first with Some (Ok r) -> Msg.to_string r = "first" | _ -> false);
  Alcotest.(check bool) "second rejected as busy" true
    (!second = Some (Error Rpc.Rpc_error.Busy));
  Tutil.check_int "server executed once" 1 !execs;
  Tutil.check_int "busy counted" 1 (Tutil.stat (Channel.proto ch0) "call-busy")

let many_sessions_constant_call () =
  (* Regression for the O(n) session scan in Channel.call: with 64 open
     channels every call must still resolve its session directly. *)
  let w = World.create () in
  let ch0, _, sess, execs = setup ~n_channels:64 w in
  let sessions = List.init 64 sess in
  List.iteri
    (fun i s ->
      match call w ch0 s (Msg.of_string (string_of_int i)) with
      | Ok r -> Tutil.check_str "echo" (string_of_int i) (Msg.to_string r)
      | Error e -> Alcotest.failf "call %d failed: %s" i (Rpc.Rpc_error.to_string e))
    sessions;
  Tutil.check_int "all executed" 64 !execs;
  (* A session that belongs to a different CHANNEL instance is still
     rejected, even when one of that instance's own sessions carries the
     same id: ids are unique only within one protocol object. *)
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let other = Channel.create ~host:n0.World.host
      ~lower:(Fragment.proto
                (Fragment.create ~host:n0.World.host
                   ~lower:(Netproto.Vip.proto n0.World.vip)))
      ()
  in
  let own =
    Tutil.run_in w (fun () ->
        Proto.open_ (Channel.proto other)
          ~upper:(Proto.create ~host:n0.World.host ~name:"NULL" ())
          (Part.v
             ~local:
               [ Part.Ip n0.World.host.Host.ip; Part.Ip_proto proto_num;
                 Part.Channel 0 ]
             ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto proto_num ] ]
             ()))
  in
  Tutil.check_int "ids collide across protocol objects"
    (Proto.session_id own) (Proto.session_id (List.hd sessions));
  Alcotest.(check bool) "foreign session rejected" true
    (match Tutil.run_in w (fun () -> Channel.call other (List.hd sessions) Msg.empty) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let channel_out_of_range () =
  let w = World.create () in
  let _, _, sess, _ = setup w in
  Alcotest.(check bool) "channel id bounded" true
    (match sess 99 with
    | exception Alcotest.Test_error -> true
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- the deadline extension ---------------------------------------------- *)

module C = Rpc.Wire_fmt.Channel

(* CHANNEL_HDR's flag bit for the deadline extension word. *)
let deadline_flag = 0x10

let deadline_header_codec () =
  let encode deadline_us =
    C.encode ~flags:Rpc.Wire_fmt.Flags.request ~channel:3 ~proto:proto_num
      ~seq:7 ~error:0 ~boot_id:42 ~deadline_us
  in
  (* Unstamped: the paper-exact 18 bytes, flag clear, [-1] back out. *)
  let s = encode (-1) in
  Tutil.check_int "base length" C.bytes (String.length s);
  let m = Msg.of_string s in
  Tutil.check_int "absent reads -1" (-1) (C.deadline_us m);
  Tutil.check_int "flag clear" 0 (C.flags m land deadline_flag);
  (* Stamped: round-trips, including the zero (arrived-expired) and
     near-zero remaining budgets. *)
  List.iter
    (fun d ->
      let s = encode d in
      Tutil.check_int "stamped length" (C.bytes + C.ext_bytes) (String.length s);
      let m = Msg.of_string s in
      Tutil.check_int (Printf.sprintf "round trip %d" d) d (C.deadline_us m);
      Tutil.check_bool "flag set" true (C.flags m land deadline_flag <> 0))
    [ 0; 1; 12345; C.max_deadline_us ];
  (* Oversized budgets clamp to the largest encodable word. *)
  Tutil.check_int "clamped" C.max_deadline_us
    (C.deadline_us (Msg.of_string (encode (C.max_deadline_us + 5))));
  (* The flag alone says whether an extension word follows the base
     header, as CHANNEL's input reads it: payload bytes after an
     unflagged base header are not a deadline, and a stamped header's
     word is read across a leaf boundary too. *)
  let m = Msg.push (Msg.of_string "\x00\x00\x00\x63") (encode (-1)) in
  Tutil.check_int "base read sees -1" (-1) (C.deadline_us m);
  Tutil.check_int "base length" C.bytes (C.header_len m);
  let s = encode 99 in
  let split =
    Msg.append
      (Msg.of_string (String.sub s 0 C.bytes))
      (Msg.of_string (String.sub s C.bytes C.ext_bytes))
  in
  Tutil.check_int "extension word" 99 (C.deadline_us split);
  Tutil.check_int "stamped length" (C.bytes + C.ext_bytes) (C.header_len split)

(* Frames no CHANNEL sends, handed to the server from below: each takes
   its branch and counter, and none reaches the layer above. *)
let malformed_frames_counted () =
  let w = World.create () in
  let _, ch1, _, execs = setup w in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let encode ~flags ~proto deadline_us =
    C.encode ~flags ~channel:0 ~proto ~seq:1 ~error:0 ~boot_id:1 ~deadline_us
  in
  let request = Rpc.Wire_fmt.Flags.request in
  let stamped = encode ~flags:request ~proto:proto_num 5 in
  Tutil.deliver_from_below w ~host:n1.World.host ~peer:n0.World.host.Host.ip
    (Channel.proto ch1)
    (List.map Msg.of_string
       [
         String.sub stamped 0 (C.bytes - 1);
         (* the deadline flag without its extension word *)
         String.sub stamped 0 (C.bytes + C.ext_bytes - 1);
         encode ~flags:request ~proto:77 (-1);
         encode ~flags:0 ~proto:proto_num (-1);
       ]);
  let stat = Tutil.stat (Channel.proto ch1) in
  Tutil.check_int "runts" 2 (stat "rx-runt");
  Tutil.check_int "no upper protocol" 1 (stat "rx-unbound");
  Tutil.check_int "no request, reply or ack flag" 1 (stat "rx-malformed");
  Tutil.check_int "nothing executed" 0 !execs

(* Like [setup], but the server records the reconstructed absolute
   deadline ([Get_rx_deadline]) of every request it executes. *)
let deadline_setup ?adaptive w =
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let mk (n : World.node) =
    let f =
      Fragment.create ~host:n.World.host
        ~lower:(Netproto.Vip.proto n.World.vip)
    in
    Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ?adaptive ()
  in
  let ch0 = mk n0 and ch1 = mk n1 in
  let rx = ref [] in
  let execs = ref 0 in
  let up = Proto.create ~host:n1.World.host ~name:"ECHO" () in
  Proto.set_ops up
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "echo");
      open_enable = (fun ~upper:_ _ -> invalid_arg "echo");
      open_done = (fun ~upper:_ _ -> invalid_arg "echo");
      demux =
        (fun ~lower msg ->
          incr execs;
          (match Proto.session_control lower Control.Get_rx_deadline with
          | Control.R_float e -> rx := e :: !rx
          | _ -> ());
          Proto.push lower msg);
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.open_enable (Channel.proto ch1) ~upper:up
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  let sess =
    Tutil.run_in w (fun () ->
        Proto.open_ (Channel.proto ch0)
          ~upper:(Proto.create ~host:n0.World.host ~name:"NULL" ())
          (Part.v
             ~local:
               [
                 Part.Ip n0.World.host.Host.ip;
                 Part.Ip_proto proto_num;
                 Part.Channel 0;
               ]
             ~remotes:
               [ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto proto_num ] ]
             ()))
  in
  (ch0, ch1, sess, execs, rx)

let deadline_stamp_received () =
  let w = World.create () in
  let ch0, _, s, _, rx = deadline_setup w in
  ignore (Tutil.ok_exn "plain" (call w ch0 s (Msg.of_string "a")));
  Alcotest.(check (list (float 1e-9))) "no deadline propagated" [ -1. ] !rx;
  let expiry = ref 0. in
  Tutil.run_in w (fun () ->
      let e = Sim.now w.World.sim +. 0.1 in
      expiry := e;
      ignore
        (Tutil.ok_exn "stamped"
           (Channel.call ~expires:e ch0 s (Msg.of_string "b"))));
  match !rx with
  | [ got; _ ] ->
      (* remaining-at-transmit plus decode time lands the reconstruction
         on the caller's absolute deadline, give or take the transit. *)
      Alcotest.(check bool) "server rebuilt the absolute expiry" true
        (got > 0. && Float.abs (got -. !expiry) < 0.005)
  | _ -> Alcotest.fail "expected two executed requests"

let retransmit_carries_decremented_deadline () =
  (* Fixed step-function RTO (20 ms) so a replayed first-transmission
     stamp would shift the server's reconstruction by a clear 20 ms. *)
  let w = World.create () in
  let ch0, _, s, _, rx = deadline_setup ~adaptive:false w in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")));
  rx := [];
  let dropped = ref false in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ _ ->
         if !dropped then []
         else begin
           dropped := true;
           [ Wire.Drop ]
         end));
  let expiry = ref 0. in
  Tutil.run_in w (fun () ->
      let e = Sim.now w.World.sim +. 0.5 in
      expiry := e;
      ignore
        (Tutil.ok_exn "retried"
           (Channel.call ~expires:e ch0 s (Msg.of_string "r"))));
  Tutil.check_int "one retransmission" 1
    (Tutil.stat (Channel.proto ch0) "retransmit");
  match !rx with
  | [ got ] ->
      (* The retransmit restamped the budget remaining at *its* transmit
         time: the reconstruction still lands on the caller's absolute
         deadline.  A replayed original stamp would land one RTO late. *)
      Alcotest.(check bool) "retransmit restamped the remaining budget" true
        (Float.abs (got -. !expiry) < 0.01)
  | _ -> Alcotest.fail "expected exactly one executed request"

let deadline_gives_up () =
  let w = World.create () in
  let ch0, _, s, _, _ = deadline_setup ~adaptive:false w in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")));
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Drop ]));
  let elapsed = ref 0. in
  let res =
    Tutil.run_in w (fun () ->
        let t0 = Sim.now w.World.sim in
        let r = Channel.call ~expires:(t0 +. 0.05) ch0 s (Msg.of_string "x") in
        elapsed := Sim.now w.World.sim -. t0;
        r)
  in
  Alcotest.(check bool) "times out" true (res = Error Rpc.Rpc_error.Timeout);
  Tutil.check_int "gave up at the deadline" 1
    (Tutil.stat (Channel.proto ch0) "deadline-give-up");
  (* Two 20 ms RTO fires land inside the 50 ms budget; the third gives
     up instead of walking the rest of the five-retry ladder. *)
  Tutil.check_int "stopped retransmitting" 2
    (Tutil.stat (Channel.proto ch0) "retransmit");
  Alcotest.(check bool) "returned promptly" true (!elapsed < 0.1)

let server_drops_expired_request () =
  let w = World.create () in
  let ch0, ch1, s, execs, _ = deadline_setup w in
  ignore (Tutil.ok_exn "warm" (call w ch0 s (Msg.of_string "w")));
  let res =
    Tutil.run_in w (fun () ->
        Channel.call
          ~expires:(Sim.now w.World.sim)
          ch0 s
          (Msg.of_string "late"))
  in
  Alcotest.(check bool) "caller times out" true
    (res = Error Rpc.Rpc_error.Timeout);
  Tutil.check_int "procedure never ran" 1 !execs;
  Alcotest.(check bool) "server counted the expired arrival" true
    (Tutil.stat (Channel.proto ch1) "deadline-expired-server" >= 1)

(* --- stale retransmit timers ---------------------------------------------

   A retransmit timer names its transaction by the channel's transaction
   counter.  A timer can outlive its transaction when the transaction
   ends while the timer's own callback is still charging for the
   retransmission: the callback arms the next timer after its charges.
   Both cases below hold the callback's charges back behind 20 ms of
   other work on the client CPU, from 28 ms on, just before the 29 ms
   timeout of a 3 KB request (fixed timeouts), so the stale timer is
   armed at about 52-56 ms and fires 29 ms later.  The next call sends
   6 KB, so its own timer waits 38 ms, and the server answers it between
   the two: a stale timer that acted on the next call would retransmit
   it, which [retransmit] counts. *)

(* [setup] with fixed timeouts, an echo server that first answers after
   [first] seconds and then after [later], and the client CPU busy from
   28 ms to 48 ms.  Returns the client's channel protocol, its session
   on channel 0, its node and its ethernet address. *)
let stale_timer_setup ~first ~later w =
  let sim = w.World.sim in
  let delays = ref first in
  let server msg =
    Sim.delay sim !delays;
    delays := later;
    msg
  in
  let ch0, _, sess, _ = setup ~server ~adaptive:false w in
  (* Opened first: opening runs the simulator dry. *)
  let s = sess 0 in
  let n0 = World.node w 0 in
  ignore
    (Sim.after sim 0.028 (fun () ->
         Machine.charge_one n0.World.host.Host.mach (Machine.Busy 0.02)));
  (ch0, s, n0, Addr.Eth.to_int n0.World.host.Host.eth)

let reply_during_retransmit () =
  let w = World.create () in
  let sim = w.World.sim in
  let ch0, s, _, client_eth = stale_timer_setup ~first:0.03 ~later:0.02 w in
  let sent = ref [] in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ frame ->
         if Msg.u48 frame 6 = client_eth then sent := Sim.now sim :: !sent;
         []));
  let first, returned, second =
    Tutil.run_in w (fun () ->
        let first = Channel.call ch0 s (Msg.fill 3000 'a') in
        let returned = Sim.now sim in
        (first, returned, Channel.call ch0 s (Msg.fill 6000 'b')))
  in
  Tutil.check_int "first call answered" 3000
    (Msg.length (Tutil.ok_exn "first" first));
  Tutil.check_int "second call answered" 6000
    (Msg.length (Tutil.ok_exn "second" second));
  (* The first three client frames are the request, the next three its
     retransmission: the reply ended the call before the callback had
     sent any of them. *)
  Alcotest.(check bool)
    "reply landed before the retransmission left" true
    (returned < List.nth (List.rev !sent) 3);
  Tutil.check_int "only the first call retransmitted" 1
    (Tutil.stat (Channel.proto ch0) "retransmit")

(* A crash while the callback is held back ends the first call with
   [Rebooted] and resets the channel, and the timer armed for the first
   call must leave the next one alone.  Replies are dropped until 70 ms, so nothing answers the first call
   and the retransmission's cached reply is lost too. *)
let crash_between_calls () =
  let w = World.create () in
  let sim = w.World.sim in
  let ch0, s, n0, client_eth = stale_timer_setup ~first:0. ~later:0.025 w in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun _ frame ->
         if Msg.u48 frame 6 <> client_eth && Sim.now sim < 0.07 then
           [ Wire.Drop ]
         else []));
  ignore (Sim.after sim 0.035 (fun () -> Host.reboot n0.World.host));
  let first, second =
    Tutil.run_in w (fun () ->
        let first = Channel.call ch0 s (Msg.fill 3000 'a') in
        (first, Channel.call ch0 s (Msg.fill 6000 'b')))
  in
  Alcotest.(check bool) "first call ended by the crash" true
    (first = Error Rpc.Rpc_error.Rebooted);
  Tutil.check_int "second call answered" 6000
    (Msg.length (Tutil.ok_exn "second" second));
  Tutil.check_int "only the first call retransmitted" 1
    (Tutil.stat (Channel.proto ch0) "retransmit")

(* --- every reply answers the request that started it ----------------------

   The client calls "slow" and then "fast" on one channel.  The server
   answers each request from a fiber of its own, after [delay msg]
   seconds, with "reply:" and the request.  With the adaptive RTO and no
   warm-up the client gives up on "slow" 384.7 ms after sending it, so a
   handler slower than that is still executing when "fast" arrives.  The
   channel executes one request at a time: "fast" is held (dropped, to
   come back with its retransmission), and the reply "slow" produces is
   counted and not sent.  A reply never goes out as a request. *)
let late_setup ~delay w =
  let sim = w.World.sim in
  let server msg = "reply:" ^ Msg.to_string msg in
  let ch0, ch1, sess, execs = setup w in
  (* Replace the echo server's upper with one that answers late. *)
  let n1 = World.node w 1 in
  let up = Proto.create ~host:n1.World.host ~name:"LATE" () in
  Proto.set_ops up
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "late");
      open_enable = (fun ~upper:_ _ -> invalid_arg "late");
      open_done = (fun ~upper:_ _ -> invalid_arg "late");
      demux =
        (fun ~lower msg ->
          incr execs;
          Sim.spawn sim (fun () ->
              Sim.delay sim (delay (Msg.to_string msg));
              Proto.push lower (Msg.of_string (server msg))));
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.open_enable (Channel.proto ch1) ~upper:up
    (Part.v ~local:[ Part.Ip_proto proto_num ] ());
  (ch0, ch1, sess 0, execs)

let outcome = function
  | Ok m -> "Ok " ^ Msg.to_string m
  | Error e -> "Error " ^ Rpc.Rpc_error.to_string e

(* What every late-reply case asserts besides the outcomes: the newer
   request was held, no request left the server, none reached the
   client, and the reply nobody waits for was counted. *)
let no_reply_as_request ch0 ch1 =
  Tutil.check_bool "newer request held" true
    (Tutil.stat (Channel.proto ch1) "req-held" >= 1);
  Tutil.check_int "server sent no request" 0
    (Tutil.stat (Channel.proto ch1) "req-tx");
  Tutil.check_int "client received no request" 0
    (Tutil.stat (Channel.proto ch0) "req-rx");
  Tutil.check_int "late reply counted" 1
    (Tutil.stat (Channel.proto ch1) "reply-late")

let slow_then_fast ~slow ~fast_expected () =
  let w = World.create () in
  let delay = function "slow" -> slow | _ -> 0.005 in
  let ch0, ch1, s, _ = late_setup ~delay w in
  let call msg = outcome (Channel.call ch0 s (Msg.of_string msg)) in
  let first, second =
    Tutil.run_in w (fun () ->
        let first = call "slow" in
        (first, call "fast"))
  in
  Tutil.check_str "slow gives up" "Error timeout" first;
  Tutil.check_str "fast answered by its own execution" fast_expected second;
  no_reply_as_request ch0 ch1

let late_reply_386ms () =
  slow_then_fast ~slow:0.386 ~fast_expected:"Ok reply:fast" ()

let late_reply_390ms () =
  slow_then_fast ~slow:0.390 ~fast_expected:"Ok reply:fast" ()

(* "fast" is held while "slow" runs on; its backed-off retransmissions
   reach past the end of that execution. *)
let late_reply_1s () = slow_then_fast ~slow:1.0 ~fast_expected:"Ok reply:fast" ()

(* A propagated deadline ends "slow" at 50 ms, long before its handler
   returns at 100 ms, and "fast" reuses the channel at once. *)
let late_reply_deadline () =
  let w = World.create () in
  let delay = function "slow" -> 0.1 | _ -> 0.005 in
  let ch0, ch1, s, execs = late_setup ~delay w in
  let sim = w.World.sim in
  let first, second =
    Tutil.run_in w (fun () ->
        let first =
          Channel.call ~expires:(Sim.now sim +. 0.05) ch0 s
            (Msg.of_string "slow")
        in
        ( outcome first,
          outcome
            (Channel.call ~expires:(Sim.now sim +. 0.5) ch0 s
               (Msg.of_string "fast")) ))
  in
  Tutil.check_str "slow gives up at its deadline" "Error timeout" first;
  Tutil.check_str "fast answered by its own execution" "Ok reply:fast" second;
  Tutil.check_int "each executed once" 2 !execs;
  no_reply_as_request ch0 ch1

(* The client crashes 5 ms into "first" (the handler takes 10 ms) and
   calls "second" at once, the first call of its new boot. *)
let late_reply_client_crash () =
  let w = World.create () in
  let n0 = World.node w 0 in
  let delay = function "first" -> 0.01 | _ -> 0.05 in
  let ch0, ch1, s, execs = late_setup ~delay w in
  ignore (Sim.after w.World.sim 0.005 (fun () -> Host.reboot n0.World.host));
  let first, second =
    Tutil.run_in w (fun () ->
        let first = outcome (Channel.call ch0 s (Msg.of_string "first")) in
        (first, outcome (Channel.call ch0 s (Msg.of_string "second"))))
  in
  Tutil.check_str "first ended by the crash" "Error server rebooted" first;
  Tutil.check_str "second gets its own reply" "Ok reply:second" second;
  Tutil.check_int "each executed once" 2 !execs;
  no_reply_as_request ch0 ch1

(* A switch caching echo replies answers a retransmission of "k" on
   channel 0 from its cache (filled by the same request on channel 1)
   while the server still executes the original, and the client's next
   call on channel 0 reaches the server before that execution ends. *)
let late_reply_inc_hit () =
  let module S = Rpc.Wire_fmt.Select in
  let sw = World.create_switched ~clients:1 ~servers:1 () in
  let w = sw.World.sw.World.fo in
  let sim = w.World.sim in
  let server = World.node w 0 and client = World.node w 1 in
  let mk (n : World.node) =
    let f =
      Fragment.create ~host:n.World.host ~lower:(Netproto.Vip.proto n.World.vip)
    in
    Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ~adaptive:false
      ()
  in
  let ch_c = mk client and ch_s = mk server in
  let sel = Rpc.Select.create ~host:server.World.host ~channel:ch_s in
  let slow_once = ref true in
  Rpc.Select.register sel ~command:Rpc.Stacks.cmd_echo (fun req ->
      if !slow_once && Msg.to_string req = "k" then begin
        slow_once := false;
        Sim.delay sim 0.06
      end;
      Ok req);
  Rpc.Select.serve sel;
  let inc =
    Rpc.Inc.install ~host:sw.World.sw_ports.(0).World.pt_host
      ~ip:sw.World.sw_ip ~cacheable:[ Rpc.Stacks.cmd_echo ] ()
  in
  let open_chan chan =
    Proto.open_ (Channel.proto ch_c)
      ~upper:(Proto.create ~host:client.World.host ~name:"NULL" ())
      (Part.v
         ~local:
           [
             Part.Ip client.World.host.Host.ip;
             Part.Ip_proto Rpc.Select.proto_num;
             Part.Channel chan;
           ]
         ~remotes:
           [ [ Part.Ip server.World.host.Host.ip; Part.Ip_proto Rpc.Select.proto_num ] ]
         ())
  in
  let echo s body =
    let req =
      Msg.push (Msg.of_string body)
        (S.encode ~typ:S.typ_request ~command:Rpc.Stacks.cmd_echo
           ~status:S.status_ok)
    in
    match Channel.call ch_c s req with
    | Ok r -> "Ok " ^ Msg.to_string (Msg.drop r S.bytes)
    | Error e -> "Error " ^ Rpc.Rpc_error.to_string e
  in
  let s0, s1 = Tutil.run_in w (fun () -> (open_chan 0, open_chan 1)) in
  (* Warm ARP and the routes on a body the test never repeats. *)
  ignore (Tutil.run_in w (fun () -> echo s1 "warm"));
  let other = ref "" in
  let first, second =
    Tutil.run_in w (fun () ->
        Sim.spawn sim (fun () ->
            Sim.delay sim 0.005;
            other := echo s1 "k");
        let first = echo s0 "k" in
        (first, echo s0 "next"))
  in
  Tutil.check_str "channel 1 fills the cache" "Ok k" !other;
  Tutil.check_str "the retransmission is answered from the cache" "Ok k" first;
  Tutil.check_int "one hit at the switch" 1 (Rpc.Inc.hits inc);
  Tutil.check_str "the next call gets its own reply" "Ok next" second;
  no_reply_as_request ch_c ch_s

(* --- allocation budget ---------------------------------------------------

   Minor words per null [Channel.call] over CHANNEL-FRAGMENT-VIP, both
   hosts on [Machine.zero_cost], after a warm-up: the whole round trip,
   client and server.  OCaml 5.1.1 measures 116.83 words.  With the
   armed RTO and the rto gauge's estimate boxed it read 122.83; with the
   transaction in a record of its own and an ivar per call, a closure
   per timer, option boxes, a writer record per header and fresh
   control answers, 195.83. *)
let channel_call_budget = 118.

let channel_call_words () =
  let n = 2_000 in
  let w = World.create ~profile:Machine.zero_cost () in
  let ch0, _, sess, _ = setup w in
  let s = sess 0 in
  Tutil.run_in w (fun () ->
      for _ = 1 to 40 do
        ignore (Channel.call ch0 s Msg.empty)
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Channel.call ch0 s Msg.empty)
      done;
      (Gc.minor_words () -. w0) /. float_of_int n)

let measured = ref nan

let alloc_budget () =
  let words = channel_call_words () in
  measured := words;
  if not (words <= channel_call_budget) then
    Alcotest.failf "null Channel.call: %.2f words > %g" words
      channel_call_budget

let () =
  Alcotest.run ~and_exit:false "channel"
    [
      ( "transactions",
        [
          Alcotest.test_case "basic echo" `Quick basic_transaction;
          Alcotest.test_case "implicit ack: no extra packets" `Quick
            implicit_ack_no_extra_packets;
          Alcotest.test_case "sequential reuse" `Quick sequential_calls_reuse_channel;
          Alcotest.test_case "concurrent channels" `Quick concurrent_channels;
          Alcotest.test_case "busy channel rejected" `Quick busy_channel_rejected;
          Alcotest.test_case "channel id bounded" `Quick channel_out_of_range;
          Alcotest.test_case "64 sessions: O(1) call" `Quick
            many_sessions_constant_call;
        ] );
      ( "at-most-once",
        [
          Alcotest.test_case "duplication on the wire" `Quick
            at_most_once_under_duplication;
          Alcotest.test_case "lost request retransmitted" `Quick
            lost_request_retransmitted;
          Alcotest.test_case "lost reply: cached, not re-executed" `Quick
            lost_reply_not_reexecuted;
          Alcotest.test_case "client reboot resets server" `Quick
            client_reboot_resets_server_state;
        ] );
      ( "timers",
        [
          Alcotest.test_case "slow server: explicit ack" `Quick
            slow_server_explicit_ack;
          Alcotest.test_case "timeout when server gone" `Quick timeout_when_server_gone;
          Alcotest.test_case "effective timeout reported" `Quick
            effective_timeout_reported;
          Alcotest.test_case "backoff decays after fresh sample" `Quick
            backoff_decays_after_fresh_sample;
          Alcotest.test_case "fixed timeout unchanged" `Quick
            fixed_timeout_unchanged;
          Alcotest.test_case "step-function timeout" `Quick
            multi_fragment_timeout_is_longer;
          Alcotest.test_case "server reboot detected" `Quick reboot_detected;
          Alcotest.test_case "reply lands during the retransmit" `Quick
            reply_during_retransmit;
          Alcotest.test_case "crash resets seq between calls" `Quick
            crash_between_calls;
        ] );
      ( "late replies",
        [
          Alcotest.test_case "handler 386 ms" `Quick late_reply_386ms;
          Alcotest.test_case "handler 390 ms" `Quick late_reply_390ms;
          Alcotest.test_case "handler 1 s" `Quick late_reply_1s;
          Alcotest.test_case "caller's deadline" `Quick late_reply_deadline;
          Alcotest.test_case "client crash" `Quick late_reply_client_crash;
          Alcotest.test_case "INC answers a retransmission" `Quick
            late_reply_inc_hit;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "malformed frames counted" `Quick
            malformed_frames_counted;
          Alcotest.test_case "header codec round-trips" `Quick
            deadline_header_codec;
          Alcotest.test_case "server rebuilds the expiry" `Quick
            deadline_stamp_received;
          Alcotest.test_case "retransmit restamps remaining" `Quick
            retransmit_carries_decremented_deadline;
          Alcotest.test_case "client gives up at the deadline" `Quick
            deadline_gives_up;
          Alcotest.test_case "expired arrival dropped server-side" `Quick
            server_drops_expired_request;
        ] );
      ("allocation", [ Alcotest.test_case "allocation budget" `Quick alloc_budget ]);
    ];
  print_string "\n\nallocation budget, minor words/op:\n";
  Printf.printf "  %-32s %6.2f (budget %g)\n" "null Channel.call" !measured
    channel_call_budget
