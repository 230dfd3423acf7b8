open Xkernel
module World = Netproto.World
module Fragment = Rpc.Fragment

(* Build a FRAGMENT-VIP pair with a recording sink above the server
   side and a raw session open on the client side. *)
let setup w =
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let f0 =
    Fragment.create ~host:n0.World.host ~lower:(Netproto.Vip.proto n0.World.vip)
  in
  let f1 =
    Fragment.create ~host:n1.World.host ~lower:(Netproto.Vip.proto n1.World.vip)
  in
  let received = ref [] in
  let up = Proto.create ~host:n1.World.host ~name:"SINK" () in
  Proto.set_ops up
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "sink");
      open_enable = (fun ~upper:_ _ -> invalid_arg "sink");
      open_done = (fun ~upper:_ _ -> invalid_arg "sink");
      demux = (fun ~lower:_ msg -> received := Msg.to_string msg :: !received);
      p_control = (fun _ -> Control.Unsupported);
    };
  Proto.open_enable (Fragment.proto f1) ~upper:up
    (Part.v ~local:[ Part.Ip_proto 200 ] ());
  let sess =
    Tutil.run_in w (fun () ->
        Proto.open_ (Fragment.proto f0)
          ~upper:(Proto.create ~host:n0.World.host ~name:"NULL" ())
          (Part.v
             ~local:[ Part.Ip n0.World.host.Host.ip; Part.Ip_proto 200 ]
             ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto 200 ] ]
             ()))
  in
  (f0, f1, sess, received)

let send w sess m = Tutil.run_in w (fun () -> Proto.push sess m)

let single_fragment () =
  let w = World.create () in
  let f0, f1, sess, got = setup w in
  send w sess (Msg.of_string "tiny");
  Alcotest.(check (list string)) "delivered" [ "tiny" ] !got;
  Tutil.check_int "one fragment" 1 (Tutil.stat (Fragment.proto f0) "tx-frag");
  Tutil.check_int "one message" 1 (Tutil.stat (Fragment.proto f1) "rx-msg")

let sixteen_fragments () =
  (* "for each 16k-byte message, FRAGMENT handles 16 messages" *)
  let w = World.create () in
  let f0, f1, sess, got = setup w in
  let payload = Tutil.body 16384 in
  send w sess (Msg.of_string payload);
  (match !got with
  | [ s ] -> Tutil.check_str "16k roundtrip" payload s
  | _ -> Alcotest.fail "expected one delivery");
  Tutil.check_int "exactly 16 packets" 16 (Tutil.stat (Fragment.proto f0) "tx-frag");
  Tutil.check_int "received 16" 16 (Tutil.stat (Fragment.proto f1) "rx-frag")

let empty_message () =
  let w = World.create () in
  let _, _, sess, got = setup w in
  send w sess Msg.empty;
  Alcotest.(check (list string)) "empty delivered" [ "" ] !got

let odd_sizes_roundtrip () =
  let w = World.create () in
  let _, _, sess, got = setup w in
  let sizes = [ 1; 1023; 1024; 1025; 2048; 5000; 16000 ] in
  List.iter (fun n -> send w sess (Msg.of_string (Tutil.body n))) sizes;
  let lens = List.rev_map String.length !got in
  Alcotest.(check (list int)) "all sizes arrive intact" sizes lens

let nack_recovers_lost_fragment () =
  let w = World.create () in
  (* Drop one data fragment (after the ARP exchange, frames 2+ carry
     data; drop the 4th transmission). *)
  Wire.set_fault_hook w.World.wire
    (Some (fun n _ -> if n = 4 then [ Wire.Drop ] else []));
  let f0, f1, sess, got = setup w in
  let payload = Tutil.body 8192 in
  send w sess (Msg.of_string payload);
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.5);
  (match !got with
  | [ s ] -> Tutil.check_str "recovered" payload s
  | _ -> Alcotest.fail "expected one (recovered) delivery");
  Alcotest.(check bool) "receiver asked for the missing piece" true
    (Tutil.stat (Fragment.proto f1) "nack-tx" >= 1);
  Alcotest.(check bool) "sender retransmitted from cache" true
    (Tutil.stat (Fragment.proto f0) "retransmit" >= 1)

let whole_message_loss_is_silent () =
  (* Unreliable: if every fragment dies, nobody ever finds out. *)
  let w = World.create () in
  let f0, f1, sess, got = setup w in
  (* warm up ARP/open with one successful message *)
  send w sess (Msg.of_string "warm");
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Drop ]));
  send w sess (Msg.of_string "doomed");
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 3.0);
  Alcotest.(check (list string)) "only the warm-up arrived" [ "warm" ] !got;
  Tutil.check_int "no nacks (nothing arrived)" 0
    (Tutil.stat (Fragment.proto f1) "nack-tx");
  Alcotest.(check bool) "sender cache discarded by timer" true
    (Tutil.stat (Fragment.proto f0) "cache-drop" >= 1)

let gives_up_after_nack_retries () =
  let w = World.create () in
  let drop_all_retransmits = ref false in
  Wire.set_fault_hook w.World.wire
    (Some
       (fun n _ ->
         (* Drop fragment #4 and, once we flip the switch, everything
            the sender emits — so NACKs can never be satisfied. *)
         if n = 4 || !drop_all_retransmits then [ Wire.Drop ] else []));
  let f0, f1, sess, got = setup w in
  ignore f0;
  drop_all_retransmits := false;
  (* trick: mark after initial send; flip inside a fiber after push *)
  Tutil.run_in w (fun () ->
      Proto.push sess (Msg.fill 4096 'x');
      drop_all_retransmits := true);
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 3.0);
  Alcotest.(check (list string)) "never delivered" [] !got;
  Alcotest.(check bool) "gave up" true (Tutil.stat (Fragment.proto f1) "give-up" >= 1)

let duplicate_suppression () =
  let w = World.create () in
  Wire.set_fault_hook w.World.wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  let _, f1, sess, got = setup w in
  send w sess (Msg.of_string (Tutil.body 3000));
  Tutil.check_int "delivered once" 1 (List.length !got);
  Alcotest.(check bool) "duplicates observed" true
    (Tutil.stat (Fragment.proto f1) "rx-dup-frag"
     + Tutil.stat (Fragment.proto f1) "rx-dup-complete"
    > 0)

let idle_receiver_prunes_recent () =
  (* The dedup table used to be pruned only on the next delivery, so a
     receiver whose traffic stopped kept every completed sequence number
     forever.  The prune timer must empty it once the cache TTL (2 s)
     has passed with no traffic. *)
  let w = World.create () in
  let _, f1, sess, got = setup w in
  let while_hot = ref 0 in
  (* One fiber sends everything, then samples the table while the
     traffic is still fresh; the run then idles until the event queue —
     prune timers included — drains. *)
  Tutil.run_in w (fun () ->
      for i = 1 to 20 do
        Proto.push sess (Msg.of_string (string_of_int i))
      done;
      Sim.delay w.World.sim 0.05;
      while_hot := Fragment.recent_count f1);
  Tutil.check_int "all delivered" 20 (List.length !got);
  Tutil.check_int "dedup table populated while hot" 20 !while_hot;
  Tutil.check_int "dedup table empty after idling" 0
    (Fragment.recent_count f1);
  Tutil.check_int "prunes counted" 20
    (Tutil.stat (Fragment.proto f1) "recent-pruned")

let reboot_clears_partial_reassembly () =
  (* A reboot mid-reassembly must drop the partial message with the
     crashed kernel.  Without the at_reboot hook the surviving gap
     timer would find the stale entry, NACK for the missing fragment,
     and the sender's retransmission would complete a pre-crash message
     into the new incarnation. *)
  let w = World.create () in
  let n1 = World.node w 1 in
  let _, f1, sess, got = setup w in
  let partial = ref (-1) and after_reboot = ref (-1) in
  Tutil.run_in w (fun () ->
      (* Drop the third frame of the four-fragment message, leaving the
         receiver holding a partial reassembly with a gap timer armed. *)
      let n = ref 0 in
      Wire.set_fault_hook w.World.wire
        (Some
           (fun _ _ ->
             incr n;
             if !n = 3 then [ Wire.Drop ] else []));
      Proto.push sess (Msg.of_string (Tutil.body 4096));
      Wire.set_fault_hook w.World.wire None;
      Sim.delay w.World.sim 0.01;
      partial := Fragment.reasm_count f1;
      Host.reboot n1.World.host;
      after_reboot := Fragment.reasm_count f1);
  Tutil.check_int "partial reassembly held before the crash" 1 !partial;
  Tutil.check_int "cleared by the reboot" 0 !after_reboot;
  (* The run has drained: every surviving gap/cache timer fired and
     no-opped.  No NACK was sent, nothing was delivered. *)
  Alcotest.(check (list string)) "pre-crash message never delivered" [] !got;
  Tutil.check_int "no NACK from the new incarnation" 0
    (Tutil.stat (Fragment.proto f1) "nack-tx");
  Tutil.check_int "dedup tables died with the kernel" 0
    (Fragment.recent_count f1);
  Tutil.check_int "crash reset counted" 1
    (Tutil.stat (Fragment.proto f1) "crash-reset");
  (* The layer still works across the boot: a fresh post-reboot message
     (fresh sequence number — the sender keeps counting) is delivered. *)
  Tutil.run_in w (fun () -> Proto.push sess (Msg.of_string "fresh"));
  Alcotest.(check (list string)) "post-reboot delivery" [ "fresh" ] !got

let resend_is_new_message () =
  (* A higher-level retransmission through FRAGMENT gets a fresh
     sequence number and is delivered again: FRAGMENT does not dedup
     across pushes (section 3.2). *)
  let w = World.create () in
  let _, _, sess, got = setup w in
  send w sess (Msg.of_string "again");
  send w sess (Msg.of_string "again");
  Alcotest.(check (list string)) "two deliveries" [ "again"; "again" ] !got

let reorder_within_message () =
  let w = World.create () in
  Wire.set_fault_hook w.World.wire
    (Some (fun n _ -> if n mod 2 = 0 then [ Wire.Delay 0.003 ] else []));
  let _, _, sess, got = setup w in
  let payload = Tutil.body 6000 in
  send w sess (Msg.of_string payload);
  Tutil.run_in w (fun () -> Sim.delay w.World.sim 0.5);
  match !got with
  | [ s ] -> Tutil.check_str "reassembled despite reorder" payload s
  | _ -> Alcotest.fail "expected one delivery"

let max_message_enforced () =
  let w = World.create () in
  let f0, _, sess, got = setup w in
  (* Slightly over 16 x frag_size still fits by rounding the fragment
     size up (headers on a 16 KB payload must work)... *)
  let max_message =
    Control.int_exn (Proto.control (Fragment.proto f0) Control.Get_max_packet)
  in
  send w sess (Msg.fill (max_message + 100) 'x');
  Tutil.check_int "slack absorbed" 1 (List.length !got);
  (* ...but 16 fragments of wire-MTU size is a hard ceiling. *)
  send w sess (Msg.fill (16 * (1500 - 23) + 1) 'y');
  Tutil.check_int "nothing more delivered" 1 (List.length !got);
  Tutil.check_int "too-big" 1 (Tutil.stat (Fragment.proto f0) "too-big")

let controls () =
  let w = World.create () in
  let f0, _, sess, _ = setup w in
  Tutil.check_int "frag size" 1024
    (Control.int_exn (Proto.session_control sess Control.Get_frag_size));
  Tutil.check_int "max message" 16384
    (Control.int_exn (Proto.session_control sess Control.Get_max_packet));
  Tutil.check_int "max msg to lower is one fragment" (1024 + 23)
    (Control.int_exn (Proto.control (Fragment.proto f0) Control.Get_max_msg_size))

(* Property: under arbitrary (bounded) drop/dup/reorder of individual
   frames, every message FRAGMENT *does* deliver is byte-identical to
   one that was sent, and never delivered as a corrupted hybrid. *)
let prop_integrity_under_faults =
  Tutil.qtest ~count:30 "delivered messages are intact under faults"
    QCheck.(pair (int_bound 1000) (list_of_size (Gen.int_range 1 4) (int_range 0 5000)))
    (fun (seed, sizes) ->
      let w = World.create ~seed () in
      let rng = Random.State.make [| seed |] in
      Wire.set_fault_hook w.World.wire
        (Some
           (fun _ _ ->
             match Random.State.int rng 10 with
             | 0 -> [ Wire.Drop ]
             | 1 -> [ Wire.Duplicate ]
             | 2 -> [ Wire.Delay 0.002 ]
             | _ -> []));
      let _, _, sess, got = setup w in
      let sent = List.map (fun n -> Tutil.body n) sizes in
      List.iter (fun s -> Tutil.run_in w (fun () -> Proto.push sess (Msg.of_string s))) sent;
      Tutil.run_in w (fun () -> Sim.delay w.World.sim 1.0);
      List.for_all (fun d -> List.mem d sent) !got)

(* Property: with loss, duplication and reordering of single frames,
   every message sent comes back intact exactly once.  A data fragment
   is dropped only on its first transmission, and never fragment 0, so
   each message starts a reassembly and every gap is repaired by a NACK
   and a retransmission from the send cache.  ARP frames and NACKs are
   only duplicated or delayed. *)
let prop_roundtrip_repaired =
  Tutil.qtest ~count:30 "every message intact after NACK repair"
    QCheck.(
      pair (int_bound 1000)
        (list_of_size (Gen.int_range 1 4) (int_range 0 16384)))
    (fun (seed, sizes) ->
      let w = World.create ~seed () in
      let rng = Random.State.make [| seed |] in
      let frag_type = Addr.eth_type_of_ip_proto 92 in
      let sent_once = Hashtbl.create 64 in
      let droppable frame =
        (* ETH header (14 bytes), then FRAGMENT_HDR: VIP adds none. *)
        Msg.length frame >= 14 + Rpc.Wire_fmt.Fragment.bytes
        && Msg.u16 frame 12 = frag_type
        &&
        let f = Msg.drop frame 14 in
        let module F = Rpc.Wire_fmt.Fragment in
        let key = (F.sequence_num f, F.frag_mask f) in
        F.typ f = F.typ_data && F.frag_mask f <> 1
        && (not (Hashtbl.mem sent_once key))
        && (Hashtbl.replace sent_once key ();
            true)
      in
      Wire.set_fault_hook w.World.wire
        (Some
           (fun _ frame ->
             match Random.State.int rng 8 with
             | 0 when droppable frame -> [ Wire.Drop ]
             | 1 -> [ Wire.Duplicate ]
             | 2 -> [ Wire.Delay 0.002 ]
             | _ -> []));
      let _, _, sess, got = setup w in
      let sent = List.mapi (fun i n -> String.make n (Char.chr (65 + i))) sizes in
      Tutil.run_in w (fun () ->
          List.iter (fun s -> Proto.push sess (Msg.of_string s)) sent);
      List.sort compare !got = List.sort compare sent)

(* --- allocation budgets ---

   FRAGMENT between two stub layers, so the figures are FRAGMENT's own
   (with the layer crossings and CPU charges it makes).  The lower stub
   keeps what FRAGMENT pushes in a preallocated array; the upper sink
   keeps the last message delivered.  Minor words per operation, as in
   test_codec's budgets. *)

(* A protocol with nothing but [demux]: an upper sink, or a bare upper
   for a session that never delivers. *)
let stub ~host ~name demux =
  let p = Proto.create ~host ~name () in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg name);
      open_enable = (fun ~upper:_ _ -> invalid_arg name);
      open_done = (fun ~upper:_ _ -> invalid_arg name);
      demux;
      p_control = (fun _ -> Control.Unsupported);
    };
  p

(* A lower layer with one session, which keeps what is pushed into it
   in [frames] from slot [!count] on. *)
let stub_lower ~host frames count =
  let p = Proto.create ~host ~name:"LOWER" () in
  let sess =
    Proto.make_session p
      {
        Proto.push =
          (fun m ->
            frames.(!count) <- m;
            incr count);
        pop = ignore;
        s_control = (fun _ -> Control.Unsupported);
        close = ignore;
      }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> sess);
      open_enable = (fun ~upper:_ _ -> ());
      open_done = (fun ~upper:_ _ -> sess);
      demux = (fun ~lower:_ _ -> ());
      p_control = (fun _ -> Control.Unsupported);
    };
  (p, sess)

(* FRAGMENT on host 0 over a recording stub, with one session to host
   1's protocol 200; NACKs are handed to it from below as host 1 would
   send them. *)
let stub_sender w frames count =
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let lower, below = stub_lower ~host:n0.World.host frames count in
  let f0 = Fragment.create ~host:n0.World.host ~lower in
  let sess =
    Tutil.run_in w (fun () ->
        Proto.open_ (Fragment.proto f0)
          ~upper:(stub ~host:n0.World.host ~name:"NULL" (fun ~lower:_ _ -> ()))
          (Part.v
             ~local:[ Part.Ip n0.World.host.Host.ip; Part.Ip_proto 200 ]
             ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto 200 ] ]
             ()))
  in
  let nack ~seq ~mask =
    let module F = Rpc.Wire_fmt.Fragment in
    Proto.deliver (Fragment.proto f0) ~lower:below
      (Msg.of_string
         (F.encode ~typ:F.typ_nack ~clnt:n1.World.host.Host.ip
            ~srvr:n0.World.host.Host.ip ~proto:200 ~seq ~num:16 ~mask ~len:0))
  in
  (f0, sess, nack)

(* The send cache holds a message for as long as a discard timer per
   message did: from its push (with no CPU cost here) until 2 s later.
   An op at a message's discard instant runs first, as it did before
   any per-message timer armed after it, so a NACK exactly 2 s after
   the push is still answered.  A crash empties the cache, and a
   message it empties is never counted in "cache-drop".  After every
   op the counters must match the per-message reference, and a NACK
   must send again the fragments its mask names with the bytes of the
   first send.  Probes one ulp either side of each discard instant
   check that the sweep fires at that instant, neither early nor
   late. *)
let prop_send_cache_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun n -> `Send n) (int_bound 17_000));
          ( 4,
            map2
              (fun back mask -> `Nack (back, mask))
              (int_range (-2) 24) (int_range 1 0xffff) );
          (1, return `Crash);
        ])
  in
  let print (dt, op) =
    Printf.sprintf "+%d/8 %s" dt
      (match op with
      | `Send n -> Printf.sprintf "send %d" n
      | `Nack (back, mask) -> Printf.sprintf "nack back %d mask %#x" back mask
      | `Crash -> "crash")
  in
  Tutil.qtest ~count:100 "send cache matches a timer per message"
    (QCheck.make
       ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 1 60) (pair (int_bound 24) op)))
    (fun script ->
      let w = World.create ~profile:Machine.zero_cost () in
      let sim = w.World.sim in
      let frames = Array.make 2048 Msg.empty and count = ref 0 in
      let f0, sess, nack = stub_sender w frames count in
      let stat name = Tutil.stat (Fragment.proto f0) name in
      let ops = Array.of_list script in
      let n = Array.length ops in
      (* Op [i] runs at [time.(i)], in eighths of a second from 1/8. *)
      let time = Array.make n 0. in
      ignore
        (Array.fold_left
           (fun (i, units) (dt, _) ->
             let units = units + dt in
             time.(i) <- float_of_int units /. 8.;
             (i + 1, units))
           (0, 1) ops);
      (* The reference: each cached message's op, seq, bytes and
         discard time, and the next seq when each op runs. *)
      let sent = ref [] and next = ref 1 and next_at = Array.make n 0 in
      Array.iteri
        (fun i (_, op) ->
          next_at.(i) <- !next;
          match op with
          | `Send len when len <= 16 * 1024 ->
              let seq = !next in
              incr next;
              let bytes = String.init len (fun j -> Char.chr (((seq * 31) + (j * 7)) land 255)) in
              sent := (i, seq, bytes, time.(i) +. 2.0) :: !sent
          | _ -> ())
        ops;
      let sent = List.rev !sent in
      let crashed_between lo hi t_max =
        let rec go i =
          i < hi && ((snd ops.(i) = `Crash && time.(i) <= t_max) || go (i + 1))
        in
        go (lo + 1)
      in
      let killed (i, _, _, until) = crashed_between i n until in
      (* Discards counted by time [t]; an op at [t] itself runs before
         any discard due then. *)
      let drops_by t =
        List.length
          (List.filter (fun ((_, _, _, until) as m) -> until < t && not (killed m)) sent)
      in
      let stale = ref 0 and retransmit = ref 0 and failures = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
      let check what expect got =
        if expect <> got then fail "%s at %h: %d, expected %d" what (Sim.now sim) got expect
      in
      Array.iteri
        (fun i (_, op) ->
          ignore
            (Sim.at sim time.(i) (fun () ->
                 let first = !count in
                 (match op with
                 | `Send len ->
                     let bytes =
                       match List.find_opt (fun (j, _, _, _) -> j = i) sent with
                       | Some (_, _, bytes, until) ->
                           List.iter
                             (fun t ->
                               ignore
                                 (Sim.at sim t (fun () ->
                                      check "cache-drop (probe)"
                                        (drops_by t)
                                        (stat "cache-drop"))))
                             [ Float.pred until; Float.succ until ];
                           bytes
                       | None -> String.make len 'z'
                     in
                     Proto.push sess (Msg.of_string bytes)
                 | `Crash -> Host.reboot (World.node w 0).World.host
                 | `Nack (back, mask) -> (
                     let seq = max 0 (next_at.(i) - 1 - back) in
                     nack ~seq ~mask;
                     let cached =
                       List.find_opt
                         (fun (j, s, _, until) ->
                           s = seq && j < i && time.(i) <= until
                           && not (crashed_between j i infinity))
                         sent
                     in
                     match cached with
                     | None -> incr stale
                     | Some (_, _, bytes, _) ->
                         let len = String.length bytes in
                         let num = max 1 ((len + 1023) / 1024) in
                         let expect =
                           List.filter
                             (fun k -> mask land (1 lsl k) <> 0)
                             (List.init num Fun.id)
                         in
                         retransmit := !retransmit + List.length expect;
                         let module F = Rpc.Wire_fmt.Fragment in
                         List.iteri
                           (fun j k ->
                             let frame = frames.(first + j) in
                             let off = k * 1024 in
                             let piece = String.sub bytes off (min 1024 (len - off)) in
                             if
                               F.sequence_num frame <> seq
                               || F.frag_mask frame <> 1 lsl k
                               || Msg.to_string (Msg.drop frame F.bytes) <> piece
                             then fail "fragment %d of seq %d resent wrong" k seq)
                           expect;
                         check "frames resent" (List.length expect) (!count - first)));
                 check "nack-stale" !stale (stat "nack-stale");
                 check "retransmit" !retransmit (stat "retransmit");
                 check "cache-drop" (drops_by time.(i)) (stat "cache-drop"))))
        ops;
      Sim.run sim;
      check "cache-drop after the drain"
        (List.length (List.filter (fun m -> not (killed m)) sent))
        (stat "cache-drop");
      check "events left" 0 (Sim.pending sim);
      match !failures with
      | [] -> true
      | fs -> QCheck.Test.fail_reportf "%s" (String.concat "\n" (List.rev fs)))

(* A session arms one discard sweep, not a timer per message. *)
let one_sweep_per_session () =
  let w = World.create () in
  let frames = Array.make 64 Msg.empty and count = ref 0 in
  let _, sess, _ = stub_sender w frames count in
  let grew =
    Tutil.run_in w (fun () ->
        let before = Sim.pending w.World.sim in
        for _ = 1 to 50 do
          Proto.push sess (Msg.of_string "x")
        done;
        Sim.pending w.World.sim - before)
  in
  Alcotest.(check bool) (Printf.sprintf "pending +%d <= 2" grew) true (grew <= 2)

let words_per n f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int n

let measured = ref []

(* OCaml 5.1.1 measures, in minor words: a fragment sent, with its
   share of the message's split and send cache slot, 21.63 (budget 23);
   a fragment received, with its share of the reassembly, delivery and
   dedup entry, 7.46 (8.5); a key tuple per session lookup, as
   [Demux.resolve] builds, read 10.46 there.  A build that compiles the libraries with
   [-opaque] and passes each CPU hold its duration as a float measured
   31.75 and 17.71; on that build a discard timer per message read
   38.53 on the send row, a header record and a pair per fragment in
   the cache 52, and on the receive row a fresh [Some] per session
   lookup 19.71, a boxed time per dedup entry and a cord node per
   fragment 24.86; and
   on the message FRAGMENT reassembled, the reads and drops of a 4-byte
   header under an 18-byte one (SELECT's and CHANNEL's), 8 on a cord
   that leans right (8.01, the 0.01 for the boxed float of
   [Gc.minor_words]) and 120 on a left-deep one. *)
let alloc_budget () =
  let w = World.create () in
  let n0 = World.node w 0 and n1 = World.node w 1 in
  let msgs = 200 and frags = 16 in
  let frames = Array.make (msgs * frags) Msg.empty and count = ref 0 in
  let lower0, _ = stub_lower ~host:n0.World.host frames count in
  let lower1, below1 = stub_lower ~host:n1.World.host [| Msg.empty |] (ref 0) in
  let f0 = Fragment.create ~host:n0.World.host ~lower:lower0 in
  let f1 = Fragment.create ~host:n1.World.host ~lower:lower1 in
  let last = ref Msg.empty in
  let sink = stub ~host:n1.World.host ~name:"SINK" (fun ~lower:_ m -> last := m) in
  Proto.open_enable (Fragment.proto f1) ~upper:sink
    (Part.v ~local:[ Part.Ip_proto 200 ] ());
  (* A 16 KB body under two headers, as SELECT and CHANNEL push them:
     16,022 bytes, 16 fragments. *)
  let body =
    Msg.push (Msg.push (Msg.fill 16000 'b') (String.make 4 's')) (String.make 18 'c')
  in
  let receive () =
    for i = 0 to !count - 1 do
      Proto.deliver (Fragment.proto f1) ~lower:below1 frames.(i)
    done
  in
  let send, recv =
    Tutil.run_in w (fun () ->
        let sess =
          Proto.open_ (Fragment.proto f0)
            ~upper:(stub ~host:n0.World.host ~name:"NULL" (fun ~lower:_ _ -> ()))
            (Part.v
               ~local:[ Part.Ip n0.World.host.Host.ip; Part.Ip_proto 200 ]
               ~remotes:[ [ Part.Ip n1.World.host.Host.ip; Part.Ip_proto 200 ] ]
               ())
        in
        (* One message first, so both sessions exist before measuring. *)
        Proto.push sess body;
        receive ();
        count := 0;
        let send =
          words_per (msgs * frags) (fun () ->
              for _ = 1 to msgs do
                Proto.push sess body
              done)
        in
        (send, words_per (msgs * frags) receive))
  in
  let m = !last in
  Tutil.check_int "reassembled" (Msg.length body) (Msg.length m);
  Alcotest.check Tutil.msg "intact" body m;
  let n = 10_000 in
  let keep x = ignore (Sys.opaque_identity x) in
  let figures =
    [
      ("per-fragment send", 23., send);
      ("per-fragment receive", 8.5, recv);
      ( "16 KB reassembled, 2 drops",
        8.01,
        words_per n (fun () ->
            for _ = 1 to n do
              let inner = Msg.drop m 18 in
              keep (Msg.u16 m 0 + Msg.u32 m 4 + Msg.u16 inner 0);
              keep (Msg.drop inner 4)
            done) );
    ]
  in
  measured := figures;
  match List.filter (fun (_, budget, w) -> not (w <= budget)) figures with
  | [] -> ()
  | over ->
      Alcotest.failf "over budget: %s"
        (String.concat ", "
           (List.map
              (fun (what, budget, w) ->
                Printf.sprintf "%s %.2f > %g" what w budget)
              over))

let () =
  Alcotest.run ~and_exit:false "fragment"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "single fragment" `Quick single_fragment;
          Alcotest.test_case "16k = 16 packets" `Quick sixteen_fragments;
          Alcotest.test_case "empty message" `Quick empty_message;
          Alcotest.test_case "odd sizes" `Quick odd_sizes_roundtrip;
          Alcotest.test_case "controls" `Quick controls;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "NACK recovers loss" `Quick nack_recovers_lost_fragment;
          Alcotest.test_case "whole-message loss is silent" `Quick
            whole_message_loss_is_silent;
          Alcotest.test_case "gives up eventually" `Quick gives_up_after_nack_retries;
          Alcotest.test_case "duplicate suppression" `Quick duplicate_suppression;
          Alcotest.test_case "re-push is a new message" `Quick resend_is_new_message;
          Alcotest.test_case "reboot clears partial reassembly" `Quick
            reboot_clears_partial_reassembly;
          Alcotest.test_case "idle receiver prunes dedup table" `Quick
            idle_receiver_prunes_recent;
          Alcotest.test_case "reorder within message" `Quick reorder_within_message;
          Alcotest.test_case "max message enforced" `Quick max_message_enforced;
          prop_integrity_under_faults;
          prop_roundtrip_repaired;
          prop_send_cache_model;
          Alcotest.test_case "one discard sweep per session" `Quick
            one_sweep_per_session;
        ] );
      ("allocation", [ Alcotest.test_case "allocation budget" `Quick alloc_budget ]);
    ];
  print_string "\n\nallocation budget, minor words/op:\n";
  List.iter
    (fun (what, budget, w) ->
      Printf.printf "  %-32s %6.2f (budget %g)\n" what w budget)
    !measured
