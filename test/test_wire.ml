open Xkernel

let mk () =
  let sim = Sim.create () in
  let wire = Wire.create sim () in
  (sim, wire)

let attach_recv wire received =
  Wire.attach wire ~recv:(fun m -> received := Msg.to_string m :: !received)

let broadcast_delivery () =
  let sim, wire = mk () in
  let r1 = ref [] and r2 = ref [] in
  let tap0 = Wire.attach wire ~recv:(fun _ -> Alcotest.fail "echoed to sender") in
  let _t1 = attach_recv wire r1 in
  let _t2 = attach_recv wire r2 in
  Sim.spawn sim (fun () -> Wire.transmit wire ~from:tap0 (Msg.of_string "hi"));
  Sim.run sim;
  Alcotest.(check (list string)) "receiver 1" [ "hi" ] !r1;
  Alcotest.(check (list string)) "receiver 2" [ "hi" ] !r2

let serialization_time () =
  let sim, wire = mk () in
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let arrival = ref 0. in
  let _ = Wire.attach wire ~recv:(fun _ -> arrival := Sim.now sim) in
  Sim.spawn sim (fun () ->
      Wire.transmit wire ~from:tap0 (Msg.fill 1486 'x'));
  Sim.run sim;
  (* (1486+4+20) bytes * 8 bits / 10 Mb/s + 5 us propagation *)
  let expect = (float_of_int (Wire.on_wire_bytes 1486 * 8) /. 10e6) +. 5e-6 in
  Alcotest.(check (float 1e-9)) "arrival time" expect !arrival

let min_frame_padding () =
  Tutil.check_int "runt padded to 64+20" 84 (Wire.on_wire_bytes 1);
  Tutil.check_int "large frame" 1510 (Wire.on_wire_bytes 1486)

let half_duplex_queueing () =
  let sim, wire = mk () in
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let times = ref [] in
  let _ = Wire.attach wire ~recv:(fun _ -> times := Sim.now sim :: !times) in
  (* Two transmitters contend for the medium: second waits. *)
  Sim.spawn sim (fun () -> Wire.transmit wire ~from:tap0 (Msg.fill 1000 'a'));
  Sim.spawn sim (fun () -> Wire.transmit wire ~from:tap0 (Msg.fill 1000 'b'));
  Sim.run sim;
  match List.sort compare !times with
  | [ t1; t2 ] ->
      let ser = float_of_int (Wire.on_wire_bytes 1000 * 8) /. 10e6 in
      Alcotest.(check (float 1e-9)) "second serialized after first" ser (t2 -. t1)
  | _ -> Alcotest.fail "expected two deliveries"

let drop_fault () =
  let sim, wire = mk () in
  Wire.set_fault_hook wire (Some (fun n _ -> if n = 0 then [ Wire.Drop ] else []));
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let received = ref [] in
  let _ = attach_recv wire received in
  Sim.spawn sim (fun () ->
      Wire.transmit wire ~from:tap0 (Msg.of_string "lost");
      Wire.transmit wire ~from:tap0 (Msg.of_string "kept"));
  Sim.run sim;
  Alcotest.(check (list string)) "first dropped" [ "kept" ] !received;
  Tutil.check_int "stats dropped" 1 (Wire.stats wire).Wire.dropped

let duplicate_fault () =
  let sim, wire = mk () in
  Wire.set_fault_hook wire (Some (fun _ _ -> [ Wire.Duplicate ]));
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let received = ref [] in
  let _ = attach_recv wire received in
  Sim.spawn sim (fun () -> Wire.transmit wire ~from:tap0 (Msg.of_string "x"));
  Sim.run sim;
  Alcotest.(check (list string)) "two copies" [ "x"; "x" ] !received

let corrupt_fault () =
  let sim, wire = mk () in
  Wire.set_fault_hook wire (Some (fun _ _ -> [ Wire.Corrupt 1 ]));
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let received = ref [] in
  let _ = attach_recv wire received in
  Sim.spawn sim (fun () -> Wire.transmit wire ~from:tap0 (Msg.of_string "abc"));
  Sim.run sim;
  (match !received with
  | [ s ] ->
      Alcotest.(check bool) "byte 1 flipped" true (s.[1] <> 'b');
      Alcotest.(check char) "byte 0 intact" 'a' s.[0]
  | _ -> Alcotest.fail "expected one delivery");
  Tutil.check_int "stats corrupted" 1 (Wire.stats wire).Wire.corrupted

let duplicate_and_corrupt_accounting () =
  (* One frame, duplicated and corrupted, one receiving tap: [delivered]
     counts both scheduled copies, the corruption hits only the original
     transmission, and the duplicate carries the clean bits. *)
  let sim, wire = mk () in
  Wire.set_fault_hook wire
    (Some (fun _ _ -> [ Wire.Duplicate; Wire.Corrupt 0 ]));
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let received = ref [] in
  let _ = attach_recv wire received in
  Sim.spawn sim (fun () -> Wire.transmit wire ~from:tap0 (Msg.of_string "ok"));
  Sim.run sim;
  let st = Wire.stats wire in
  Tutil.check_int "frames" 1 st.Wire.frames;
  Tutil.check_int "delivered counts both copies" 2 st.Wire.delivered;
  Tutil.check_int "duplicated" 1 st.Wire.duplicated;
  Tutil.check_int "corrupted" 1 st.Wire.corrupted;
  match List.sort compare !received with
  | [ a; b ] ->
      Alcotest.(check bool) "exactly one copy corrupted" true
        (List.length (List.filter (String.equal "ok") [ a; b ]) = 1)
  | l -> Alcotest.failf "expected two deliveries, got %d" (List.length l)

let reorder_fault () =
  let sim, wire = mk () in
  Wire.set_fault_hook wire
    (Some (fun n _ -> if n = 0 then [ Wire.Delay 0.01 ] else []));
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let received = ref [] in
  let _ = attach_recv wire received in
  Sim.spawn sim (fun () ->
      Wire.transmit wire ~from:tap0 (Msg.of_string "first");
      Wire.transmit wire ~from:tap0 (Msg.of_string "second"));
  Sim.run sim;
  Alcotest.(check (list string)) "overtaken" [ "first"; "second" ] !received

let probabilistic_drops_deterministic () =
  (* Same seed, same loss pattern: determinism matters for repro. *)
  let run seed =
    let sim = Sim.create () in
    let wire = Wire.create sim ~seed () in
    Wire.set_drop_rate wire 0.5;
    let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
    let count = ref 0 in
    let _ = Wire.attach wire ~recv:(fun _ -> incr count) in
    Sim.spawn sim (fun () ->
        for _ = 1 to 100 do
          Wire.transmit wire ~from:tap0 (Msg.of_string "m")
        done);
    Sim.run sim;
    !count
  in
  Tutil.check_int "same seed, same outcome" (run 7) (run 7);
  Alcotest.(check bool) "some but not all dropped" true
    (let c = run 7 in
     c > 0 && c < 100)

let rates_outside_unit_interval_rejected () =
  let _, wire = mk () in
  List.iter
    (fun (name, set) ->
      List.iter
        (fun r ->
          match set wire r with
          | () -> Alcotest.failf "%s %g accepted" name r
          | exception Invalid_argument _ -> ())
        [ -0.1; 1.5; Float.nan ];
      set wire 0.;
      set wire 1.)
    [ ("set_drop_rate", Wire.set_drop_rate); ("set_dup_rate", Wire.set_dup_rate) ]

let stats_accumulate () =
  let sim, wire = mk () in
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let _ = Wire.attach wire ~recv:(fun _ -> ()) in
  Sim.spawn sim (fun () ->
      Wire.transmit wire ~from:tap0 (Msg.fill 100 'x');
      Wire.transmit wire ~from:tap0 (Msg.fill 100 'x'));
  Sim.run sim;
  let st = Wire.stats wire in
  Tutil.check_int "frames" 2 st.Wire.frames;
  Tutil.check_int "delivered" 2 st.Wire.delivered;
  Wire.reset_stats wire;
  Tutil.check_int "reset" 0 (Wire.stats wire).Wire.frames

let pair_blocking () =
  let sim, wire = mk () in
  let tap0 = Wire.attach wire ~recv:(fun _ -> ()) in
  let r1 = ref [] and r2 = ref [] in
  let t1 = attach_recv wire r1 in
  let _t2 = attach_recv wire r2 in
  Wire.block_pair wire ~from:tap0 ~to_:t1;
  Tutil.check_bool "pair reported blocked" true
    (Wire.pair_blocked wire ~from:tap0 ~to_:t1);
  Tutil.check_bool "reverse direction open" false
    (Wire.pair_blocked wire ~from:t1 ~to_:tap0);
  Sim.spawn sim (fun () -> Wire.transmit wire ~from:tap0 (Msg.of_string "one"));
  Sim.run sim;
  (* The cut is directional and per-pair: t1 starved, t2 untouched. *)
  Alcotest.(check (list string)) "blocked receiver" [] !r1;
  Alcotest.(check (list string)) "other receiver" [ "one" ] !r2;
  Tutil.check_int "partitioned counted" 1 (Wire.stats wire).Wire.partitioned;
  Tutil.check_int "delivered counted" 1 (Wire.stats wire).Wire.delivered;
  Wire.unblock_pair wire ~from:tap0 ~to_:t1;
  Sim.spawn sim (fun () -> Wire.transmit wire ~from:tap0 (Msg.of_string "two"));
  Sim.run sim;
  Alcotest.(check (list string)) "heals after unblock" [ "two" ] !r1;
  Tutil.check_int "no further partitioned" 1 (Wire.stats wire).Wire.partitioned

let () =
  Alcotest.run "wire"
    [
      ( "medium",
        [
          Alcotest.test_case "broadcast delivery" `Quick broadcast_delivery;
          Alcotest.test_case "serialization time" `Quick serialization_time;
          Alcotest.test_case "minimum frame size" `Quick min_frame_padding;
          Alcotest.test_case "half-duplex queueing" `Quick half_duplex_queueing;
          Alcotest.test_case "stats" `Quick stats_accumulate;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop" `Quick drop_fault;
          Alcotest.test_case "duplicate" `Quick duplicate_fault;
          Alcotest.test_case "corrupt" `Quick corrupt_fault;
          Alcotest.test_case "duplicate+corrupt accounting" `Quick
            duplicate_and_corrupt_accounting;
          Alcotest.test_case "reorder delay" `Quick reorder_fault;
          Alcotest.test_case "rates outside [0, 1] rejected" `Quick
            rates_outside_unit_interval_rejected;
          Alcotest.test_case "deterministic randomness" `Quick
            probabilistic_drops_deterministic;
          Alcotest.test_case "pair blocking" `Quick pair_blocking;
        ] );
    ]
