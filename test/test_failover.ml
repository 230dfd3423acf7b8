(* The REPLICA layer: policy ordering, the health machine (suspect →
   probe → healthy / dead), bounded attempts and the overall deadline —
   first against scripted endpoints, then end-to-end over a replicated
   L.RPC fan-out with a scripted crash. *)
open Xkernel
module World = Netproto.World
module Stacks = Rpc.Stacks
module Select_replica = Rpc.Select_replica

(* Scripted endpoints: [behave i ~command] decides what endpoint [i]
   does for one call.  Each call is tallied in [hits.(i)]. *)
type behaviour =
  | Reply
  | Fail of Rpc.Rpc_error.t
  | Block of float  (* serve only after this much delay *)

let scripted w ?policy ?attempt_timeout ?deadline ?probation ?probe_limit
    ?probe_timeout ?dead_retry_interval ~k behave =
  let host = (World.node w 0).World.host in
  let sim = w.World.sim in
  let hits = Array.make k 0 in
  let endpoints =
    Array.init k (fun i ->
        {
          Select_replica.ep_addr = Addr.Ip.v 10 9 9 (i + 1);
          ep_call =
            (fun ?expires:_ ?shard:_ ~command msg ->
              hits.(i) <- hits.(i) + 1;
              match behave i ~command with
              | Reply -> Ok msg
              | Fail e -> Error e
              | Block d ->
                  Sim.delay sim d;
                  Ok msg);
        })
  in
  let t =
    Select_replica.create ~host ?policy ?attempt_timeout ?deadline ?probation
      ?probe_limit ?probe_timeout ?dead_retry_interval ~endpoints ()
  in
  (t, hits)

let call w t ?key () =
  Tutil.run_in w (fun () ->
      Select_replica.call t ?key ~command:Stacks.cmd_null Msg.empty)

let round_robin_spreads () =
  let w = World.create () in
  let t, hits = scripted w ~k:4 (fun _ ~command:_ -> Reply) in
  for _ = 1 to 8 do
    ignore (Tutil.ok_exn "call" (call w t ()))
  done;
  Array.iteri (fun i n -> Tutil.check_int (Printf.sprintf "ep %d" i) 2 n) hits;
  Tutil.check_int "no failovers" 0 (Select_replica.failovers t)

let hash_key_affinity () =
  let w = World.create () in
  let t, hits =
    scripted w ~policy:Select_replica.Hash ~k:4 (fun _ ~command:_ -> Reply)
  in
  for _ = 1 to 6 do
    ignore (Tutil.ok_exn "call" (call w t ~key:5 ()))
  done;
  Tutil.check_int "all calls on key mod k" 6 hits.(1);
  Tutil.check_int "others untouched" 0 (hits.(0) + hits.(2) + hits.(3))

let failover_marks_suspect () =
  let w = World.create () in
  let down = ref true in
  let t, hits =
    scripted w ~attempt_timeout:0.05 ~probation:0.1 ~k:3 (fun i ~command:_ ->
        if i = 0 && !down then Block 5. else Reply)
  in
  let seen = ref Select_replica.Healthy in
  Tutil.run_in w (fun () ->
      (match Select_replica.call t ~command:Stacks.cmd_null Msg.empty with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "failover failed: %s" (Rpc.Rpc_error.to_string e));
      seen := Select_replica.health t 0;
      (* Revive the replica before the probation probe fires. *)
      down := false);
  Alcotest.(check bool) "suspect right after the failover" true
    (!seen = Select_replica.Suspect);
  (* The run drained: the probe fired against the revived endpoint. *)
  Alcotest.(check bool) "healthy again after the probe" true
    (Select_replica.health t 0 = Select_replica.Healthy);
  Tutil.check_int "one failover" 1 (Select_replica.failovers t);
  Tutil.check_int "one probe, successful" 1 (Select_replica.probes_ok t);
  Alcotest.(check bool) "the stalled attempt was abandoned, not killed" true
    (hits.(0) >= 1)

let dead_after_probe_limit () =
  let w = World.create () in
  let t, hits =
    scripted w ~attempt_timeout:0.05 ~probation:0.02 ~probe_limit:3 ~k:2
      (fun i ~command:_ ->
        if i = 0 then Fail Rpc.Rpc_error.Timeout else Reply)
  in
  ignore (Tutil.ok_exn "first call fails over" (call w t ()));
  (* The run terminated even though replica 0 never recovers: probing
     stopped at [probe_limit] and the event queue drained. *)
  Alcotest.(check bool) "declared dead" true
    (Select_replica.health t 0 = Select_replica.Dead);
  Tutil.check_int "exactly probe_limit probes" 3 (Select_replica.probes_sent t);
  let h1 = hits.(1) in
  ignore (Tutil.ok_exn "later call" (call w t ()));
  ignore (Tutil.ok_exn "later call" (call w t ()));
  (* Dead replicas are last resort: both round-robin turns land on 1. *)
  Tutil.check_int "dead replica avoided" (h1 + 2) hits.(1)

(* The dead-retry pin: without [dead_retry_interval], a buried replica
   stays Dead forever once probing stops; with it, the next call past
   the interval fires a lazy re-probe and a rebooted replica heals back
   into the rotation. *)
let dead_retry_heals_rebooted_replica () =
  let w = World.create () in
  let sim = w.World.sim in
  let down = ref true in
  let t, hits =
    scripted w ~attempt_timeout:0.05 ~probation:0.02 ~probe_limit:2
      ~dead_retry_interval:0.2 ~k:2 (fun i ~command:_ ->
        if i = 0 && !down then Fail Rpc.Rpc_error.Timeout else Reply)
  in
  Tutil.run_in w (fun () ->
      ignore
        (Tutil.ok_exn "first call fails over"
           (Select_replica.call t ~command:Stacks.cmd_null Msg.empty));
      (* Let probation and both probes play out: replica 0 is Dead. *)
      Sim.delay sim 0.5;
      Alcotest.(check bool) "dead after the probe budget" true
        (Select_replica.health t 0 = Select_replica.Dead);
      (* The replica reboots.  Nothing notices until traffic flows. *)
      down := false;
      Sim.delay sim 0.5;
      ignore
        (Tutil.ok_exn "call while dead"
           (Select_replica.call t ~command:Stacks.cmd_null Msg.empty));
      (* That call fired the lazy re-probe in its own fiber; give it a
         beat to land, then the rotation includes replica 0 again. *)
      Sim.delay sim 0.1;
      Alcotest.(check bool) "healed by the lazy re-probe" true
        (Select_replica.health t 0 = Select_replica.Healthy);
      let h0 = hits.(0) in
      for _ = 1 to 4 do
        ignore
          (Tutil.ok_exn "post-heal call"
             (Select_replica.call t ~command:Stacks.cmd_null Msg.empty))
      done;
      Alcotest.(check bool) "replica 0 back in rotation" true
        (hits.(0) > h0))

let deadline_bounds_the_call () =
  let w = World.create () in
  let sim = w.World.sim in
  let t, _ =
    scripted w ~attempt_timeout:0.1 ~deadline:0.25 ~k:4 (fun _ ~command:_ ->
        Block 5.)
  in
  let elapsed = ref 0. in
  let res = ref (Ok Msg.empty) in
  Tutil.run_in w (fun () ->
      let t0 = Sim.now sim in
      res := Select_replica.call t ~command:Stacks.cmd_null Msg.empty;
      elapsed := Sim.now sim -. t0);
  Alcotest.(check bool) "times out" true (!res = Error Rpc.Rpc_error.Timeout);
  (* The observed time is the deadline plus the layer's own (virtual)
     CPU charge, a few microseconds. *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded by the deadline (took %.6f s)" !elapsed)
    true
    (!elapsed <= 0.25 +. 1e-4)

let remote_error_no_failover () =
  let w = World.create () in
  let t, hits =
    scripted w ~k:3 (fun i ~command:_ ->
        if i = 0 then Fail (Rpc.Rpc_error.Remote 7) else Reply)
  in
  (match call w t () with
  | Error (Rpc.Rpc_error.Remote 7) -> ()
  | _ -> Alcotest.fail "expected the Remote error back");
  Tutil.check_int "no failover on a served error" 0
    (Select_replica.failovers t);
  Alcotest.(check bool) "replica still trusted" true
    (Select_replica.health t 0 = Select_replica.Healthy);
  Tutil.check_int "no other replica tried" 0 (hits.(1) + hits.(2))

(* --- end to end over a replicated L.RPC fan-out -------------------------- *)

let lrpc_fanout_crash_recovery () =
  Stats.reset_registry ();
  let fo = World.create_fanout ~clients:2 ~servers:3 () in
  let w = fo.World.fo in
  (* Replica 0 crashes at t=0.5 and is unreachable until t=1.0. *)
  Chaos.apply ~wire:w.World.wire ~devices:(World.devices w)
    [
      { Chaos.from_t = 0.5; until_t = 1.0; spec = Chaos.Crash 0 };
      {
        Chaos.from_t = 0.5;
        until_t = 1.0;
        spec = Chaos.Partition { a = [ 0 ]; b = [ 1; 2; 3; 4 ] };
      };
    ];
  let s =
    Stacks.lrpc_fanout ~attempt_timeout:0.05 ~deadline:0.5 ~probation:0.05
      ~probe_limit:10 fo
  in
  let server_handled i =
    match Stats.find (Printf.sprintf "h0.%d/SELECT" i) with
    | Some st -> Stats.get st "handled"
    | None -> 0
  in
  let ok = ref 0 in
  let spread = ref [||] in
  let during = ref Select_replica.Healthy in
  Tutil.run_in w (fun () ->
      let burst n =
        for _ = 1 to n do
          match s.Stacks.fos_call 0 ~command:Stacks.cmd_echo (Msg.of_string "x") with
          | Ok _ -> incr ok
          | Error e -> Alcotest.failf "call failed: %s" (Rpc.Rpc_error.to_string e)
        done
      in
      (* Before the crash: round-robin spreads over all three replicas. *)
      burst 6;
      spread := Array.init 3 server_handled;
      (* During the outage: every call still succeeds, via failover. *)
      Sim.delay w.World.sim (0.6 -. Sim.now w.World.sim);
      burst 6;
      during := Select_replica.health s.Stacks.fos_replicas.(0) 0;
      (* After the heal, wait for a probe to recover the replica. *)
      Sim.delay w.World.sim (1.5 -. Sim.now w.World.sim);
      burst 6);
  Tutil.check_int "every call succeeded" 18 !ok;
  Array.iteri
    (fun i n -> Tutil.check_int (Printf.sprintf "server %d pre-crash" i) 2 n)
    !spread;
  Alcotest.(check bool) "replica 0 distrusted during the outage" true
    (!during <> Select_replica.Healthy);
  let fos = s.Stacks.fos_replicas.(0) in
  Alcotest.(check bool) "failovers happened" true
    (Select_replica.failovers fos > 0);
  Alcotest.(check bool) "a probe recovered it" true
    (Select_replica.probes_ok fos > 0);
  Alcotest.(check bool) "healthy again after the heal" true
    (Select_replica.health fos 0 = Select_replica.Healthy)

let experiment_deterministic () =
  let run () =
    Rpc.Experiments.failover ~servers:2 ~clients:2 ~rate:400. ~arrivals:60 ()
  in
  let a = Json.to_string (run ()) in
  let b = Json.to_string (run ()) in
  Tutil.check_str "identical JSON twice" a b

let () =
  Alcotest.run "failover"
    [
      ( "policy",
        [
          Alcotest.test_case "round-robin spreads" `Quick round_robin_spreads;
          Alcotest.test_case "hash key affinity" `Quick hash_key_affinity;
          Alcotest.test_case "remote error: no failover" `Quick
            remote_error_no_failover;
        ] );
      ( "health",
        [
          Alcotest.test_case "failover marks suspect, probe heals" `Quick
            failover_marks_suspect;
          Alcotest.test_case "dead after probe limit" `Quick
            dead_after_probe_limit;
          Alcotest.test_case "dead retry heals a rebooted replica" `Quick
            dead_retry_heals_rebooted_replica;
          Alcotest.test_case "deadline bounds the call" `Quick
            deadline_bounds_the_call;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "crash, failover, recovery" `Quick
            lrpc_fanout_crash_recovery;
          Alcotest.test_case "experiment deterministic" `Quick
            experiment_deterministic;
        ] );
    ]
