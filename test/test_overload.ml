(* End-to-end overload control: the ADMIT layer's queue disciplines
   against stub sessions, the client-side governance in REPLICA (retry
   budget, busy pushback, all-dead fast-fail, hedging) against scripted
   endpoints, and the overload experiment's determinism. *)
open Xkernel
module World = Netproto.World
module Admit = Rpc.Admit
module Stacks = Rpc.Stacks
module Select_replica = Rpc.Select_replica

(* --- ADMIT against stubs ------------------------------------------------- *)

(* A stub "channel" session: answers [Get_rx_deadline] from [expiry]
   and counts [Reject_busy] pushbacks. *)
let stub_session host ?(expiry = -1.) () =
  let p = Proto.create ~host ~name:"STUB" () in
  let rejects = ref 0 in
  let sess =
    Proto.make_session p
      {
        Proto.push = (fun _ -> ());
        pop = (fun _ -> ());
        s_control =
          (function
          | Control.Get_rx_deadline -> Control.R_float expiry
          | Control.Reject_busy ->
              incr rejects;
              Control.R_unit
          | _ -> Control.Unsupported);
        close = (fun () -> ());
      }
  in
  (sess, rejects)

(* An upper protocol recording what reaches it, optionally burning
   [delay] seconds per message (a slow procedure). *)
let recording_upper host ?(delay = 0.) () =
  let served = ref [] in
  let up = Proto.create ~host ~name:"SRV" () in
  Proto.set_ops up
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "srv");
      open_enable = (fun ~upper:_ _ -> invalid_arg "srv");
      open_done = (fun ~upper:_ _ -> invalid_arg "srv");
      demux =
        (fun ~lower:_ msg ->
          if delay > 0. then Sim.delay (Host.sim host) delay;
          served := Msg.to_string msg :: !served);
      p_control = (fun _ -> Control.Unsupported);
    };
  (up, served)

(* Zero-cost profile: [Proto.deliver] does not yield on the CPU
   semaphore, so a burst enqueued in one fiber turn really is a burst —
   the worker only runs once the enqueuer blocks. *)
let zero_world () = World.create ~profile:Machine.zero_cost ()

let admit_queue_full_rejects () =
  let w = zero_world () in
  let host = (World.node w 0).World.host in
  let up, served = recording_upper host () in
  let t = Admit.create ~host ~upper:up ~config:{ Admit.default with queue_limit = 2 } () in
  let sess, rejects = stub_session host () in
  Tutil.run_in w (fun () ->
      for i = 1 to 5 do
        Proto.deliver (Admit.proto t) ~lower:sess
          (Msg.of_string (string_of_int i))
      done);
  Tutil.check_int "first two admitted" 2 (Tutil.stat (Admit.proto t) "admitted");
  Tutil.check_int "overflow rejected" 3 (Admit.busy_rejected t);
  Tutil.check_int "each reject answered with busy" 3 !rejects;
  Tutil.check_int "served the admitted ones" 2 (List.length !served);
  Tutil.check_int "queue drained" 0 (Admit.depth t)

let admit_drops_expired () =
  let w = zero_world () in
  let host = (World.node w 0).World.host in
  let up, served = recording_upper host () in
  let t = Admit.create ~host ~upper:up () in
  (* Expiry at the epoch: already lapsed when the worker looks. *)
  let sess, rejects = stub_session host ~expiry:0. () in
  Tutil.run_in w (fun () ->
      Proto.deliver (Admit.proto t) ~lower:sess (Msg.of_string "stale"));
  Tutil.check_int "silently dropped" 1 (Admit.expired_dropped t);
  Tutil.check_int "no reply owed" 0 !rejects;
  Tutil.check_int "procedure never ran" 0 (List.length !served);
  Tutil.check_int "nothing admitted" 0 (Tutil.stat (Admit.proto t) "admitted")

let admit_lifo_serves_newest_first () =
  let w = zero_world () in
  let host = (World.node w 0).World.host in
  let up, served = recording_upper host () in
  let t = Admit.create ~host ~upper:up ~config:{ Admit.default with lifo = true } () in
  let sess, _ = stub_session host () in
  Tutil.run_in w (fun () ->
      List.iter
        (fun s -> Proto.deliver (Admit.proto t) ~lower:sess (Msg.of_string s))
        [ "a"; "b"; "c" ]);
  (* [served] is itself newest-first, so LIFO service order c,b,a reads
     back as a,b,c. *)
  Alcotest.(check (list string)) "newest first" [ "a"; "b"; "c" ] !served

let admit_codel_sheds_persistent_queue () =
  let w = zero_world () in
  let host = (World.node w 0).World.host in
  let sim = Host.sim host in
  (* 5 ms of service per request, arrivals every 1 ms: sojourn climbs
     past the 1 ms target and stays there, so after a full 10 ms
     interval above target the controller starts shedding. *)
  let up, served = recording_upper host ~delay:0.005 () in
  let t =
    Admit.create ~host ~upper:up
      ~config:
        {
          Admit.queue_limit = 100;
          codel_target = 0.001;
          codel_interval = 0.01;
          lifo = false;
        }
      ()
  in
  let sess, rejects = stub_session host () in
  Tutil.run_in w (fun () ->
      for i = 1 to 20 do
        Proto.deliver (Admit.proto t) ~lower:sess
          (Msg.of_string (string_of_int i));
        Sim.delay sim 0.001
      done);
  Alcotest.(check bool) "controller shed" true (Admit.codel_dropped t > 0);
  Alcotest.(check bool) "sheds answered with busy" true
    (!rejects = Admit.codel_dropped t);
  Alcotest.(check bool) "still serving" true (List.length !served > 0);
  Tutil.check_int "accounted for every request" 20
    (Tutil.stat (Admit.proto t) "admitted" + Admit.codel_dropped t)

(* --- REPLICA governance against scripted endpoints ----------------------- *)

type behaviour = Reply | Fail of Rpc.Rpc_error.t | Block of float

let scripted w ?policy ?attempt_timeout ?deadline ?probation ?probe_limit
    ?retry_budget ?hedge ~k behave =
  let host = (World.node w 0).World.host in
  let sim = w.World.sim in
  let hits = Array.make k 0 in
  let endpoints =
    Array.init k (fun i ->
        {
          Select_replica.ep_addr = Addr.Ip.v 10 8 8 (i + 1);
          ep_call =
            (fun ?expires:_ ?shard:_ ~command:_ msg ->
              hits.(i) <- hits.(i) + 1;
              match behave i with
              | Reply -> Ok msg
              | Fail e -> Error e
              | Block d ->
                  Sim.delay sim d;
                  Ok msg);
        })
  in
  let t =
    Select_replica.create ~host ?policy ?attempt_timeout ?deadline ?probation
      ?probe_limit ?retry_budget ?hedge ~endpoints ()
  in
  (t, hits)

let rstat t name =
  Control.int_exn
    (Proto.control (Select_replica.proto t) (Control.Get_stat name))

let retry_budget_bounds_attempts () =
  let w = World.create () in
  (* Probation far out so recovery probes stay clear of the window.
     Ratio 0.25 is exact in binary floating point, so the bucket
     arithmetic below is deterministic down to the last token. *)
  let t, hits =
    scripted w ~retry_budget:0.25 ~probation:1000. ~k:3 (fun _ ->
        Fail Rpc.Rpc_error.Timeout)
  in
  let total = ref 0 in
  Tutil.run_in w (fun () ->
      for _ = 1 to 11 do
        ignore (Select_replica.call t ~command:Stacks.cmd_null Msg.empty)
      done;
      total := Array.fold_left ( + ) 0 hits);
  (* The bucket starts at its cap (2.5): call 1 pays for both
     failovers, then every fourth call accrues a whole token and
     retries once (calls 3, 7, 11); the rest absorb their failure.
     Without the budget 11 all-failing calls would make 33 attempts. *)
  Tutil.check_int "16 attempts for 11 calls" 16 !total;
  Tutil.check_int "five paid failovers" 5 (Select_replica.failovers t);
  Tutil.check_int "exhaustions absorbed the rest" 10
    (rstat t "retry-budget-exhausted")

let busy_pushback_no_failover () =
  let w = World.create () in
  let t, hits =
    scripted w ~policy:Select_replica.Hash ~k:2 (fun i ->
        if i = 0 then Fail Rpc.Rpc_error.Busy else Reply)
  in
  let res =
    Tutil.run_in w (fun () ->
        Select_replica.call t ~key:0 ~command:Stacks.cmd_null Msg.empty)
  in
  Alcotest.(check bool) "busy surfaces" true
    (res = Error Rpc.Rpc_error.Busy);
  Tutil.check_int "no second replica tried" 0 hits.(1);
  Tutil.check_int "no failover" 0 (Select_replica.failovers t);
  Tutil.check_int "pushback counted" 1 (rstat t "busy-reject-rx");
  Alcotest.(check bool) "replica not marked unhealthy" true
    (Select_replica.health t 0 = Select_replica.Healthy)

let all_dead_fails_fast () =
  let w = World.create () in
  let t, _ =
    scripted w ~attempt_timeout:0.05 ~probation:0.01 ~probe_limit:1 ~k:2
      (fun _ -> Fail Rpc.Rpc_error.Timeout)
  in
  let elapsed = ref 1. and res = ref (Ok Msg.empty) in
  Tutil.run_in w (fun () ->
      (* One call marks both replicas suspect; their single recovery
         probes fail and kill them. *)
      ignore (Select_replica.call t ~command:Stacks.cmd_null Msg.empty);
      Sim.delay w.World.sim 1.;
      Alcotest.(check bool) "both dead" true
        (Select_replica.health t 0 = Select_replica.Dead
        && Select_replica.health t 1 = Select_replica.Dead);
      let t0 = Sim.now w.World.sim in
      res := Select_replica.call t ~command:Stacks.cmd_null Msg.empty;
      elapsed := Sim.now w.World.sim -. t0);
  Alcotest.(check bool) "terminal timeout" true
    (!res = Error Rpc.Rpc_error.Timeout);
  Alcotest.(check bool) "immediate, not a slept-out deadline" true
    (!elapsed < 0.001);
  Tutil.check_int "fast-fail counted" 1 (rstat t "all-dead")

let hedge_races_the_slow_replica () =
  let w = World.create () in
  let slow = ref false in
  let t, hits =
    scripted w ~policy:Select_replica.Hash ~hedge:true ~k:2 (fun i ->
        if i = 1 then Block 0.001
        else if !slow then Block 0.2
        else Block 0.002)
  in
  let elapsed = ref 0. in
  Tutil.run_in w (fun () ->
      (* Feed the latency histogram past its minimum sample count while
         replica 0 is fast... *)
      for _ = 1 to 40 do
        ignore
          (Tutil.ok_exn "warm"
             (Select_replica.call t ~key:0 ~command:Stacks.cmd_null Msg.empty))
      done;
      (* ...then stall it.  The hedge arms after the observed p99
         (~2 ms), fires long before the 200 ms stall resolves, and the
         fast replica's reply settles the call. *)
      slow := true;
      let t0 = Sim.now w.World.sim in
      ignore
        (Tutil.ok_exn "hedged"
           (Select_replica.call t ~key:0 ~command:Stacks.cmd_null Msg.empty));
      elapsed := Sim.now w.World.sim -. t0);
  Tutil.check_int "hedge launched" 1 (rstat t "hedge-sent");
  Tutil.check_int "hedge settled the call" 1 (rstat t "hedge-win");
  Tutil.check_int "second replica served it" 1 hits.(1);
  Alcotest.(check bool) "well under the primary's stall" true
    (!elapsed < 0.05);
  Tutil.check_int "not counted as a failover" 0 (Select_replica.failovers t)

(* --- the experiment ------------------------------------------------------ *)

let overload_experiment_deterministic () =
  let run () =
    Json.to_string
      (Rpc.Experiments.overload ~servers:2 ~clients:2 ~rates:[ 1800. ]
         ~arrivals:40 ~window:64 ~controls:[ "deadline+admit" ] ())
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "identical JSON twice" a b

let () =
  Alcotest.run "overload"
    [
      ( "admit",
        [
          Alcotest.test_case "bounded queue rejects overflow" `Quick
            admit_queue_full_rejects;
          Alcotest.test_case "expired request dropped silently" `Quick
            admit_drops_expired;
          Alcotest.test_case "lifo serves newest first" `Quick
            admit_lifo_serves_newest_first;
          Alcotest.test_case "codel sheds a persistent queue" `Quick
            admit_codel_sheds_persistent_queue;
        ] );
      ( "governance",
        [
          Alcotest.test_case "retry budget bounds attempts" `Quick
            retry_budget_bounds_attempts;
          Alcotest.test_case "busy pushback: no failover" `Quick
            busy_pushback_no_failover;
          Alcotest.test_case "all dead: fail fast" `Quick all_dead_fails_fast;
          Alcotest.test_case "hedge races the slow replica" `Quick
            hedge_races_the_slow_replica;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "deterministic" `Quick
            overload_experiment_deterministic;
        ] );
    ]
