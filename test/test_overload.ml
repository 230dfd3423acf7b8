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

(* End to end over CHANNEL: a request whose deadline lapses in ADMIT's
   queue (behind a 50 ms procedure on another channel) is dropped, and
   its channel is free for the next call. *)
let admit_expired_frees_channel () =
  let w = World.create () in
  let sim = w.World.sim in
  let mk (n : World.node) =
    let f =
      Rpc.Fragment.create ~host:n.World.host
        ~lower:(Netproto.Vip.proto n.World.vip)
    in
    let ch =
      Rpc.Channel.create ~host:n.World.host ~lower:(Rpc.Fragment.proto f)
        ~n_channels:2 ()
    in
    Rpc.Select.create ~host:n.World.host ~channel:ch
  in
  let sel0 = mk (World.node w 0) and sel1 = mk (World.node w 1) in
  Rpc.Select.register sel1 ~command:1 (fun m -> Ok m);
  Rpc.Select.register sel1 ~command:2 (fun m ->
      Sim.delay sim 0.05;
      Ok m);
  let admit =
    Admit.create ~host:(World.node w 1).World.host
      ~upper:(Rpc.Select.proto sel1) ()
  in
  Rpc.Select.serve_behind sel1 ~upper:(Admit.proto admit);
  let expired = ref (Ok Msg.empty) and next = ref (Ok Msg.empty) in
  Tutil.run_in w (fun () ->
      let cl = Rpc.Select.connect sel0 ~server:(World.ip_of w 1) in
      ignore (Tutil.ok_exn "warm" (Rpc.Select.call cl ~command:1 Msg.empty));
      (* The slow call takes channel 1, the doomed call channel 0, which
         the ring hands out again next. *)
      Sim.spawn sim (fun () ->
          ignore (Rpc.Select.call cl ~command:2 (Msg.of_string "slow")));
      Sim.delay sim 0.001;
      expired :=
        Rpc.Select.call cl ~expires:(Sim.now sim +. 0.01) ~command:1
          (Msg.of_string "doomed");
      next := Rpc.Select.call cl ~command:1 (Msg.of_string "next"));
  Alcotest.(check bool) "the doomed call times out" true
    (!expired = Error Rpc.Rpc_error.Timeout);
  Tutil.check_int "ADMIT dropped it expired" 1 (Admit.expired_dropped admit);
  Tutil.check_str "the next call on its channel runs" "next"
    (Msg.to_string (Tutil.ok_exn "next" !next))

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

(* Two scripted replicas under [Hash] with key 0, so replica 0 is the
   primary and replica 1 the hedge.  Replica 0 answers in 1.5 ms until
   [fast] or [slow] is set, then in 1 ms or 200 ms; replica 1 always
   answers in 1 ms.  [called.(i)] lists the times replica [i] was
   called, latest first, and [lat] holds the latencies REPLICA's own
   histogram records, which set the hedge delay. *)
type hedged = {
  hw : World.t;
  ht : Select_replica.t;
  hits : int array;
  called : float list array;
  fast : bool ref;
  slow : bool ref;
  lat : Histogram.t;
}

let hedged ?retry_budget () =
  let w = zero_world () in
  let sim = w.World.sim in
  let fast = ref false and slow = ref false in
  let called = Array.make 2 [] in
  let t, hits =
    scripted w ~policy:Select_replica.Hash ~hedge:true ?retry_budget ~k:2
      (fun i ->
        called.(i) <- Sim.now sim :: called.(i);
        if i = 1 || !fast then Block 0.001
        else if !slow then Block 0.2
        else Block 0.0015)
  in
  { hw = w; ht = t; hits; called; fast; slow; lat = Histogram.create () }

let hedged_call h =
  Select_replica.call h.ht ~key:0 ~command:Stacks.cmd_null Msg.empty

(* 40 calls, past the histogram's minimum sample count.  A latency of
   1.5 ms (1,499 or 1,500 us) sits low in its histogram bucket, whose
   top, the p99, is a few us above it, so no warm-up call hedges. *)
let warm_up h =
  let sim = h.hw.World.sim in
  for _ = 1 to 40 do
    let t0 = Sim.now sim in
    ignore (Tutil.ok_exn "warm" (hedged_call h));
    Histogram.record h.lat (int_of_float ((Sim.now sim -. t0) *. 1e6))
  done;
  Tutil.check_int "no hedge while warming up" 0 (rstat h.ht "hedge-sent")

(* The hedge is a timer, cancelled when the attempt settles: a call
   whose primary answers before the hedge delay leaves nothing queued
   behind it. *)
let hedge_cancelled_on_settle () =
  let h = hedged () in
  let pending = ref (-1) in
  Tutil.run_in h.hw (fun () ->
      warm_up h;
      h.fast := true;
      ignore (Tutil.ok_exn "fast" (hedged_call h));
      pending := Sim.pending h.hw.World.sim);
  Tutil.check_int "nothing queued when the call returns" 0 !pending;
  Tutil.check_int "no hedge sent" 0 (rstat h.ht "hedge-sent");
  Tutil.check_int "the hedge replica never called" 0 h.hits.(1)

(* A hedge that fires calls the next candidate exactly the p99 after
   the attempt began, and spends a retry token: with a budget of 0 the
   bucket holds its initial token only, so a second stalled call finds
   it empty and sends no hedge. *)
let hedge_fires_after_p99 () =
  let h = hedged ~retry_budget:0. () in
  Tutil.run_in h.hw (fun () ->
      warm_up h;
      h.slow := true;
      let hedge_after =
        float_of_int (Histogram.percentile h.lat 99.) *. 1e-6
      in
      ignore (Tutil.ok_exn "hedged" (hedged_call h));
      Alcotest.(check (float 0.)) "hedge launched the p99 after the primary"
        (List.hd h.called.(0) +. hedge_after)
        (List.hd h.called.(1));
      Tutil.check_int "hedge-sent" 1 (rstat h.ht "hedge-sent");
      Tutil.check_int "hedge-win" 1 (rstat h.ht "hedge-win");
      ignore (Tutil.ok_exn "stalled, no token" (hedged_call h)));
  Tutil.check_int "the second hedge had no token" 1 (rstat h.ht "hedge-sent");
  Tutil.check_int "the hedge replica called once" 1 h.hits.(1)

(* (row, budget, measured), printed after the run so that every test
   log records this runtime's figures. *)
let measured = ref []

(* Minor words and simulator events per REPLICA call over two scripted
   endpoints that answer in 1.5 ms, replica 0 the primary.  With
   [hedge], each call past the 40-call warm-up arms a hedge at the p99,
   a few us past the answer, and cancels it. *)
let replica_call_cost ~hedge =
  let n = 2_000 in
  let w = zero_world () in
  let sim = w.World.sim in
  let t, _ =
    scripted w ~policy:Select_replica.Hash ~hedge ~k:2 (fun _ -> Block 0.0015)
  in
  let call () =
    Select_replica.call t ~key:0 ~command:Stacks.cmd_null Msg.empty
  in
  let words = ref nan and events = ref nan in
  Tutil.run_in w (fun () ->
      for _ = 1 to 40 do
        ignore (call ())
      done;
      let e0 = Sim.processed sim and w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (call ())
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n;
      events := float_of_int (Sim.processed sim - e0) /. float_of_int n);
  Tutil.check_int "no hedge fired" 0 (rstat t "hedge-sent");
  (!words, !events)

(* Allocation budget, in minor words per call (OCaml 5.1.1 measure ->
   budget), and the exact event count per call.  A call allocates its
   attempt record, the ivar, the primary leg's event and the timed
   read's timer and cell; an armed hedge adds its timer, whose argument
   is the attempt (72 and 80.26 words).  With the call's deadline, each
   attempt's budget and the hedge delay boxed and a tuple per route
   they read 81 and 91.26 words.  Before attempts were one
   record the rows read 196 and 233.26 words, and 7 events with a
   hedge.  A closure per leg handed to [Sim.spawn] reads 86 and 100.26
   words; the hedge as a fiber that sleeps out its delay reads 114.26
   words and 9 events, and as a closure over the attempt and its
   replica 96.26 words. *)
let replica_alloc_budget () =
  let plain_w, plain_e = replica_call_cost ~hedge:false in
  let hedge_w, hedge_e = replica_call_cost ~hedge:true in
  let figures =
    [
      ("REPLICA call", 75., plain_w);
      ("REPLICA call, hedge armed", 83., hedge_w);
    ]
  in
  measured := figures;
  Alcotest.(check (float 0.)) "events per call" 4. plain_e;
  Alcotest.(check (float 0.)) "events per call, hedge armed" 4. hedge_e;
  match List.filter (fun (_, budget, w) -> not (w <= budget)) figures with
  | [] -> ()
  | over ->
      Alcotest.failf "over budget: %s"
        (String.concat ", "
           (List.map
              (fun (what, budget, w) ->
                Printf.sprintf "%s %.2f > %g" what w budget)
              over))

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
  Alcotest.run ~and_exit:false "overload"
    [
      ( "admit",
        [
          Alcotest.test_case "bounded queue rejects overflow" `Quick
            admit_queue_full_rejects;
          Alcotest.test_case "expired request dropped silently" `Quick
            admit_drops_expired;
          Alcotest.test_case "expired request frees its channel" `Quick
            admit_expired_frees_channel;
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
          Alcotest.test_case "hedge cancelled on settlement" `Quick
            hedge_cancelled_on_settle;
          Alcotest.test_case "hedge fires after the p99" `Quick
            hedge_fires_after_p99;
          Alcotest.test_case "allocation budget" `Quick replica_alloc_budget;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "deterministic" `Quick
            overload_experiment_deterministic;
        ] );
    ];
  print_string "\n\nallocation budget, minor words/call:\n";
  List.iter
    (fun (what, budget, w) ->
      Printf.printf "  %-34s %6.2f (budget %g)\n" what w budget)
    !measured
