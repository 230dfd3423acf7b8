(* The INC in-network computation: reply caching at the switch (the
   server's wire and CPU stay cold on a hit), deadline shedding in the
   fabric, TTL and boot-id hygiene, and the shard-map generation guard
   that keeps cached replies from outliving a rebalance. *)

open Xkernel
module World = Netproto.World
module Fragment = Rpc.Fragment
module Channel = Rpc.Channel
module Select = Rpc.Select
module Stacks = Rpc.Stacks
module Inc = Rpc.Inc
module Shard_map = Rpc.Shard_map

(* One channel, so the warm-up call in [setup] leaves the RTT estimator
   adapted to the two-hop path and later calls never retransmit —
   counter assertions below can then be exact. *)
let lnode (n : World.node) =
  let f =
    Fragment.create ~host:n.World.host
      ~lower:(Netproto.Vip.proto n.World.vip)
  in
  let ch =
    Channel.create ~host:n.World.host ~lower:(Fragment.proto f) ~n_channels:1
      ()
  in
  Select.create ~host:n.World.host ~channel:ch

(* One server, one client, echo registered, INC caching [cmd_echo],
   ARP/VIP/RTT warmed by one call. *)
let setup () =
  let sw = World.create_switched ~clients:2 ~servers:1 () in
  let w = sw.World.sw.World.fo in
  let server = World.node w 0 and client = World.node w 1 in
  let sel_s = lnode server and sel_c = lnode client in
  Select.register sel_s ~command:Stacks.cmd_echo (fun req -> Ok req);
  Select.serve sel_s;
  let inc =
    Inc.install
      ~host:sw.World.sw_ports.(0).World.pt_host
      ~ip:sw.World.sw_ip
      ~cacheable:[ Stacks.cmd_echo ] ()
  in
  let cl =
    Tutil.run_in w (fun () ->
        let cl = Select.connect sel_c ~server:server.World.host.Host.ip in
        ignore
          (Tutil.ok_exn "warm"
             (Select.call cl ~command:Stacks.cmd_echo (Msg.of_string "warm")));
        cl)
  in
  (sw, w, server, sel_s, cl, inc)

let hit_spares_the_server () =
  let sw, w, server, _, cl, inc = setup () in
  let s0 = World.port_wire sw ~label:"s0" in
  let h0 = Inc.hits inc and m0 = Inc.misses inc and st0 = Inc.stored inc in
  let r1, frames_between, cpu_between, r2 =
    Tutil.run_in w (fun () ->
        let r1 = Select.call cl ~command:Stacks.cmd_echo (Msg.of_string "q") in
        let frames = (Wire.stats s0).Wire.frames in
        let cpu = Machine.cpu_seconds server.World.host.Host.mach in
        let r2 = Select.call cl ~command:Stacks.cmd_echo (Msg.of_string "q") in
        ( r1,
          (Wire.stats s0).Wire.frames - frames,
          Machine.cpu_seconds server.World.host.Host.mach -. cpu,
          r2 ))
  in
  Tutil.check_str "first call executed" "q"
    (Msg.to_string (Tutil.ok_exn "miss" r1));
  Tutil.check_str "second call answered from the switch" "q"
    (Msg.to_string (Tutil.ok_exn "hit" r2));
  Tutil.check_int "one miss" 1 (Inc.misses inc - m0);
  Tutil.check_int "one hit" 1 (Inc.hits inc - h0);
  Tutil.check_int "reply stored once" 1 (Inc.stored inc - st0);
  Tutil.check_int "server wire idle on the hit" 0 frames_between;
  Alcotest.(check (float 0.)) "server CPU idle on the hit" 0. cpu_between

let null_not_cached () =
  (* cmd_null is not registered as cacheable: both calls reach the
     server, nothing is stored. *)
  let sw = World.create_switched ~clients:1 ~servers:1 () in
  let w = sw.World.sw.World.fo in
  let server = World.node w 0 and client = World.node w 1 in
  let sel_s = lnode server and sel_c = lnode client in
  Select.register sel_s ~command:Stacks.cmd_null (fun _ -> Ok Msg.empty);
  Select.serve sel_s;
  let inc =
    Inc.install
      ~host:sw.World.sw_ports.(0).World.pt_host
      ~ip:sw.World.sw_ip ~cacheable:[ Stacks.cmd_echo ] ()
  in
  Tutil.run_in w (fun () ->
      let cl = Select.connect sel_c ~server:server.World.host.Host.ip in
      ignore
        (Tutil.ok_exn "null 1"
           (Select.call cl ~command:Stacks.cmd_null Msg.empty));
      ignore
        (Tutil.ok_exn "null 2"
           (Select.call cl ~command:Stacks.cmd_null Msg.empty)));
  Tutil.check_int "no hits" 0 (Inc.hits inc);
  Tutil.check_int "nothing stored" 0 (Inc.stored inc);
  Alcotest.(check bool) "requests forwarded" true (Inc.forwarded inc >= 2)

let ttl_expires_entries () =
  (* Entries live 2 s from their store: a repeat 1.9 s after the first
     call still hits, one 0.3 s later misses. *)
  let _, w, _, _, cl, inc = setup () in
  let h0 = Inc.hits inc in
  let echo what =
    ignore
      (Tutil.ok_exn what
         (Select.call cl ~command:Stacks.cmd_echo (Msg.of_string "t")))
  in
  Tutil.run_in w (fun () ->
      echo "miss";
      Sim.delay w.World.sim 1.9;
      echo "inside the TTL -> hit");
  Tutil.check_int "a hit inside the TTL" 1 (Inc.hits inc - h0);
  Tutil.run_in w (fun () ->
      Sim.delay w.World.sim 0.3;
      echo "expired -> miss again");
  Tutil.check_int "no hit across the TTL" 1 (Inc.hits inc - h0)

let deadline_shed_at_the_switch () =
  (* A request stamped with an already-spent deadline is consumed by the
     fabric: the server never sees it — not even to drop it. *)
  let _, w, _, sel_s, cl, inc = setup () in
  let result =
    Tutil.run_in w (fun () ->
        Select.call cl
          ~expires:(Sim.now w.World.sim)
          ~command:Stacks.cmd_echo (Msg.of_string "late"))
  in
  Alcotest.(check bool) "the late call failed" true (Result.is_error result);
  Alcotest.(check bool) "shed in the fabric" true (Inc.sheds inc >= 1);
  Tutil.check_int "the server never saw it" 0
    (Tutil.stat (Select.proto sel_s) "deadline-expired-server")

let reboot_flushes_cache () =
  (* Replies recorded under a dead incarnation must go the moment the
     switch observes the successor's boot id in transit. *)
  let _, w, server, _, cl, inc = setup () in
  Tutil.run_in w (fun () ->
      ignore
        (Tutil.ok_exn "before"
           (Select.call cl ~command:Stacks.cmd_echo (Msg.of_string "r"))));
  Host.reboot server.World.host;
  let h0 = Inc.hits inc in
  Tutil.run_in w (fun () ->
      (* First call after the crash reaches the server (fresh body, so
         no cache involvement); its reply carries the new boot id, which
         flushes everything recorded under boot 1. *)
      ignore (Select.call cl ~command:Stacks.cmd_echo (Msg.of_string "fresh"));
      ignore (Select.call cl ~command:Stacks.cmd_echo (Msg.of_string "r")));
  Alcotest.(check bool) "old-boot entries invalidated" true
    (Inc.invalidated inc >= 1);
  Tutil.check_int "the pre-crash reply was not served" 0 (Inc.hits inc - h0)

(* The generation guard, end to end: a sharded switched stack with INC
   caching, a mid-run rebalance moving the hot shard, and a reply whose
   content names the executing server — so serving a stale cached reply
   would be visible, not just wrong in principle. *)
let cmd_whoami = 50

let rebalance_under_inc () =
  let sw = World.create_switched ~clients:2 ~servers:2 () in
  let w = sw.World.sw.World.fo in
  let map = Shard_map.create ~seed:7 ~shards:8 ~replicas:2 in
  let stack, inc_opt =
    (* The first call over the switched star pays the VIP gateway
       fallback (~0.3 s), longer than the stock 0.25 s attempt timeout. *)
    Stacks.lrpc_switched ~policy:Rpc.Select_replica.Hash
      ~attempt_timeout:2.0 ~deadline:8.0 ~shard_map:map
      ~inc_cacheable:[ cmd_whoami ] sw
  in
  let inc = Option.get inc_opt in
  Array.iteri
    (fun i sel ->
      Select.register sel ~command:cmd_whoami (fun req ->
          Ok (Msg.push req (Printf.sprintf "s%d:" i))))
    stack.Stacks.fos_selects;
  let key = 3 in
  let shard = Shard_map.shard_of_key map key in
  let owner_a = Shard_map.owner map ~shard in
  let owner_b = 1 - owner_a in
  let map2 = Shard_map.move map ~shard ~to_:owner_b in
  let coord = Option.get stack.Stacks.fos_coord in
  let call () =
    stack.Stacks.fos_call 0 ~key ~command:cmd_whoami (Msg.of_string "x")
  in
  let r1, r2, r3, r4 =
    Tutil.run_in w (fun () ->
        (* Let the initial MAP pushes land before driving load. *)
        Sim.delay w.World.sim 0.05;
        let r1 = call () in
        let r2 = call () in
        Shard_map.Coordinator.install coord map2;
        Sim.delay w.World.sim 0.1;
        let r3 = call () in
        let r4 = call () in
        (r1, r2, r3, r4))
  in
  (* Zero lost calls across the rebalance... *)
  let body what r = Msg.to_string (Tutil.ok_exn what r) in
  let a = Printf.sprintf "s%d:x" owner_a
  and b = Printf.sprintf "s%d:x" owner_b in
  Tutil.check_str "round 1 executed by the old owner" a (body "r1" r1);
  Tutil.check_str "round 1 hit repeats the old owner" a (body "r2" r2);
  (* ...and no reply served across the generation: after the move the
     same request names the new owner, from execution and from cache. *)
  Tutil.check_str "round 2 executed by the new owner" b (body "r3" r3);
  Tutil.check_str "round 2 hit repeats the new owner" b (body "r4" r4);
  Alcotest.(check bool) "cache hit in each generation" true
    (Inc.hits inc >= 2);
  Alcotest.(check bool) "old generation invalidated" true
    (Inc.invalidated inc >= 1);
  let _, v = Inc.map_generation inc in
  Tutil.check_int "switch observed the new generation" 2 v

(* --- allocation budget ---------------------------------------------------

   Minor words per echo call from the client of [setup], whole round
   trip: the client's stack, the switch's IP and INC, and on a miss the
   server.  Each call is a cache hit, or each a miss whose reply the
   switch stores (distinct bodies, built beforehand).  OCaml 5.1.1
   measures 195.69 per hit and 315.13 per miss-then-reply (287.69 and
   441.13 with IP resolving its next hop per datagram, INC's closure and
   option per lookup, two tuples per pending request and the hit's reply
   concatenated, re-framed and started with a closure). *)
let hit_budget = 199.
let miss_budget = 319.
let n_calls = 200

(* Words per call over [bodies], measured after [warm] in the same
   fiber: a world drains its timers (FRAGMENT's 2 s send cache) at the
   end of [Tutil.run_in], which would outlive the cache's TTL. *)
let call_words (w : World.t) cl ~warm bodies =
  let call b =
    ignore (Tutil.ok_exn "echo" (Select.call cl ~command:Stacks.cmd_echo b))
  in
  Tutil.run_in w (fun () ->
      Array.iter call warm;
      let w0 = Gc.minor_words () in
      Array.iter call bodies;
      (Gc.minor_words () -. w0) /. float_of_int (Array.length bodies))

let hit_words () =
  let _, w, _, _, cl, inc = setup () in
  let body = Msg.of_string "cached" in
  let h0 = Inc.hits inc in
  let words = call_words w cl ~warm:[| body |] (Array.make n_calls body) in
  Tutil.check_int "every call a hit" n_calls (Inc.hits inc - h0);
  words

let miss_words () =
  let _, w, _, _, cl, inc = setup () in
  let bodies k =
    Array.init n_calls (fun i -> Msg.of_string (Printf.sprintf "%c%05d" k i))
  in
  let m0 = Inc.misses inc and s0 = Inc.stored inc in
  let words = call_words w cl ~warm:(bodies 'a') (bodies 'b') in
  Tutil.check_int "every call a miss" (2 * n_calls) (Inc.misses inc - m0);
  Tutil.check_int "every reply stored" (2 * n_calls) (Inc.stored inc - s0);
  words

let measured = ref []

let alloc_budget () =
  let check name budget words =
    measured := (name, words, budget) :: !measured;
    if not (words <= budget) then
      Alcotest.failf "%s: %.2f words > %g" name words budget
  in
  check "echo call, INC hit" hit_budget (hit_words ());
  check "echo call, INC miss and store" miss_budget (miss_words ())

let () =
  Alcotest.run ~and_exit:false "inc"
    [
      ( "cache",
        [
          Alcotest.test_case "hit spares the server" `Quick
            hit_spares_the_server;
          Alcotest.test_case "null not cached" `Quick null_not_cached;
          Alcotest.test_case "TTL expires entries" `Quick ttl_expires_entries;
        ] );
      ( "safety",
        [
          Alcotest.test_case "deadline shed at the switch" `Quick
            deadline_shed_at_the_switch;
          Alcotest.test_case "reboot flushes the cache" `Quick
            reboot_flushes_cache;
          Alcotest.test_case "rebalance under INC" `Quick rebalance_under_inc;
        ] );
      ("allocation", [ Alcotest.test_case "allocation budget" `Quick alloc_budget ]);
    ];
  print_string "\n\nallocation budget, minor words/call:\n";
  List.iter
    (fun (name, words, budget) ->
      Printf.printf "  %-32s %6.2f (budget %g)\n" name words budget)
    (List.rev !measured)
