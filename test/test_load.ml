(* The workload subsystem: Histogram precision and merging, the
   fit_slope degenerate guard, and closed-/open-loop load generation
   over a fan-in world. *)
open Xkernel
module World = Netproto.World
module Load = Rpc.Load
module Stacks = Rpc.Stacks

(* --- Histogram ----------------------------------------------------------- *)

(* Below sub_count (256 at the default 8 bits) every value has its own
   sub-bucket, so small recordings are exact. *)
let hist_exact_small () =
  let h = Histogram.create () in
  for v = 1 to 100 do
    Histogram.record h v
  done;
  Tutil.check_int "count" 100 (Histogram.count h);
  Tutil.check_str "min, max and mean"
    {|{"count":100,"clamped":0,"min":1,"max":100,"mean":50.5,"p50":50,"p90":90,"p99":99,"p999":100}|}
    (Json.to_string (Histogram.to_json h));
  Tutil.check_int "p50" 50 (Histogram.percentile h 50.);
  Tutil.check_int "p90" 90 (Histogram.percentile h 90.);
  Tutil.check_int "p100" 100 (Histogram.percentile h 100.);
  Tutil.check_int "p0+" 1 (Histogram.percentile h 0.5)

let hist_empty_and_errors () =
  let h = Histogram.create () in
  Tutil.check_int "empty count" 0 (Histogram.count h);
  Tutil.check_int "empty percentile" 0 (Histogram.percentile h 99.);
  Tutil.check_str "empty min and mean"
    {|{"count":0,"clamped":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"p999":0}|}
    (Json.to_string (Histogram.to_json h));
  Alcotest.check_raises "negative"
    (Invalid_argument "Histogram.record: negative value") (fun () ->
      Histogram.record h (-1))

let hist_clamps () =
  (* 10^8 is tracked; above it, a value lands in the top bucket as its
     highest value, 2^27 - 1. *)
  let h = Histogram.create () in
  Histogram.record h 100_000_000;
  Tutil.check_str "10^8 not clamped"
    {|{"count":1,"clamped":0,"min":100000000,"max":100000000,"mean":100000000,"p50":100139007,"p90":100139007,"p99":100139007,"p999":100139007}|}
    (Json.to_string (Histogram.to_json h));
  let h = Histogram.create () in
  Histogram.record h 500_000_000;
  Histogram.record h 7;
  Tutil.check_int "count includes clamped" 2 (Histogram.count h);
  Tutil.check_str "clamped to the cap"
    {|{"count":2,"clamped":1,"min":7,"max":134217727,"mean":67108867,"p50":7,"p90":134217727,"p99":134217727,"p999":134217727}|}
    (Json.to_string (Histogram.to_json h))

(* The HDR error bound: a single recorded value comes back from
   [percentile _ 100.] no smaller than itself and within the
   sub-bucket width (relative error <= 2^-(bits-1)). *)
let hist_precision =
  Tutil.qtest ~count:500 "histogram relative error bound"
    QCheck.(int_range 0 100_000_000)
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      let got = Histogram.percentile h 100. in
      got >= v && float_of_int (got - v) <= (float_of_int v /. 128.) +. 1.)

let hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  let all = Histogram.create () in
  List.iter
    (fun v ->
      Histogram.record a v;
      Histogram.record all v)
    [ 3; 14; 159; 2653 ];
  List.iter
    (fun v ->
      Histogram.record b v;
      Histogram.record all v)
    [ 1; 1_000_000; 58 ];
  Histogram.merge_into ~src:b ~dst:a;
  Tutil.check_int "merged count" 7 (Histogram.count a);
  Tutil.check_int "src unchanged" 3 (Histogram.count b);
  Alcotest.(check bool) "merge == recording the union" true
    (Histogram.to_json a = Histogram.to_json all)

(* Allocation budget for [Histogram.record], minor words per record:
   OCaml 5.1.1 measures 0 (budget 0.01).  A running sum boxed in the
   histogram's mixed record reads 2, one float box per record.  The
   values span several buckets, and a first pass runs before the
   measured one. *)
let record_budget = 0.01
let record_measured = ref nan

let hist_record_alloc_budget () =
  let h = Histogram.create () and n = 10_000 in
  let pass () =
    for v = 1 to n do
      Histogram.record h (v * 37)
    done
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  record_measured := words;
  if not (words <= record_budget) then
    Alcotest.failf "Histogram.record: %.2f words > %g" words record_budget

(* --- Measure.fit_slope degenerate series --------------------------------- *)

let fit_slope_degenerate () =
  Alcotest.(check (float 0.)) "empty" 0. (Rpc.Measure.fit_slope []);
  Alcotest.(check (float 0.)) "single point" 0.
    (Rpc.Measure.fit_slope [ (1024, 0.001) ]);
  Alcotest.(check (float 0.)) "zero x-variance" 0.
    (Rpc.Measure.fit_slope [ (2048, 0.001); (2048, 0.002); (2048, 0.004) ]);
  (* sanity: a real series still fits; 1 msec per extra KB *)
  Alcotest.(check (float 1e-9)) "normal slope" 1.
    (Rpc.Measure.fit_slope [ (1024, 0.001); (2048, 0.002); (3072, 0.003) ])

(* --- closed loop over a fan-in world ------------------------------------- *)

let closed_fanin () =
  let f = World.create_fanin ~clients:8 () in
  let fan = Stacks.mrpc_fanin f in
  let r = Load.run_closed ~fibers:16 f fan in
  Tutil.check_int "every call completed" 400 r.Load.completed;
  Tutil.check_int "no failures" 0 r.Load.failed;
  Tutil.check_int "no shedding (closed loop)" 0 r.Load.shed;
  Tutil.check_int "one histogram per client host" 8
    (Array.length r.Load.per_client);
  Tutil.check_int "global count = sum of per-client" 400
    (Array.fold_left (fun n h -> n + Histogram.count h) 0 r.Load.per_client);
  (* re-merging the per-client histograms reproduces the global one *)
  let again = Histogram.create () in
  Array.iter (fun h -> Histogram.merge_into ~src:h ~dst:again) r.Load.per_client;
  Alcotest.(check bool) "per-client merge == global" true
    (Histogram.to_json again = Histogram.to_json r.Load.hist);
  Alcotest.(check bool) "positive throughput" true (r.Load.achieved_rps > 0.);
  Alcotest.(check bool) "some wire traffic" true (r.Load.wire_util > 0.);
  (* the run registered its gauges *)
  match Stats.find ("load/" ^ fan.Stacks.fan_name) with
  | None -> Alcotest.fail "load stats table not registered"
  | Some t -> Tutil.check_int "completed gauge" 400 (Stats.get t "completed")

(* --- open loop: shed behaviour around the knee --------------------------- *)

let open_below_knee () =
  let f = World.create_fanin ~clients:4 () in
  let r = Load.run_open_fan ~rate:200. ~arrivals:80 f (Stacks.mrpc_fanin f) in
  Tutil.check_int "nothing shed below the knee" 0 r.Load.shed;
  Tutil.check_int "all arrivals completed" 80 r.Load.completed;
  Tutil.check_int "no failures" 0 r.Load.failed;
  Alcotest.(check bool) "achieved tracks offered (within 25%)" true
    (Float.abs (r.Load.achieved_rps -. r.Load.offered_rps)
    < 0.25 *. r.Load.offered_rps)

let open_past_knee () =
  let f = World.create_fanin ~clients:4 () in
  (* ~1650 calls/s is M.RPC's ceiling here; offer 20x that into a
     4-call window, so most arrivals find it full *)
  let r =
    Load.run_open_fan ~rate:40_000. ~arrivals:120 ~window:4 f
      (Stacks.mrpc_fanin f)
  in
  Alcotest.(check bool) "overload sheds" true (r.Load.shed > 0);
  Tutil.check_int "shed + completed = arrivals" 120
    (r.Load.shed + r.Load.completed + r.Load.failed);
  Alcotest.(check bool) "window respected" true (r.Load.pending_max <= 4)

let open_uniform_deterministic_arrivals () =
  (* Uniform arrivals are evenly spaced: at 500 calls/s, call k starts
     2k ms after the arrival clock. *)
  let f = World.create_fanin ~clients:2 () in
  let fan = Stacks.lrpc_fanin f in
  let starts = ref [] in
  let o =
    Load.run_open ~arrival:Load.Uniform ~rate:500. ~arrivals:50 f.World.fan
      ~clients:2
      ~on_done:(fun _ t _ -> starts := t :: !starts)
      (fun i ~key:_ -> fan.Stacks.fan_call i ~command:Stacks.cmd_null Msg.empty)
  in
  Tutil.check_int "all arrivals completed" 50 o.Load.o_completed;
  Tutil.check_int "nothing shed" 0 o.Load.o_shed;
  List.iteri
    (fun k t ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "call %d starts on the grid" k)
        (o.Load.o_t0 +. (float_of_int k *. 0.002))
        t)
    (List.sort compare !starts)

(* --- lrpc-arto: no premature-retransmission storm under rising load ------ *)

(* The PR-3 defect: with the adaptive RTO, srtt learned from idle
   warm-up calls fires prematurely once open-loop queueing delay grows
   past srtt + 4*rttvar, and Karn's rule then starves the estimator —
   a retransmission storm at rates the fixed timeout rides through.
   The load-sensitive floor (Channel [rto_load_floor]) must keep
   spurious retransmissions to a trickle; with the floor disabled the
   same run still storms, which is what makes this a regression test
   of the floor rather than of the workload. *)
(* --- chaos under load: liveness ------------------------------------------ *)

let crash_under_load_no_hung_fibers () =
  (* Crashing the single fan-in server mid-run must not strand any
     fiber: every dispatched call ends in a reply, a Timeout or a
     Rebooted, so run_open_fan's accounting balances and the run drains.
     (A hung fiber would leave pending calls unaccounted for.) *)
  let f = World.create_fanin ~clients:4 () in
  let w = f.World.fan in
  Chaos.apply ~wire:w.World.wire ~devices:(World.devices w)
    [ { Chaos.from_t = 0.15; until_t = 0.16; spec = Chaos.Crash 0 } ];
  let r = Load.run_open_fan ~rate:800. ~arrivals:200 f (Stacks.lrpc_fanin f) in
  Tutil.check_int "every arrival accounted for" 200
    (r.Load.completed + r.Load.failed + r.Load.shed);
  Alcotest.(check bool) "the crash was observed" true (r.Load.failed > 0);
  Alcotest.(check bool) "calls completed after the restart" true
    (r.Load.completed > r.Load.failed)

let arto_storm ~rto_load_floor =
  Stats.reset_registry ();
  let f = World.create_fanin ~clients:4 () in
  let fan = Stacks.lrpc_fanin ~adaptive:true ~rto_load_floor f in
  let r = Load.run_open_fan ~rate:1200. ~arrivals:200 f fan in
  let retransmits =
    List.fold_left
      (fun acc i ->
        match Stats.find (Printf.sprintf "h0.%d/CHANNEL" i) with
        | Some st -> acc + Stats.get st "retransmit"
        | None -> acc)
      0 [ 1; 2; 3; 4 ]
  in
  (r, retransmits)

let arto_no_storm () =
  let r, retransmits = arto_storm ~rto_load_floor:true in
  Tutil.check_int "nothing shed" 0 r.Load.shed;
  Tutil.check_int "no failed calls" 0 r.Load.failed;
  Alcotest.(check bool)
    (Printf.sprintf "retransmissions a trickle (%d of %d)" retransmits
       r.Load.completed)
    true
    (retransmits * 10 <= r.Load.completed)

let arto_storm_without_floor () =
  let r, retransmits = arto_storm ~rto_load_floor:false in
  Alcotest.(check bool)
    (Printf.sprintf "floor off still storms (%d retransmits, %d shed)"
       retransmits r.Load.shed)
    true
    (retransmits * 10 > r.Load.completed || r.Load.shed > 0)

(* --- determinism: identical JSON across two fresh runs ------------------- *)

let sweep_deterministic () =
  let once () =
    let f = World.create_fanin ~clients:4 () in
    let closed = Load.run_closed ~fibers:8 f (Stacks.lrpc_fanin f) in
    let f2 = World.create_fanin ~clients:4 () in
    let opened =
      Load.run_open_fan ~rate:400. ~arrivals:60 f2 (Stacks.mrpc_fanin f2)
    in
    Json.to_string (Json.Arr [ Load.to_json closed; Load.to_json opened ])
  in
  Alcotest.(check string) "same worlds, same JSON" (once ()) (once ())

let () =
  Alcotest.run ~and_exit:false "load"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact below sub_count" `Quick hist_exact_small;
          Alcotest.test_case "empty and errors" `Quick hist_empty_and_errors;
          Alcotest.test_case "clamps above max_value" `Quick hist_clamps;
          hist_precision;
          Alcotest.test_case "merge" `Quick hist_merge;
          Alcotest.test_case "allocation budget" `Quick
            hist_record_alloc_budget;
        ] );
      ( "measure",
        [ Alcotest.test_case "fit_slope degenerate" `Quick fit_slope_degenerate ] );
      ( "closed",
        [ Alcotest.test_case "8-client fan-in" `Quick closed_fanin ] );
      ( "open",
        [
          Alcotest.test_case "below knee: no shedding" `Quick open_below_knee;
          Alcotest.test_case "past knee: sheds" `Quick open_past_knee;
          Alcotest.test_case "uniform arrivals" `Quick
            open_uniform_deterministic_arrivals;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "server crash: no hung fibers" `Quick
            crash_under_load_no_hung_fibers;
        ] );
      ( "arto",
        [
          Alcotest.test_case "no storm with load floor" `Quick arto_no_storm;
          Alcotest.test_case "floor off still storms" `Quick
            arto_storm_without_floor;
        ] );
      ( "determinism",
        [ Alcotest.test_case "identical JSON twice" `Quick sweep_deterministic ] );
    ];
  print_string "\n\nallocation budget, minor words/op:\n";
  Printf.printf "  %-32s %6.2f (budget %g)\n" "Histogram.record"
    !record_measured record_budget
