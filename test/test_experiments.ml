(* The experiment runners at smoke sizes: every row carries its table's
   schema, every arrival is accounted for (completed + failed + shed =
   arrivals, none lost), and each experiment still reaches the verdict
   it was built to show.  Rows are read back through the JSON text they
   export, exactly as a --json consumer sees them.  Byte identity at
   default sizes is the golden test's job (test/golden). *)
open Xkernel
module E = Rpc.Experiments

(* --- reading exported rows ------------------------------------------------ *)

type kind = I | N | S | O  (* int, number, string, object *)

let parsed doc =
  match Json.parse (Json.to_string doc) with
  | Ok j -> j
  | Error e -> Alcotest.failf "exported JSON does not parse: %s" e

let rows doc =
  match parsed doc with
  | Json.Arr rows ->
      List.map
        (function Json.Obj kv -> kv | _ -> Alcotest.fail "row is not an object")
        rows
  | _ -> Alcotest.fail "rows are not an array"

let field r k =
  match List.assoc_opt k r with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" k

let int r k =
  match field r k with Json.Int n -> n | _ -> Alcotest.failf "%s: not an int" k

let num r k =
  match field r k with
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> Alcotest.failf "%s: not a number" k

let str r k =
  match field r k with
  | Json.Str s -> s
  | _ -> Alcotest.failf "%s: not a string" k

let obj r k =
  match field r k with
  | Json.Obj kv -> kv
  | _ -> Alcotest.failf "%s: not an object" k

let hist_schema =
  [
    ("count", I); ("clamped", I); ("min", I); ("max", I); ("mean", N);
    ("p50", I); ("p90", I); ("p99", I); ("p999", I);
  ]

let same_keys what schema kv =
  Alcotest.(check (list string))
    what
    (List.sort compare (List.map fst schema))
    (List.sort compare (List.map fst kv))

let check_types schema kv =
  List.iter
    (fun (k, kind) ->
      match (kind, field kv k) with
      | I, Json.Int _ | N, (Json.Int _ | Json.Float _) | S, Json.Str _ -> ()
      | O, Json.Obj _ -> ()
      | _ -> Alcotest.failf "%s: wrong type" k)
    schema

let check_schema schema r =
  same_keys "schema keys" schema r;
  check_types schema r;
  let hist = obj r "latency_us" in
  same_keys "histogram keys" hist_schema hist;
  check_types hist_schema hist

let conserved r =
  Tutil.check_int "completed + failed + shed = arrivals" (int r "arrivals")
    (int r "completed" + int r "failed" + int r "shed");
  if List.mem_assoc "lost_calls" r then
    Tutil.check_int "lost_calls" 0 (int r "lost_calls")

let find rows pred =
  match List.find_opt pred rows with
  | Some r -> r
  | None -> Alcotest.fail "expected row missing"

let by_mode rows m = find rows (fun r -> str r "mode" = m)
let holds what b = Alcotest.(check bool) what true b

(* --- JSON export ---------------------------------------------------------- *)

let json_export () =
  let t3 = E.table3 () in
  let doc =
    Json.Obj
      [ ("experiments", Json.Obj [ ("t3", t3) ]); ("stats", Stats.json ()) ]
  in
  match parsed doc with
  | Json.Obj
      [
        ("experiments", Json.Obj [ ("t3", Json.Arr (_ :: _)) ]);
        ("stats", Json.Arr (_ :: _));
      ] ->
      ()
  | _ -> Alcotest.fail "document shape changed in the round trip"

(* --- loss ----------------------------------------------------------------- *)

let loss () =
  let rows = rows (E.loss_sweep ()) in
  let retransmits config =
    int (find rows (fun r -> str r "config" = config && num r "drop" = 0.1))
      "retransmits"
  in
  holds "adaptive RTO retransmits less than fixed at 10% loss"
    (retransmits "adaptive" < retransmits "fixed")

(* --- capacity ------------------------------------------------------------- *)

let capacity_schema =
  [
    ("table", S); ("config", S); ("mode", S); ("offered_rps", N);
    ("achieved_rps", N); ("arrivals", I); ("completed", I); ("failed", I);
    ("shed", I); ("elapsed_ms", N); ("wire_util", N); ("queue_depth_max", I);
    ("pending_max", I); ("latency_us", O);
  ]

let capacity () =
  let rows =
    rows
      (E.capacity ~rates:[ 200.; 2000. ] ~conc:[ 1; 4 ] ~arrivals:60 ~window:8
         ())
  in
  List.iter
    (fun r ->
      check_schema capacity_schema r;
      Tutil.check_int "no failures" 0 (int r "failed");
      conserved r)
    rows;
  let values k = List.sort_uniq compare (List.map (fun r -> str r k) rows) in
  Alcotest.(check (list string))
    "both stacks" [ "L.RPC-VIP"; "M.RPC-VIP" ] (values "config");
  Alcotest.(check (list string))
    "both modes" [ "closed"; "open-poisson" ] (values "mode");
  let opened = List.filter (fun r -> str r "mode" = "open-poisson") rows in
  let low = List.filter (fun r -> num r "offered_rps" < 300.) opened in
  let high = List.filter (fun r -> num r "offered_rps" > 1800.) opened in
  holds "below the knee nothing is shed"
    (low <> [] && List.for_all (fun r -> int r "shed" = 0) low);
  holds "far past the knee the window sheds"
    (high <> [] && List.for_all (fun r -> int r "shed" > 0) high)

(* --- failover ------------------------------------------------------------- *)

let failover_schema =
  [
    ("table", S); ("config", S); ("servers", I); ("clients", I);
    ("offered_rps", N); ("arrivals", I); ("completed", I); ("failed", I);
    ("shed", I); ("shed_after_heal", I); ("failovers", I); ("probes_sent", I);
    ("probes_ok", I); ("crash_ms", N); ("outage_ms", N);
    ("goodput_pre_rps", N); ("goodput_outage_rps", N);
    ("goodput_healed_rps", N); ("attempt_timeout_us", I); ("deadline_us", I);
    ("max_us", I); ("pending_max", I); ("latency_us", O); ("seed", I);
    ("map_version", I);
  ]

let failover () =
  match rows (E.failover ~servers:2 ~arrivals:200 ()) with
  | [ r ] ->
      check_schema failover_schema r;
      conserved r;
      Tutil.check_int "servers" 2 (int r "servers");
      Tutil.check_int "arrivals" 200 (int r "arrivals");
      Tutil.check_int "every arrival completed" 200 (int r "completed");
      holds "the crash forced failovers" (int r "failovers" > 0);
      holds "a probe healed replica 0" (int r "probes_ok" > 0);
      Tutil.check_int "nothing shed after the heal" 0 (int r "shed_after_heal");
      Tutil.check_int "no failures" 0 (int r "failed");
      holds "no call past the deadline" (int r "max_us" <= int r "deadline_us");
      Tutil.check_int "no shard map" 0 (int r "map_version");
      Tutil.check_int "default seed" 42 (int r "seed")
  | rows -> Alcotest.failf "%d failover rows" (List.length rows)

(* --- rebalance ------------------------------------------------------------ *)

let rebalance_schema =
  [
    ("table", S); ("mode", S); ("config", S); ("servers", I); ("clients", I);
    ("shards", I); ("seed", I); ("offered_rps", N); ("arrivals", I);
    ("completed", I); ("failed", I); ("shed", I); ("lost_calls", I);
    ("moved_shards", I); ("map_version", I); ("map_updates_rx", I);
    ("wrong_shard_rx", I); ("wrong_shard_tx", I); ("foreign_shard_rx", I);
    ("handoff_forced", I); ("failovers", I); ("probes_sent", I);
    ("t_rebalance_ms", N); ("goodput_pre_rps", N); ("goodput_dip_rps", N);
    ("goodput_healed_rps", N); ("pre_p99_ms", N); ("dip_p99_ms", N);
    ("dip_p999_ms", N); ("healed_p99_ms", N); ("attempt_timeout_us", I);
    ("deadline_us", I); ("drain_deadline_us", I); ("pending_max", I);
    ("latency_us", O);
  ]

let rebalance () =
  let rows =
    rows
      (E.rebalance ~rate:600. ~arrivals:400
         ~modes:[ "static"; "crash-rebalance" ] ())
  in
  Tutil.check_int "one row per mode" 2 (List.length rows);
  List.iter
    (fun r ->
      check_schema rebalance_schema r;
      conserved r)
    rows;
  let st = by_mode rows "static" and cr = by_mode rows "crash-rebalance" in
  Tutil.check_int "the static map never moves" 0 (int st "moved_shards");
  holds "static: no map change observed" (num st "t_rebalance_ms" = -1.);
  holds "the crash rebalancer moves shards" (int cr "moved_shards" > 0);
  holds "clients install the new map" (int cr "map_version" > 1);
  holds "reaction time measured" (num cr "t_rebalance_ms" >= 0.);
  holds "healed goodput recovers to 0.9x pre"
    (num cr "goodput_healed_rps" >= 0.9 *. num cr "goodput_pre_rps");
  holds "ownership converges back"
    (int cr "foreign_shard_rx" < int st "foreign_shard_rx")

(* --- overload ------------------------------------------------------------- *)

let overload_schema =
  [
    ("table", S); ("control", S); ("config", S); ("servers", I);
    ("clients", I); ("offered_rps", N); ("arrivals", I); ("service_us", I);
    ("deadline_us", I); ("attempt_timeout_us", I); ("completed", I);
    ("failed", I); ("busy_errors", I); ("shed", I); ("goodput_rps", N);
    ("handler_runs", I); ("wasted_cpu_us", I); ("server_expired_drops", I);
    ("busy_rejects", I); ("codel_drops", I); ("admit_expired_drops", I);
    ("client_give_ups", I); ("busy_reject_rx", I); ("retry_exhausted", I);
    ("failovers", I); ("hedges_sent", I); ("hedge_wins", I); ("all_dead", I);
    ("server_cpu_us", I); ("server_cpu_wait_us", I); ("latency_us", O);
  ]

let overload () =
  let rows = rows (E.overload ~rates:[ 600.; 2000. ] ~arrivals:200 ()) in
  Tutil.check_int "4 controls x 2 rates" 8 (List.length rows);
  List.iter
    (fun r ->
      check_schema overload_schema r;
      conserved r)
    rows;
  let at c rate =
    find rows (fun r -> str r "control" = c && num r "offered_rps" = rate)
  in
  List.iter
    (fun c ->
      let low = at c 600. in
      Tutil.check_int (c ^ ": no failures below the knee") 0 (int low "failed");
      Tutil.check_int (c ^ ": no busy rejects below the knee") 0
        (int low "busy_rejects");
      Tutil.check_int (c ^ ": no wasted CPU below the knee") 0
        (int low "wasted_cpu_us"))
    E.overload_controls;
  List.iter
    (fun c ->
      holds (c ^ ": admission pushes back")
        (int (at c 2000.) "busy_rejects" > 0))
    [ "deadline+admit"; "full" ];
  let none = at "none" 2000. and deadline = at "deadline" 2000. in
  let full = at "full" 2000. in
  holds "deadline propagation cuts wasted CPU"
    (int deadline "wasted_cpu_us" < int none "wasted_cpu_us");
  holds "the server drops expired requests"
    (int deadline "server_expired_drops" > 0);
  holds "the full stack keeps goodput"
    (num full "goodput_rps" >= num none "goodput_rps");
  holds "the retry budget bounds failovers"
    (int full "failovers" < int none "failovers")

(* --- inc ------------------------------------------------------------------ *)

let inc_schema =
  [
    ("table", S); ("mode", S); ("config", S); ("clients", I); ("seed", I);
    ("offered_rps", N); ("arrivals", I); ("completed", I); ("failed", I);
    ("shed", I); ("lost_calls", I); ("goodput_rps", N); ("p50_ms", N);
    ("p99_ms", N); ("cache_hits", I); ("cache_misses", I); ("inc_sheds", I);
    ("inc_forwarded", I); ("inc_stored", I); ("inc_invalidated", I);
    ("server_wire_frames", I); ("server_wire_bytes", I);
    ("server_cpu_us", I); ("switch_cpu_us", I); ("attempt_timeout_us", I);
    ("deadline_us", I); ("pending_max", I); ("latency_us", O);
  ]

let inc () =
  let rows = rows (E.inc ~rate:2500. ~arrivals:300 ()) in
  Tutil.check_int "one row per mode" 3 (List.length rows);
  List.iter
    (fun r ->
      check_schema inc_schema r;
      conserved r)
    rows;
  let no = by_mode rows "no-inc" and cold = by_mode rows "cold" in
  let hot = by_mode rows "hot" in
  Tutil.check_int "plain switch: no hits" 0 (int no "cache_hits");
  Tutil.check_int "plain switch: no misses" 0 (int no "cache_misses");
  Tutil.check_int "cold: no hits" 0 (int cold "cache_hits");
  holds "cold: misses" (int cold "cache_misses" > 0);
  holds "hot: hits" (int hot "cache_hits" > 0);
  holds "hot goodput beats the uncached path"
    (num hot "goodput_rps" > num no "goodput_rps");
  holds "the server wire goes quiet"
    (int hot "server_wire_frames" < int no "server_wire_frames");
  holds "the server CPU goes quiet"
    (int hot "server_cpu_us" < int no "server_cpu_us")

(* --- shardscale ----------------------------------------------------------- *)

let shardscale_schema =
  [
    ("table", S); ("mode", S); ("config", S); ("servers", I); ("clients", I);
    ("shards", I); ("seed", I); ("offered_rps", N); ("arrivals", I);
    ("completed", I); ("failed", I); ("shed", I); ("lost_calls", I);
    ("goodput_rps", N); ("p50_ms", N); ("p99_ms", N); ("moved_shards", I);
    ("wrong_shard_rx", I); ("foreign_shard_rx", I); ("server_cpu_sum_us", I);
    ("server_cpu_max_us", I); ("attempt_timeout_us", I); ("deadline_us", I);
    ("pending_max", I); ("latency_us", O);
  ]

let shardscale () =
  let rows = rows (E.shardscale ~ks:[ 1; 4 ] ~arrivals:400 ()) in
  Tutil.check_int "uniform at K=1,4 plus two zipf cells" 4 (List.length rows);
  List.iter
    (fun r ->
      check_schema shardscale_schema r;
      conserved r)
    rows;
  let cell m k =
    find rows (fun r -> str r "mode" = m && int r "servers" = k)
  in
  let k1 = cell "uniform" 1 and k4 = cell "uniform" 4 in
  let zipf = cell "zipf" 4 and rb = cell "zipf-rebalance" 4 in
  holds "per-server wires: K=4 beats 2x K=1"
    (num k4 "goodput_rps" > 2. *. num k1 "goodput_rps");
  holds "skew costs capacity" (num zipf "goodput_rps" < num k4 "goodput_rps");
  Tutil.check_int "zipf alone moves nothing" 0 (int zipf "moved_shards");
  holds "the rebalancer moves shards" (int rb "moved_shards" > 0);
  holds "the rebalancer recovers goodput"
    (num rb "goodput_rps" >= num zipf "goodput_rps")

(* An unknown stack name fails before any world is built, as in the
   other parameterised experiments: nothing registers a stats table. *)
let capacity_unknown_stack () =
  Stats.reset_registry ();
  (match E.capacity ~stacks:[ "lrpc"; "bogus" ] () with
  | _ -> Alcotest.fail "unknown stack accepted"
  | exception Invalid_argument _ -> ());
  Tutil.check_int "no world was built" 0 (List.length (Stats.dump ()))

let () =
  Alcotest.run "experiments"
    [
      ("export", [ Alcotest.test_case "JSON round trip" `Quick json_export ]);
      ( "arguments",
        [
          Alcotest.test_case "capacity rejects unknown stacks" `Quick
            capacity_unknown_stack;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "loss" `Quick loss;
          Alcotest.test_case "capacity" `Quick capacity;
          Alcotest.test_case "failover" `Quick failover;
          Alcotest.test_case "rebalance" `Quick rebalance;
          Alcotest.test_case "overload" `Quick overload;
          Alcotest.test_case "inc" `Quick inc;
          Alcotest.test_case "shardscale" `Quick shardscale;
        ] );
    ]
