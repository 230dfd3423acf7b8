open Xkernel

let p = Machine.xkernel_sun3

let charge_advances_clock () =
  let sim = Sim.create () in
  let m = Machine.create sim p in
  Sim.spawn sim (fun () ->
      Machine.charge m [ Machine.Busy 0.001; Machine.Busy 0.002 ]);
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "summed" 0.003 (Sim.now sim);
  Alcotest.(check (float 1e-12)) "cpu accounted" 0.003 (Machine.cpu_seconds m)

let zero_charge_free () =
  let sim = Sim.create () in
  let m = Machine.create sim p in
  (* a zero-cost charge must not require a fiber at all *)
  Machine.charge m [];
  Machine.charge m [ Machine.Busy 0. ];
  Alcotest.(check (float 1e-12)) "no time" 0. (Sim.now sim)

let cpu_is_exclusive () =
  let sim = Sim.create () in
  let m = Machine.create sim p in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Sim.spawn sim (fun () ->
        Machine.charge m [ Machine.Busy 1.0 ];
        done_at := Sim.now sim :: !done_at)
  done;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "serialized on one CPU" [ 1.; 2.; 3. ]
    (List.sort compare !done_at)

(* Differential check of the CPU against a semaphore model of it,
   rebuilt here as the oracle: [p], [delay], accumulate, [v].
   [depth] counts charges between arrival and [v], which is what the
   semaphore's waiters plus its holder read. *)
type oracle = {
  sem : Sim.Semaphore.sem;
  mutable busy : float;
  mutable wait : float;
  mutable depth : int;
}

let oracle_charge sim o cost =
  if cost > 0. then begin
    o.depth <- o.depth + 1;
    let t0 = Sim.now sim in
    Sim.Semaphore.p o.sem;
    o.wait <- o.wait +. (Sim.now sim -. t0);
    Sim.delay sim cost;
    o.busy <- o.busy +. cost;
    Sim.Semaphore.v o.sem;
    o.depth <- o.depth - 1
  end

(* Arrivals on a 0.1 ms grid, so many share an instant, each a fiber
   making one to three charges, back to back or after a pause; one
   charge in eight costs nothing.  The load runs from about 0.5 to 2. *)
let random_plan rng =
  let n = 50 + Random.State.int rng 150 in
  let slots = n * (1 + Random.State.int rng 4) / 2 in
  List.init n (fun _ ->
      let at = float_of_int (Random.State.int rng slots) *. 1e-4 in
      let charge () =
        let pause =
          if Random.State.bool rng then 0. else Random.State.float rng 2e-4
        in
        let cost =
          if Random.State.int rng 8 = 0 then 0.
          else Random.State.float rng 1.5e-4
        in
        (pause, cost)
      in
      (at, List.init (1 + Random.State.int rng 3) (fun _ -> charge ())))

type outcome = {
  finish : (int * int * float) list; (* (arrival, charge, finish time) *)
  depth : (int * int * float * int) list; (* (..., arrived at, depth seen) *)
  busy : float;
  wait : float;
}

let run_plan ~oracle plan =
  let sim = Sim.create () in
  let charge, depth, totals =
    if oracle then
      let o =
        { sem = Sim.Semaphore.create sim 1; busy = 0.; wait = 0.; depth = 0 }
      in
      (oracle_charge sim o, (fun () -> o.depth), fun () -> (o.busy, o.wait))
    else
      let m = Machine.create sim p in
      ( (fun c -> Machine.charge_one m (Machine.Busy c)),
        (fun () -> Machine.queue_depth m),
        fun () -> (Machine.cpu_seconds m, Machine.cpu_wait_seconds m) )
  in
  let finish = ref [] and seen = ref [] in
  List.iteri
    (fun i (at, charges) ->
      ignore
        (Sim.after sim at (fun () ->
             List.iteri
               (fun j (pause, cost) ->
                 if pause > 0. then Sim.delay sim pause;
                 seen := (i, j, Sim.now sim, depth ()) :: !seen;
                 charge cost;
                 finish := (i, j, Sim.now sim) :: !finish)
               charges)))
    plan;
  Sim.run sim;
  let busy, wait = totals () in
  { finish = List.sort compare !finish; depth = List.sort compare !seen; busy; wait }

let cpu_matches_semaphore_model () =
  let bits x = Printf.sprintf "%h" x in
  for seed = 1 to 40 do
    let plan = random_plan (Random.State.make [| seed |]) in
    let want = run_plan ~oracle:true plan
    and got = run_plan ~oracle:false plan in
    let what s = Printf.sprintf "seed %d: %s" seed s in
    Alcotest.(check (list (triple int int string)))
      (what "finish times")
      (List.map (fun (i, j, t) -> (i, j, bits t)) want.finish)
      (List.map (fun (i, j, t) -> (i, j, bits t)) got.finish);
    Alcotest.(check string) (what "cpu_seconds") (bits want.busy) (bits got.busy);
    Alcotest.(check string) (what "cpu_wait_seconds") (bits want.wait)
      (bits got.wait);
    (* At an instant where a charge ends, the two models may order the
       ending and an arrival differently, so the depth is compared only
       at arrivals that do not tie with a finish.  A free charge holds
       nothing, so its finish is no tie. *)
    let cost i j = snd (List.nth (snd (List.nth plan i)) j) in
    let finishes =
      List.filter_map
        (fun (i, j, t) -> if cost i j > 0. then Some t else None)
        want.finish
    in
    let untied =
      List.filter (fun (_, _, at, _) -> not (List.mem at finishes))
    in
    let want_depth = untied want.depth and got_depth = untied got.depth in
    Alcotest.(check bool) (what "some arrivals queue") true
      (List.exists (fun (_, _, _, d) -> d > 1) want_depth);
    Alcotest.(check (list (pair (pair int int) int)))
      (what "queue_depth at untied arrivals")
      (List.map (fun (i, j, _, d) -> ((i, j), d)) want_depth)
      (List.map (fun (i, j, _, d) -> ((i, j), d)) got_depth)
  done

let two_hosts_parallel () =
  let sim = Sim.create () in
  let m1 = Machine.create sim p and m2 = Machine.create sim p in
  let done_at = ref [] in
  Sim.spawn sim (fun () ->
      Machine.charge m1 [ Machine.Busy 1.0 ];
      done_at := Sim.now sim :: !done_at);
  Sim.spawn sim (fun () ->
      Machine.charge m2 [ Machine.Busy 1.0 ];
      done_at := Sim.now sim :: !done_at);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "independent CPUs overlap" [ 1.; 1. ]
    !done_at

let buffer_scheme_ablation () =
  (* Per-header allocation makes every header cost ~an allocation more:
     the 0.50 vs 0.11 msec per layer contrast of section 5. *)
  let cheap = Machine.op_cost p (Machine.Header 20) in
  let dear =
    Machine.op_cost
      (Machine.with_buffer_scheme Machine.Per_header_alloc p)
      (Machine.Header 20)
  in
  Alcotest.(check (float 1e-9)) "difference is the alloc cost" p.Machine.alloc
    (dear -. cheap)

(* The CPU time one [charge_bytes] of [n] bytes of [kind] holds: the
   device costs have no [op], so their cost is read off a charge. *)
let bytes_seconds prof kind n =
  let sim = Sim.create () in
  let m = Machine.create sim prof in
  Sim.spawn sim (fun () -> Machine.charge_bytes m kind n);
  Sim.run sim;
  Machine.cpu_seconds m

let profile_ordering () =
  (* The Sprite-kernel and SunOS profiles must be uniformly no cheaper
     than the x-kernel profile on the shared cost axes. *)
  let ops =
    [
      Machine.Layer_crossing;
      Machine.Header 36;
      Machine.Process_switch;
      Machine.Os_per_message;
    ]
  in
  let check cost =
    let base = cost Machine.xkernel_sun3 in
    Alcotest.(check bool) "sprite >= xkernel" true
      (cost Machine.sprite_kernel >= base);
    Alcotest.(check bool) "sunos >= xkernel" true
      (cost Machine.sunos_socket >= base)
  in
  List.iter (fun op -> check (fun prof -> Machine.op_cost prof op)) ops;
  List.iter
    (fun kind -> check (fun prof -> bytes_seconds prof kind 64))
    [ Machine.Interrupt_bytes; Machine.Device_bytes ]

let per_byte_costs_scale () =
  let small = bytes_seconds p Machine.Device_bytes 64 in
  let large = bytes_seconds p Machine.Device_bytes 1500 in
  Alcotest.(check bool) "larger frame costs more" true (large > small);
  Alcotest.(check (float 1e-9)) "linear in bytes"
    (float_of_int (1500 - 64) *. p.Machine.device_per_byte)
    (large -. small)

(* A sized charge holds the CPU exactly as long as its op would, bit for
   bit, so moving a call site from one to the other moves no virtual
   time.  The device costs have no op; theirs must equal the profile's
   formula, held as a [Busy] charge, bit for bit. *)
let charge_bytes_matches_op () =
  let bits charge prof =
    let sim = Sim.create () in
    let m = Machine.create sim prof in
    Sim.spawn sim (fun () -> charge m);
    Sim.run sim;
    Int64.bits_of_float (Machine.cpu_seconds m)
  in
  let kinds =
    [
      (Machine.Header_bytes, fun _ n -> Machine.Header n);
      (Machine.Checksum_bytes, fun _ n -> Machine.Checksum n);
      ( Machine.Interrupt_bytes,
        fun prof n ->
          Machine.Busy
            (prof.Machine.interrupt
            +. (float_of_int n *. prof.Machine.device_per_byte)) );
      ( Machine.Device_bytes,
        fun prof n ->
          Machine.Busy
            (prof.Machine.device_fixed
            +. (float_of_int n *. prof.Machine.device_per_byte)) );
    ]
  in
  List.iter
    (fun prof ->
      List.iter
        (fun (kind, op) ->
          List.iter
            (fun n ->
              Alcotest.(check int64)
                (Printf.sprintf "%s, %d bytes" prof.Machine.profile_name n)
                (bits (fun m -> Machine.charge_one m (op prof n)) prof)
                (bits (fun m -> Machine.charge_bytes m kind n) prof))
            [ 0; 1; 37; 1500 ])
        kinds)
    [
      Machine.xkernel_sun3;
      Machine.sprite_kernel;
      Machine.switch_fabric;
      Machine.with_buffer_scheme Machine.Per_header_alloc Machine.xkernel_sun3;
    ]

let set_profile_switches () =
  let sim = Sim.create () in
  let m = Machine.create sim p in
  Machine.set_profile m Machine.sprite_kernel;
  Alcotest.(check string) "profile swapped" "sprite-kernel"
    (Machine.profile m).Machine.profile_name

let virtual_op_cheaper () =
  Alcotest.(check bool) "virtual < layer crossing" true
    (Machine.op_cost p Machine.Virtual_op
    < Machine.op_cost p Machine.Layer_crossing)

let () =
  Alcotest.run "machine"
    [
      ( "charging",
        [
          Alcotest.test_case "charge advances clock" `Quick charge_advances_clock;
          Alcotest.test_case "zero charge is free" `Quick zero_charge_free;
          Alcotest.test_case "CPU mutual exclusion" `Quick cpu_is_exclusive;
          Alcotest.test_case "hosts run in parallel" `Quick two_hosts_parallel;
          Alcotest.test_case "matches the semaphore model" `Quick
            cpu_matches_semaphore_model;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "buffer scheme ablation" `Quick buffer_scheme_ablation;
          Alcotest.test_case "profile cost ordering" `Quick profile_ordering;
          Alcotest.test_case "per-byte scaling" `Quick per_byte_costs_scale;
          Alcotest.test_case "sized charge matches its op" `Quick
            charge_bytes_matches_op;
          Alcotest.test_case "profile switching" `Quick set_profile_switches;
          Alcotest.test_case "virtual op cheaper" `Quick virtual_op_cheaper;
        ] );
    ]
