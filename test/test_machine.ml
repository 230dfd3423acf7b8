open Xkernel

let p = Machine.xkernel_sun3

let charge_advances_clock () =
  let sim = Sim.create () in
  let m = Machine.create sim p in
  Sim.spawn sim (fun () ->
      Machine.charge_all m
        [ (Machine.Layer_crossing, 0); (Machine.Header, 20) ]);
  Sim.run sim;
  let want =
    Machine.cost p Machine.Layer_crossing 0 +. Machine.cost p Machine.Header 20
  in
  Alcotest.(check (float 1e-12)) "summed" want (Sim.now sim);
  Alcotest.(check (float 1e-12)) "cpu accounted" want (Machine.cpu_seconds m)

let zero_charge_free () =
  let sim = Sim.create () in
  let m = Machine.create sim p in
  (* a zero-cost charge must not require a fiber at all *)
  Machine.charge_all m [];
  Machine.charge m Machine.Checksum 0;
  Machine.charge_one m (Machine.Busy 0.);
  Alcotest.(check (float 1e-12)) "no time" 0. (Sim.now sim)

(* A negative or NaN [Busy] is refused before the charge blocks, in a
   fiber or outside one, and holds nothing. *)
let bad_busy_refused () =
  List.iter
    (fun s ->
      let sim = Sim.create () in
      let m = Machine.create sim p in
      let refused () =
        match Machine.charge_one m (Machine.Busy s) with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      let what = Printf.sprintf "Busy %h" s in
      Alcotest.(check bool) (what ^ " outside a fiber") true (refused ());
      Alcotest.(check bool) (what ^ " in a fiber") true
        (Tutil.run_sim sim refused);
      Alcotest.(check (float 0.)) (what ^ " holds nothing") 0.
        (Machine.cpu_seconds m);
      Alcotest.(check (float 0.)) (what ^ " takes no time") 0. (Sim.now sim))
    [ -1e-3; -0.5e-300; nan; neg_infinity ]

let cpu_is_exclusive () =
  let sim = Sim.create () in
  let m = Machine.create sim p in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Sim.spawn sim (fun () ->
        Machine.charge_one m (Machine.Busy 1.0);
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
      Machine.charge_one m1 (Machine.Busy 1.0);
      done_at := Sim.now sim :: !done_at);
  Sim.spawn sim (fun () ->
      Machine.charge_one m2 (Machine.Busy 1.0);
      done_at := Sim.now sim :: !done_at);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "independent CPUs overlap" [ 1.; 1. ]
    !done_at

let all_kinds =
  [
    (Machine.Layer_crossing, "Layer_crossing");
    (Machine.Virtual_op, "Virtual_op");
    (Machine.Header, "Header");
    (Machine.Checksum, "Checksum");
    (Machine.Route_lookup, "Route_lookup");
    (Machine.Reasm_lookup, "Reasm_lookup");
    (Machine.Frag_bookkeep, "Frag_bookkeep");
    (Machine.Process_switch, "Process_switch");
    (Machine.Semaphore_op, "Semaphore_op");
    (Machine.Timer_op, "Timer_op");
    (Machine.Interrupt, "Interrupt");
    (Machine.Device, "Device");
    (Machine.Syscall, "Syscall");
    (Machine.Os_per_message, "Os_per_message");
  ]

let buffer_scheme_ablation () =
  (* Per-header allocation makes every header cost one allocation more,
     whatever its size, and nothing else dearer: the 0.50 vs 0.11 msec
     per layer contrast of section 5. *)
  let dear = Machine.with_buffer_scheme Machine.Per_header_alloc p in
  let extra kind n = Machine.cost dear kind n -. Machine.cost p kind n in
  let alloc = extra Machine.Header 0 in
  Alcotest.(check bool) "an allocation costs time" true (alloc > 0.);
  List.iter
    (fun n ->
      Alcotest.(check (float 1e-12)) "the same at every size" alloc
        (extra Machine.Header n))
    [ 1; 20; 1500 ];
  List.iter
    (fun (kind, name) ->
      if kind <> Machine.Header then
        Alcotest.(check (float 0.)) (name ^ " unchanged") 0. (extra kind 20))
    all_kinds

let profile_ordering () =
  (* The Sprite-kernel and SunOS profiles must be uniformly no cheaper
     than the x-kernel profile on the shared cost axes. *)
  List.iter
    (fun (kind, n) ->
      let base = Machine.cost Machine.xkernel_sun3 kind n in
      Alcotest.(check bool) "sprite >= xkernel" true
        (Machine.cost Machine.sprite_kernel kind n >= base);
      Alcotest.(check bool) "sunos >= xkernel" true
        (Machine.cost Machine.sunos_socket kind n >= base))
    [
      (Machine.Layer_crossing, 0);
      (Machine.Header, 36);
      (Machine.Process_switch, 0);
      (Machine.Os_per_message, 0);
      (Machine.Interrupt, 64);
      (Machine.Device, 64);
    ]

let per_byte_costs_scale () =
  let device n = Machine.cost p Machine.Device n in
  Alcotest.(check bool) "larger frame costs more" true
    (device 1500 > device 64);
  Alcotest.(check (float 1e-12)) "linear in bytes"
    (float_of_int (1500 - 64) *. (device 1 -. device 0))
    (device 1500 -. device 64)

(* The cost model as it stood before its profiles became tables: each
   profile's constants by name and one formula per operation.  It is
   the reference the table must reproduce bit for bit, so that no
   virtual time moves. *)
module Reference = struct
  type profile = {
    layer_crossing : float;
    virtual_op : float;
    header_base : float;
    header_per_byte : float;
    checksum_per_byte : float;
    route_lookup : float;
    reasm_lookup : float;
    frag_bookkeep : float;
    process_switch : float;
    semaphore_op : float;
    timer_op : float;
    interrupt : float;
    device_fixed : float;
    device_per_byte : float;
    syscall : float;
    os_per_message : float;
    alloc : float;
    per_header_alloc : bool;
  }

  let us x = x *. 1e-6

  let xkernel_sun3 =
    {
      layer_crossing = us 22.;
      virtual_op = us 15.;
      header_base = us 5.;
      header_per_byte = us 0.4;
      checksum_per_byte = us 1.5;
      route_lookup = us 30.;
      reasm_lookup = us 15.;
      frag_bookkeep = us 10.;
      process_switch = us 140.;
      semaphore_op = us 25.;
      timer_op = us 6.;
      interrupt = us 185.;
      device_fixed = us 100.;
      device_per_byte = us 0.72;
      syscall = us 120.;
      os_per_message = 0.;
      alloc = us 97.;
      per_header_alloc = false;
    }

  let sprite_kernel =
    {
      xkernel_sun3 with
      layer_crossing = us 60.;
      header_base = us 20.;
      header_per_byte = us 1.0;
      process_switch = us 250.;
      semaphore_op = us 40.;
      interrupt = us 225.;
      device_fixed = us 170.;
      device_per_byte = us 0.72;
      os_per_message = us 120.;
    }

  let sunos_socket =
    {
      xkernel_sun3 with
      layer_crossing = us 55.;
      header_base = us 12.;
      process_switch = us 300.;
      interrupt = us 250.;
      device_fixed = us 160.;
      syscall = us 350.;
      os_per_message = us 450.;
    }

  let switch_fabric =
    {
      layer_crossing = us 1.;
      virtual_op = us 1.;
      header_base = us 0.5;
      header_per_byte = us 0.02;
      checksum_per_byte = us 0.05;
      route_lookup = us 2.;
      reasm_lookup = us 1.;
      frag_bookkeep = us 1.;
      process_switch = us 5.;
      semaphore_op = us 1.;
      timer_op = us 1.;
      interrupt = us 8.;
      device_fixed = us 5.;
      device_per_byte = us 0.036;
      syscall = us 5.;
      os_per_message = 0.;
      alloc = us 2.;
      per_header_alloc = false;
    }

  let cost p (kind : Machine.kind) n =
    match kind with
    | Layer_crossing -> p.layer_crossing
    | Virtual_op -> p.virtual_op
    | Header ->
        let alloc = if p.per_header_alloc then p.alloc else 0. in
        p.header_base +. (float_of_int n *. p.header_per_byte) +. alloc
    | Checksum -> float_of_int n *. p.checksum_per_byte
    | Route_lookup -> p.route_lookup
    | Reasm_lookup -> p.reasm_lookup
    | Frag_bookkeep -> p.frag_bookkeep
    | Process_switch -> p.process_switch
    | Semaphore_op -> p.semaphore_op
    | Timer_op -> p.timer_op
    | Interrupt -> p.interrupt +. (float_of_int n *. p.device_per_byte)
    | Device -> p.device_fixed +. (float_of_int n *. p.device_per_byte)
    | Syscall -> p.syscall
    | Os_per_message -> p.os_per_message

  (* Each cost whole, then summed left to right from 0. *)
  let sum p costs =
    List.fold_left (fun acc (kind, n) -> acc +. cost p kind n) 0. costs
end

(* Every list of costs [lib/] charges in one [Machine.charge_all], by
   site, with [n] standing for a byte count known only at run time. *)
let charged_lists n =
  let module F = Rpc.Wire_fmt.Fragment in
  let module Ch = Rpc.Wire_fmt.Channel in
  let module S = Rpc.Wire_fmt.Select in
  let module H = Rpc.Wire_fmt.Sprite in
  let ip = 20 and icmp = 8 and probe = 5 and sun_select = 13 in
  Machine.
    [
      ("IP send", [ (Header, ip); (Checksum, ip) ]);
      ("IP input", [ (Header, ip); (Checksum, ip); (Reasm_lookup, 0) ]);
      ("ICMP send", [ (Checksum, icmp + n); (Header, icmp) ]);
      ("ICMP input", [ (Checksum, n); (Header, icmp) ]);
      ("PROBE boundary", [ (Syscall, 0); (Os_per_message, 0) ]);
      ("PROBE send", [ (Layer_crossing, 0); (Header, probe) ]);
      ( "SELECT call",
        [ (Semaphore_op, 0); (Layer_crossing, 0); (Header, S.bytes) ] );
      ("wake a caller", [ (Semaphore_op, 0); (Process_switch, 0) ]);
      ( "INC reply",
        [ (Header, Ch.bytes); (Header, F.bytes); (Process_switch, 0) ] );
      ("INC test", [ (Virtual_op, 0); (Header, F.bytes); (Header, Ch.bytes) ]);
      ("FRAGMENT send", [ (Frag_bookkeep, 0); (Header, F.bytes) ]);
      ("FRAGMENT input", [ (Header, F.bytes); (Frag_bookkeep, 0) ]);
      ("M.RPC send", [ (Header, H.bytes); (Frag_bookkeep, 0) ]);
      ( "M.RPC input",
        [
          (Header, H.bytes);
          (Frag_bookkeep, 0);
          (Reasm_lookup, 0);
          (Semaphore_op, 0);
        ] );
      ("SunSELECT", [ (Layer_crossing, 0); (Header, sun_select) ]);
    ]

(* Every charge holds the CPU for exactly the reference's cost: each
   kind alone at several sizes, and every list [lib/] charges, compared
   bit for bit through [Machine.cpu_seconds]. *)
let charges_match_reference () =
  let held prof charge =
    let sim = Sim.create () in
    let m = Machine.create sim prof in
    Sim.spawn sim (fun () -> charge m);
    Sim.run sim;
    Int64.bits_of_float (Machine.cpu_seconds m)
  in
  let check what want got =
    Alcotest.(check int64) what (Int64.bits_of_float want) got
  in
  List.iter
    (fun (name, prof, r) ->
      List.iter
        (fun n ->
          List.iter
            (fun (kind, kind_name) ->
              check
                (Printf.sprintf "%s: %s, %d bytes" name kind_name n)
                (Reference.cost r kind n)
                (held prof (fun m -> Machine.charge m kind n)))
            all_kinds;
          List.iter
            (fun (site, costs) ->
              check
                (Printf.sprintf "%s: %s, n = %d" name site n)
                (Reference.sum r costs)
                (held prof (fun m -> Machine.charge_all m costs)))
            (charged_lists n))
        [ 0; 1; 37; 1500 ])
    [
      ("xkernel-sun3", Machine.xkernel_sun3, Reference.xkernel_sun3);
      ("sprite-kernel", Machine.sprite_kernel, Reference.sprite_kernel);
      ("sunos-socket", Machine.sunos_socket, Reference.sunos_socket);
      ("switch-fabric", Machine.switch_fabric, Reference.switch_fabric);
      ( "xkernel-sun3, per-header alloc",
        Machine.(with_buffer_scheme Per_header_alloc xkernel_sun3),
        { Reference.xkernel_sun3 with per_header_alloc = true } );
    ]

let virtual_op_cheaper () =
  Alcotest.(check bool) "virtual < layer crossing" true
    (Machine.cost p Machine.Virtual_op 0
    < Machine.cost p Machine.Layer_crossing 0)

let () =
  Alcotest.run "machine"
    [
      ( "charging",
        [
          Alcotest.test_case "charge advances clock" `Quick charge_advances_clock;
          Alcotest.test_case "zero charge is free" `Quick zero_charge_free;
          Alcotest.test_case "negative or NaN Busy refused" `Quick
            bad_busy_refused;
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
          Alcotest.test_case "charges match the reference model" `Quick
            charges_match_reference;
          Alcotest.test_case "virtual op cheaper" `Quick virtual_op_cheaper;
        ] );
    ]
