open Xkernel
module World = Netproto.World

type arrival = Uniform | Poisson

type result = {
  r_config : string;
  r_mode : string;
  offered_rps : float;
  achieved_rps : float;
  arrivals : int;
  completed : int;
  failed : int;
  shed : int;
  elapsed_s : float;
  wire_util : float;
  queue_depth_max : int;
  pending_max : int;
  hist : Histogram.t;
  per_client : Histogram.t array;
}

type tally = {
  o_completed : int;
  o_failed : int;
  o_shed : int;
  o_pending_max : int;
  o_t0 : float;
  o_t_end : float;
  o_hists : Histogram.t array;
}

let merged hists =
  let hist = Histogram.create () in
  Array.iter (fun h -> Histogram.merge_into ~src:h ~dst:hist) hists;
  hist

let us_of seconds = int_of_float ((seconds *. 1e6) +. 0.5)

let sample_interval = 0.5e-3

(* Sample the server CPU's run-queue depth every [sample_interval]
   until [stop].  The samples charge nothing, so the workload's timing
   is unaffected. *)
let spawn_queue_sampler (w : World.t) mach stop =
  let peak = ref 0 in
  World.spawn w (fun () ->
      while not !stop do
        let d = Machine.queue_depth mach in
        if d > !peak then peak := d;
        Sim.delay w.World.sim sample_interval
      done);
  peak

let finish (f : World.fanin) (s : Stacks.fan) ~mode ~offered ~arrivals ~bytes0
    ~queue_peak o =
  let elapsed = o.o_t_end -. o.o_t0 in
  let wire = f.World.fan.World.wire in
  let wire_bits = float_of_int (((Wire.stats wire).Wire.bytes - bytes0) * 8) in
  let achieved_rps =
    if elapsed > 0. then float_of_int o.o_completed /. elapsed else 0.
  in
  let wire_util =
    if elapsed > 0. then wire_bits /. Wire.bandwidth_bps wire /. elapsed
    else 0.
  in
  let st = Stats.create ~name:("load/" ^ s.Stacks.fan_name) () in
  Stats.set st "queue-depth-max" queue_peak;
  Stats.set st "pending-max" o.o_pending_max;
  Stats.set st "shed" o.o_shed;
  Stats.set st "completed" o.o_completed;
  Stats.set st "wire-util-pct" (int_of_float (wire_util *. 100. +. 0.5));
  {
    r_config = s.Stacks.fan_name;
    r_mode = mode;
    offered_rps = offered;
    achieved_rps;
    arrivals;
    completed = o.o_completed;
    failed = o.o_failed;
    shed = o.o_shed;
    elapsed_s = elapsed;
    wire_util;
    queue_depth_max = queue_peak;
    pending_max = o.o_pending_max;
    hist = merged o.o_hists;
    per_client = o.o_hists;
  }

(* A closed-loop fiber's unrecorded, then measured, calls. *)
let warmup_calls = 2
let measured_calls = 25

let run_closed ?(fibers = 8) (f : World.fanin) (s : Stacks.fan) =
  if fibers < 1 then invalid_arg "Load.run_closed: fibers < 1";
  let w = f.World.fan in
  let sim = w.World.sim in
  let m = Array.length f.World.clients in
  let hists = Array.init m (fun _ -> Histogram.create ()) in
  let completed = ref 0 and failed = ref 0 in
  let t0 = ref 0. and t_end = ref 0. and bytes0 = ref 0 in
  let stop = ref false in
  let queue_peak = ref (ref 0) in
  let gate = Sim.Ivar.create sim in
  let warm_left = ref fibers and running = ref fibers in
  for k = 0 to fibers - 1 do
    let i = k mod m in
    World.spawn w (fun () ->
        for _ = 1 to warmup_calls do
          ignore (s.Stacks.fan_call i ~command:Stacks.cmd_null Msg.empty)
        done;
        decr warm_left;
        if !warm_left = 0 then begin
          (* last fiber to warm up opens the measured phase for all *)
          t0 := Sim.now sim;
          t_end := !t0;
          bytes0 := (Wire.stats w.World.wire).Wire.bytes;
          queue_peak := spawn_queue_sampler w s.Stacks.fan_server.Host.mach stop;
          Sim.Ivar.fill gate ()
        end;
        Sim.Ivar.read gate;
        for _ = 1 to measured_calls do
          let t = Sim.now sim in
          (match s.Stacks.fan_call i ~command:Stacks.cmd_null Msg.empty with
          | Ok _ -> incr completed
          | Error _ -> incr failed);
          let now = Sim.now sim in
          Histogram.record hists.(i) (us_of (now -. t));
          if now > !t_end then t_end := now
        done;
        decr running;
        if !running = 0 then stop := true)
  done;
  World.run w;
  let r =
    finish f s ~mode:"closed" ~offered:0. ~arrivals:(fibers * measured_calls)
      ~bytes0:!bytes0 ~queue_peak:!(!queue_peak)
      {
        o_completed = !completed;
        o_failed = !failed;
        o_shed = 0;
        o_pending_max = fibers;
        o_t0 = !t0;
        o_t_end = !t_end;
        o_hists = hists;
      }
  in
  (* Closed loop has no independent offered rate: it offers exactly
     what it achieves. *)
  { r with offered_rps = r.achieved_rps }

let run_open ?(arrival = Poisson) ?(arrivals = 200) ?(window = 32) ?start_at
    ?warmup ?(on_start = ignore) ?(key = Fun.id) ?(on_shed = ignore)
    ?(on_done = fun _ _ _ -> ()) ~rate (w : World.t) ~clients call =
  if rate <= 0. then invalid_arg "Load.run_open: rate <= 0";
  if window < 1 then invalid_arg "Load.run_open: window < 1";
  if clients < 1 then invalid_arg "Load.run_open: clients < 1";
  let sim = w.World.sim in
  let hists = Array.init clients (fun _ -> Histogram.create ()) in
  let completed = ref 0 and failed = ref 0 and shed = ref 0 in
  let pending = ref 0 and pending_max = ref 0 in
  let t0 = ref 0. and t_end = ref 0. in
  let dispatched_all = ref false in
  let one_call i key =
    let t = Sim.now sim in
    let r = call i ~key in
    (match r with Ok _ -> incr completed | Error _ -> incr failed);
    let now = Sim.now sim in
    Histogram.record hists.(i) (us_of (now -. t));
    if now > !t_end then t_end := now;
    on_done i t r;
    decr pending
  in
  let interarrival =
    match arrival with
    | Uniform -> fun () -> 1. /. rate
    | Poisson ->
        let rng = Sim.rng sim in
        fun () -> -.log (1. -. Random.State.float rng 1.) /. rate
  in
  let dispatcher () =
    (match start_at with
    | Some t when t > Sim.now sim -> Sim.delay sim (t -. Sim.now sim)
    | _ -> ());
    t0 := Sim.now sim;
    t_end := !t0;
    on_start ();
    for k = 0 to arrivals - 1 do
      let key = key k in
      (* The arrival happens whether or not we can serve it: a full
         window sheds the call instead of queueing it unboundedly. *)
      if !pending >= window then begin
        incr shed;
        on_shed k
      end
      else begin
        incr pending;
        if !pending > !pending_max then pending_max := !pending;
        let i = k mod clients in
        Sim.spawn sim (fun () -> one_call i key)
      end;
      if k < arrivals - 1 then Sim.delay sim (interarrival ())
    done;
    dispatched_all := true
  in
  (match warmup with
  | None -> Sim.spawn sim ~name:"load-dispatcher" dispatcher
  | Some warm ->
      (* The last client to finish warming up starts the arrival clock. *)
      let warm_left = ref clients in
      for i = 0 to clients - 1 do
        World.spawn w (fun () ->
            warm i;
            decr warm_left;
            if !warm_left = 0 then Sim.spawn sim ~name:"load-dispatcher" dispatcher)
      done);
  World.run w;
  assert !dispatched_all;
  {
    o_completed = !completed;
    o_failed = !failed;
    o_shed = !shed;
    o_pending_max = !pending_max;
    o_t0 = !t0;
    o_t_end = !t_end;
    o_hists = hists;
  }

let run_open_fan ?(arrivals = 200) ?window ~rate (f : World.fanin)
    (s : Stacks.fan) =
  let w = f.World.fan in
  (* The sampler stops once every arrival is shed or its call is done,
     at once when there are none. *)
  let unsettled = ref arrivals in
  let stop = ref (arrivals < 1) and queue_peak = ref (ref 0) in
  let bytes0 = ref 0 in
  let settle () =
    decr unsettled;
    if !unsettled = 0 then stop := true
  in
  let o =
    run_open ~arrivals ?window ~rate w
      ~clients:(Array.length f.World.clients)
      ~warmup:(fun i ->
        (* Warm every client host (ARP, session caches, RTT
           estimators) before the arrival clock starts. *)
        ignore (s.Stacks.fan_call i ~command:Stacks.cmd_null Msg.empty))
      ~on_start:(fun () ->
        bytes0 := (Wire.stats w.World.wire).Wire.bytes;
        let mach = s.Stacks.fan_server.Host.mach in
        queue_peak := spawn_queue_sampler w mach stop)
      ~on_shed:(fun _ -> settle ())
      ~on_done:(fun _ _ _ -> settle ())
      (fun i ~key:_ -> s.Stacks.fan_call i ~command:Stacks.cmd_null Msg.empty)
  in
  finish f s ~mode:"open-poisson" ~offered:rate ~arrivals ~bytes0:!bytes0
    ~queue_peak:!(!queue_peak) o

let to_json r =
  Json.Obj
    [
      ("config", Json.Str r.r_config);
      ("mode", Json.Str r.r_mode);
      ("offered_rps", Json.Float r.offered_rps);
      ("achieved_rps", Json.Float r.achieved_rps);
      ("arrivals", Json.Int r.arrivals);
      ("completed", Json.Int r.completed);
      ("failed", Json.Int r.failed);
      ("shed", Json.Int r.shed);
      ("elapsed_ms", Json.Float (r.elapsed_s *. 1e3));
      ("wire_util", Json.Float r.wire_util);
      ("queue_depth_max", Json.Int r.queue_depth_max);
      ("pending_max", Json.Int r.pending_max);
      ("latency_us", Histogram.to_json r.hist);
    ]
