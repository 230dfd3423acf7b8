open Xkernel
module World = Netproto.World

type row = {
  row_name : string;
  latency_ms : float;
  throughput_kbs : float;
  incr_cost_ms_per_kb : float;
  client_cpu_ms : float;
}

(* 1 KB to 16 KB in 1 KB steps. *)
let default_sizes = List.init 16 (fun i -> (i + 1) * 1024)

(* Run [f] in a fiber and drive the simulator until it finishes. *)
let in_fiber (w : World.t) f =
  let result = ref None in
  World.spawn w (fun () -> result := Some (f ()));
  World.run w;
  match !result with
  | Some r -> r
  | None ->
      failwith "Measure: fiber did not complete (deadlocked experiment?)"

let expect_ok config = function
  | Ok reply -> reply
  | Error e ->
      failwith
        (Printf.sprintf "Measure: %s failed: %s" config (Rpc_error.to_string e))

let timed_calls (w : World.t) ~iters f =
  let t0 = Sim.now w.World.sim in
  for _ = 1 to iters do
    f ()
  done;
  (Sim.now w.World.sim -. t0) /. float_of_int iters

(* The shared warm-up/aggregation discipline of every latency number:
   3 unrecorded calls, then the average of 50 timed ones, in msec. *)
let warmed_latency_ms (w : World.t) f =
  in_fiber w (fun () ->
      for _ = 1 to 3 do
        f ()
      done;
      timed_calls w ~iters:50 f *. 1e3)

let latency (w : World.t) (e : Stacks.endpoints) =
  warmed_latency_ms w (fun () ->
      ignore (expect_ok e.config_name (e.call ~command:Stacks.cmd_null Msg.empty)))

(* [(size, seconds per call)] for each request size, null replies. *)
let sweep (w : World.t) (e : Stacks.endpoints) =
  in_fiber w (fun () ->
      ignore (expect_ok e.config_name (e.call ~command:Stacks.cmd_null Msg.empty));
      List.map
        (fun size ->
          let msg = Msg.fill size 'b' in
          let call () =
            ignore (expect_ok e.config_name (e.call ~command:Stacks.cmd_null msg))
          in
          call ();
          (size, timed_calls w ~iters:8 call))
        default_sizes)

let probe_call w p ~peer ~size =
  match Netproto.Probe.rtt p ~peer ~size () with
  | Some t -> t
  | None ->
      failwith
        (Printf.sprintf "Measure: probe timeout at t=%.3fms"
           (Sim.now w.World.sim *. 1e3))

let probe_latency (w : World.t) p ~peer =
  warmed_latency_ms w (fun () -> ignore (probe_call w p ~peer ~size:0))

let probe_sweep (w : World.t) p ~peer =
  in_fiber w (fun () ->
      ignore (probe_call w p ~peer ~size:0);
      [
        ( 16384,
          timed_calls w ~iters:4 (fun () ->
              ignore (probe_call w p ~peer ~size:16384)) );
      ])

(* Least-squares slope of seconds over bytes, reported as msec/KB. *)
let fit_slope points =
  let n = float_of_int (List.length points) in
  if n < 2. then 0.
  else begin
    let xs = List.map (fun (s, _) -> float_of_int s /. 1024.) points in
    let ys = List.map (fun (_, t) -> t *. 1e3) points in
    let sum = List.fold_left ( +. ) 0. in
    let sx = sum xs and sy = sum ys in
    let sxx = sum (List.map (fun x -> x *. x) xs) in
    let sxy = sum (List.map2 ( *. ) xs ys) in
    let denom = (n *. sxx) -. (sx *. sx) in
    (* A zero-variance size series (all sizes equal) has no slope;
       without the guard the division yields inf/nan. *)
    if Float.abs denom <= 1e-9 *. Float.max 1. (sx *. sx) then 0.
    else ((n *. sxy) -. (sx *. sy)) /. denom
  end

let throughput_kbs ~size seconds = float_of_int size /. seconds /. 1000.

let row (w : World.t) (e : Stacks.endpoints) =
  let latency_ms = latency w e in
  let points = sweep w e in
  let size, t16 = List.nth points (List.length points - 1) in
  (* CPU time per 16 KB call on the client machine. *)
  let client_cpu_ms =
    in_fiber w (fun () ->
        let msg = Msg.fill size 'b' in
        Machine.reset_cpu_seconds e.client_host.Host.mach;
        let iters = 5 in
        for _ = 1 to iters do
          ignore (expect_ok e.config_name (e.call ~command:Stacks.cmd_null msg))
        done;
        Machine.cpu_seconds e.client_host.Host.mach
        /. float_of_int iters *. 1e3)
  in
  {
    row_name = e.config_name;
    latency_ms;
    throughput_kbs = throughput_kbs ~size t16;
    incr_cost_ms_per_kb = fit_slope points;
    client_cpu_ms;
  }
