(** Load generation: closed- and open-loop workloads with HDR latency
    histograms.

    The paper (§4) reports only averaged null-RPC round trips between
    two hosts.  This module asks the production-scale question instead:
    what do the latency percentiles do as offered load approaches
    saturation, and where is the knee?  Two generator families:

    - {b closed loop} ({!run_closed}): N client fibers spread across
      the client hosts of a {!Netproto.World.fanin}, each issuing
      back-to-back calls through a {!Stacks.fan} with optional think
      time.  Offered load is implicit (throughput = concurrency / round
      trip) and the system can never be overrun — the classic
      benchmarking loop, which is exactly why it hides overload.
    - {b open loop} ({!run_open}): arrivals come from a deterministic
      or Poisson process driven by the seeded {!Xkernel.Sim} rng,
      independent of completions.  A bounded pending-call window makes
      overload observable: an arrival finding [window] calls already in
      flight is {e shed} and counted, rather than queueing without
      bound (and rather than silently slowing the arrival process —
      the coordinated-omission trap).

    {!run_open} is the one open-loop driver: it knows nothing of
    topologies or stacks, only a world, a client count and a per-client
    call function.  Every experiment that offers open-loop load — the
    capacity sweep ({!run_open_fan}), failover, rebalance, overload,
    INC and shardscale — drives it, supplying through hooks only what
    it does differently: when dispatch may begin, how each client
    warms up, what to reset or start when the arrival clock starts,
    which key each arrival carries, and what to count when an arrival
    is shed or a call completes.  The warm-up gate, arrival loop, shed window, latency
    histograms and timing bookkeeping exist once, here.

    Every completed call records its latency (start to reply, in
    microseconds) into a per-client {!Xkernel.Histogram}.  The fan-in
    wrappers also sample the server's run-queue depth while the
    workload runs and export it — together with wire utilization, shed
    and pending peaks — as gauges in a registered [load/<config>]
    {!Xkernel.Stats} table.

    Everything is deterministic for a fixed world seed: same
    configuration, same JSON, byte for byte. *)

type arrival = Uniform | Poisson
(** Interarrival law for {!run_open}: constant [1/rate], or
    exponential with mean [1/rate] (memoryless — the standard model of
    aggregated independent callers). *)

type result = {
  r_config : string;  (** {!Stacks.fan.fan_name} *)
  r_mode : string;  (** ["closed"], ["open-uniform"] or ["open-poisson"] *)
  offered_rps : float;
      (** configured arrival rate (open loop); achieved rate (closed
          loop, where offered load is implicit) *)
  achieved_rps : float;  (** completed calls / elapsed *)
  arrivals : int;  (** calls asked for, including shed ones *)
  completed : int;
  failed : int;  (** calls that returned an RPC error (e.g. Timeout) *)
  shed : int;  (** open loop: arrivals refused at a full window *)
  elapsed_s : float;  (** first arrival to last completion, virtual *)
  wire_util : float;  (** fraction of wire capacity consumed, 0..1 *)
  queue_depth_max : int;  (** peak sampled server CPU run-queue depth *)
  pending_max : int;  (** peak calls in flight *)
  hist : Xkernel.Histogram.t;  (** all clients merged, microseconds *)
  per_client : Xkernel.Histogram.t array;  (** one per client host *)
}

type tally = {
  o_completed : int;  (** calls that returned [Ok] *)
  o_failed : int;  (** calls that returned an error *)
  o_shed : int;  (** arrivals refused at a full window *)
  o_pending_max : int;  (** peak calls in flight *)
  o_t0 : float;  (** virtual time the arrival clock started *)
  o_t_end : float;  (** last completion ([o_t0] if none) *)
  o_hists : Xkernel.Histogram.t array;
      (** call latencies in microseconds, one histogram per client *)
}
(** What {!run_open} observed.  Every arrival is completed, failed or
    shed: [o_completed + o_failed + o_shed] is the arrival count. *)

val merged : Xkernel.Histogram.t array -> Xkernel.Histogram.t
(** A fresh histogram holding the union of the given histograms. *)

val us_of : float -> int
(** Seconds to rounded microseconds — the unit {!result} histograms
    record. *)

val run_closed : ?fibers:int -> Netproto.World.fanin -> Stacks.fan -> result
(** [run_closed fanin fan] spreads [fibers] (default 8) closed-loop
    fibers round-robin across the client hosts; each issues 2
    unrecorded then 25 measured null-procedure calls with empty
    arguments, back to back.  All fibers warm up
    before the measured phase starts.  Drives the world to completion. *)

val run_open :
  ?arrival:arrival ->
  ?arrivals:int ->
  ?window:int ->
  ?start_at:float ->
  ?warmup:(int -> unit) ->
  ?on_start:(unit -> unit) ->
  ?key:(int -> int) ->
  ?on_shed:(int -> unit) ->
  ?on_done:(int -> float -> ('a, 'e) Stdlib.result -> unit) ->
  rate:float ->
  Netproto.World.t ->
  clients:int ->
  (int -> key:int -> ('a, 'e) Stdlib.result) ->
  tally
(** [run_open ~rate w ~clients call] dispatches [arrivals] (default
    200) arrivals at aggregate [rate] calls/second ([arrival] defaults
    to {!Poisson}, drawn from the world's {!Xkernel.Sim.rng}).  Arrival
    [k] is served by [call (k mod clients) ~key:(key k)] in a fiber of
    its own, unless [window] (default 32) calls are already pending, in
    which case it is shed.  [key] (default the arrival index) runs for
    every arrival, shed or not, before the window check.  Drives the
    world to completion.

    Hooks, in the order they fire:
    - [warmup i] runs in one fiber per client, spawned in client order;
      the last to finish starts the dispatcher.  Without it the
      dispatcher starts at once.
    - the dispatcher idles until [start_at], if that is later;
    - [on_start ()] runs when the arrival clock starts, at [o_t0];
    - [on_shed k] runs when arrival [k] is shed, at its arrival time;
    - [on_done i t r] runs as client [i]'s call, started at [t], ends
      with [r]. *)

val run_open_fan :
  ?arrivals:int ->
  ?window:int ->
  rate:float ->
  Netproto.World.fanin ->
  Stacks.fan ->
  result
(** {!run_open} with {!Poisson} arrivals over a fan-in (mode
    ["open-poisson"]): null-procedure calls round-robin across client hosts, each client host having first made one unrecorded
    call; the server's run-queue depth is sampled from dispatch start
    until the calls drain.  Registers the [load/<config>] stats
    table. *)

val to_json : result -> Xkernel.Json.t
(** One row: config, mode, offered/achieved rates, counters, elapsed,
    wire utilization, queue/pending peaks, and the merged histogram
    summary under ["latency_us"]. *)
