(** Experiment runners: one function per table/figure of the paper.

    Each prints a table of "paper / here" values to stdout, building
    fresh simulated worlds internally, and returns the measured rows as
    JSON (an array of row objects, or [Null] for the figure printer) so
    callers can assemble a machine-readable results file with
    [--json].  The per-experiment index in DESIGN.md maps these to the
    paper's artifacts; EXPERIMENTS.md records representative output. *)

val intro : unit -> Xkernel.Json.t
(** The introduction's UDP/IP user-to-user comparison (2.00 msec in the
    x-kernel vs 5.36 in SunOS 4.0). *)

val table1 : unit -> Xkernel.Json.t
(** Table I: N.RPC, M.RPC-ETH, M.RPC-IP, M.RPC-VIP — latency,
    throughput, incremental cost. *)

val table2 : unit -> Xkernel.Json.t
(** Table II: monolithic vs layered RPC, plus the CPU-time note and the
    FRAGMENT-alone throughput of section 4.2. *)

val table3 : unit -> Xkernel.Json.t
(** Table III: per-layer latency of VIP, FRAGMENT-VIP,
    CHANNEL-FRAGMENT-VIP, SELECT-CHANNEL-FRAGMENT-VIP. *)

val removal : unit -> Xkernel.Json.t
(** Section 4.3: SELECT-CHANNEL-VIPsize recovers monolithic latency
    while 16 KB messages still flow through FRAGMENT. *)

val figures :
  ?fig2_extra:(host:Xkernel.Host.t -> lower:Xkernel.Proto.t -> Xkernel.Proto.t) ->
  unit ->
  Xkernel.Json.t
(** Figures 1-3 as executable protocol graphs.  [fig2_extra] lets a
    caller that links layers above this library (Psync) add them to the
    Figure 2 suite.  Always returns [Null]: the graphs are diagrams,
    not measurements. *)

val ablation : unit -> Xkernel.Json.t
(** Section 5 "Potential Pitfalls": pre-allocated header buffer vs
    per-header allocation. *)

val cpu_note : unit -> Xkernel.Json.t
(** Client CPU time per 16 KB call across configurations. *)

val loss_sweep : unit -> Xkernel.Json.t
(** Robustness: concurrent null-RPC benchmark over L.RPC-VIP at drop
    rates 0-20%, fixed step-function timeout vs adaptive
    (Jacobson/Karn) RTO side by side.  Reports completed/failed calls,
    retransmission counts, elapsed virtual time and call rate; rows use
    [table = "loss"].  Resets the {!Xkernel.Stats} registry for each
    configuration it runs. *)

val capacity :
  ?stacks:string list ->
  ?rates:float list ->
  ?arrivals:int ->
  ?clients:int ->
  ?window:int ->
  ?conc:int list ->
  unit ->
  Xkernel.Json.t
(** Capacity sweep ({!Load} over a fan-in topology): for each stack
    (default [["mrpc-vip"; "lrpc"]]; also accepts ["mrpc-eth"],
    ["mrpc-ip"] and ["lrpc-arto"], the layered stack with the adaptive
    RTO) a closed-loop concurrency sweep ([conc] total fibers)
    followed by an open-loop offered-load sweep ([rates] calls/s,
    Poisson arrivals, [arrivals] arrivals per step, pending window
    [window]) across [clients] client hosts into one server.  Each
    step builds a fresh world with the default seed, so the whole
    sweep is deterministic.  Rows use [table = "capacity"] and carry
    achieved throughput, the p50/p90/p99/p99.9 latency summary
    (microseconds, under ["latency_us"]), shed counts, peak server
    queue depth and wire utilization.  Raises [Invalid_argument] on an
    unknown stack name before running anything. *)

val failover :
  ?servers:int ->
  ?clients:int ->
  ?rate:float ->
  ?arrivals:int ->
  ?window:int ->
  ?seed:int ->
  unit ->
  Xkernel.Json.t
(** Crash-availability over replicated servers: [clients] client hosts
    round-robin over [servers] L.RPC replicas through the REPLICA
    failover layer (open loop, uniform arrivals at [rate] calls/s,
    [arrivals] arrivals, pending window [window]).  A third of the way
    through, replica 0 crashes and stays partitioned for a quarter of
    the sweep, then heals; suspect marking, bounded failover and
    recovery probes keep the goodput dip to at most one replica's
    share.  Prints per-phase goodput (pre-crash / outage / healed) and
    the tail-latency summary; returns one row with [table =
    "failover"] carrying the phase goodputs, [failovers], probe
    counts, shed counts (total and after heal), the world [seed], the
    final client [map_version] (0 — no shard map here) and the latency
    histogram.  Deterministic for a fixed parameter set ([seed],
    default 42; uniform arrivals).  Resets the {!Xkernel.Stats}
    registry. *)

val rebalance :
  ?servers:int ->
  ?clients:int ->
  ?shards:int ->
  ?rate:float ->
  ?arrivals:int ->
  ?window:int ->
  ?seed:int ->
  ?modes:string list ->
  unit ->
  Xkernel.Json.t
(** Dynamic shard map under chaos: [clients] clients route [shards]
    virtual shards over [servers] L.RPC replicas by the installed
    {!Shard_map} (open loop, uniform arrivals at [rate] calls/s,
    [arrivals] arrivals per mode).  30% in, crash modes lose replica 0
    for the rest of the run (crash + partition); the skew mode instead
    redirects every second arrival at one hot shard.  Each mode runs
    in a fresh world seeded with [seed] and resets the
    {!Xkernel.Stats} registry, so rows are deterministic and
    independent.  [modes] defaults to all three policies: ["static"]
    (shard map installed, never updated), ["crash-rebalance"] (crash
    chaos plus the crash policy) and ["skew-rebalance"] (hot-shard
    arrivals plus the skew policy).

    Goodput survives the crash in every mode — the REPLICA health
    machinery below the map routes around the dead owner — so the
    map's value shows in affinity: the static map serves every
    orphaned-shard call at a non-owner forever ([foreign_shard_rx]
    keeps climbing), while the rebalanced map converges ownership
    back.

    Rows use [table = "rebalance"] and carry per-phase goodput
    (pre / dip / healed, with the dip a fixed 250 ms from the fault),
    per-phase p99/p99.9, [moved_shards], the control plane's reaction
    time ([t_rebalance_ms], -1 when no map change was observed),
    wrong-shard, foreign-shard and forced-handoff counts, the final
    client [map_version], [seed] and [lost_calls] — which must be 0:
    every arrival is completed, failed or shed. *)

val overload_controls : string list
(** The four control stacks the overload sweep compares, weakest
    first: ["none"] (no overload control), ["deadline"] (deadline
    propagation on the wire), ["deadline+admit"] (plus a server-side
    {!Admit} layer), ["full"] (plus retry budget and hedging). *)

val overload :
  ?servers:int ->
  ?clients:int ->
  ?rates:float list ->
  ?arrivals:int ->
  ?window:int ->
  ?controls:string list ->
  ?spike:float ->
  unit ->
  Xkernel.Json.t
(** End-to-end overload control: for each control stack in [controls]
    (a subset of {!overload_controls}) an open-loop uniform-arrival
    sweep over [rates] calls/s, [arrivals] arrivals per step, through
    [clients] clients round-robining over [servers] L.RPC replicas.
    Every call runs a procedure costing 500 us of server CPU under a
    25 ms whole-call deadline, with the attempt timeout at half the
    deadline; the rows report both as [service_us] and [deadline_us].  Each step builds a fresh
    default-seed world and resets the {!Xkernel.Stats} registry, so
    rows are deterministic and independent.  [spike] adds a
    {!Xkernel.Chaos.Delay_spike} of that many seconds over the middle
    half of each step's arrival window.

    Rows use [table = "overload"] and carry goodput, the ground-truth
    wasted server CPU ([wasted_cpu_us]: service charges completed after
    the caller's deadline), server-side expired drops and busy rejects,
    client-side busy receipts, retry-budget exhaustions, failovers,
    hedge counts, server CPU busy/wait time and the latency
    histogram. *)

val inc :
  ?clients:int ->
  ?rate:float ->
  ?arrivals:int ->
  ?window:int ->
  ?seed:int ->
  ?modes:string list ->
  unit ->
  Xkernel.Json.t
(** In-network computation on the switched star: [clients] clients and
    one server, each on its own wire behind the switch, driven open
    loop (uniform arrivals at [rate] calls/s aggregate, [arrivals] per
    mode, pending window [window]) at a rate past the single-server
    knee.  The hot mode repeats one cacheable SELECT echo, so after
    the first miss the {!Inc} layer answers every call at the switch;
    cold never repeats a request; no-inc runs the hot workload through
    a plain forwarding switch.  [modes] defaults to all three:
    ["no-inc"], ["cold"] and ["hot"].  Each mode builds a fresh world
    seeded [seed] and resets the {!Xkernel.Stats} registry.

    Rows use [table = "inc"] and carry goodput, cache
    hits/misses/sheds/stored/invalidated, the server access wire's
    frame and byte deltas over the measured window, server and switch
    CPU time, shed/lost counts and the latency histogram.  The
    headline: hot goodput strictly above no-inc goodput, with server
    wire bytes and CPU strictly lower. *)

val shardscale :
  ?ks:int list ->
  ?clients:int ->
  ?shards:int ->
  ?rate:float ->
  ?arrivals:int ->
  ?window:int ->
  ?seed:int ->
  ?modes:string list ->
  unit ->
  Xkernel.Json.t
(** Capacity over K servers now that every server has its own access
    wire: [clients] clients route [shards] shards over K ∈ [ks]
    L.RPC replicas through the switch ({!Shard_map} routing, hash
    policy), open loop at [rate] calls/s aggregate, [arrivals] per
    cell.  [modes] defaults to all three cells: ["uniform"] runs at
    every K; ["zipf"] (exponent 1.2 over the shard space) runs at the
    largest K, and so does ["zipf-rebalance"], which adds the
    {!Rebalance} skew policy.  Each cell builds a fresh world seeded
    [seed] and resets the {!Xkernel.Stats} registry.

    Rows use [table = "shardscale"] and carry aggregate goodput,
    per-cell shed/failed/lost counts ([lost_calls] must be 0),
    summed and max per-server CPU (the imbalance signal),
    wrong-shard and foreign-shard counters, [moved_shards] and the
    latency histogram.  The headline: uniform goodput at K=4 at least
    twice K=1, and the skew rebalancer recovering part of the zipf
    cell's lost slope. *)
