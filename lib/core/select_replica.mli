(** REPLICA: client-side replicated-server selection and failover.

    A headerless virtual protocol composed above K server bindings
    (normally K {!Select} connections, one per replica).  Each call
    picks a replica by policy — round-robin or a static key hash — and
    runs a {e bounded} attempt against it: the underlying call executes
    in its own fiber and the caller waits at most [attempt_timeout], so
    failing over to a healthy replica never requires burning the dead
    host's full RTO ladder.  Attempt outcomes drive a per-replica
    health machine:

    - [Healthy] — preferred; a successful call (re)establishes it.
    - [Suspect] — entered on [Timeout]/[Rebooted]; a probation timer
      with seeded jitter fires a null-call recovery probe.
    - [Dead] — after [probe_limit] consecutive failed probes; probing
      stops (keeping the event queue drainable when a replica never
      returns) and the replica is tried only as a last resort.  A
      last-resort success — or the late completion of an abandoned
      attempt — resurrects it.

    [Remote]/[Busy] results return immediately without failover: the
    replica answered, and re-sending a non-idempotent procedure to a
    different replica could execute it twice.

    The whole call is bounded by [deadline]; when it expires the call
    fails with [Timeout] and the ["deadline-expired"] counter ticks.
    When {e every} replica is [Dead] (so probing has stopped), [call]
    fails terminally at once (["all-dead"]) instead of sleeping out the
    deadline against replicas known to be gone.

    Overload governance, all off by default:

    - [propagate_deadline] stamps the call's absolute deadline into each
      attempt ([?expires] on the endpoint), so the CHANNEL layer carries
      the remaining budget on the wire and the server can shed expired
      work.
    - [retry_budget] is a token bucket: each call earns [ratio] tokens
      (capped at [max 1 (10 * ratio)]), each failover or hedge spends
      one.  An exhausted bucket absorbs the failure
      (["retry-budget-exhausted"]) rather than amplifying the overload.
      An [Error Busy] — the server's explicit admission pushback —
      never fails over (["busy-reject-rx"]): it is backoff pressure,
      not a death certificate, so no failover storm.
    - [hedge] arms a second attempt against the next candidate after
      the observed p99 call latency (from an internal HDR histogram;
      needs 32 successful samples): a timer that the attempt cancels
      when it settles first, so a call answered before the p99 leaves
      nothing queued behind it (["hedge-sent"] / ["hedge-win"]);
      hedges spend retry tokens too.

    Counters (["failovers"], ["failover-ok"], ["probe-sent"],
    ["probe-ok"], ["attempt-timeout"], per-replica ["replicaN-*"]) and
    gauges (["replica-suspect"], ["replica-dead"]) live in the
    protocol's ["host/REPLICA"] stats table. *)

type t

type policy =
  | Round_robin  (** rotate the preferred replica per call *)
  | Hash  (** preferred replica = [key mod K]; successors on failover *)

type health = Healthy | Suspect | Dead

type endpoint = {
  ep_addr : Xkernel.Addr.Ip.t;
  ep_call :
    ?expires:float ->
    ?shard:Wire_fmt.Select.stamp ->
    command:int ->
    Xkernel.Msg.t ->
    (Xkernel.Msg.t, Rpc_error.t) result;
}
(** One replica binding: its address plus a blocking call function
    (whatever stack the replica is reached through).  [expires] is the
    caller's absolute deadline, passed when [propagate_deadline] is
    set; [shard] is the routing stamp attached when a shard map routed
    the call (endpoints whose stack cannot carry it may ignore it). *)

val create :
  host:Xkernel.Host.t ->
  ?policy:policy ->
  ?attempt_timeout:float ->
  ?deadline:float ->
  ?probation:float ->
  ?probe_limit:int ->
  ?propagate_deadline:bool ->
  ?retry_budget:float ->
  ?hedge:bool ->
  ?probe_timeout:float ->
  ?dead_retry_interval:float ->
  ?drain_deadline:float ->
  ?below:Xkernel.Proto.t list ->
  endpoints:endpoint array ->
  unit ->
  t
(** [create ~host ~endpoints ()] is a replica map over [endpoints].
    [attempt_timeout] (default 0.25 s) bounds each per-replica attempt;
    [deadline] (default 1 s) bounds the whole call including all
    failovers; a call makes at most K attempts;
    [probation] (default 0.1 s) is the base suspect-to-probe delay,
    doubled per failed probe with seeded jitter from the simulator rng;
    the recovery probe is a null call (procedure 1); [below] records
    the protocol graph for [pp_graph].

    [probe_timeout] bounds each recovery probe (default: unbounded, the
    lower stack's RTO ladder decides); [dead_retry_interval] re-probes
    [Dead] replicas from the call path every interval (with seeded
    jitter) so a replica that reboots heals back instead of staying
    buried; [drain_deadline] bounds graceful handoff (see
    {!install_map}). *)

val call :
  t ->
  ?key:int ->
  command:int ->
  Xkernel.Msg.t ->
  (Xkernel.Msg.t, Rpc_error.t) result
(** [call t ~command msg] runs the RPC against the replica set.  [key]
    selects the preferred replica under [Hash] (ignored — and the
    round-robin cursor used — when absent).  Blocks the calling fiber
    for at most [deadline] simulated seconds. *)

val proto : t -> Xkernel.Proto.t

val health : t -> int -> health
(** This client's current opinion of replica [i]. *)

val failovers : t -> int
(** Failover attempts made (the ["failovers"] counter). *)

val probes_sent : t -> int

val probes_ok : t -> int

(** {1 Shard-map routing}

    With a {!Shard_map} installed and the [Hash] policy, [?key] picks a
    virtual shard and the map's owner becomes the preferred replica
    (ring-walk successors still provide failover).  Each routed request
    carries a {!Wire_fmt.Select.stamp}; an [Error (Wrong_shard v)]
    answer — the server routed by a newer map — refreshes the map (via
    the {!set_refresh} hook) and re-routes once, without marking the
    replica unhealthy or spending a retry token
    (["wrong-shard-rx"]). *)

val install_map : t -> Shard_map.t -> bool
(** Install a strictly newer map ([false] otherwise; ["map-update-rx"],
    gauge ["map-version"]).  The protocol also accepts maps through
    [control (Install_map bytes)] — the MAP control plane.  When
    [drain_deadline] was configured, shard-routed calls in flight
    toward an owner the new map revoked are allowed that long to finish
    and are then forced over with [Wrong_shard] (["handoff-forced"]);
    without it they complete where they are. *)

val map_version : t -> int
(** Version of the installed map; 0 when none. *)

val set_refresh : t -> (unit -> unit) -> unit
(** Hook invoked on a wrong-shard answer before re-routing — typically
    a pull of the coordinator's current map into this client. *)

val shard_calls : t -> int array
(** Per-shard routed-call counts (a copy) — the load signal a
    rebalancer aggregates. *)
