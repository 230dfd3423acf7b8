(** Chaos-driven shard rebalancing policy.

    A periodic controller that watches two signals — per-replica health
    (as the clients' {!Select_replica} machines see it) and per-shard
    load — and emits new map generations through a
    {!Shard_map.Coordinator}:

    - {b crash}: a replica declared [Dead] that still owns shards has
      them all reassigned to their best live rendezvous candidates in
      one generation (["rebalance-crash"] in the coordinator's stats).
    - {b skew}: when the hottest live replica carries more than
      [skew_ratio] times the coldest's load for 2 consecutive
      ticks, the hottest shard moves to the coldest replica
      (["rebalance-skew"]) and the streak resets — hysteresis, so one
      noisy interval never moves anything and each move must re-earn
      its evidence under the new map.  A move is only taken when the
      shard's load is smaller than the hot/cold gap, so it genuinely
      narrows the imbalance; the hottest shard that passes that guard
      moves, so a monolithic hot shard never ping-pongs — its owner's
      other shards drain away around it instead.

    The controller only ever runs when an experiment starts it; nothing
    here is wired into any default stack. *)

type t

val create :
  host:Xkernel.Host.t ->
  coord:Shard_map.Coordinator.t ->
  replica_health:(int -> [ `Up | `Dead ]) ->
  shard_load:(unit -> int array) ->
  ?interval:float ->
  ?skew_ratio:float ->
  ?on_crash:bool ->
  ?on_skew:bool ->
  unit ->
  t
(** [replica_health] is the controller's view of replica [i] (typically
    aggregated over the clients' health machines); [shard_load] returns
    {e cumulative} per-shard call counts — the controller diffs
    successive snapshots itself.  [interval] (default 50 ms) is the
    tick period; [skew_ratio] (default 3.0) gates the skew policy. *)

val majority_health : Select_replica.t array -> int -> [ `Up | `Dead ]
(** A [replica_health] signal over the clients' replica maps: replica
    [r] is [`Dead] once at least half of them declare it
    {!Select_replica.Dead}. *)

val summed_load : shards:int -> Select_replica.t array -> unit -> int array
(** A [shard_load] signal: the clients' cumulative per-shard call
    counts ({!Select_replica.shard_calls}), summed over [shards]
    shards. *)

val start : t -> until:float -> unit
(** Snapshot the load baseline and arm the periodic tick, re-arming
    after each fire while the current time is at most [until] —
    bounded, so the event queue drains. *)

val moves : t -> int
(** Shards moved by decisions taken so far. *)
