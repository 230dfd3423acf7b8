(** Versioned shard assignment plus the MAP control plane.

    A shard map partitions a keyspace into [S] virtual shards and
    assigns each to one of [K] replica endpoints by seeded rendezvous
    (highest-random-weight) hashing, so reassigning away from a failed
    replica moves only the shards it owned.  Maps carry a generation
    stamp — [(epoch, version)] compared lexicographically — and every
    consumer installs a map only when it is strictly newer than the one
    it holds, which makes redelivery and reordering of MAP pushes
    harmless.

    {!Coordinator} is the control-plane half: it owns the authoritative
    map and distributes each new generation to subscribed protocols
    through the uniform control operation ([Install_map], carrying the
    {!Wire_fmt.Map} encoding), with per-sink delay and seeded jitter so
    installs are never in lockstep.  Everything here is inert unless a
    stack opts in; no paper-pinned output changes. *)

type t

val create : seed:int -> shards:int -> replicas:int -> t
(** Generation 1 of a map: [epoch] is derived from [seed] (which also
    seeds the rendezvous weights), [version] is 1.  Raises on
    [shards]/[replicas] outside {!Wire_fmt.Map} bounds. *)

val shard_count : t -> int
val replica_count : t -> int
val epoch : t -> int
val version : t -> int

val shard_of_key : t -> int -> int
(** [key mod shard_count], normalised non-negative — the key-to-shard
    step is deliberately transparent so tests and load generators can
    target a chosen shard. *)

val owner : t -> shard:int -> int
(** Owning replica index. *)

val shards_owned : t -> replica:int -> int

val newer_than : t -> epoch:int -> version:int -> bool
(** Is [t] strictly newer than generation [(epoch, version)]? *)

val diff : t -> t -> int list
(** Shards whose owner differs, ascending. *)

val reassign : t -> dead:int list -> t option
(** Move every shard owned by a replica in [dead] to its best live
    rendezvous candidate, bumping [version].  [None] when nothing would
    move (or no replica is live). *)

val move : t -> shard:int -> to_:int -> t
(** Reassign one shard, bumping [version]; [t] unchanged if [to_]
    already owns it. *)

val encode : t -> string
(** The {!Wire_fmt.Map} wire form carried inside [Install_map]. *)

val decode : string -> t option

module Coordinator : sig
  type map = t
  type t

  val create : host:Xkernel.Host.t -> map:map -> unit -> t
  (** A coordinator protocol (["MAP"], virtual) on [host] holding [map]
      as the authoritative assignment.  Each push to each sink is
      delivered after 2 ms plus a seeded uniform jitter of up to 2 ms. *)

  val subscribe : t -> Xkernel.Proto.t -> unit
  (** Add a sink; it immediately receives the current map (delayed and
      jittered like any push).  Sinks must answer
      [control (Install_map _)]. *)

  val install : t -> map -> unit
  (** Adopt [map] iff strictly newer and push it to every sink; counts
      owner changes into {!moved}. *)

  val current : t -> map

  val moved : t -> int
  (** Cumulative shards whose owner changed across {!install}s. *)

  val proto : t -> Xkernel.Proto.t
end
