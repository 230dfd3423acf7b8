(** Shared 10 Mb/s ethernet medium.

    Models the isolated ethernet of the paper's testbed: half-duplex
    serialization at a configurable bandwidth, small propagation delay,
    broadcast delivery to every attached device, and a fault injector
    for the lossy experiments and tests: probabilistic drop and
    duplication, plus deterministic hooks that may also delay or
    corrupt a frame.

    All randomness comes from a seeded [Random.State], so every
    experiment is deterministic. *)

type t

type attachment
(** One device's connection to the wire. *)

val create :
  Sim.t ->
  ?seed:int ->
  ?label:string ->
  unit ->
  t
(** A 10 Mb/s medium with 5 microseconds of propagation delay.  The
    fault seed defaults to 42.

    With [~label], the wire also registers a [Stats] table named
    ["wire/<label>"] mirroring the {!stats} counters ([frames],
    [bytes], [delivered], [dropped], [duplicated], [corrupted],
    [delayed], [partitioned]) — distinct registry keys for multi-wire
    worlds, where every wire would otherwise be invisible in a
    registry dump.  Unlabelled wires register nothing, keeping
    single-wire worlds' registry output unchanged. *)

val sim : t -> Sim.t

val bandwidth_bps : t -> float
(** Serialization rate, 10 Mb/s.  Together with {!stats}'s [bytes]
    this turns on-wire byte times into a utilization figure. *)

val attach : ?accepts:(Msg.t -> bool) -> t -> recv:(Msg.t -> unit) -> attachment
(** [attach w ~recv] connects a device; [recv] is invoked (in a fresh
    fiber, after propagation) for every frame any *other* device
    transmits that [accepts] (default: every frame) lets through.
    [accepts] is the device's address filter, as in real ethernet
    hardware; the wire asks it once per copy as the frame is sent (a
    corrupted copy by its own bytes, a duplicate by the clean frame),
    so a filtered copy costs no event.  Filtered copies still count in
    {!stats}'s [delivered]. *)

val transmit : t -> from:attachment -> Msg.t -> unit
(** [transmit w ~from frame] serializes [frame] onto the medium
    (blocking the calling fiber for the serialization time; concurrent
    transmitters queue) and delivers it to all other attachments.
    Must run in a fiber. *)

val on_wire_bytes : int -> int
(** [on_wire_bytes len] is the number of byte times a [len]-byte frame
    occupies, including CRC, minimum-frame padding, preamble and
    inter-frame gap. *)

(** Fault injection. *)

type fault =
  | Drop
  | Duplicate
  | Delay of float  (** extra delivery delay: reordering *)
  | Corrupt of int  (** flip the byte at this offset *)

val set_drop_rate : t -> float -> unit
val set_dup_rate : t -> float -> unit
(** Per-frame drop and duplication probabilities, both 0 by default.
    Raise [Invalid_argument] outside [0, 1]. *)

val set_fault_hook : t -> (int -> Msg.t -> fault list) option -> unit
(** Deterministic override: given the frame's sequence number (counting
    from 0) and contents, return the faults to apply.  When set, the
    probabilistic rates are ignored. *)

val draw_faults : t -> fault list
(** Sample the probabilistic rates once, advancing the wire's RNG.  A
    custom fault hook that wants to {e add} to the background fault
    model (rather than replace it) calls this and appends. *)

(** {2 Partitions}

    Directional per-(source, destination) attachment blocking, the
    mechanism under {!Chaos} partitions and link flaps.  A suppressed
    delivery counts as [partitioned] in {!stats} — topology, not
    noise — and is invisible to the transmitter, exactly like a frame
    lost beyond a dead bridge. *)

val block_pair : t -> from:attachment -> to_:attachment -> unit
val unblock_pair : t -> from:attachment -> to_:attachment -> unit
val pair_blocked : t -> from:attachment -> to_:attachment -> bool

val set_down : t -> bool -> unit
(** Cut (or restore) the whole wire: an unplugged access link.  While
    down, every delivery is suppressed and counted [partitioned];
    transmitters still serialize and count [frames] — a sender cannot
    see that the far end is gone.  The mechanism under {!Chaos}'s
    named-wire cuts on multi-wire topologies. *)

val is_down : t -> bool

type stats = {
  frames : int;  (** transmissions attempted *)
  delivered : int;  (** per-receiver deliveries *)
  dropped : int;
  duplicated : int;
  corrupted : int;
  delayed : int;
  partitioned : int;  (** deliveries suppressed by {!block_pair} *)
  bytes : int;  (** on-wire byte times consumed *)
}

val stats : t -> stats
val reset_stats : t -> unit
