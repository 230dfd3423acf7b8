(** Calibrated CPU cost model.

    The paper's measurements come from Sun 3/75 workstations; this
    repository reproduces the msec scale with a per-operation cost model
    while the protocol *behaviour* (packet counts, layer crossings,
    timeouts) comes from actually running the protocol code.  Each
    simulated host owns a {!t}; protocol code charges costs against it,
    which advances virtual time while holding the host's single CPU.

    Every cost a protocol charges has one name, a {!kind}, and one
    formula: a cost of [n] bytes of a kind is the kind's fixed cost plus
    [n] times its per-byte cost (plus the profile's per-buffer
    allocation for a {!Header} under {!Per_header_alloc}).  A kind that
    does not grow with bytes is charged with [n = 0].  A {!profile} is
    one table of those two figures per kind, so a profile is data and
    the formula reads nothing else.

    Calibration (see DESIGN.md §5) is anchored to the paper's published
    component costs — 0.11 msec minimum round-trip cost per layer, 0.06
    msec for a virtual protocol's per-message test, 0.37 msec for IP,
    CHANNEL's synchronisation cost — rather than to the table rows
    themselves, so the tables are genuine predictions of composition. *)

(** The buffer-management ablation of section 5 ("Potential Pitfalls of
    Layering"): allocating a buffer per pushed header cost 0.50 msec per
    layer; the pre-allocated header buffer costs 0.11. *)
type buffer_scheme = Prealloc | Per_header_alloc

type kind =
  | Layer_crossing  (** one push or demux across a layer boundary *)
  | Virtual_op  (** a virtual protocol's per-message test *)
  | Header  (** encode or decode a header of [n] bytes *)
  | Checksum  (** per byte checksummed; no fixed part *)
  | Route_lookup  (** IP routing decision *)
  | Reasm_lookup  (** reassembly-table lookup *)
  | Frag_bookkeep  (** fragment mask/cache bookkeeping *)
  | Process_switch
  | Semaphore_op
  | Timer_op  (** registering or cancelling an event *)
  | Interrupt
      (** receive a frame off the device: interrupt dispatch, and a
          DMA/copy cost per byte *)
  | Device
      (** hand a frame to the device: the driver's transmit cost, and
          the same DMA/copy cost per byte *)
  | Syscall  (** user/kernel boundary crossing *)
  | Os_per_message
      (** per-message kernel overhead outside the protocols; zero in the
          x-kernel, large in the SunOS-socket profile *)

type profile
(** A fixed and a per-byte cost for every {!kind}, a per-buffer
    allocation cost and a {!buffer_scheme}. *)

val xkernel_sun3 : profile
(** The x-kernel on a Sun 3/75 — the profile behind every x-kernel
    number in the paper. *)

val sprite_kernel : profile
(** Heavier "native Sprite kernel" profile used for the N.RPC baseline
    row of Table I. *)

val sunos_socket : profile
(** SunOS 4.0 socket-layer profile used for the intro's UDP comparison. *)

val switch_fabric : profile
(** A switching fabric's per-port forwarding engine: fixed costs small
    enough that a 10 Mb/s wire's serialization time, not the forwarding
    CPU, bounds throughput (~25 us per minimum frame versus ~99 us of
    wire time).  The default profile for the switch ports of
    [World.create_switched]; end hosts keep {!xkernel_sun3}. *)

val with_buffer_scheme : buffer_scheme -> profile -> profile

val zero_cost : profile
(** All costs free: virtual time never advances.  Used by the
    wall-clock microbenchmarks, which measure the real OCaml cost of
    the infrastructure (e.g. that a layer crossing is one call). *)

val cost : profile -> kind -> int -> float
(** [cost p kind n] is the CPU seconds [n] bytes of [kind] cost under
    [p]: the model's one formula. *)

type op = Busy of float  (** explicit CPU seconds (application work) *)

type t
(** One host's CPU: a FIFO server on the virtual clock plus
    accumulated busy and wait times. *)

val create : Sim.t -> profile -> t
val sim : t -> Sim.t

val charge : t -> kind -> int -> unit
(** [charge m kind n] occupies the CPU for [cost] of [n] bytes of
    [kind] (blocking the calling fiber) and adds it to the busy-time
    counter.  The CPU is a FIFO server ({!Sim.Server}): a charge that
    finds it busy finishes its cost after the charges ahead of it, a
    finish time known on arrival.  Free when the cost is zero. *)

val charge_all : t -> (kind * int) list -> unit
(** [charge_all m costs] is one {!charge} for the sum of [costs], each
    cost formed whole and added left to right from 0. *)

val charge_one : t -> op -> unit
(** [charge_one m (Busy s)] is one charge of [s] seconds.
    @raise Invalid_argument if [s] is negative or NaN, before it
    blocks. *)

val cpu_seconds : t -> float
(** Total CPU time charged so far — the paper's "uses less CPU time"
    comparisons (sections 4.1, 4.2). *)

val reset_cpu_seconds : t -> unit
(** Zeroes both {!cpu_seconds} and {!cpu_wait_seconds}. *)

val cpu_wait_seconds : t -> float
(** Total time fibers spent queued for the CPU before their charges ran
    — the run-queue sojourn the overload experiments account against
    propagated deadlines.  A charge's wait counts from its arrival,
    when it is known. *)

val queue_depth : t -> int
(** Fibers currently on this CPU: the holder (if any) plus everyone
    queued behind it.  The load subsystem samples this as its
    server-side run-queue-depth gauge. *)
